"""Span tracing of lagas from the outside, by wrapping module attributes.

The solver looks its collaborators up as module globals at call time
(``integrate.step`` calls ``rhs``, ``validate_state`` and ``boundary_power``
through ``lagas.integrate``; ``cli.run`` calls ``advance``, ``audit_row`` and
``_write_snapshot`` through ``lagas.cli``), so replacing those attributes
times every call without touching ``src/lagas``.  Spans are kept in memory as
``[name, start, end, parent, attrs]`` lists and written out at the end.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

MARKER = "_perfbench_span"


class Tracer:
    """Collects nested spans of one run; ``run_id`` tags every span written."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, attrs])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def wrap(self, name: str, fn, attrs=None, wrap_result=None):
        """A callable timing ``fn`` as span ``name``.

        ``attrs(args)`` stores per-call data on the span; ``wrap_result``
        post-processes the return value (used to trace returned closures).
        """
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name, attrs(args) if attrs is not None else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            return wrap_result(result) if wrap_result is not None else result

        traced.__wrapped__ = fn
        setattr(traced, MARKER, name)
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({
                "run": self.run_id, "columns": ["id", "name", "start", "end", "parent", "attrs"],
            }) + "\n")
            for span_id, span in enumerate(self.spans):
                out.write(json.dumps([span_id, *span]) + "\n")


def targets(lagas):
    """(owner, attribute, span name) for every call site the tracer wraps."""
    cli, integrate, verification = lagas.cli, lagas.integrate, lagas.verification
    return [
        (integrate, "rhs", "scheme.rhs"),
        (integrate, "boundary_power", "scheme.boundary_power"),
        (integrate, "validate_state", "core.validate_state"),
        (integrate, "stable_dt", "integrate.stable_dt"),
        (integrate, "step", "integrate.step"),
        (integrate, "advance", "integrate.advance"),
        (cli, "advance", "integrate.advance"),
        (verification, "advance", "integrate.advance"),
        (lagas.diagnostics.AuditTrail, "record", "diagnostics.record"),
        (cli, "audit_row", "cli.audit_row"),
        (cli, "_write_snapshot", "cli.snapshot"),
        (cli, "config_from_dict", "cli.config_from_dict"),
        (cli, "build_initial_data", "verification.build_initial_data"),
        (verification, "build_initial_data", "verification.build_initial_data"),
        (verification, "make_source_rates", "verification.make_source_rates"),
    ]


def assert_untraced(lagas) -> None:
    """Raise if any call site still carries a tracing wrapper."""
    for owner, attr, _ in targets(lagas):
        if hasattr(getattr(owner, attr), MARKER):
            raise RuntimeError(f"tracing wrapper left installed on {attr}")


def install(tracer: Tracer, lagas) -> None:
    """Wrap every target; ``tracer.restore()`` puts the originals back."""

    def step_attrs(args):
        # step(state, dt, grid, params, setup, ctrl, ...): the acoustic CFL
        # limit of the same state, as stable_dt computes it, timed on its own
        state, dt, grid, params, _, ctrl = args[:6]
        index = tracer.open("trace.acoustic_dt")
        sound = np.sqrt(params.R * state.theta * params.gamma) / state.v
        acoustic = ctrl.cfl_hyperbolic * grid.dm / float(sound.max())
        tracer.close(index)
        return [dt, acoustic, grid.n_cells]

    def advance_with_on_record(fn):
        traced = tracer.wrap("integrate.advance", fn)

        def call(*args, **kwargs):
            if kwargs.get("on_record") is not None:
                kwargs["on_record"] = tracer.wrap("cli.on_record", kwargs["on_record"])
            return traced(*args, **kwargs)

        setattr(call, MARKER, "integrate.advance")
        return call

    special = {
        "scheme.rhs": dict(attrs=lambda args: args[1].n_cells),
        "integrate.step": dict(attrs=step_attrs),
        "verification.make_source_rates": dict(
            wrap_result=lambda rates: tracer.wrap("verification.sources", rates)
        ),
    }
    for owner, attr, name in targets(lagas):
        original = owner.__dict__[attr]
        if owner is lagas.cli and attr == "advance":
            replacement = advance_with_on_record(original)
        else:
            replacement = tracer.wrap(name, original, **special.get(name, {}))
        tracer.patch(owner, attr, replacement)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced run, from its spans.

    Shares are total time in the layer over the ``workload`` root spans
    (one per chunk of the workload); self time is a span's duration minus
    that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = {}
    self_total: dict[str, float] = {}
    root = 0.0
    in_workload = [False] * len(spans)
    self_sum, self_min = 0.0, math.inf
    for i, (name, start, end, parent, _) in enumerate(spans):
        in_workload[i] = name == "workload" if parent < 0 else in_workload[parent]
        if parent < 0 and name == "workload":
            root += end - start
        own = end - start - child_time[i]
        if in_workload[i]:
            self_sum += own
            self_min = min(self_min, own)
        durations.setdefault(name, []).append(end - start)
        self_total[name] = self_total.get(name, 0.0) + own
    if not root:
        raise RuntimeError("traced run has no workload span")

    def calls(name):
        return len(durations.get(name, ()))

    def us_p(name, q):
        values = durations.get(name)
        return _percentile(values, q) * 1e6 if values else 0.0

    def share(name):
        return sum(durations.get(name, ())) / root

    steps = [attrs for name, *_, attrs in spans if name == "integrate.step"]
    dts = [s[0] for s in steps]
    rhs_cells = sum(attrs for name, *_, attrs in spans if name == "scheme.rhs")
    first = {name: values[0] for name, values in durations.items()}
    return {
        "core.validate_state.calls": calls("core.validate_state"),
        "core.validate_state.us_p50": us_p("core.validate_state", 0.5),
        "core.validate_state.share": share("core.validate_state"),
        "scheme.rhs.calls": calls("scheme.rhs"),
        "scheme.rhs.us_p50": us_p("scheme.rhs", 0.5),
        "scheme.rhs.us_p99": us_p("scheme.rhs", 0.99),
        "scheme.rhs.ns_per_cell": sum(durations["scheme.rhs"]) * 1e9 / rhs_cells,
        "scheme.rhs.share": share("scheme.rhs"),
        "scheme.boundary_power.us_p50": us_p("scheme.boundary_power", 0.5),
        "scheme.boundary_power.share": share("scheme.boundary_power"),
        "integrate.steps": len(steps),
        "integrate.cell_steps": sum(s[2] for s in steps),
        "integrate.step.us_p50": us_p("integrate.step", 0.5),
        "integrate.step.us_p99": us_p("integrate.step", 0.99),
        "integrate.step.self_share": self_total["integrate.step"] / root,
        "integrate.stable_dt.us_p50": us_p("integrate.stable_dt", 0.5),
        "integrate.stable_dt.share": share("integrate.stable_dt"),
        "integrate.dt_min": min(dts),
        "integrate.dt_mean": statistics.fmean(dts),
        "integrate.dt_max": max(dts),
        "integrate.acoustic_headroom": statistics.fmean(s[1] / s[0] for s in steps),
        "integrate.advance.self_share": self_total["integrate.advance"] / root,
        "diagnostics.records": calls("diagnostics.record"),
        "diagnostics.record.us_p50": us_p("diagnostics.record", 0.5),
        "diagnostics.record.share": share("diagnostics.record"),
        "cli.config_from_dict.us": first.get("cli.config_from_dict", 0.0) * 1e6,
        "verification.build_initial_data.us":
            first.get("verification.build_initial_data", 0.0) * 1e6,
        "cli.audit_row.us_p50": us_p("cli.audit_row", 0.5),
        "cli.snapshot.us_p50": us_p("cli.snapshot", 0.5),
        "cli.io_share": share("cli.on_record"),
        "verification.sources.calls": calls("verification.sources"),
        "verification.sources.us_p50": us_p("verification.sources", 0.5),
        "verification.sources.share": share("verification.sources"),
        "trace.acoustic_dt.share": share("trace.acoustic_dt"),
        "trace.root_s": root,
        "trace.self_sum_s": self_sum,
        "trace.self_min_s": self_min,
    }
