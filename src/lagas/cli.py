"""Run orchestration: JSON config parsing, file output, and the CLI.

Subcommands: ``run`` (simulate + audit), ``mms`` (manufactured-solution
convergence study), ``sweep`` (variants of a base config).  Configs come
from a file path or stdin; ``--set key=value`` overrides nested keys.

Output contract of ``run``:
  audit.csv     one row per diagnostic tick, fixed column order (header row)
  snap_<t>.csv  field snapshots (x_center, v, theta | x_node, u)
  summary.json  bounds brackets, decay/truncation verdicts, energy residual
  failure.json  written instead of summary on integration failure

Exit codes: 0 clean, 1 config error, 2 truncation-audit breach,
3 integration failure, 4 convergence threshold missed (mms).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from .core import (
    ConfigurationError,
    DomainError,
    FluidState,
    GasParams,
    IntegrationError,
    MassGrid,
    ProblemSetup,
    SetupKind,
    StiffnessError,
    make_grid,
)
from .diagnostics import (
    DEFAULT_EXCESS_THRESHOLDS,
    AuditRecord,
    audit_header,
    audit_row,
    check_excess_thresholds,
)
from .integrate import StepControl, advance
from .verification import (
    InitialDataSpec,
    build_initial_data,
    check_refinement,
    convergence_study,
    default_pulse_solution,
    steady_solution,
)

__all__ = ["RunConfig", "MmsSettings", "parse_config", "run", "mms", "sweep", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRUNCATION = 2
EXIT_INTEGRATION = 3
EXIT_MMS_FAIL = 4

OUT_ROOT_ENV = "LAGAS_OUT_ROOT"


@contextmanager
def _config_key(key: str):
    """Report a library check that fails inside as a ConfigurationError naming ``key``."""
    try:
        yield
    except (ConfigurationError, DomainError) as exc:
        raise ConfigurationError(f"config key '{key}': {exc}") from None


@dataclass(frozen=True)
class MmsSettings:
    n_list: tuple[int, ...] = (64, 128, 256, 512)
    t_end: float = 0.3
    threshold: float = 1.9
    family: str = "gaussian_pulse"

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_list", check_refinement(self.n_list, self.t_end))
        if self.family not in ("gaussian_pulse", "steady"):
            raise ConfigurationError(
                f"mms family must be 'gaussian_pulse' or 'steady', got {self.family!r}"
            )


def _default_out_dir() -> Path:
    return Path(os.environ.get(OUT_ROOT_ENV, "runs")) / "run"


@dataclass(frozen=True)
class RunConfig:
    """One run, checked on construction; errors name the config key of the field
    (``n`` for ``n_cells``).  ``excess_thresholds`` is kept sorted, in audit column order."""

    setup: ProblemSetup
    half_length: float
    n_cells: int
    t_end: float
    cadence: float
    initial: InitialDataSpec
    gas: GasParams = GasParams(mu=1.0, kappa=1.0, R=1.0, c_v=1.5)
    control: StepControl = StepControl()
    out_dir: Path = field(default_factory=_default_out_dir)
    excess_thresholds: tuple[float, ...] = DEFAULT_EXCESS_THRESHOLDS
    truncation_threshold: float = 1e-3
    snapshot_every: float | None = None
    mms: MmsSettings = MmsSettings()

    def __post_init__(self) -> None:
        for key, ok, rule in (
            ("n", self.n_cells >= 4, f"must be an integer >= 4, got {self.n_cells}"),
            ("t_end", math.isfinite(self.t_end) and self.t_end >= 0.0,
             f"must be >= 0, got {self.t_end}"),
            ("cadence", self.cadence > 0.0, f"must be positive, got {self.cadence}"),
            ("truncation_threshold", self.truncation_threshold > 0.0, "must be positive"),
            ("snapshot_every", self.snapshot_every is None or self.snapshot_every > 0.0,
             "must be positive"),
        ):
            if not ok:
                raise ConfigurationError(f"config key '{key}': {rule}")
        with _config_key("excess_thresholds"):
            thresholds = check_excess_thresholds(self.excess_thresholds)
        object.__setattr__(self, "excess_thresholds", thresholds)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


#: dataclass field annotation -> (JSON check, conversion, description)
_FIELD_TYPES = {
    "float": (_is_number, float, "a number"),
    "float | None": (lambda x: x is None or _is_number(x),
                     lambda x: None if x is None else float(x), "a number or null"),
    "int": (_is_int, int, "an integer"),
    "str": (lambda x: isinstance(x, str), str, "a string"),
    "Path": (lambda x: isinstance(x, str), Path, "a string"),
    "tuple[int, ...]": (
        lambda x: isinstance(x, list) and all(map(_is_int, x)), tuple, "a list of integers"
    ),
    "tuple[float, ...]": (
        lambda x: isinstance(x, list) and all(map(_is_number, x)),
        lambda x: tuple(map(float, x)), "a list of numbers",
    ),
}


def _json_object(data: Any, path: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigurationError(f"config section '{path or '<root>'}' must be a JSON object")
    return data


class _Section:
    """One level of the config tree; rejects unknown keys with their path."""

    def __init__(self, data: Any, path: str = "") -> None:
        self._data = dict(_json_object(data, path))
        self._path = path

    def _join(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def take_typed(self, key: str, kind: str) -> Any:
        """Take ``key`` as JSON for a dataclass field annotated ``kind``."""
        if key not in self._data:
            raise ConfigurationError(f"missing required config key '{self._join(key)}'")
        value = self._data.pop(key)
        accepts, convert, label = _FIELD_TYPES[kind]
        if not accepts(value):
            raise ConfigurationError(
                f"config key '{self._join(key)}' must be {label}, got {value!r}"
            )
        return convert(value)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def subsection(self, key: str) -> "_Section | None":
        if key not in self._data:
            return None
        return _Section(self._data.pop(key), self._join(key))

    def finish(self) -> None:
        if self._data:
            key = sorted(self._data)[0]
            raise ConfigurationError(f"unknown config key '{self._join(key)}'")


def _parse_setup(name: str) -> ProblemSetup:
    try:
        return ProblemSetup(SetupKind(name))
    except ValueError:
        options = ", ".join(kind.value for kind in SetupKind)
        raise ConfigurationError(
            f"config key 'setup' must be one of {options}; got {name!r}"
        ) from None


def _section_dataclass(root: _Section, key: str, default):
    """``default`` with the fields that config section ``key`` sets, typed by annotation."""
    section = root.subsection(key)
    if section is None:
        return default
    with _config_key(key):
        values = {f.name: section.take_typed(f.name, f.type)
                  for f in fields(default) if f.name in section}
        section.finish()
        return replace(default, **values)


def _decode(text: str) -> dict:
    """The root object of a JSON config."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON config: {exc}") from exc
    return _json_object(raw, "")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration."""
    return config_from_dict(_decode(text))


def config_from_dict(raw: Any) -> RunConfig:
    """Read, type and locate the keys of a decoded config; :class:`RunConfig`
    supplies the defaults of absent keys and checks the values."""
    root = _Section(raw)
    if "theta_bc" in root:
        raise ConfigurationError(
            "config key 'theta_bc': the isothermal wall temperature is fixed "
            "at 1 and cannot be configured"
        )
    setup = _parse_setup(root.take_typed("setup", "str"))
    half_length = root.take_typed("L", "float")
    n_cells = root.take_typed("n", "int")
    t_end = root.take_typed("t_end", "float")
    center = 0.0 if setup.kind is SetupKind.CAUCHY else 0.5 * half_length
    values = {
        "cadence": t_end / 100.0 if t_end > 0.0 else 1.0,
        "gas": _section_dataclass(root, "gas", RunConfig.gas),
        "control": _section_dataclass(root, "step", RunConfig.control),
        "initial": _section_dataclass(root, "initial_data", InitialDataSpec(center=center)),
        "mms": _section_dataclass(root, "mms", RunConfig.mms),
    }
    kinds = {f.name: f.type for f in fields(RunConfig)}
    for key in ("cadence", "out_dir", "excess_thresholds", "truncation_threshold",
                "snapshot_every"):
        if key in root:
            values[key] = root.take_typed(key, kinds[key])
    root.finish()
    return RunConfig(
        setup=setup, half_length=half_length, n_cells=n_cells, t_end=t_end, **values
    )


def _write_snapshot(path: Path, state: FluidState, grid: MassGrid) -> None:
    centers = grid.cell_centers()
    nodes = grid.nodes()
    n = grid.n_cells
    lines = ["x_center,v,theta,x_node,u"]
    for i in range(n + 1):
        if i < n:
            cell_part = f"{centers[i]!r},{state.v[i]!r},{state.theta[i]!r}"
        else:
            cell_part = ",,"
        lines.append(f"{cell_part},{nodes[i]!r},{state.u[i]!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _snapshot_path(out: Path, t: float, taken: set[str]) -> Path:
    """``snap_<t:g>.csv``; where %g (six digits) repeats a name this run used, the
    round-trip ``repr`` of t, and if even that is taken, one suffixed by a count."""
    for name in (f"snap_{t:g}", f"snap_{t!r}", f"snap_{t!r}_{len(taken)}"):
        if name not in taken:
            break
    taken.add(name)
    return out / f"{name}.csv"


class _TruncationAudit:
    """Running max deviation from (1, 0, 1) in the outermost 5% of cells."""

    def __init__(self, grid: MassGrid, setup: ProblemSetup) -> None:
        self.n_outer = max(1, math.ceil(0.05 * grid.n_cells))
        self.both_sides = setup.kind is SetupKind.CAUCHY
        self.max_deviation = 0.0

    def update(self, state: FluidState) -> None:
        k = self.n_outer
        ends = [(slice(-k, None), slice(-(k + 1), None))]  # (cells, nodes)
        if self.both_sides:
            ends.append((slice(None, k), slice(None, k + 1)))
        for cells, nodes in ends:
            self.max_deviation = max(
                self.max_deviation,
                float(np.abs(state.v[cells] - 1.0).max()),
                float(np.abs(state.theta[cells] - 1.0).max()),
                float(np.abs(state.u[nodes]).max()),
            )


def _tail_monotone(values: list[float], fraction: float = 0.2, jitter: float = 0.01) -> bool:
    tail = values[max(0, math.floor(len(values) * (1.0 - fraction))):]
    return all(
        later <= earlier * (1.0 + jitter) + 1e-14
        for earlier, later in zip(tail, tail[1:])
    )


def run(config: RunConfig) -> int:
    """Simulate one configuration, writing audit.csv, snapshots, and summary.json."""
    grid = make_grid(config.setup, config.half_length, config.n_cells)
    state = build_initial_data(config.initial, config.setup, grid)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    for verdict in ("summary.json", "failure.json"):  # an earlier run's, if any
        (out / verdict).unlink(missing_ok=True)

    truncation = _TruncationAudit(grid, config.setup)
    snap_times: list[float] = []
    snap_names: set[str] = set()
    last_snap = [None]

    audit_path = out / "audit.csv"
    records: list[AuditRecord] = []
    with audit_path.open("w", encoding="utf-8", newline="\n") as audit_file:
        audit_file.write(audit_header(config.excess_thresholds) + "\n")

        def on_record(record: AuditRecord, snapshot: FluidState) -> None:
            audit_file.write(audit_row(record) + "\n")
            audit_file.flush()
            records.append(record)
            truncation.update(snapshot)
            due = last_snap[0] is None or (
                config.snapshot_every is not None
                and snapshot.t - last_snap[0] >= config.snapshot_every * (1.0 - 1e-9)
            )
            if due or snapshot.t >= config.t_end:
                _write_snapshot(_snapshot_path(out, snapshot.t, snap_names), snapshot, grid)
                snap_times.append(snapshot.t)
                last_snap[0] = snapshot.t

        try:
            final, _ = advance(
                state,
                config.t_end,
                every=config.cadence,
                grid=grid,
                params=config.gas,
                setup=config.setup,
                ctrl=config.control,
                excess_thresholds=config.excess_thresholds,
                on_record=on_record,
            )
        except (IntegrationError, StiffnessError) as exc:
            failure = {
                "time": getattr(exc, "time", records[-1].t if records else 0.0),
                "cause": str(exc),
                "kind": type(exc).__name__,
                **{key: getattr(exc, key, None) for key in ("stage", "cell", "field_name")},
            }
            (out / "failure.json").write_text(
                json.dumps(failure, indent=2) + "\n", encoding="utf-8"
            )
            return EXIT_INTEGRATION

    e0 = records[0].E
    linf = [r.lpinf_dev for r in records]
    linf_max = max(linf)
    defects = [r.E + r.cum_D - e0 for r in records]
    entropy_tol = e0 * 1e-3 + 1e-6
    truncation_ok = truncation.max_deviation <= config.truncation_threshold

    def ratio(final_value: float, peak: float) -> float:
        return final_value / peak if peak > 0.0 else 0.0

    summary = {
        "setup": config.setup.kind.value,
        "n_cells": config.n_cells,
        "half_length": config.half_length,
        "t_end": config.t_end,
        "records": len(records),
        "bounds": {
            "v": [min(r.v_min for r in records), max(r.v_max for r in records)],
            "theta": [min(r.theta_min for r in records), max(r.theta_max for r in records)],
        },
        "decay": {
            "linf_initial": linf[0],
            "linf_max": linf_max,
            "linf_final": linf[-1],
            "final_over_max": ratio(linf[-1], linf_max),
            "tail_monotone": _tail_monotone(linf),
        },
        "h1_final_over_max": {
            "vx": ratio(records[-1].vx_l2, max(r.vx_l2 for r in records)),
            "ux": ratio(records[-1].ux_l2, max(r.ux_l2 for r in records)),
            "thetax": ratio(records[-1].thetax_l2, max(r.thetax_l2 for r in records)),
        },
        "entropy_audit": {
            "initial": e0,
            "max_defect": max(defects),
            "tolerance": entropy_tol,
            "ok": max(defects) <= entropy_tol,
        },
        "energy_balance_residual": records[-1].energy_balance_residual,
        "int_u4_max": max(r.int_u4 for r in records),
        "truncation": {
            "threshold": config.truncation_threshold,
            "max_outer_deviation": truncation.max_deviation,
            "ok": truncation_ok,
        },
        "snapshots": snap_times,
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    return EXIT_OK if truncation_ok else EXIT_TRUNCATION


def mms(config: RunConfig) -> int:
    """Convergence study against a manufactured solution; writes mms_report.json."""
    settings = config.mms
    if settings.family == "steady":
        solution = steady_solution()
    else:
        solution = default_pulse_solution(config.setup, config.half_length)
    result = convergence_study(
        solution,
        config.setup,
        config.gas,
        settings.n_list,
        settings.t_end,
        config.half_length,
        ctrl=config.control,
    )
    if result.orders is None:
        passed = True  # all errors at round-off; nothing to fit
    else:
        passed = all(order >= settings.threshold for order in result.orders.values())
    report = {
        "setup": config.setup.kind.value,
        "family": settings.family,
        "n_list": list(result.n_list),
        "dm": list(result.dm),
        "errors": {name: list(vals) for name, vals in result.errors.items()},
        "orders": result.orders,
        "threshold": settings.threshold,
        "pass": passed,
    }
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "mms_report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    return EXIT_OK if passed else EXIT_MMS_FAIL


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def sweep(raw: dict, jobs: int = 1) -> int:
    """Run every variant of a base config, each in its own output directory.

    Every variant is parsed and checked before the first one runs."""
    base = dict(raw)
    variants = _json_object(base.pop("sweep", None), "sweep").get("variants")
    if not (isinstance(variants, list) and variants):
        raise ConfigurationError("config key 'sweep.variants': must be a non-empty list")

    merged = []
    for i, variant in enumerate(variants):
        raw_i = _deep_merge(base, _json_object(variant, f"sweep.variants[{i}]"))
        with _config_key(f"sweep.variants[{i}]"):
            merged.append((raw_i, config_from_dict(raw_i)))
    root_out = Path(base.get("out_dir", merged[0][1].out_dir))
    configs = [
        replace(config, out_dir=Path(raw_i.get("out_dir", root_out)) / f"variant_{i}")
        for i, (raw_i, config) in enumerate(merged)
    ]

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(run, configs))
    else:
        codes = [run(config) for config in configs]

    root_out.mkdir(parents=True, exist_ok=True)
    (root_out / "sweep_summary.json").write_text(
        json.dumps(
            {
                "variants": len(configs),
                "out_dirs": [str(config.out_dir) for config in configs],
                "exit_codes": codes,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return EXIT_OK if all(code == EXIT_OK for code in codes) else max(codes)


def _apply_overrides(raw: dict, assignments: list[str], out_dir: str | None) -> dict:
    data = dict(raw)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigurationError(f"--set needs KEY=VALUE, got {assignment!r}")
        dotted, text = assignment.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = data
        parts = dotted.split(".")
        for part in parts[:-1]:
            child = node.get(part)
            if not isinstance(child, dict):
                child = {}
            node[part] = dict(child)
            node = node[part]
        node[parts[-1]] = value
    if out_dir is not None:
        data["out_dir"] = out_dir
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lagas",
        description=(
            "1D viscous heat-conducting gas in Lagrangian mass coordinates, "
            "with a per-run audit of energy dissipation, field bounds, and decay."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "simulate one configuration and write the audit files"),
        ("mms", "manufactured-solution convergence study"),
        ("sweep", "run each variant of a base configuration"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a JSON config, or '-' for stdin")
        cmd.add_argument("--out", help="output directory (overrides config 'out_dir')")
        cmd.add_argument(
            "--set",
            dest="assignments",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (dotted path; value parsed as JSON when possible)",
        )
        if name == "sweep":
            cmd.add_argument("--jobs", type=int, default=1, help="parallel variant runs")
    args = parser.parse_args(argv)

    try:
        text = sys.stdin.read() if args.config == "-" else Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        raw = _apply_overrides(_decode(text), args.assignments, args.out)
        if args.command == "run":
            return run(config_from_dict(raw))
        if args.command == "mms":
            return mms(config_from_dict(raw))
        return sweep(raw, jobs=args.jobs)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
