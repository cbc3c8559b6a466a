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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .core import (
    ConfigurationError,
    FluidState,
    GasParams,
    IntegrationError,
    MassGrid,
    ProblemSetup,
    SetupKind,
    StiffnessError,
    make_grid,
)
from .diagnostics import DEFAULT_EXCESS_THRESHOLDS, AuditRecord, audit_header, audit_row
from .integrate import StepControl, advance
from .verification import (
    InitialDataSpec,
    build_initial_data,
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

_MISSING = object()


@dataclass(frozen=True)
class MmsSettings:
    n_list: tuple[int, ...] = (64, 128, 256, 512)
    t_end: float = 0.3
    threshold: float = 1.9
    family: str = "gaussian_pulse"

    def __post_init__(self) -> None:
        if len(self.n_list) < 3:
            raise ConfigurationError("'n_list' must be a list of at least 3 integers")
        if self.family not in ("gaussian_pulse", "steady"):
            raise ConfigurationError(
                f"mms family must be 'gaussian_pulse' or 'steady', got {self.family!r}"
            )
        if not self.t_end > 0.0:
            raise ConfigurationError("mms t_end must be positive")


@dataclass(frozen=True)
class RunConfig:
    setup: ProblemSetup
    half_length: float
    n_cells: int
    t_end: float
    cadence: float
    gas: GasParams
    control: StepControl
    initial: InitialDataSpec
    out_dir: Path
    excess_thresholds: tuple[float, ...]
    truncation_threshold: float
    snapshot_every: float | None
    mms: MmsSettings | None


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return _is_int(value) or isinstance(value, float)


#: dataclass field annotation -> (JSON check, conversion, description)
_FIELD_TYPES = {
    "float": (_is_number, float, "a number"),
    "int": (_is_int, int, "an integer"),
    "str": (lambda x: isinstance(x, str), str, "a string"),
    "tuple[int, ...]": (
        lambda x: isinstance(x, list) and all(map(_is_int, x)), tuple, "a list of integers"
    ),
    "tuple[float, ...]": (
        lambda x: isinstance(x, list) and all(map(_is_number, x)),
        lambda x: tuple(map(float, x)), "a list of numbers",
    ),
}


class _Section:
    """One level of the config tree; rejects unknown keys with their path."""

    def __init__(self, data: Any, path: str = "") -> None:
        if not isinstance(data, dict):
            where = path or "<root>"
            raise ConfigurationError(f"config section '{where}' must be a JSON object")
        self._data = dict(data)
        self._path = path

    def _join(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def take(self, key: str, default: Any = _MISSING) -> Any:
        if key in self._data:
            return self._data.pop(key)
        if default is _MISSING:
            raise ConfigurationError(f"missing required config key '{self._join(key)}'")
        return default

    def take_typed(self, key: str, kind: str, default: Any = _MISSING) -> Any:
        """Take ``key`` as JSON for a dataclass field annotated ``kind``."""
        value = self.take(key, default)
        if value is default and default is not _MISSING:
            return value
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


def _section_dataclass(root: _Section, key: str, cls, **defaults: Any):
    """Build ``cls`` from config section ``key``, each key typed by its field; absent
    keys take ``defaults``, else the dataclass's own defaults."""
    section = root.subsection(key)
    try:
        if section is not None:
            for field in fields(cls):
                if field.name in section:
                    defaults[field.name] = section.take_typed(field.name, field.type)
            section.finish()
        return cls(**defaults)
    except ConfigurationError as exc:
        raise ConfigurationError(f"config key '{key}': {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON config: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: Any) -> RunConfig:
    root = _Section(raw)
    if "theta_bc" in root:
        raise ConfigurationError(
            "config key 'theta_bc': the isothermal wall temperature is fixed "
            "at 1 and cannot be configured"
        )

    setup = _parse_setup(root.take_typed("setup", "str"))
    half_length = root.take_typed("L", "float")
    n_cells = root.take_typed("n", "int")
    if n_cells < 4:
        raise ConfigurationError(f"config key 'n': must be an integer >= 4, got {n_cells}")
    t_end = root.take_typed("t_end", "float")
    if not (np.isfinite(t_end) and t_end >= 0.0):
        raise ConfigurationError(f"config key 't_end': must be >= 0, got {t_end}")
    default_cadence = t_end / 100.0 if t_end > 0.0 else 1.0
    cadence = root.take_typed("cadence", "float", default_cadence)
    if not cadence > 0.0:
        raise ConfigurationError(f"config key 'cadence': must be positive, got {cadence}")

    gas = _section_dataclass(root, "gas", GasParams, mu=1.0, kappa=1.0, R=1.0, c_v=1.5)
    control = _section_dataclass(root, "step", StepControl)
    default_center = 0.0 if setup.kind is SetupKind.CAUCHY else 0.5 * half_length
    initial = _section_dataclass(root, "initial_data", InitialDataSpec, center=default_center)

    default_out = str(Path(os.environ.get(OUT_ROOT_ENV, "runs")) / "run")
    out_dir = Path(root.take_typed("out_dir", "str", default_out))

    excess_thresholds = tuple(sorted(root.take_typed(
        "excess_thresholds", "tuple[float, ...]", DEFAULT_EXCESS_THRESHOLDS
    )))
    if not excess_thresholds or any(a <= 1.0 for a in excess_thresholds):
        raise ConfigurationError(
            "config key 'excess_thresholds': must be a non-empty list, every threshold above 1"
        )

    truncation_threshold = root.take_typed("truncation_threshold", "float", 1e-3)
    if not truncation_threshold > 0.0:
        raise ConfigurationError(
            "config key 'truncation_threshold': must be positive"
        )

    snapshot_every = root.take_typed("snapshot_every", "float", None)
    if snapshot_every is not None and not snapshot_every > 0.0:
        raise ConfigurationError("config key 'snapshot_every': must be positive")

    mms_settings = _section_dataclass(root, "mms", MmsSettings) if "mms" in root else None

    root.finish()
    return RunConfig(
        setup=setup,
        half_length=half_length,
        n_cells=n_cells,
        t_end=t_end,
        cadence=cadence,
        gas=gas,
        control=control,
        initial=initial,
        out_dir=out_dir,
        excess_thresholds=excess_thresholds,
        truncation_threshold=truncation_threshold,
        snapshot_every=snapshot_every,
        mms=mms_settings,
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
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    grid = make_grid(config.setup, config.half_length, config.n_cells)
    state = build_initial_data(config.initial, config.setup, grid)

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
    settings = config.mms if config.mms is not None else MmsSettings()
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


def _run_from_dict(raw: dict) -> int:
    return run(config_from_dict(raw))


def sweep(raw: dict, jobs: int = 1) -> int:
    """Run every variant of a base config, each in its own output directory."""
    base = dict(raw)
    sweep_spec = base.pop("sweep", None)
    if not isinstance(sweep_spec, dict) or not isinstance(
        sweep_spec.get("variants"), list
    ):
        raise ConfigurationError(
            "sweep configs need a 'sweep' object with a 'variants' list"
        )
    variants = sweep_spec["variants"]
    if not variants:
        raise ConfigurationError("config key 'sweep.variants': must not be empty")

    base_config = config_from_dict(_deep_merge(base, variants[0]))  # validate early
    root_out = Path(base.get("out_dir", str(base_config.out_dir)))

    merged: list[dict] = []
    for i, variant in enumerate(variants):
        if not isinstance(variant, dict):
            raise ConfigurationError(f"config key 'sweep.variants[{i}]': must be an object")
        raw_i = _deep_merge(base, variant)
        raw_i["out_dir"] = str(Path(raw_i.get("out_dir", str(root_out))) / f"variant_{i}")
        merged.append(raw_i)

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            codes = list(pool.map(_run_from_dict, merged))
    else:
        codes = [_run_from_dict(raw_i) for raw_i in merged]

    root_out.mkdir(parents=True, exist_ok=True)
    (root_out / "sweep_summary.json").write_text(
        json.dumps(
            {
                "variants": len(merged),
                "out_dirs": [m["out_dir"] for m in merged],
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
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"malformed JSON config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(raw, dict):
        print("config must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG

    try:
        raw = _apply_overrides(raw, args.assignments, args.out)
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
