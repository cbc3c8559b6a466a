"""Run orchestration: JSON config parsing, file output, and the CLI.

Subcommands: ``run`` (simulate + audit), ``mms`` (manufactured-solution
convergence study), ``sweep`` (variants of a base config).  Configs come
from a file path or stdin; each ``--set a.b=v`` merges in ``{a: {b: v}}``.

Output contract of ``run``:
  audit.csv     one row per diagnostic tick, fixed column order (header row)
  snap_<t>.csv  field snapshots (x_center, v, theta | x_node, u)
  summary.json  the verdicts of ``summarize``, its max_outer_deviation held
                against ``truncation_threshold`` as the truncation verdict
  failure.json  written instead of summary on integration failure

``mms`` writes mms_report.json, or failure.json if a forced run fails; both
commands first delete the verdicts an earlier run left in out_dir.

Exit codes: 0 clean, 1 config error or unwritable output, 2 truncation-audit
breach, 3 integration failure, 4 convergence threshold missed (mms).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from .core import (
    ConfigurationError,
    DomainError,
    FluidState,
    GasParams,
    IntegrationError,
    MassGrid,
    SetupKind,
    StiffnessError,
    make_grid,
    validate_state,
)
from .diagnostics import (
    DEFAULT_EXCESS_THRESHOLDS,
    AuditRecord,
    audit_header,
    audit_row,
    check_excess_thresholds,
    summarize,
)
from .integrate import StepControl, advance
from .verification import (
    InitialDataSpec,
    build_initial_data,
    check_refinement,
    convergence_study,
    default_pulse_solution,
    sample_state,
    steady_solution,
)

__all__ = ["RunConfig", "MmsSettings", "parse_config", "run", "mms", "sweep", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRUNCATION = 2
EXIT_INTEGRATION = 3
EXIT_MMS_FAIL = 4

OUT_ROOT_ENV = "LAGAS_OUT_ROOT"
#: a run's audit records after the initial one, t_end / cadence, are at most this many
MAX_RECORDS = 10**6


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
        if not (math.isfinite(self.threshold) and self.threshold > 0.0):
            raise ConfigurationError(f"threshold must be finite and > 0, got {self.threshold}")


def _default_out_dir() -> Path:
    return Path(os.environ.get(OUT_ROOT_ENV, "runs")) / "run"


@dataclass(frozen=True)
class RunConfig:
    """One run, checked on construction; errors name the config key of the field
    (``n`` for ``n_cells``).  ``excess_thresholds`` is kept sorted, in audit column order."""

    setup: SetupKind
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
            ("cadence", self.t_end <= MAX_RECORDS * self.cadence,
             f"must be >= t_end / {MAX_RECORDS:,}, the most records after the first, "
             f"got {self.cadence}"),
            ("truncation_threshold", 0.0 < self.truncation_threshold < math.inf,
             "must be finite and positive"),
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

    def take(self, key: str) -> Any:
        """Take ``key`` as raw JSON; None when it is absent."""
        return self._data.pop(key, None)

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


def _parse_setup(name: str) -> SetupKind:
    try:
        return SetupKind(name)
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


def config_from_dict(raw: Any, command: str = "run") -> RunConfig:
    """Read, type and locate the keys of a decoded config; :class:`RunConfig`
    supplies the defaults of absent keys and checks the values.  For ``command``
    "mms" the keys only ``run`` reads may be absent and go unchecked, defaults
    standing in for them and the study's finest grid and end time for ``n`` and
    ``t_end``."""
    root = _Section(raw)
    if "theta_bc" in root:
        raise ConfigurationError(
            "config key 'theta_bc': the isothermal wall temperature is fixed "
            "at 1 and cannot be configured"
        )
    setup = _parse_setup(root.take_typed("setup", "str"))
    half_length = root.take_typed("L", "float")
    if command == "mms":
        for key in ("n", "t_end", "cadence", "initial_data", "excess_thresholds",
                    "truncation_threshold", "snapshot_every"):
            root.take(key)
    else:
        n_cells, t_end = root.take_typed("n", "int"), root.take_typed("t_end", "float")
    center = 0.0 if setup is SetupKind.CAUCHY else 0.5 * half_length
    values = {
        "gas": _section_dataclass(root, "gas", RunConfig.gas),
        "control": _section_dataclass(root, "step", RunConfig.control),
        "initial": _section_dataclass(root, "initial_data", InitialDataSpec(center=center)),
        "mms": _section_dataclass(root, "mms", RunConfig.mms),
    }
    if command == "mms":
        n_cells, t_end = values["mms"].n_list[-1], values["mms"].t_end
    values["cadence"] = t_end / 100.0 if t_end > 0.0 else 1.0
    kinds = {f.name: f.type for f in fields(RunConfig)}
    for key in ("cadence", "out_dir", "excess_thresholds", "truncation_threshold",
                "snapshot_every"):
        if key in root:
            values[key] = root.take_typed(key, kinds[key])
    root.finish()
    return RunConfig(
        setup=setup, half_length=half_length, n_cells=n_cells, t_end=t_end, **values
    )


def _write_snapshot(path: Path, state: FluidState, xs: tuple[list[str], list[str]]) -> None:
    """One row per node, the cell columns first (empty on the last row), as
    shortest round-trip decimals; ``xs`` holds the x_center and x_node columns,
    formatted once per run."""
    cells = [f"{x},{v!r},{th!r}" for x, v, th in zip(
        xs[0], state.v.tolist(), state.theta.tolist())] + [",,"]
    rows = [f"{cell},{x},{u!r}" for cell, x, u in zip(cells, xs[1], state.u.tolist())]
    path.write_text("\n".join(["x_center,v,theta,x_node,u", *rows]) + "\n", encoding="utf-8")


def _snapshot_path(out: Path, t: float, taken: set[str]) -> Path:
    """``snap_<t:g>.csv``; where %g (six digits) repeats a name this run used, the
    round-trip ``repr`` of t, and if even that is taken, one suffixed by a count."""
    for name in (f"snap_{t:g}", f"snap_{t!r}", f"snap_{t!r}_{len(taken)}"):
        if name not in taken:
            break
    taken.add(name)
    return out / f"{name}.csv"


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def _write_failure(out: Path, exc: IntegrationError | StiffnessError) -> None:
    """failure.json: when, why and, for a positivity failure, where a run failed."""
    _write_json(out / "failure.json", {
        "time": exc.time,
        "cause": str(exc),
        "kind": type(exc).__name__,
        **{key: getattr(exc, key, None) for key in ("stage", "cell", "field_name")},
    })


def _initial_state(config: RunConfig) -> tuple[MassGrid, FluidState]:
    """The grid and the initial data of a run, checked against its positivity floor."""
    with _config_key("L"):
        grid = make_grid(config.setup, config.half_length, config.n_cells)
    with _config_key("step.positivity_floor"):
        return grid, build_initial_data(config.initial, config.setup, grid,
                                        config.control.positivity_floor)


def run(config: RunConfig) -> int:
    """Simulate one configuration, writing audit.csv, snapshots, and summary.json."""
    grid, state = _initial_state(config)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    # an earlier run's verdict and snapshots, if any: what stays is this run's
    for stale in [out / "summary.json", out / "failure.json", *out.glob("snap_*.csv")]:
        stale.unlink(missing_ok=True)

    snap_times: list[float] = []
    snap_names: set[str] = set()
    xs = ([repr(x) for x in grid.cell_centers().tolist()], [repr(x) for x in grid.nodes().tolist()])

    with (out / "audit.csv").open("w", encoding="utf-8", newline="\n") as audit_file:
        audit_file.write(audit_header(config.excess_thresholds) + "\n")

        def on_record(record: AuditRecord, snapshot: FluidState) -> None:
            audit_file.write(audit_row(record) + "\n")
            audit_file.flush()
            due = not snap_times or (
                config.snapshot_every is not None
                and snapshot.t - snap_times[-1] >= config.snapshot_every * (1.0 - 1e-9)
            )
            if due or snapshot.t >= config.t_end:
                _write_snapshot(_snapshot_path(out, snapshot.t, snap_names), snapshot, xs)
                snap_times.append(snapshot.t)

        try:
            _, records = advance(
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
            _write_failure(out, exc)
            return EXIT_INTEGRATION

    summary = summarize(records)
    outer = summary.pop("max_outer_deviation")
    truncation_ok = outer <= config.truncation_threshold
    _write_json(out / "summary.json", {
        "setup": config.setup.value,
        "n_cells": config.n_cells,
        "half_length": config.half_length,
        "t_end": config.t_end,
        **summary,
        "truncation": {
            "threshold": config.truncation_threshold,
            "max_outer_deviation": outer,
            "ok": truncation_ok,
        },
        "snapshots": snap_times,
    })
    return EXIT_OK if truncation_ok else EXIT_TRUNCATION


def mms(config: RunConfig) -> int:
    """Convergence study against a manufactured solution; writes mms_report.json,
    or failure.json when a forced run fails."""
    settings = config.mms
    if settings.family == "steady":
        solution = steady_solution()
    else:
        solution = default_pulse_solution(config.setup, config.half_length)
    floor = config.control.positivity_floor
    for n in settings.n_list:  # a bad L or floor fails here, before out_dir exists
        with _config_key("L"):
            grid = make_grid(config.setup, config.half_length, n)
        report = validate_state(sample_state(solution, grid, 0.0), floor)
        if not report.ok:
            raise ConfigurationError(
                f"config key 'step.positivity_floor': manufactured initial state at "
                f"n = {n} invalid: {report.message()}"
            )
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    for stale in (out / "mms_report.json", out / "failure.json"):
        stale.unlink(missing_ok=True)
    try:
        result = convergence_study(solution, config.setup, config.gas, settings.n_list,
                                   settings.t_end, config.half_length, ctrl=config.control)
    except (IntegrationError, StiffnessError) as exc:
        _write_failure(out, exc)
        return EXIT_INTEGRATION
    if result.orders is None:
        passed = True  # all errors at round-off; nothing to fit
    else:
        passed = all(order >= settings.threshold for order in result.orders.values())
    _write_json(out / "mms_report.json", {
        "setup": config.setup.value,
        "family": settings.family,
        "n_list": list(result.n_list),
        "dm": list(result.dm),
        "errors": {name: list(vals) for name, vals in result.errors.items()},
        "orders": result.orders,
        "threshold": settings.threshold,
        "pass": passed,
    })
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

    Every variant is parsed, and its grid and initial data built, before the
    first one runs."""
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
    base = dict(raw)
    section = _Section(base.pop("sweep", None), "sweep")
    variants = section.take("variants")
    if not (isinstance(variants, list) and variants):
        raise ConfigurationError("config key 'sweep.variants': must be a non-empty list")
    section.finish()
    # the sweep's root: checked here, as no variant parse sees it when all override it
    base_out = _Section(base).take_typed("out_dir", "Path") if "out_dir" in base else None

    merged = []
    for i, variant in enumerate(variants):
        raw_i = _deep_merge(base, _json_object(variant, f"sweep.variants[{i}]"))
        with _config_key(f"sweep.variants[{i}]"):
            config = config_from_dict(raw_i)
            _initial_state(config)
        merged.append((raw_i, config))
    root_out = merged[0][1].out_dir if base_out is None else base_out
    configs = [
        replace(config, out_dir=Path(raw_i.get("out_dir", root_out)) / f"variant_{i}")
        for i, (raw_i, config) in enumerate(merged)
    ]

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only --jobs pays its import

        with ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
            codes = list(pool.map(run, configs))
    else:
        codes = [run(config) for config in configs]

    root_out.mkdir(parents=True, exist_ok=True)
    _write_json(root_out / "sweep_summary.json", {
        "variants": len(configs),
        "out_dirs": [str(config.out_dir) for config in configs],
        "exit_codes": codes,
    })
    return EXIT_OK if all(code == EXIT_OK for code in codes) else max(codes)


def _apply_overrides(raw: dict, assignments: list[str], out_dir: str | None) -> dict:
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigurationError(f"--set needs KEY=VALUE, got {assignment!r}")
        dotted, text = assignment.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        for part in reversed(dotted.split(".")):
            value = {part: value}
        raw = _deep_merge(raw, value)
    return raw if out_dir is None else dict(raw, out_dir=out_dir)


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
            return mms(config_from_dict(raw, "mms"))
        return sweep(raw, jobs=args.jobs)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
