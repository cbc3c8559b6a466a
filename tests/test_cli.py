import json
import math

import pytest

from lagas import ConfigurationError, ProblemSetup, SetupKind
import lagas.integrate
from lagas.cli import (
    EXIT_INTEGRATION,
    EXIT_MMS_FAIL,
    EXIT_OK,
    EXIT_TRUNCATION,
    RunConfig,
    _snapshot_path,
    main,
    mms,
    parse_config,
    run,
    sweep,
)
from lagas.verification import InitialDataSpec

MINIMAL = {"setup": "cauchy", "L": 10.0, "n": 256, "t_end": 5.0}


def cfg(tmp_path, **overrides):
    raw = dict(MINIMAL)
    raw["out_dir"] = str(tmp_path / "out")
    raw.update(overrides)
    return parse_config(json.dumps(raw))


def test_parse_minimal_config_fills_defaults(tmp_path):
    config = cfg(tmp_path)
    assert config.setup.kind is SetupKind.CAUCHY
    assert config.half_length == 10.0
    assert config.n_cells == 256
    assert config.t_end == 5.0
    assert config.cadence == pytest.approx(0.05)
    assert config.gas.mu == 1.0 and config.gas.c_v == 1.5
    assert config.control.cfl_parabolic == 0.4
    assert config.excess_thresholds == (1.5, 2.0, 3.0)
    assert config.initial.amplitude_v == 0.0


def test_parse_rejects_unknown_key():
    raw = dict(MINIMAL, initial_data={"family": "gaussian_bump", "wobble": 2})
    with pytest.raises(ConfigurationError, match="initial_data.wobble"):
        parse_config(json.dumps(raw))


def test_parse_rejects_theta_bc():
    raw = dict(MINIMAL, setup="halfline_isothermal", theta_bc=2)
    with pytest.raises(ConfigurationError, match="fixed at 1"):
        parse_config(json.dumps(raw))


def test_parse_rejects_negative_n():
    raw = dict(MINIMAL, n=-4)
    with pytest.raises(ConfigurationError, match="'n'"):
        parse_config(json.dumps(raw))


def test_parse_rejects_unknown_setup():
    raw = dict(MINIMAL, setup="periodic")
    with pytest.raises(ConfigurationError, match="setup"):
        parse_config(json.dumps(raw))


def test_parse_rejects_malformed_json():
    with pytest.raises(ConfigurationError, match="malformed"):
        parse_config("{not json")


def test_parse_wraps_gas_errors_with_path():
    raw = dict(MINIMAL, gas={"mu": -1.0})
    with pytest.raises(ConfigurationError, match="gas"):
        parse_config(json.dumps(raw))


def hand_built(tmp_path, **overrides):
    args = dict(setup=ProblemSetup(SetupKind.CAUCHY), half_length=10.0, n_cells=64,
                t_end=1.0, cadence=0.1, initial=InitialDataSpec(), out_dir=tmp_path)
    return RunConfig(**dict(args, **overrides))


@pytest.mark.parametrize("field, value, key", [
    ("n_cells", 2, "n"),
    ("excess_thresholds", (0.5,), "excess_thresholds"),
    ("truncation_threshold", 0.0, "truncation_threshold"),
    ("snapshot_every", -1.0, "snapshot_every"),
])
def test_hand_built_run_config_is_checked(tmp_path, field, value, key):
    with pytest.raises(ConfigurationError, match=f"'{key}'"):
        hand_built(tmp_path, **{field: value})


def test_run_config_sorts_excess_thresholds(tmp_path):
    # audit_row writes the excess columns in sorted order; the header must match
    config = hand_built(tmp_path, excess_thresholds=[3, 1.5, 2.0])
    assert config.excess_thresholds == (1.5, 2.0, 3.0)


@pytest.mark.parametrize("n_list", [[64, 32, 128], [2, 3, 4]])
def test_parse_rejects_bad_mms_resolutions(n_list):
    raw = dict(MINIMAL, mms={"n_list": n_list})
    with pytest.raises(ConfigurationError, match="n_list"):
        parse_config(json.dumps(raw))


def test_run_steady_state_outputs(tmp_path):
    config = cfg(tmp_path, n=64, t_end=0.5, cadence=0.1)
    assert run(config) == EXIT_OK
    out = tmp_path / "out"
    audit = (out / "audit.csv").read_text().splitlines()
    assert audit[0].startswith("t,E_eq2.12,")
    assert len(audit) == 1 + 6  # header + records at 0, .1, ..., .5
    first = audit[1].split(",")
    header = audit[0].split(",")
    row = dict(zip(header, first))
    assert float(row["E_eq2.12"]) == 0.0
    assert float(row["cum_D_eq2.12"]) == 0.0

    summary = json.loads((out / "summary.json").read_text())
    assert summary["bounds"]["v"] == [1.0, 1.0]
    assert summary["truncation"]["ok"] is True
    assert summary["entropy_audit"]["ok"] is True
    assert (out / "snap_0.csv").exists()
    assert (out / "snap_0.5.csv").exists()


def test_run_is_byte_deterministic(tmp_path):
    config_a = cfg(tmp_path / "a", n=64, t_end=0.3, cadence=0.1,
                   initial_data={"amplitude_v": 0.5, "width": 1.0})
    config_b = cfg(tmp_path / "b", n=64, t_end=0.3, cadence=0.1,
                   initial_data={"amplitude_v": 0.5, "width": 1.0})
    assert run(config_a) == EXIT_OK
    assert run(config_b) == EXIT_OK
    audit_a = (tmp_path / "a" / "out" / "audit.csv").read_bytes()
    audit_b = (tmp_path / "b" / "out" / "audit.csv").read_bytes()
    assert audit_a == audit_b


def test_run_truncation_breach_exit_code(tmp_path):
    # domain far too small for the bump: outermost cells deviate immediately
    config = cfg(
        tmp_path, L=3.0, n=64, t_end=0.2, cadence=0.1,
        initial_data={"amplitude_v": 1.0, "width": 1.5},
        truncation_threshold=1e-6,
    )
    assert run(config) == EXIT_TRUNCATION
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["truncation"]["ok"] is False
    assert summary["truncation"]["max_outer_deviation"] > 1e-6


def test_run_integration_failure_writes_failure_json(tmp_path):
    # dt_min far above the stable step: stiffness failure on the first step
    config = cfg(
        tmp_path, n=256, t_end=1.0,
        step={"dt_min": 0.1, "dt_max": 1.0},
    )
    assert run(config) == EXIT_INTEGRATION
    out = tmp_path / "out"
    failure = json.loads((out / "failure.json").read_text())
    assert failure["kind"] == "StiffnessError"
    assert "dt_min" in failure["cause"]
    assert (out / "audit.csv").exists()  # partial output retained
    assert not (out / "summary.json").exists()


def test_rerun_leaves_only_its_own_verdict(tmp_path):
    failing = cfg(tmp_path, n=64, t_end=1.0, step={"dt_min": 0.1})
    passing = cfg(tmp_path, n=64, t_end=0.2, cadence=0.1)
    out = tmp_path / "out"
    assert run(failing) == EXIT_INTEGRATION
    assert run(passing) == EXIT_OK
    assert (out / "summary.json").exists() and not (out / "failure.json").exists()
    assert run(failing) == EXIT_INTEGRATION
    assert (out / "failure.json").exists() and not (out / "summary.json").exists()


def test_positivity_failure_json_names_stage_cell_and_field(tmp_path, monkeypatch):
    stable_dt = lagas.integrate.stable_dt
    monkeypatch.setattr(
        lagas.integrate, "stable_dt", lambda *args: 500.0 * stable_dt(*args)
    )
    # the bump of test_step_failure_names_stage_and_cell; one tick, so the
    # oversized step is not cut short to land on it
    config = cfg(
        tmp_path, L=8.0, n=64, t_end=100.0, cadence=100.0,
        initial_data={"amplitude_v": 0.8, "amplitude_u": 0.5, "amplitude_theta": -0.4},
    )
    assert run(config) == EXIT_INTEGRATION
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "IntegrationError"
    assert failure["stage"] in (1, 2, 3)
    assert isinstance(failure["cell"], int) and 0 <= failure["cell"] <= 64
    assert failure["field_name"] in ("v", "theta", "u")
    assert f"stage {failure['stage']}" in failure["cause"]
    assert f"{failure['field_name']}[{failure['cell']}]" in failure["cause"]


def test_stiffness_failure_json_has_no_stage(tmp_path):
    config = cfg(tmp_path, n=64, t_end=1.0, step={"dt_min": 0.1})
    assert run(config) == EXIT_INTEGRATION
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["stage"] is None and failure["cell"] is None
    assert failure["field_name"] is None


def test_snapshot_names_never_repeat_within_a_run(tmp_path):
    # %g keeps six significant digits: 10000.01 and 10000.02 both print 10000
    taken = set()
    times = [0.0, 0.2, 10000.01, 10000.02, 10000.0, 0.30000000000000004, 0.3]
    names = [_snapshot_path(tmp_path, t, taken).name for t in times]
    assert names == [
        "snap_0.csv", "snap_0.2.csv", "snap_10000.csv", "snap_10000.02.csv",
        "snap_10000.0.csv", "snap_0.3.csv", "snap_0.3_6.csv",
    ]


def test_snapshot_cadence(tmp_path):
    config = cfg(tmp_path, n=64, t_end=0.4, cadence=0.1, snapshot_every=0.2)
    assert run(config) == EXIT_OK
    out = tmp_path / "out"
    for t in ("0", "0.2", "0.4"):
        assert (out / f"snap_{t}.csv").exists()
    snap = (out / "snap_0.csv").read_text().splitlines()
    assert snap[0] == "x_center,v,theta,x_node,u"
    assert len(snap) == 1 + 65  # one row per node; last row has empty cell columns
    assert snap[-1].startswith(",,")


def test_mms_steady_family_passes_at_roundoff(tmp_path):
    config = cfg(
        tmp_path, n=16, t_end=0.0,
        mms={"family": "steady", "n_list": [8, 16, 32], "t_end": 0.05},
    )
    assert mms(config) == EXIT_OK
    report = json.loads((tmp_path / "out" / "mms_report.json").read_text())
    assert report["pass"] is True
    assert report["orders"] is None


def test_mms_gaussian_family_orders(tmp_path):
    config = cfg(
        tmp_path, n=16, t_end=0.0,
        mms={"n_list": [32, 64, 128], "t_end": 0.1, "threshold": 1.5},
    )
    assert mms(config) == EXIT_OK
    report = json.loads((tmp_path / "out" / "mms_report.json").read_text())
    assert report["pass"] is True
    for field in ("v", "u", "theta"):
        assert report["orders"][field] > 1.5


def test_mms_single_resolution_is_config_error(tmp_path):
    raw = dict(MINIMAL, mms={"n_list": [64]})
    with pytest.raises(ConfigurationError, match="n_list"):
        parse_config(json.dumps(raw))


def test_mms_threshold_failure_exit_code(tmp_path):
    config = cfg(
        tmp_path, n=16, t_end=0.0,
        mms={"n_list": [32, 64, 128], "t_end": 0.1, "threshold": 5.0},
    )
    assert mms(config) == EXIT_MMS_FAIL


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_runs_variants(tmp_path, jobs):
    amplitudes = (0.2, 0.4)
    raw = dict(
        MINIMAL,
        n=64,
        t_end=0.2,
        cadence=0.1,
        out_dir=str(tmp_path / "sweep"),
        sweep={"variants": [{"initial_data": {"amplitude_v": a}} for a in amplitudes]},
    )
    assert sweep(raw, jobs=jobs) == EXIT_OK
    summary = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())
    assert summary["variants"] == 2
    assert summary["exit_codes"] == [0, 0]
    for i, a in enumerate(amplitudes):
        variant = tmp_path / "sweep" / f"variant_{i}"
        assert (variant / "summary.json").exists()
        # the same bytes as a serial run of the variant on its own
        single = cfg(tmp_path / f"single_{i}", n=64, t_end=0.2, cadence=0.1,
                     initial_data={"amplitude_v": a})
        assert run(single) == EXIT_OK
        expected = (tmp_path / f"single_{i}" / "out" / "audit.csv").read_bytes()
        assert (variant / "audit.csv").read_bytes() == expected


def test_sweep_checks_every_variant_before_running_any(tmp_path):
    raw = dict(
        MINIMAL,
        n=64,
        t_end=0.2,
        out_dir=str(tmp_path / "sweep"),
        sweep={"variants": [{}, {"t_end": 0.1}, {"n": 2}]},
    )
    with pytest.raises(ConfigurationError, match=r"sweep\.variants\[2\].*'n'"):
        sweep(raw)
    assert not list(tmp_path.glob("sweep/variant_*"))


def test_sweep_requires_variants(tmp_path):
    with pytest.raises(ConfigurationError, match="variants"):
        sweep(dict(MINIMAL, sweep={}))


def test_main_run_with_stdin_and_overrides(tmp_path, monkeypatch, capsys):
    raw = dict(MINIMAL, n=64, t_end=0.2, cadence=0.1)
    monkeypatch.setattr("sys.stdin", _FakeStdin(json.dumps(raw)))
    code = main(["run", "-", "--out", str(tmp_path / "cli_out"), "--set", "n=32"])
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "cli_out" / "summary.json").read_text())
    assert summary["n_cells"] == 32


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(MINIMAL, n=-1)))
    code = main(["run", str(bad)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_main_nested_set_override(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(MINIMAL, n=64, t_end=0.2, cadence=0.1)))
    code = main([
        "run", str(path),
        "--out", str(tmp_path / "o"),
        "--set", "initial_data.amplitude_v=0.3",
        "--set", "gas.mu=0.5",
    ])
    assert code == EXIT_OK
    audit = (tmp_path / "o" / "audit.csv").read_text().splitlines()
    assert len(audit) > 2


class _FakeStdin:
    def __init__(self, text):
        self._text = text

    def read(self):
        return self._text
