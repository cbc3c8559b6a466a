import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lagas import ConfigurationError, SetupKind, advance, build_initial_data, make_grid
import lagas.integrate
from lagas.cli import (
    EXIT_CONFIG,
    EXIT_INTEGRATION,
    EXIT_MMS_FAIL,
    EXIT_OK,
    EXIT_TRUNCATION,
    RunConfig,
    _apply_overrides,
    _deep_merge,
    _snapshot_path,
    config_from_dict,
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
    assert config.setup is SetupKind.CAUCHY
    assert config.half_length == 10.0
    assert config.n_cells == 256
    assert config.t_end == 5.0
    assert config.cadence == pytest.approx(0.05)
    assert config.gas.mu == 1.0 and config.gas.c_v == 1.5
    assert config.control.cfl_parabolic == 0.3
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
    args = dict(setup=SetupKind.CAUCHY, half_length=10.0, n_cells=64,
                t_end=1.0, cadence=0.1, initial=InitialDataSpec(), out_dir=tmp_path)
    return RunConfig(**dict(args, **overrides))


@pytest.mark.parametrize("field, value, key", [
    ("n_cells", 2, "n"),
    ("excess_thresholds", (0.5,), "excess_thresholds"),
    ("truncation_threshold", 0.0, "truncation_threshold"),
    ("snapshot_every", -1.0, "snapshot_every"),
    # both would be named excess_a2 and omega_a2: a header with repeated columns
    ("excess_thresholds", (2.0, 2.0), "excess_thresholds"),
    ("excess_thresholds", (2.0, 2.0000001), "excess_thresholds"),
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


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
def test_parse_rejects_bad_mms_threshold(threshold):
    # NaN and inf would fail every study after running it; -1 would pass every study
    raw = dict(MINIMAL, mms={"threshold": threshold})
    with pytest.raises(ConfigurationError, match="config key 'mms': threshold"):
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


def test_run_truncation_verdict_is_the_largest_audit_outer_dev(tmp_path):
    config = cfg(tmp_path, L=3.0, n=64, t_end=0.2, cadence=0.05,
                 initial_data={"amplitude_v": 1.0, "width": 1.5})
    assert run(config) == EXIT_TRUNCATION
    lines = (tmp_path / "out" / "audit.csv").read_text().splitlines()
    column = lines[0].split(",").index("outer_dev")
    outer = [float(line.split(",")[column]) for line in lines[1:]]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["truncation"]["max_outer_deviation"] == max(outer) > 0.0
    assert "max_outer_deviation" not in summary


def test_main_run_checks_initial_data_against_the_configured_floor(tmp_path, capsys):
    # the data clear the default floor 1e-10 but not the run's 0.5: a config
    # error before any output, not a failure of the first step
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "setup": "cauchy", "L": 10, "n": 16, "t_end": 0.01, "out_dir": str(out),
        "step": {"positivity_floor": 0.5}, "initial_data": {"amplitude_v": -0.9},
    }))
    assert main(["run", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config key 'step.positivity_floor'" in err and "v[7]" in err
    assert not out.exists()


def test_main_run_accepts_initial_data_above_a_configured_floor_below_the_default(tmp_path):
    # min v is 5e-11: under the default floor 1e-10, above the run's 1e-12
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "setup": "cauchy", "L": 10, "n": 16, "t_end": 0.01, "out_dir": str(tmp_path / "out"),
        "step": {"positivity_floor": 1e-12},
        "initial_data": {"amplitude_v": -0.99999999995, "center": 0.625},
    }))
    assert main(["run", str(path)]) == EXIT_OK
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("setup", ["cauchy", "halfline_isothermal"])
@pytest.mark.parametrize("family", ["gaussian_bump", "tanh_front", "random_smooth"])
@pytest.mark.parametrize("center, width", [(0.0, 1e-300), (1e300, 1e-10)],
                         ids=["narrow", "far-and-narrow"])
def test_main_run_samples_a_profile_at_its_limit_where_its_argument_overflows(
        tmp_path, capsys, setup, family, center, width):
    # (x - center)/width or its square overflows: the bump is 0 there and a tanh edge +-1,
    # with no numpy warning; random_smooth, not finite at an infinite argument, is refused
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "setup": setup, "L": 10, "n": 32, "t_end": 0.01, "out_dir": str(tmp_path / "out"),
        "initial_data": {"family": family, "center": center, "width": width,
                         "amplitude_v": 0.1, "amplitude_u": 0.1, "amplitude_theta": 0.1},
    }))
    code = main(["run", str(path)])
    if family == "random_smooth" and center == 1e300:
        assert code == EXIT_CONFIG
        assert "initial data invalid: v[0] is non-finite" in capsys.readouterr().err
    else:
        assert code == EXIT_OK


def test_main_reports_an_out_dir_it_cannot_create(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(MINIMAL, n=64, t_end=0.2)))
    assert main(["run", str(path), "--out", str(blocker)]) == EXIT_CONFIG
    assert "cannot write output" in capsys.readouterr().err
    assert blocker.read_text() == "kept"


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


def test_a_record_just_short_of_a_snapshot_interval_writes_no_snapshot(tmp_path):
    # the snapshot-due slack is 1e-9 of snapshot_every: the record at t = 0.1
    # falls 1e-6 short of a snapshot_every of 0.100001, so only t = 0 and
    # t_end are written
    out = tmp_path / "out"
    assert run(cfg(tmp_path, n=64, t_end=0.2, cadence=0.1, snapshot_every=0.1 + 1e-6)) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["snapshots"] == [0.0, 0.2]
    assert sorted(p.name for p in out.glob("snap_*.csv")) == ["snap_0.2.csv", "snap_0.csv"]


def test_rerun_leaves_only_its_own_snapshots(tmp_path):
    out = tmp_path / "out"
    assert run(cfg(tmp_path, n=64, t_end=0.4, cadence=0.1, snapshot_every=0.1)) == EXIT_OK
    assert run(cfg(tmp_path, n=64, t_end=0.2, cadence=0.1, snapshot_every=0.1)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["snapshots"] == [0.0, 0.1, 0.2]
    assert sorted(p.name for p in out.glob("snap_*.csv")) == [
        "snap_0.1.csv", "snap_0.2.csv", "snap_0.csv",
    ]


def test_positivity_failure_json_names_stage_cell_and_field(tmp_path, monkeypatch):
    stable_dt = lagas.integrate.stable_dt
    monkeypatch.setattr(
        lagas.integrate, "stable_dt", lambda *args: 500.0 * stable_dt(*args)
    )
    # the bump of test_step_failure_names_stage_and_cell, with the oversized
    # step taken in full
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


def test_main_run_dense_output_failure_writes_failure_json(tmp_path, monkeypatch):
    # a record read between steps whose theta fails the floor is a run failure
    original = lagas.integrate._dense_output

    def negative_theta(*args):
        y = original(*args)
        y[:, 64 + 7] = -1.0
        return y

    monkeypatch.setattr(lagas.integrate, "_dense_output", negative_theta)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(MINIMAL, n=64, t_end=1.0, cadence=0.25)))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_INTEGRATION
    failure = json.loads((out / "failure.json").read_text())
    assert failure["kind"] == "IntegrationError" and failure["time"] == 0.25
    assert (failure["stage"], failure["field_name"], failure["cell"]) == (None, "theta", 7)
    assert "dense output" in failure["cause"] and not (out / "summary.json").exists()


def test_stiffness_failure_json_has_no_stage(tmp_path, monkeypatch):
    stable_dt = lagas.integrate.stable_dt

    def stiff_after(state, grid, params, ctrl):
        if state.t > 0.05:
            ctrl = replace(ctrl, dt_min=1.0)
        return stable_dt(state, grid, params, ctrl)

    monkeypatch.setattr(lagas.integrate, "stable_dt", stiff_after)
    config = cfg(tmp_path, n=64, t_end=1.0, cadence=0.1)
    assert run(config) == EXIT_INTEGRATION
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure["kind"] == "StiffnessError"
    # the state time at which dt collapsed, not the last audit tick (t = 0)
    assert failure["time"] > 0.05
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


def test_snapshot_cells_are_round_trip_decimals(tmp_path):
    config = cfg(tmp_path, n=64, t_end=0.2, cadence=0.1,
                 initial_data={"amplitude_v": 0.5, "amplitude_u": 0.3, "amplitude_theta": -0.2})
    assert run(config) == EXIT_OK
    grid = make_grid(config.setup, config.half_length, config.n_cells)
    final, _ = advance(build_initial_data(config.initial, config.setup, grid), config.t_end,
                       config.cadence, grid, config.gas, config.setup, config.control)
    lines = (tmp_path / "out" / "snap_0.2.csv").read_text().splitlines()
    assert lines[0] == "x_center,v,theta,x_node,u"
    rows = [line.split(",") for line in lines[1:]]
    assert rows[-1][:3] == ["", "", ""]
    cells = np.array([[float(x) for x in row[:3]] for row in rows[:-1]])
    nodes = np.array([[float(x) for x in row[3:]] for row in rows])
    for column, expected in ((cells[:, 0], grid.cell_centers()), (cells[:, 1], final.v),
                             (cells[:, 2], final.theta), (nodes[:, 0], grid.nodes()),
                             (nodes[:, 1], final.u)):
        assert column.tobytes() == expected.tobytes()


def test_mms_steady_family_passes_at_roundoff(tmp_path):
    config = cfg(
        tmp_path, n=16, t_end=0.0,
        mms={"family": "steady", "n_list": [8, 16, 32], "t_end": 0.05},
    )
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "failure.json").write_text("{}")  # an earlier study's verdict
    assert mms(config) == EXIT_OK
    report = json.loads((tmp_path / "out" / "mms_report.json").read_text())
    assert report["pass"] is True
    assert report["orders"] is None
    assert not (tmp_path / "out" / "failure.json").exists()


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


@pytest.mark.parametrize("step, kind", [
    ({"dt_min": 0.5}, "StiffnessError"),
    ({}, "IntegrationError"),
], ids=["stiffness", "positivity"])
def test_main_mms_integration_failure_writes_failure_json(tmp_path, monkeypatch, step, kind):
    # the pulse's stable step is below a dt_min of 0.5, and 500 times that
    # step, toward a far t_end, drives v below the floor; a stale report from an
    # earlier study goes
    mms_t_end = 0.01
    if kind == "IntegrationError":
        stable_dt = lagas.integrate.stable_dt
        monkeypatch.setattr(lagas.integrate, "stable_dt", lambda *args: 500.0 * stable_dt(*args))
        mms_t_end = 50.0
    out = tmp_path / "out"
    out.mkdir()
    (out / "mms_report.json").write_text("{}")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(
        MINIMAL, n=64, t_end=1.0, step=step, mms={"n_list": [16, 32, 64], "t_end": mms_t_end},
    )))
    assert main(["mms", str(path), "--out", str(out)]) == EXIT_INTEGRATION
    failure = json.loads((out / "failure.json").read_text())
    assert failure["kind"] == kind and failure["time"] == 0.0
    assert not (out / "mms_report.json").exists()


def test_main_mms_rejects_a_zero_grid_spacing_before_any_output(tmp_path, capsys):
    # the steady family builds no pulse, so only the grid check sees L = 5e-324
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(MINIMAL, L=5e-324, mms={"family": "steady"})))
    assert main(["mms", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "spacing 0.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, L", [("run", 4e204), ("mms", 5e-300)])
def test_main_rejects_an_L_whose_spacing_squared_is_not_normal(tmp_path, capsys, command, L):
    # a finite, positive spacing is not enough: at L = 4e204 the run's profile
    # and audit overflowed, and at L = 5e-300 the study divided by zero
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(MINIMAL, L=L, n=64, t_end=0.2)))
    assert main([command, str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config key 'L': " in err and "its square must be a normal float" in err
    assert not out.exists()


def test_main_mms_checks_the_manufactured_state_against_the_floor_before_any_output(
        tmp_path, capsys):
    # the pulse's min theta is about 0.88, under the configured floor 0.9
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "setup": "halfline_insulated", "L": 10, "n": 64, "t_end": 0.1,
        "step": {"positivity_floor": 0.9},
        "mms": {"n_list": [32, 64, 128], "t_end": 0.02},
    }))
    assert main(["mms", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "step.positivity_floor" in err and "theta[" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [{}, {
    "n": "many", "t_end": -1, "cadence": -1, "initial_data": {"amplitude_v": -5, "width": "x"},
    "excess_thresholds": [-1], "truncation_threshold": 0, "snapshot_every": -1,
}], ids=["absent", "unchecked"])
def test_main_mms_reads_neither_n_nor_t_end(tmp_path, extra):
    # the study takes its grids and end time from the mms section: a config
    # without n and t_end runs, and so does one whose run-only keys hold values
    # `run` would refuse
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({"setup": "cauchy", "L": 10.0, **extra,
                                "mms": {"family": "steady", "n_list": [8, 16, 32], "t_end": 0.05}}))
    assert main(["mms", str(path), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "mms_report.json").read_text())["n_list"] == [8, 16, 32]
    config = config_from_dict(json.loads(path.read_text()), "mms")
    assert (config.n_cells, config.t_end) == (32, 0.05)
    with pytest.raises(ConfigurationError, match="config key 'n'"):  # `run` needs n
        config_from_dict(json.loads(path.read_text()))


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


# a bad root key, invalid initial data (theta < 0 at the bump) and a
# non-positive L: each fails only once the grid and the state are built
@pytest.mark.parametrize("bad,message", [
    ({"n": 2}, "'n'"),
    ({"initial_data": {"amplitude_theta": -2.0}}, "initial data invalid: theta"),
    ({"L": -1.0}, "half_length must be positive"),
    ({"step": {"positivity_floor": 0.5}, "initial_data": {"amplitude_v": -0.9}},
     "step.positivity_floor"),
], ids=["n", "initial_data", "L", "floor"])
def test_sweep_checks_every_variant_before_running_any(tmp_path, bad, message):
    raw = dict(
        MINIMAL,
        n=64,
        t_end=0.2,
        out_dir=str(tmp_path / "sweep"),
        sweep={"variants": [{}, {"t_end": 0.1}, bad]},
    )
    with pytest.raises(ConfigurationError, match=r"sweep\.variants\[2\].*" + message):
        sweep(raw)
    assert not list(tmp_path.glob("sweep/variant_*"))


def test_sweep_pool_has_no_more_workers_than_variants(tmp_path, monkeypatch):
    # a stand-in pool that maps serially: the test starts no process
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    raw = dict(MINIMAL, n=32, t_end=0.1, cadence=0.1, out_dir=str(tmp_path / "sweep"),
               sweep={"variants": [{}, {"t_end": 0.05}]})
    assert sweep(raw, jobs=8) == EXIT_OK
    assert sizes == [2]


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    out = tmp_path / "sweep"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(
        MINIMAL, n=64, t_end=0.2, out_dir=str(out), sweep={"variants": [{}]},
    )))
    assert main(["sweep", str(path), "--jobs", str(jobs)]) == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("base, message", [
    ({"sweep": {"variants": [{}], "extra": 1}}, "unknown config key 'sweep.extra'"),
    ({"out_dir": 5, "sweep": {"variants": [{"out_dir": "a"}, {"out_dir": "b"}]}},
     "config key 'out_dir' must be a string"),
], ids=["unknown-key", "base-out_dir-type"])
def test_main_sweep_checks_its_own_keys(tmp_path, monkeypatch, capsys, base, message):
    # neither key reaches a variant parse; both fail before any output
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(MINIMAL, n=64, t_end=0.2, **base)))
    assert main(["sweep", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


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


@pytest.mark.parametrize("section, body", [
    ("initial_data", '{"family": "random_smooth", "seed": -1}'),
    ("initial_data", '{"family": "gaussian_bump", "seed": -1}'),
    ("step", '{"positivity_floor": 1e400}'),
    ("initial_data", '{"width": 1e400}'),
    ("initial_data", '{"center": -1e400}'),
    ("initial_data", '{"amplitude_u": NaN}'),
    ("truncation_threshold", "1e400"),
    ("mms", '{"t_end": 1e400}'),
    ("excess_thresholds", "[1.5, 1e400]"),
    ("L", "5e-324"),
], ids=["random-seed", "gaussian-seed", "floor", "width-inf", "center-inf", "amplitude-nan",
        "truncation-inf", "mms-t_end-inf", "excess-inf", "L-spacing-underflow"])
def test_main_rejects_bad_numbers_before_any_output(tmp_path, capsys, section, body):
    # numpy's generator raises a bare ValueError on a negative seed, an
    # infinite floor would fail only mid-run, an infinite width turns the
    # bump into a uniform offset that never decays to the rest state, and an
    # infinite truncation threshold passes every truncation audit, an
    # infinite mms t_end fails only inside the study, and an infinite excess
    # level gives audit columns that are always 0, and an L of 5e-324 gives
    # a zero grid spacing: all are config errors, caught before any file is written
    out = tmp_path / "out"
    raw = json.dumps(dict(MINIMAL, n=64, t_end=0.2, out_dir=str(out)))
    path = tmp_path / "config.json"
    path.write_text(raw[:-1] + f', "{section}": {body}}}')
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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


def test_set_merges_an_object_value_into_its_section():
    # --set merges as sweep variants do: an object keeps the section's other keys
    raw = dict(MINIMAL, gas={"mu": 1.0, "kappa": 2.0})
    merged = _apply_overrides(raw, ['gas={"mu": 0.5}', "initial_data.amplitude_v=0.3"], None)
    assert merged["gas"] == {"mu": 0.5, "kappa": 2.0}
    assert merged["initial_data"] == {"amplitude_v": 0.3}
    assert raw["gas"] == {"mu": 1.0, "kappa": 2.0}


REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text(encoding="utf-8")
#: the command README gives each shipped config, ``lagas <command> configs/<name>``
README_COMMANDS = {name: command for command, name in
                   re.findall(r"lagas (run|sweep|mms) configs/(\S+\.json)", README)}
SHIPPED = [
    *(pytest.param(path.name, path.read_text(encoding="utf-8"), id=path.name)
      for path in sorted((REPO / "configs").glob("*.json"))),
    *(pytest.param(None, text, id=f"README-json-{i}")
      for i, text in enumerate(re.findall(r"```json\n(.*?)```", README, re.S))),
]
TINY = {"run": ["n=32", "t_end=0.2"], "sweep": ["n=32", "t_end=0.2"],
        "mms": ["mms.n_list=[16,32,64]", "mms.t_end=0.01"]}


@pytest.mark.parametrize("name, text", SHIPPED)
def test_shipped_configs_parse_and_run_at_a_tiny_size(tmp_path, name, text):
    # each config in configs/ parses and runs by the command README gives it,
    # README's JSON examples by `run`; a shipped config takes the gas and step
    # control of RunConfig, the one home of those defaults
    command = "run" if name is None else README_COMMANDS[name]
    base = json.loads(text)
    section = base.pop("sweep", None)
    assert (section is not None) == (command == "sweep")
    variants = [{}] if section is None else section["variants"]
    for raw in (_deep_merge(base, variant) for variant in variants):
        config_from_dict(raw, command)
        assert name is None or not {"gas", "step"} & raw.keys()

    path = REPO / "configs" / name if name else tmp_path / "config.json"
    if name is None:
        path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    overrides = [arg for value in TINY[command] for arg in ("--set", value)]
    code = main([command, str(path), "--out", str(out), *overrides])
    if command == "mms":
        passed = json.loads((out / "mms_report.json").read_text())["pass"]
        assert code == (EXIT_OK if passed else EXIT_MMS_FAIL)
    else:
        dirs = [out] if section is None else json.loads(
            (out / "sweep_summary.json").read_text())["out_dirs"]
        ok = all(json.loads((Path(d) / "summary.json").read_text())["truncation"]["ok"]
                 for d in dirs)
        assert code == (EXIT_OK if ok else EXIT_TRUNCATION)


def test_importing_cli_leaves_the_process_pool_unloaded():
    # only `sweep --jobs N` needs the pool; importing it costs every other command
    src = os.path.dirname(os.path.dirname(lagas.integrate.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, lagas.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False"


class _FakeStdin:
    def __init__(self, text):
        self._text = text

    def read(self):
        return self._text
