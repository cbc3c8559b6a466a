"""Byte-level regression pins for the stepping core.

The sha256 digests below were recorded with numpy 2.4.6 on x86-64.  The
forced runs' were recorded last when rhs took the thermal rate in stress-power
form and the heat flux and stress from one face-difference pass, except the
two half-line ones, which moved when SSPRK(10,4) joined.  The CLI run's
audit, summary and snapshot digests moved last when audit ticks stopped
cutting steps and were read from the dense output instead.  A change that keeps
every formula and its evaluation order keeps them; a change to the numerics
on purpose records new digests and says in CHANGES.md what moved.  The
initial data and the audit use numpy's exp and log, whose last bit may differ
on another numpy build or CPU, so a mismatch there is a platform question
before it is a regression.
"""

import hashlib
import json

import numpy as np
import pytest

import lagas.integrate
from lagas import GasParams, SetupKind, StepControl, advance, make_grid
from lagas.cli import EXIT_OK, parse_config, run
from lagas.verification import (
    FAMILIES,
    InitialDataSpec,
    build_initial_data,
    default_pulse_solution,
    make_source_rates,
    sample_state,
)

# recorded last when ticks were first read from the dense output
AUDIT_SHA256 = {
    "cauchy": "3b4e8befe8ddbe89be4bf8e5013767373a4325ef2feb31c44b4d74228d9b3e10",
    "halfline_insulated": "15418608744529aa6b8d6d4efb55ac4bfece081bfeb60bf56287879f099d3224",
    "halfline_isothermal": "e917a7804b242e338ec622c328a729970564b7ec11080fe722ae6b6648974068",
}
# summary.json echoes config values (setup, n_cells, half_length, t_end, the
# truncation threshold), so these also pin how the run config is typed;
# recorded last when ticks were first read from the dense output
SUMMARY_SHA256 = {
    "cauchy": "a96591ce7af052f534984ad6122c4724687d305b9290d15b77891f5f131ec644",
    "halfline_insulated": "2056290db7b7825709b831f526e55b52931a0efe9778846bd538d34179a0f6b4",
    "halfline_isothermal": "3b8406b4f85feb29d14cd46ab533bf75545e336aead934dc6ec5d491eb9918db",
}
# the run's snapshot files, sorted names and bytes (shortest round-trip
# decimals), recorded last when ticks were first read from the dense output
SNAPSHOT_SHA256 = {
    "cauchy": "e9d2a3584c7bf859366091f65a8de49de97a61a06e6846f4fb05c0ca42e03635",
    "halfline_insulated": "972865cba9c7678bad863efb1110a6e9fefc00d2935b6a66da2500da5cda8edd",
    "halfline_isothermal": "56bdca505acc3e9ed8ee26e83db32d5e40027c0fdf08207a60f0e3653c6d557c",
}
# the final state of a forced run of each setup's default pulse solution, one
# tick to t_end, so dense output leaves it as it was; the half-line runs take
# SSPRK(10,4) steps and were recorded last when that table joined, the Cauchy
# run steps with SSPRK(4,3) only and keeps its stress-power rhs digest
FORCED_SHA256 = {
    "cauchy": "5a3bd61f0d584eee077643944ee21479e17b48b2756951dccd8ea4a3b3ea4bda",
    "halfline_insulated": "e81ecf749615d1d5c9ed7b7f84c3290b40891adfce3d54c7a1742437518bef06",
    "halfline_isothermal": "cfc07df68040d71821b0502bdf20da2889b6bef152009908b7143a37be6aca21",
}

# audit.csv and summary.json of a run at n = 256, where every cell and face sum
# is longer than numpy's 128-element pairwise-summation block, so a change to
# how the audit's sums are blocked shows here though it cannot at n = 64
AUDIT_N256_SHA256 = {
    "cauchy": "44d974926ede13d9b77ccdc6d9eb6d8cee3ad609f793457ca0eb32aace56806f",
    "halfline_insulated": "2262246adc971d31d14181c762d802fab36fdcc5a016c693305b944bbfb24da5",
    "halfline_isothermal": "74146f2f51cbefb1cf266a1867309cd14dd5713ce5979bb303c9ae978d15d0ee",
}
SUMMARY_N256_SHA256 = {
    "cauchy": "4491aa153d39f50c6040dfad00ab4b86ce197659b8aac657c394e427728eed69",
    "halfline_insulated": "92dbdbce9abb041ea69ea4d34b5ab6ee794ae5439f6d0b28913a3f8c28d05204",
    "halfline_isothermal": "cbcde7e9f49db3640ec8685f26e4bace31b3ed6546ac41a0fd96c7769a5dbe63",
}

# v | theta | u of build_initial_data for one spec per family and setup, the bump
# off the centre so that the wall reflections do not cancel by symmetry
INITIAL_SHA256 = {
    ("gaussian_bump", "cauchy"): "17794fba653a19c25a6b4bb6464fb7029df90196e3df4c6a1293b657e5bf8db0",
    ("gaussian_bump", "halfline_insulated"):
        "bb3f60b7ca76532ef7ed32b8e7c1f7a6d21655b50e1e8046f1dbbbed0855e374",
    ("gaussian_bump", "halfline_isothermal"):
        "ff535fba8a97dad74a46d07b3217c5f56d33c8ad6caffd27312e406405575b3a",
    ("tanh_front", "cauchy"): "aeb9176a287dde6ea2399393852ca9cdb9fefe758ec860da4e5bdcdc7359968e",
    ("tanh_front", "halfline_insulated"):
        "6d6fd52501c85d8aa81764d6f7efc41b68ee41688ff3747d0813f2590bd669b5",
    ("tanh_front", "halfline_isothermal"):
        "3db8062a292cbc9d0ec161357c5614cc275add91b5907a77b3f7431ee758774f",
    ("random_smooth", "cauchy"): "e171cead3e1a1511ce1df00a5548bc0db361ed647941790af119dbbdc9b9949a",
    ("random_smooth", "halfline_insulated"):
        "9572f477e48ed86a1ec16d3ddf6baeba2690784437655ed377da669bf92d9366",
    ("random_smooth", "halfline_isothermal"):
        "01b298fee693b0ccf9adb0e04d5ddfd83192009246050749ff888192ebe20022",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_run(kind, out_dir):
    """The run whose output bytes are pinned.

    Cadence 0.013 is no multiple of the stable step, so every tick but t_end
    falls inside a step and reads its dense output; snapshots every 0.1
    exercise the on_record path with those states.
    """
    return parse_config(json.dumps({
        "setup": kind.value,
        "L": 10.0,
        "n": 64,
        "t_end": 0.5,
        "cadence": 0.013,
        "initial_data": {
            "amplitude_v": 0.6,
            "amplitude_u": 0.4,
            "amplitude_theta": -0.3,
            "width": 1.0,
        },
        "snapshot_every": 0.1,
        "out_dir": str(out_dir),
    }))


@pytest.mark.parametrize("kind", list(SetupKind), ids=lambda k: k.value)
def test_cli_audit_bytes_are_pinned(tmp_path, kind):
    assert run(pinned_run(kind, tmp_path / "out")) == EXIT_OK
    audit = (tmp_path / "out" / "audit.csv").read_bytes()
    assert sha256(audit) == AUDIT_SHA256[kind.value]
    summary = (tmp_path / "out" / "summary.json").read_bytes()
    assert sha256(summary) == SUMMARY_SHA256[kind.value]
    snapshots = sorted((tmp_path / "out").glob("snap_*.csv"))
    assert len(snapshots) == 6  # the first ticks at or past 0, 0.1, ..., 0.4, and 0.5
    data = b"".join(path.name.encode() + path.read_bytes() for path in snapshots)
    assert sha256(data) == SNAPSHOT_SHA256[kind.value]


@pytest.mark.parametrize("kind", list(SetupKind), ids=lambda k: k.value)
def test_cli_audit_bytes_are_pinned_past_the_pairwise_block(tmp_path, monkeypatch, kind):
    # 30 records from at most five steps: most records read the dense output
    steps, step = [], lagas.integrate.step

    def spy_step(*args, **kwargs):
        steps.append(kwargs["table"])
        return step(*args, **kwargs)

    monkeypatch.setattr(lagas.integrate, "step", spy_step)
    config = parse_config(json.dumps({
        "setup": kind.value,
        "L": 10.0,
        "n": 256,
        "t_end": 0.02,
        "cadence": 0.0007,
        "initial_data": {
            "amplitude_v": 0.6,
            "amplitude_u": 0.4,
            "amplitude_theta": -0.3,
            "width": 1.0,
        },
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(config) == EXIT_OK
    audit = (tmp_path / "out" / "audit.csv").read_bytes()
    assert audit.count(b"\n") == 31 and len(steps) <= 5
    assert sha256(audit) == AUDIT_N256_SHA256[kind.value]
    summary = (tmp_path / "out" / "summary.json").read_bytes()
    assert sha256(summary) == SUMMARY_N256_SHA256[kind.value]

@pytest.mark.parametrize("kind", list(SetupKind), ids=lambda k: k.value)
def test_pinned_run_reads_ticks_inside_ssprk104_steps(tmp_path, monkeypatch, kind):
    # the pinned bytes cover the dense output: all 38 ticks between 0 and
    # t_end fall inside steps, read as blocks of several rows, far fewer steps
    # than ticks, and the steps run at fourth order; only the two nearest
    # t_end may take SSPRK(4,3)
    tables, rows = [], []
    step, dense_output = lagas.integrate.step, lagas.integrate._dense_output

    def spy_step(*args, **kwargs):
        tables.append(kwargs["table"])
        return step(*args, **kwargs)

    def spy_dense(*args):
        block = dense_output(*args)
        rows.append(len(block))
        return block

    monkeypatch.setattr(lagas.integrate, "step", spy_step)
    monkeypatch.setattr(lagas.integrate, "_dense_output", spy_dense)
    assert run(pinned_run(kind, tmp_path / "out")) == EXIT_OK
    assert sum(rows) == 38 and max(rows) > 1 and len(tables) < 12
    assert set(tables[:-2]) == {lagas.integrate.SSPRK104}


@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_forced_advance_final_state_is_pinned(setup):
    params = GasParams(mu=1.0, kappa=1.0, R=1.0, c_v=1.5)
    grid = make_grid(setup, 10.0, 64)
    solution = default_pulse_solution(setup, 10.0)
    final, _ = advance(
        sample_state(solution, grid), 0.05, 0.05, grid, params, setup, StepControl(),
        sources=make_source_rates(solution, params, grid),
    )
    data = np.float64(final.t).tobytes() + final.v.tobytes() + final.theta.tobytes()
    assert sha256(data + final.u.tobytes()) == FORCED_SHA256[setup.value]


@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
@pytest.mark.parametrize("family", FAMILIES)
def test_initial_data_bytes_are_pinned(family, setup):
    spec = InitialDataSpec(
        family=family, amplitude_v=0.4, amplitude_u=0.7, amplitude_theta=-0.4,
        width=2.0, center=1.3, seed=5, modes=6,
    )
    state = build_initial_data(spec, setup, make_grid(setup, 10.0, 33))
    data = state.v.tobytes() + state.theta.tobytes() + state.u.tobytes()
    assert sha256(data) == INITIAL_SHA256[family, setup.value]
