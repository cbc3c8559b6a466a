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

# recorded last when ticks were first read from the dense output; the Cauchy
# run, whose fifth step was third-order, again when every step became SSPRK(10,4)
AUDIT_SHA256 = {
    "cauchy": "da0bbaef00cd030642a424756693583586593bc29160cd1bcf6647bfd07b66f5",
    "halfline_insulated": "15418608744529aa6b8d6d4efb55ac4bfece081bfeb60bf56287879f099d3224",
    "halfline_isothermal": "e917a7804b242e338ec622c328a729970564b7ec11080fe722ae6b6648974068",
}
# summary.json echoes config values (setup, n_cells, half_length, t_end, the
# truncation threshold), so these also pin how the run config is typed;
# recorded as AUDIT_SHA256 is
SUMMARY_SHA256 = {
    "cauchy": "d014e92e7ac08c9bfb37445088435b5d226e3a449b1ce3374edb7a0d4c0eb549",
    "halfline_insulated": "2056290db7b7825709b831f526e55b52931a0efe9778846bd538d34179a0f6b4",
    "halfline_isothermal": "3b8406b4f85feb29d14cd46ab533bf75545e336aead934dc6ec5d491eb9918db",
}
# the run's snapshot files, sorted names and bytes (shortest round-trip
# decimals), recorded as AUDIT_SHA256 is
SNAPSHOT_SHA256 = {
    "cauchy": "c0829c8c494f84c27d584df9a5806991df8fafbfedc190f80b8bbcc49e36a74f",
    "halfline_insulated": "972865cba9c7678bad863efb1110a6e9fefc00d2935b6a66da2500da5cda8edd",
    "halfline_isothermal": "56bdca505acc3e9ed8ee26e83db32d5e40027c0fdf08207a60f0e3653c6d557c",
}
# the final state of a forced run of each setup's default pulse solution, one
# tick to t_end, so dense output leaves it as it was; recorded last when every
# step became SSPRK(10,4): the Cauchy run had taken two third-order steps, and
# each half-line run had ended on one
FORCED_SHA256 = {
    "cauchy": "1a8ea1bbc433151318fbbb58aba8be9e675d5c3408d451589c130576d8fb5575",
    "halfline_insulated": "9213c5909ee3f71fadc24fc17850e3427301f01838f87ed54913d573bbcb82bf",
    "halfline_isothermal": "61a691aaac7e601f3a812264720e33079ea83fa413440a2901b55ed1a0234d99",
}

# audit.csv and summary.json of a run at n = 256, where every cell and face sum
# is longer than numpy's 128-element pairwise-summation block, so a change to
# how the audit's sums are blocked shows here though it cannot at n = 64; the
# Cauchy pair recorded again when every step became SSPRK(10,4)
AUDIT_N256_SHA256 = {
    "cauchy": "4a0898968e62a10bd8822e5f986c40b642e3f24659b3fb81786196c3234585ea",
    "halfline_insulated": "2262246adc971d31d14181c762d802fab36fdcc5a016c693305b944bbfb24da5",
    "halfline_isothermal": "74146f2f51cbefb1cf266a1867309cd14dd5713ce5979bb303c9ae978d15d0ee",
}
SUMMARY_N256_SHA256 = {
    "cauchy": "4a8464aa7e6cdc32db1c7855d022061ea4dc47fb65ef210f1cec11ca9b3d449a",
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
        steps.append(args[1])
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
    # than ticks
    steps, rows = [], []
    step, dense_output = lagas.integrate.step, lagas.integrate._dense_output

    def spy_step(*args, **kwargs):
        steps.append(args[1])
        return step(*args, **kwargs)

    def spy_dense(*args):
        block = dense_output(*args)
        rows.append(len(block))
        return block

    monkeypatch.setattr(lagas.integrate, "step", spy_step)
    monkeypatch.setattr(lagas.integrate, "_dense_output", spy_dense)
    assert run(pinned_run(kind, tmp_path / "out")) == EXIT_OK
    assert sum(rows) == 38 and max(rows) > 1 and len(steps) < 12


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
