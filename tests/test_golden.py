"""Byte-level regression pins for the stepping core.

The sha256 digests below were recorded with numpy 2.4.6 on x86-64 before the
stepping core was rewritten around packed stage buffers.  A change that keeps
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

from lagas import GasParams, ProblemSetup, SetupKind, StepControl, advance, make_grid
from lagas.cli import EXIT_OK, parse_config, run
from lagas.verification import default_pulse_solution, make_source_rates, sample_state

AUDIT_SHA256 = {
    "cauchy": "eade56d808b0db192497ed61bf08047ea4540c0f70ca1568a65235b88d37cf08",
    "halfline_insulated": "ed70ea7325c1824face9f6dd4485a4ef283ac70e18cf665fd6bac6bb63df91e8",
    "halfline_isothermal": "74bc975c7471d3f0cd0b7829fa4cf83d5c3e16c8ba5467b2c78df5b01151fe13",
}
# summary.json echoes config values (setup, n_cells, half_length, t_end, the
# truncation threshold), so these also pin how the run config is typed
SUMMARY_SHA256 = {
    "cauchy": "8574ba0301848660ff7d20c0cf6d6de45df68d3b5444503ddf96147c1badae48",
    "halfline_insulated": "9c119fa147689bf1917205e120309634262d95a1ad1baeeecb5b4862cbefbb45",
    "halfline_isothermal": "054e13f0b47e8f3aee0937ff56c7abe435a7ca1c1e370cf74d9e98cc75b8f1fb",
}
# the run's snapshot files, sorted names and bytes, recorded once snapshots were
# written as shortest round-trip decimals
SNAPSHOT_SHA256 = {
    "cauchy": "28be7d26012eb955ff359fac5fffaa039533f87132c673dec1b7104fa89805db",
    "halfline_insulated": "7ea75fe06a03536851099ff55d4e92a993ac3733b89a609e252d969906080552",
    "halfline_isothermal": "83c8254f58ee71ebd0133116eb49dbe66e812088ba78752a790ccfa27c1ecd32",
}
# the final state of a forced run of each setup's default pulse solution
FORCED_SHA256 = {
    "cauchy": "d666496630613bd610dca15cd641159cc47cc9d70d25fb338cb0ec35928d053d",
    "halfline_insulated": "b0eebdcb6e7bcd309ac3c17570ba350603b3f75532fc1487e86092f4626543f8",
    "halfline_isothermal": "c934f8f3abf56a3d9104ab43a20631b16873a70d2bf6618dd8b8f53df14f8cc6",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind", list(SetupKind), ids=lambda k: k.value)
def test_cli_audit_bytes_are_pinned(tmp_path, kind):
    # cadence 0.013 is no multiple of the stable step, so every tick truncates
    # a step to land on it; snapshots every 0.1 exercise the on_record path
    raw = {
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
        "out_dir": str(tmp_path / "out"),
    }
    assert run(parse_config(json.dumps(raw))) == EXIT_OK
    audit = (tmp_path / "out" / "audit.csv").read_bytes()
    assert sha256(audit) == AUDIT_SHA256[kind.value]
    summary = (tmp_path / "out" / "summary.json").read_bytes()
    assert sha256(summary) == SUMMARY_SHA256[kind.value]
    snapshots = sorted((tmp_path / "out").glob("snap_*.csv"))
    assert len(snapshots) == 6  # the first ticks at or past 0, 0.1, ..., 0.4, and 0.5
    data = b"".join(path.name.encode() + path.read_bytes() for path in snapshots)
    assert sha256(data) == SNAPSHOT_SHA256[kind.value]


@pytest.mark.parametrize("kind", list(SetupKind), ids=lambda k: k.value)
def test_forced_advance_final_state_is_pinned(kind):
    setup = ProblemSetup(kind)
    params = GasParams(mu=1.0, kappa=1.0, R=1.0, c_v=1.5)
    grid = make_grid(setup, 10.0, 64)
    solution = default_pulse_solution(setup, 10.0)
    final, _ = advance(
        sample_state(solution, grid), 0.05, 0.05, grid, params, setup, StepControl(),
        sources=make_source_rates(solution, params, grid),
    )
    data = np.float64(final.t).tobytes() + final.v.tobytes() + final.theta.tobytes()
    assert sha256(data + final.u.tobytes()) == FORCED_SHA256[kind.value]
