"""Byte-level regression pins for the stepping core.

The sha256 digests below were recorded with numpy 2.4.6 on x86-64, last when
rhs took the thermal rate in stress-power form and the heat flux and stress
from one face-difference pass (all four sets moved).  A change that keeps
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

# recorded last when the truncation audit's outer_dev column joined audit.csv;
# with that column removed, the file hashes to the stress-power rhs digests
AUDIT_SHA256 = {
    "cauchy": "4727d27e7643c25276e45c4ee5fa2da39538584ccbb652f47e4bda181d52c58f",
    "halfline_insulated": "c850ad6608a48b71a410d372bcdc9657b2f27e5d3b59a2821d870ee3d067eafb",
    "halfline_isothermal": "2f20b1283f8de7f6622aaa4ebf40066079dd2f4cc4484d8fe652746bc6f2218f",
}
# summary.json echoes config values (setup, n_cells, half_length, t_end, the
# truncation threshold), so these also pin how the run config is typed;
# recorded last with the stress-power rhs
SUMMARY_SHA256 = {
    "cauchy": "e49b9f71d6049deb334ab7c0879d4545c03714b2f33b721b514fa93230a4d538",
    "halfline_insulated": "d837a136a24697645dc5929657b1f33277b369e78cc3bf74428bd1fd3f658c40",
    "halfline_isothermal": "2f3d648db2f20a797691e950b06d921b75a8a5f53e66bc3bfea70a038eea1a3c",
}
# the run's snapshot files, sorted names and bytes (shortest round-trip
# decimals), recorded last with the stress-power rhs
SNAPSHOT_SHA256 = {
    "cauchy": "36978eff36ec92fde911827836e57b4ec2516f6a448586c20e0fd3519f463552",
    "halfline_insulated": "267ef990241f2d3efaa34df22b2f11ba64dc9bc9381b213994781466132742e7",
    "halfline_isothermal": "d3a82b8118ee136d30ee364c2544a3d41866300f482c281c59388314a7dc566f",
}
# the final state of a forced run of each setup's default pulse solution, recorded
# last with the stress-power rhs
FORCED_SHA256 = {
    "cauchy": "5a3bd61f0d584eee077643944ee21479e17b48b2756951dccd8ea4a3b3ea4bda",
    "halfline_insulated": "ddf33090e88aeb47772a936950492079e4ec5c29ed09f68aeca48ca81109080f",
    "halfline_isothermal": "6c9f03b0b7389788f22989d89ff331adca8a3126883d2ccf98a1822de49d19e2",
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
