"""Byte-level regression pins for the stepping core.

The sha256 digests below were recorded with numpy 2.4.6 on x86-64, last when
SSPRK(4,3) with its SSP-scaled diffusive limit replaced SSP-RK3 and the
audit's int_u4 became a squared square.  A change that keeps
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
    "cauchy": "f33492f020967a01ea2efb3993030e318eab61579e276a73ef0074f50be014c8",
    "halfline_insulated": "ce5f404c2835b2aa074971ccef52d065626ec76ddf71875f53a4e1b733c28a04",
    "halfline_isothermal": "3e100a17050cfdcdfc6dd824807825e141ccda951d090576fa91d0ba0520c0aa",
}
# summary.json echoes config values (setup, n_cells, half_length, t_end, the
# truncation threshold), so these also pin how the run config is typed;
# recorded last when it gained entropy_audit.min_defect and df8_tail_growth
SUMMARY_SHA256 = {
    "cauchy": "a0bd63323c1b6149f1a5ecdc0dcf1a2f50f8118cec703ad77063c7ac8e5ad688",
    "halfline_insulated": "d094cf8540801b1cc9d93910cdf492161aef47f1dca8cef2ed5f13ee7c2fceb3",
    "halfline_isothermal": "732b3cbbebfaa224591c5d2fae6e371214eb7286dc1bc5e3a64a909282521813",
}
# the run's snapshot files, sorted names and bytes, recorded once snapshots were
# written as shortest round-trip decimals
SNAPSHOT_SHA256 = {
    "cauchy": "836694216a34ef7a2fbbc33d470e241798d3380c2fbcbad2a63e0b2969fda41b",
    "halfline_insulated": "934be6e93ce97479c4996265e44e71788b2bedf389da65e47b55e37075c5157f",
    "halfline_isothermal": "35216872af8f22f3fdc94fbe37a3b8a3c2f7c2307e9c6ee7e2c6c65e586fbd8e",
}
# the final state of a forced run of each setup's default pulse solution, recorded
# last when the sources moved to the separable coefficient-profile form
FORCED_SHA256 = {
    "cauchy": "28936d2e0fbfe899f3a500ac5d3ff6a408dc76308c5f8db1fe9fbb7d1f2c35ca",
    "halfline_insulated": "3cfeccd26d7194f51b88d58e345d7571a4cfcf0baf71f57e1331b815dbd4c977",
    "halfline_isothermal": "5189a2828f3eb3d897ee6e86a3e308b39005b40c2eeda686b091f54842e9c17b",
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
