"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The long large-data audit trajectory (criteria 3, 4, 5, 7) and the seeded
random-data runs (criterion 6) are shared module-scoped fixtures.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import bruteforce
from conftest import random_state
from lagas import (
    FluidState,
    GasParams,
    InitialDataSpec,
    ProblemSetup,
    SetupKind,
    StepControl,
    advance,
    build_initial_data,
    convergence_study,
    default_pulse_solution,
    make_grid,
    stable_dt,
    steady_state,
    step,
)
from lagas.diagnostics import (
    df8_rate,
    dissipation_rates,
    entropy_energy,
    field_bounds,
    h1_seminorms,
    lp_deviation,
    summarize,
    sup_embedding_check,
    truncated_excess,
    z4_rate,
)
from lagas.scheme import heat_flux_faces, rhs

GAS = GasParams(mu=1.0, kappa=1.0, R=1.0, c_v=1.5)
CTRL = StepControl()
ALL_SETUPS = [ProblemSetup(kind) for kind in SetupKind]

LARGE_DATA = InitialDataSpec(
    family="gaussian_bump",
    amplitude_v=2.0,      # max v0 = 3
    amplitude_u=0.5,
    amplitude_theta=-0.8,  # min theta0 = 0.2
    width=1.0,
    center=0.0,
)


def _criterion(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {name}: {verdict}{suffix}")
    return ok


@pytest.fixture(scope="module")
def audit_run():
    """Large-data Gaussian trajectory to t = 100 at n = 1024 (criteria 3-5, 7)."""
    setup = ProblemSetup(SetupKind.CAUCHY)
    grid = make_grid(setup, 25.0, 1024)
    state = build_initial_data(LARGE_DATA, setup, grid)

    embedding = []  # per record: worst lhs/rhs slack over the three fields

    def on_record(record, snapshot):
        checks = []
        for w in (snapshot.v - 1.0, snapshot.cell_velocity(), snapshot.theta - 1.0):
            lhs, rhs_bound = sup_embedding_check(w, grid)
            checks.append((lhs, rhs_bound))
        embedding.append(checks)

    final, records = advance(
        state, 100.0, 0.025, grid, GAS, setup, CTRL, on_record=on_record
    )
    return SimpleNamespace(
        grid=grid, setup=setup, records=records, final=final, embedding=embedding
    )


@pytest.fixture(scope="module")
def halved_dt_run():
    """The criterion-3 window rerun with both CFL factors halved."""
    setup = ProblemSetup(SetupKind.CAUCHY)
    grid = make_grid(setup, 25.0, 1024)
    state = build_initial_data(LARGE_DATA, setup, grid)
    ctrl = StepControl(cfl_hyperbolic=0.2, cfl_parabolic=0.2)
    _, records = advance(state, 20.0, 0.025, grid, GAS, setup, ctrl)
    return records


@pytest.fixture(scope="module")
def seeded_runs():
    """Three large random-data trajectories to t = 100 (criterion 6)."""
    setup = ProblemSetup(SetupKind.CAUCHY)
    grid = make_grid(setup, 25.0, 512)
    out = {}
    for seed in (2, 7, 11):
        spec = InitialDataSpec(
            family="random_smooth",
            amplitude_v=0.9,
            amplitude_u=1.2,
            amplitude_theta=-0.75,
            width=3.0,
            center=0.0,
            seed=seed,
            modes=10,
        )
        state = build_initial_data(spec, setup, grid)
        _, records = advance(state, 100.0, 0.1, grid, GAS, setup, CTRL)
        out[seed] = records
    return out


def test_criterion_1_steady_state_exactness():
    started = time.perf_counter()
    worst = 0.0
    for setup in ALL_SETUPS:
        grid = make_grid(setup, 10.0, 256)
        state = steady_state(grid)
        for _ in range(1000):
            dt = stable_dt(state, grid, GAS, CTRL)
            state = step(state, dt, grid, GAS, setup, CTRL)
        worst = max(
            worst,
            float(np.abs(state.v - 1.0).max()),
            float(np.abs(state.theta - 1.0).max()),
            float(np.abs(state.u).max()),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    assert _criterion(
        1, "steady-state exactness", ok,
        f"max deviation {worst:.2e} over 1000 steps x 3 setups in {elapsed:.2f}s",
    )


def test_criterion_2_mms_spatial_order():
    started = time.perf_counter()
    results = {}
    for setup in ALL_SETUPS:
        solution = default_pulse_solution(setup, 10.0)
        study = convergence_study(
            solution, setup, GAS, (64, 128, 256, 512), 0.3, 10.0
        )
        results[setup.kind.value] = study.orders
    elapsed = time.perf_counter() - started
    ok = elapsed < 120.0 and all(
        order >= 1.9 for orders in results.values() for order in orders.values()
    )
    detail = "; ".join(
        f"{kind}: " + ", ".join(f"{f}={o:.2f}" for f, o in orders.items())
        for kind, orders in results.items()
    )
    assert _criterion(2, "manufactured-solution spatial order >= 1.9", ok,
                      f"{detail}; {elapsed:.0f}s")


def test_criterion_3_energy_estimate_audit(audit_run, halved_dt_run):
    records = [r for r in audit_run.records if r.t <= 20.0 + 1e-9]
    audit = summarize(records)["entropy_audit"]
    tolerance = audit["initial"] * 1e-3 + 1e-6
    max_budget = audit["max_defect"]
    rates_ok = all(r.D_visc >= 0.0 and r.D_heat >= 0.0 for r in records)

    half = summarize(halved_dt_run)["entropy_audit"]
    max_budget_half = half["max_defect"]
    half_tolerance = (half["initial"] * 1e-3 + 1e-6) / 2.0

    ok = max_budget <= tolerance and rates_ok and max_budget_half <= half_tolerance
    assert _criterion(
        3, "energy-dissipation budget within tolerance", ok,
        f"max defect {max_budget:.2e} <= {tolerance:.2e}; "
        f"halved-dt defect {max_budget_half:.2e} <= {half_tolerance:.2e}",
    )


def test_criterion_4_uniform_bounds_witness(audit_run):
    records = audit_run.records
    early = [r for r in records if r.t <= 20.0 + 1e-9]
    v_lo = min(r.v_min for r in early) / 1.1
    v_hi = max(r.v_max for r in early) * 1.1
    th_lo = min(r.theta_min for r in early) / 1.1
    th_hi = max(r.theta_max for r in early) * 1.1
    inside = all(
        v_lo <= r.v_min and r.v_max <= v_hi and th_lo <= r.theta_min and r.theta_max <= th_hi
        for r in records
    )
    theta_floor = min(r.theta_min for r in records)
    ok = inside and theta_floor > 0.05
    assert _criterion(
        4, "uniform v/theta bounds with no late excursion", ok,
        f"theta in [{theta_floor:.3f}, {max(r.theta_max for r in records):.3f}], "
        f"v in [{min(r.v_min for r in records):.3f}, {max(r.v_max for r in records):.3f}]",
    )


def test_criterion_5_large_time_decay_witness(audit_run):
    summary = summarize(audit_run.records)
    h1 = summary["h1_final_over_max"]
    ratios = {"linf": summary["decay"]["final_over_max"]}
    ratios.update({f"{key}_l2": h1[key] for key in ("vx", "ux", "thetax")})
    tail_ok = summary["decay"]["tail_monotone"]
    ok = all(r < 0.10 for r in ratios.values()) and tail_ok
    assert _criterion(
        5, "large-time decay of sup norm and gradients", ok,
        ", ".join(f"{k} final/max={v:.3f}" for k, v in ratios.items())
        + f"; tail monotone={tail_ok}",
    )


def test_criterion_6_df8_budget_plateau(seeded_runs):
    growths = {
        seed: summarize(records)["df8_tail_growth"] for seed, records in seeded_runs.items()
    }
    ok = all(g < 0.01 for g in growths.values())
    assert _criterion(
        6, "space-time gradient budget plateaus", ok,
        ", ".join(f"seed {s}: final-20% growth {g:.4f}" for s, g in growths.items()),
    )


def test_criterion_7_sup_embedding_inequality(audit_run):
    worst = 0.0
    ok = True
    for checks in audit_run.embedding:
        for lhs, rhs_bound in checks:
            if lhs > rhs_bound * (1.0 + 1e-3):
                ok = False
            if rhs_bound > 0.0:
                worst = max(worst, lhs / rhs_bound)
    assert _criterion(
        7, "sup-embedding inequality at every record", ok,
        f"worst lhs/rhs = {worst:.3f} (allowed 1.001)",
    )


def test_criterion_8_oracle_equivalence():
    setup = ProblemSetup(SetupKind.CAUCHY)
    grid = make_grid(setup, 4.0, 16)
    ok = True
    for seed in range(16):
        state = random_state(grid, seed)
        pairs = [
            (entropy_energy(state, GAS, grid), bruteforce.entropy_energy(state, GAS, grid)),
            (df8_rate(state, grid), bruteforce.df8_rate(state, grid)),
            (z4_rate(state, grid), bruteforce.z4_rate(state, grid)),
        ]
        pairs += list(zip(dissipation_rates(state, GAS, grid),
                          bruteforce.dissipation_rates(state, GAS, grid)))
        pairs += list(zip(field_bounds(state), bruteforce.field_bounds(state)))
        for p in (2.0, math.inf):
            pairs.append((lp_deviation(state, grid, p),
                          bruteforce.lp_deviation(state, grid, p)))
        h1 = h1_seminorms(state, grid)
        pairs += list(zip(
            (h1.vx_l2, h1.ux_l2, h1.thetax_l2, h1.uxx_l2, h1.thetaxx_l2),
            bruteforce.h1_seminorms(state, grid),
        ))
        for a in (1.5, 2.0, 3.0):
            pairs += list(zip(truncated_excess(state, grid, a),
                              bruteforce.truncated_excess(state, grid, a)))
        pairs += list(zip(sup_embedding_check(state.theta - 1.0, grid),
                          bruteforce.sup_embedding_check(list(state.theta - 1.0), grid)))
        for ours, reference in pairs:
            if abs(ours - reference) > 1e-12 * max(abs(reference), 1.0):
                ok = False

    # hand-expanded stencil on a single interior velocity hat
    params = GasParams(mu=0.7, kappa=1.3, R=2.0, c_v=1.1)
    hat_grid = make_grid(setup, 2.0, 16)
    dm = hat_grid.dm
    u = np.zeros(17)
    u[8] = 1.0
    hat = FluidState(0.0, np.ones(16), np.ones(16), u)
    d = rhs(hat, hat_grid, params, setup)
    lap = params.mu / dm**2
    stencil_ok = (
        np.allclose(d.du[7:10], [lap, -2.0 * lap, lap], rtol=1e-13)
        and np.allclose(d.dv[7:9], [1.0 / dm, -1.0 / dm], rtol=1e-13)
        and np.allclose(
            d.dtheta[7:9],
            [(-params.R / dm + lap) / params.c_v, (params.R / dm + lap) / params.c_v],
            rtol=1e-13,
        )
        and np.all(d.du[:7] == 0.0) and np.all(d.du[10:] == 0.0)
    )
    ok = ok and stencil_ok
    assert _criterion(
        8, "diagnostics match brute-force oracle to 1e-12", ok,
        f"16 seeded states on n=16; hat stencil exact={stencil_ok}",
    )


def test_criterion_9_boundary_condition_fidelity():
    # insulated wall: zero wall flux and zero wall velocity at every step
    setup2 = ProblemSetup(SetupKind.HALFLINE_INSULATED)
    grid = make_grid(setup2, 8.0, 64)
    spec = InitialDataSpec(
        family="gaussian_bump", amplitude_v=0.8, amplitude_u=0.6,
        amplitude_theta=0.5, width=1.0, center=2.0,
    )
    state = build_initial_data(spec, setup2, grid)
    insulated_ok = True
    for _ in range(300):
        state = step(state, stable_dt(state, grid, GAS, CTRL), grid, GAS, setup2, CTRL)
        flux = heat_flux_faces(state, grid, GAS, setup2)
        insulated_ok = insulated_ok and flux[0] == 0.0 and state.u[0] == 0.0

    # isothermal wall: first-cell theta within O(dm) of 1, halving as n doubles
    setup3 = ProblemSetup(SetupKind.HALFLINE_ISOTHERMAL)
    deviations = []
    wall_ok = True
    for n in (64, 128, 256):
        grid = make_grid(setup3, 8.0, n)
        spec = InitialDataSpec(
            family="gaussian_bump", amplitude_v=0.5, amplitude_u=0.4,
            amplitude_theta=0.5, width=1.0, center=1.5,
        )
        st = build_initial_data(spec, setup3, grid)
        worst = abs(float(st.theta[0]) - 1.0)
        while st.t < 1.0 - 1e-12:
            dt = min(stable_dt(st, grid, GAS, CTRL), 1.0 - st.t)
            st = step(st, dt, grid, GAS, setup3, CTRL)
            worst = max(worst, abs(float(st.theta[0]) - 1.0))
            wall_ok = wall_ok and st.u[0] == 0.0
        deviations.append(worst)
    shrinking = all(b <= 0.75 * a for a, b in zip(deviations, deviations[1:]))

    ok = insulated_ok and wall_ok and shrinking
    assert _criterion(
        9, "boundary-condition fidelity", ok,
        f"wall flux/velocity exact; theta wall deviation {deviations} halves with n",
    )
