import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce
import lagas.integrate
from conftest import random_state
from lagas import (
    ConfigurationError,
    DomainError,
    FluidState,
    GasParams,
    IntegrationError,
    InitialDataSpec,
    SetupKind,
    StepControl,
    StiffnessError,
    advance,
    build_initial_data,
    make_grid,
    stable_dt,
    steady_state,
    step,
)
from lagas.core import positive_and_finite, validate_state
from lagas.diagnostics import AuditTrail, EnergyLedger, audit_row, entropy_energy
from lagas.cli import config_from_dict
from lagas.integrate import DENSE_CUBICS, STAGE_TIMES, _dense_output, _failure, dense_block
from lagas.scheme import Stage, boundary_power, rhs
from lagas.verification import default_pulse_solution, make_source_rates


def bump_state(setup, half_length=8.0, n=64, center=None):
    if center is None:
        center = 0.0 if setup is SetupKind.CAUCHY else half_length / 2.0
    grid = make_grid(setup, half_length, n)
    spec = InitialDataSpec(
        family="gaussian_bump",
        amplitude_v=0.8,
        amplitude_u=0.5,
        amplitude_theta=-0.4,
        width=1.0,
        center=center,
    )
    return grid, build_initial_data(spec, setup, grid)


@pytest.mark.parametrize(
    "field,value",
    [
        ("cfl_hyperbolic", 0.0),
        ("cfl_hyperbolic", 1.5),
        ("cfl_parabolic", -0.1),
        ("dt_min", 0.0),
        ("dt_max", 1e-15),
        ("positivity_floor", 0.0),
    ],
)
def test_step_control_validation(field, value):
    with pytest.raises(ConfigurationError):
        StepControl(**{field: value})


@pytest.mark.parametrize(
    "limits",
    [dict(positivity_floor=math.inf), dict(dt_min=math.inf, dt_max=math.inf)],
    ids=["floor", "dt_min"],
)
def test_step_control_rejects_infinite_limits(limits):
    # an infinite floor fails every state mid-run; an infinite dt_min fails
    # the first step as a StiffnessError
    with pytest.raises(ConfigurationError):
        StepControl(**limits)


def test_stable_dt_worked_example(cauchy, unit_params):
    # steady state, unit coefficients, dm = 0.1, so dt_FE = 0.01/2 = 0.005:
    # hyperbolic 1.0*0.1/sqrt(2), parabolic min(6, 20*0.2) * 0.005 = 0.02 -> parabolic wins
    grid = make_grid(cauchy, 0.5, 10)
    assert grid.dm == pytest.approx(0.1)
    ctrl = StepControl(cfl_hyperbolic=1.0, cfl_parabolic=0.2)
    dt = stable_dt(steady_state(grid), grid, unit_params, ctrl)
    assert dt == pytest.approx(0.02, rel=1e-12)


def test_stable_dt_parabolic_scaling(cauchy, unit_params):
    # at the default 0.4 the acoustic bound 0.4*0.1/sqrt(2) undercuts the coarse
    # grid's parabolic 0.03, so it is lifted out of the way
    ctrl = StepControl(cfl_hyperbolic=1.0)
    coarse = make_grid(cauchy, 0.5, 10)
    fine = make_grid(cauchy, 0.5, 20)
    dt_coarse = stable_dt(steady_state(coarse), coarse, unit_params, ctrl)
    dt_fine = stable_dt(steady_state(fine), fine, unit_params, ctrl)
    assert dt_coarse / dt_fine == pytest.approx(4.0, rel=1e-12)


def test_stable_dt_stiffness_error(cauchy, unit_params):
    grid = make_grid(cauchy, 0.5, 10)
    ctrl = StepControl(dt_min=0.04, dt_max=1.0)  # above the parabolic limit 6 * 0.005 = 0.03
    with pytest.raises(StiffnessError):
        stable_dt(steady_state(grid), grid, unit_params, ctrl)


def test_stable_dt_clamps_to_dt_max(cauchy, unit_params):
    grid = make_grid(cauchy, 0.5, 10)
    ctrl = StepControl(dt_max=1e-3)
    assert stable_dt(steady_state(grid), grid, unit_params, ctrl) == 1e-3


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_stable_dt_rejects_nonpositive_or_nonfinite_fields(cauchy, unit_params, value):
    grid = make_grid(cauchy, 0.5, 10)
    state = steady_state(grid)
    state.theta[3] = value
    with pytest.raises(DomainError):
        stable_dt(state, grid, unit_params, StepControl())


@given(
    seed=st.integers(0, 10_000),
    mu=st.floats(0.1, 10.0),
    kappa=st.floats(0.1, 10.0),
    c_v=st.floats(0.1, 10.0),
    cfl=st.floats(1e-3, 1.0),
)
@example(seed=0, mu=1.0, kappa=1.0, c_v=1.5, cfl=0.3)  # 20 * 0.3 = 6: both bounds tie
@example(seed=0, mu=1.0, kappa=1.0, c_v=1.5, cfl=0.01)
@settings(max_examples=40, deadline=None)
def test_stable_dt_diffusive_bound_matches_cellwise_maximum(seed, mu, kappa, c_v, cfl):
    # oracle: the bound taken at min v equals the per-cell maximum bit for bit,
    # and the step is SSPRK(10,4)'s min(6 dt_FE, 10 * (2 cfl dt_FE)) in this
    # operand order, which fixes its bits; a small R keeps the acoustic bound
    # out of the way at every cfl
    params = GasParams(mu=mu, kappa=kappa, R=1e-4, c_v=c_v)
    grid = make_grid(SetupKind.CAUCHY, 2.0, 64)
    state = random_state(grid, seed)
    ctrl = StepControl(cfl_hyperbolic=1.0, cfl_parabolic=cfl, dt_min=1e-300)
    v, dm = state.v, grid.dm
    diffusivity = np.maximum(params.mu / v, params.kappa / (params.c_v * v))
    two_d = 2.0 * float(diffusivity.max())
    dt_par = min(6.0 * dm * dm / two_d, 10.0 * (2.0 * cfl * dm * dm / two_d))
    sound = np.sqrt(params.R * state.theta * params.gamma) / v
    assert dt_par < ctrl.cfl_hyperbolic * grid.dm / float(sound.max())
    assert stable_dt(state, grid, params, ctrl) == dt_par


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("regime", ["acoustic", "diffusive"])
def test_stable_dt_is_the_loop_oracle_bit_for_bit(regime, seed):
    # stable_dt takes the diffusive limit first and skips the acoustic pass
    # when a bound on the sound speed, from max theta and min v, shows it is
    # not shorter; either way its bits are the loop's min of both limits.  A
    # coarse grid and hot gas make the acoustic limit the shorter
    rng = np.random.default_rng(seed)
    params = GasParams(*rng.uniform(0.2, 5.0, 4).tolist())
    setup = list(SetupKind)[seed % 3]
    if regime == "acoustic":
        grid = make_grid(setup, rng.uniform(20.0, 200.0), int(rng.integers(4, 12)))
    else:
        grid = make_grid(setup, rng.uniform(0.5, 2.0), int(rng.integers(64, 256)))
    state = random_state(grid, seed)
    if regime == "acoustic":
        state.theta[:] *= 1e4
    ctrl = StepControl(cfl_hyperbolic=rng.uniform(0.05, 1.0),
                       cfl_parabolic=rng.uniform(0.1, 1.0), dt_min=1e-300)
    dt, acoustic, diffusive = bruteforce.stable_dt(state, grid, params, ctrl)
    assert (acoustic < diffusive) == (regime == "acoustic")
    assert stable_dt(state, grid, params, ctrl).hex() == dt.hex()


def test_stable_dt_where_the_two_limits_meet_within_an_ulp():
    # theta is solved for the acoustic limit to meet the diffusive one, then
    # moved by up to 4 ulps either way in one cell: at min v ("same"), where the
    # shortcut's bound is that cell's speed, or a few ulps of v above it
    # ("apart"), where the bound overstates every cell.  Each result is the
    # loop's bit for bit, and the limits land on both sides of each other
    sides = set()
    for seed in range(6):
        rng = np.random.default_rng(seed)
        params = GasParams(*rng.uniform(0.5, 2.0, 4).tolist())
        grid, n = make_grid(SetupKind.CAUCHY, 4.0, 16), 16
        ctrl = StepControl(cfl_parabolic=0.3, dt_min=1e-300)
        v = rng.uniform(0.8, 1.2, n)
        low, v_min = int(np.argmin(v)), float(v.min())
        dm, two_d = grid.dm, 2.0 * max(params.mu / v_min, params.kappa / (params.c_v * v_min))
        diffusive = min(6.0 * dm * dm / two_d, 10.0 * (2.0 * 0.3 * dm * dm / two_d))
        speed = ctrl.cfl_hyperbolic * dm / diffusive
        theta_star = (speed * v_min) ** 2 / (params.R * params.gamma)
        for where in ("same", "apart"):
            hot = low if where == "same" else (low + 1) % n
            for offset in range(-4, 5):
                vv, theta = v.copy(), np.full(n, 0.5 * theta_star)
                if where == "apart":
                    vv[hot] = np.nextafter(np.nextafter(v_min, 2.0), 2.0)
                theta[hot] = theta_star
                for _ in range(abs(offset)):
                    theta[hot] = np.nextafter(theta[hot], np.inf if offset > 0 else 0.0)
                state = FluidState(0.0, vv, theta, np.zeros(n + 1))
                dt, acoustic, limit = bruteforce.stable_dt(state, grid, params, ctrl)
                assert limit == diffusive and abs(acoustic - diffusive) <= 8 * math.ulp(diffusive)
                assert stable_dt(state, grid, params, ctrl).hex() == dt.hex()
                sides.add((where, (acoustic > diffusive) - (acoustic < diffusive)))
    assert {("same", -1), ("same", 1), ("apart", -1), ("apart", 1)} <= sides


@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_step_preserves_steady_state_exactly(setup, params, ctrl):
    grid = make_grid(setup, 5.0, 32)
    state = steady_state(grid)
    for _ in range(100):
        state = step(state, 0.01, grid, params, setup, ctrl)
    assert np.all(state.v == 1.0)
    assert np.all(state.theta == 1.0)
    assert np.all(state.u == 0.0)


def test_step_rejects_nonpositive_dt(cauchy, params, ctrl):
    grid = make_grid(cauchy, 2.0, 8)
    with pytest.raises(ConfigurationError):
        step(steady_state(grid), 0.0, grid, params, cauchy, ctrl)


def test_reversed_velocity_is_not_an_inverse(cauchy, params, ctrl):
    grid, state = bump_state(cauchy)
    e0 = entropy_energy(state, params, grid)
    dt = stable_dt(state, grid, params, ctrl)
    forward = step(state, dt, grid, params, cauchy, ctrl)
    reflected = FluidState(forward.t, forward.v, forward.theta, -forward.u)
    back = step(reflected, dt, grid, params, cauchy, ctrl)
    assert not np.allclose(back.v, state.v, atol=1e-12)
    assert entropy_energy(back, params, grid) <= e0 + 1e-8 * (1.0 + e0)


def test_step_failure_names_stage_and_cell(cauchy, params, ctrl):
    grid, state = bump_state(cauchy)
    dt = 500.0 * stable_dt(state, grid, params, ctrl)
    with pytest.raises(IntegrationError) as excinfo:
        step(state, dt, grid, params, cauchy, ctrl)
    err = excinfo.value
    assert 1 <= err.stage <= 10
    assert err.cell is not None
    assert err.field_name in ("v", "theta", "u")
    assert f"stage {err.stage}" in str(err)


@given(
    seed=st.integers(0, 10_000),
    index=st.integers(0, 3 * 8),
    bad=st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0, 1e-10, 2e-10, 1e308]),
    second=st.none() | st.integers(0, 3 * 8),
)
@example(seed=0, index=0, bad=1e308, second=1)
@example(seed=0, index=20, bad=1e308, second=24)
@settings(max_examples=60, deadline=None)
def test_stage_fast_check_agrees_with_validate_state(seed, index, bad, second):
    # oracle: the stage check, core's fast test with the naming scan behind it,
    # fails exactly when validate_state does, and then names the same field and
    # cell; a second bad entry lets finite entries (two of 1e308) overflow the
    # fast test's sum, numpy warns of the overflow, and that stage passes
    grid = make_grid(SetupKind.CAUCHY, 2.0, 8)
    y = random_state(grid, seed).y
    y[index] = bad
    if second is not None:
        y[second] = bad
    report = validate_state(FluidState.from_packed(0.0, y), 1e-10)
    overflow = report.ok and bad == 1e308 and second not in (None, index)
    with (pytest.warns(RuntimeWarning, match="overflow") if overflow
          else contextlib.nullcontext()):
        err = None if positive_and_finite(y, 1e-10) else _failure(y, 1e-10, 2, 0.0)
    if report.ok:
        assert err is None
        return
    assert isinstance(err, IntegrationError)
    assert (err.stage, err.field_name, err.cell) == (2, report.field_name, report.index)


@pytest.mark.parametrize("cell", [0, 3, -1], ids=["first", "interior", "last"])
@pytest.mark.parametrize("field", ["v", "theta"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_step_rejects_a_bad_state_before_any_rhs_call(monkeypatch, unit_params, field, value,
                                                      cell):
    # rhs takes packed stages unchecked, so step checks its input state first;
    # the check reads [v | theta] of the packed state, whose ends are v's first
    # cell and theta's last
    calls = []
    monkeypatch.setattr(lagas.integrate, "rhs", lambda *args, **kwargs: calls.append(args))
    grid = make_grid(SetupKind.CAUCHY, 2.0, 8)
    state = steady_state(grid)
    getattr(state, field)[cell] = value
    with pytest.raises(DomainError):
        step(state, 1e-3, grid, unit_params, SetupKind.CAUCHY, StepControl())
    assert calls == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_step_rejects_a_non_finite_u_before_any_rhs_call(monkeypatch, unit_params, setup, value):
    # a non-finite u used to reach rhs and fail at stage 1 naming v; the input
    # check covers u too, and its naming scan names u and the node
    calls = []
    monkeypatch.setattr(lagas.integrate, "rhs", lambda *args, **kwargs: calls.append(args))
    grid, state = bump_state(setup)
    state.u[3] = value
    with pytest.raises(DomainError, match=r"step needs .*: u\[3\] is non-finite$"):
        step(state, 1e-3, grid, unit_params, setup, StepControl())
    assert calls == []


@pytest.mark.parametrize("field,message", [("v", "finite positive v and theta"),
                                           ("u", r"finite u: u\[2\] is non-finite$")],
                         ids=["v", "u"])
def test_step_rejects_infinities_of_both_signs_without_a_warning(monkeypatch, unit_params,
                                                                 field, message):
    # +inf and -inf sum to NaN in the input scan; under warnings as errors that
    # must still end in a DomainError, not in numpy's invalid-value warning
    calls = []
    monkeypatch.setattr(lagas.integrate, "rhs", lambda *args, **kwargs: calls.append(args))
    grid, state = bump_state(SetupKind.CAUCHY)
    getattr(state, field)[2], state.u[3] = np.inf, -np.inf
    with pytest.raises(DomainError, match=message):
        step(state, 1e-3, grid, unit_params, SetupKind.CAUCHY, StepControl())
    assert calls == []


def forced_bump(setup, params, forced):
    """bump_state's grid and state, with manufactured sources when ``forced``."""
    grid, state = bump_state(setup)
    if not forced:
        return grid, state, None
    return grid, state, make_source_rates(default_pulse_solution(setup, 8.0), params, grid)


@pytest.mark.parametrize("forced", [False, True], ids=["bare", "forced"])
@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_a_second_step_leaves_the_first_result_and_the_input_alone(setup, params, ctrl, forced):
    # each step has its own workspace, and neither its input nor its result
    # shares memory with it
    grid, state, sources = forced_bump(setup, params, forced)
    before = state.y.tobytes()
    dt = stable_dt(state, grid, params, ctrl)
    first = step(state, dt, grid, params, setup, ctrl, sources=sources, ledger=EnergyLedger())
    result = first.y.tobytes()
    second = step(state, dt, grid, params, setup, ctrl, sources=sources, ledger=EnergyLedger())
    assert first.y.tobytes() == second.y.tobytes() == result
    assert state.y.tobytes() == before


@pytest.mark.parametrize("forced", [False, True], ids=["bare", "forced"])
@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_a_kept_step_holds_ten_distinct_rates_and_the_same_result(setup, params, ctrl, forced):
    # the kept rates are copies out of the step's workspace: ten arrays apart
    # from each other and from the result, which is the one a bare step gives
    grid, state, sources = forced_bump(setup, params, forced)
    dt = stable_dt(state, grid, params, ctrl)
    kept, ledgers = [], (EnergyLedger(), EnergyLedger())
    with_kept = step(state, dt, grid, params, setup, ctrl, sources=sources, ledger=ledgers[0],
                     kept=kept)
    held = [k.tobytes() for k, _ in kept]
    alone = step(state, dt, grid, params, setup, ctrl, sources=sources, ledger=ledgers[1])
    assert with_kept.y.tobytes() == alone.y.tobytes()
    assert ledgers[0].inflow == ledgers[1].inflow
    assert len(kept) == 10 and len(set(held)) == 10
    assert [k.tobytes() for k, _ in kept] == held
    arrays = [k for k, _ in kept] + [with_kept.v, with_kept.theta, with_kept.u]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])


# SSPRK(10,4) (Ketcheson 2008) written out from its Shu-Osher form: five
# substeps of dt/6, the sixth stage input 3/5 y0 + 2/5 y5, so the first five
# rates enter later stages at 2/5 * 1/6 = 1/15, and every b is 1/10
SSPRK104_A = [[1.0 / 6.0] * i if i < 5 else [1.0 / 15.0] * 5 + [1.0 / 6.0] * (i - 5)
              for i in range(10)]
SSPRK104_B = [0.1] * 10
SSPRK104_C = [0.0, 1 / 6, 1 / 3, 1 / 2, 2 / 3, 1 / 3, 1 / 2, 2 / 3, 5 / 6, 1.0]


def test_butcher_tableaus_are_consistent():
    # row sums are the stage times, and they match step's own
    assert [sum(row) for row in SSPRK104_A] == pytest.approx(SSPRK104_C, abs=1e-15)
    assert sum(SSPRK104_B) == pytest.approx(1.0, abs=1e-15)
    assert SSPRK104_C == pytest.approx(STAGE_TIMES, abs=0.0)


# a short step, as the last one before t_end, takes the same stages as a stable one
ORACLE_CASES = [
    pytest.param(setup, forced, fraction,
                 id=f"{setup.value}-{'forced' if forced else 'unforced'}"
                 + ("" if fraction == 1.0 else "-short"))
    for fraction in (1.0, 0.37) for setup in SetupKind for forced in (False, True)
]


@pytest.mark.parametrize("setup,forced,fraction", ORACLE_CASES)
def test_step_matches_butcher_tableau_oracle(setup, forced, fraction, params, ctrl):
    # oracle: the loop rhs stepped by the generic explicit Runge-Kutta form,
    # and the ledger as dt * sum_i b_i boundary_power(Y_i); a random state
    # keeps the boundary power of order one, and forcing starts at t = 0.3
    a, b, c = SSPRK104_A, SSPRK104_B, SSPRK104_C
    grid = make_grid(setup, 4.0, 16)
    state = random_state(grid, seed=11)
    if setup.has_wall:
        state.u[0] = 0.0
    sources = None
    if forced:
        sources = make_source_rates(default_pulse_solution(setup, 4.0), params, grid)
        state = FluidState(0.3, state.v, state.theta, state.u)
    dt = fraction * stable_dt(state, grid, params, ctrl)
    ledger = EnergyLedger()
    new = step(state, dt, grid, params, setup, ctrl, sources=sources, ledger=ledger)
    expected, stages = bruteforce.explicit_rk_step(
        state, dt, grid, params, setup, a, b, c, sources
    )
    assert new.t == state.t + dt
    assert new.u[0] == 0.0 or not setup.has_wall  # du[0] = 0 keeps the wall at rest
    for got, want in zip((new.v, new.theta, new.u), expected):
        want = np.array(want)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    inflow = dt * sum(
        bi * boundary_power(FluidState(state.t, *map(np.array, y)), grid, params, setup)
        for bi, y in zip(b, stages)
    )
    assert type(ledger.inflow) is float
    assert ledger.inflow == pytest.approx(inflow, rel=1e-12, abs=0.0)

    # the dense output at theta is the same loop form with b(theta) for b,
    # and keeping the stage rates leaves the step's bits as they were
    kept = []
    again = step(state, dt, grid, params, setup, ctrl, sources=sources, ledger=EnergyLedger(),
                 kept=kept)
    assert again.y.tobytes() == new.y.tobytes()
    assert [power for _, power in kept] == pytest.approx(
        [boundary_power(FluidState(state.t, *map(np.array, y)), grid, params, setup)
         for y in stages], rel=1e-12, abs=1e-14)
    for theta in (0.25, 0.6):
        weights = dense_block([theta])[0].tolist()
        dense = _dense_output(state, dt, [weights], kept)[0]
        expected, _ = bruteforce.explicit_rk_step(
            state, dt, grid, params, setup, a, weights, c, sources
        )
        want = np.concatenate([np.array(field) for field in expected])
        assert np.abs(dense - want).max() <= 1e-12 * np.abs(want).max()


def test_dense_weights_meet_the_third_order_conditions():
    # oracle: sum b = theta, sum b c = theta^2/2, sum b c^2 = theta^3/3 and
    # sum_i b_i sum_j a_ij c_j = theta^3/6 at every theta; b(0) = 0 and b(1)
    # is the tableau's own weights, 1/10 each
    a, c = SSPRK104_A, SSPRK104_C
    ac = [sum(aij * cj for aij, cj in zip(row, c)) for row in a]
    for theta in (0.1, 0.3, 0.5, 0.77, 1.0):
        b = dense_block([theta])[0].tolist()
        assert len(b) == len(c)
        assert sum(b) == pytest.approx(theta, abs=1e-15)
        assert sum(bi * ci for bi, ci in zip(b, c)) == pytest.approx(theta**2 / 2, abs=1e-15)
        assert sum(bi * ci * ci for bi, ci in zip(b, c)) == pytest.approx(theta**3 / 3,
                                                                            abs=1e-15)
        assert sum(bi * x for bi, x in zip(b, ac)) == pytest.approx(theta**3 / 6, abs=1e-15)
    assert dense_block([0.0])[0].tolist() == [0.0] * len(c)
    assert dense_block([1.0])[0].tolist() == pytest.approx(SSPRK104_B, abs=1e-15)


def test_dense_block_is_the_per_tick_loop_bit_for_bit():
    # a block of ticks takes its weights in one numpy pass; each row is the
    # Python-float loop over the stages, and goes on as Python floats
    thetas = [0.0, 1.0, *np.random.default_rng(3).uniform(0.0, 1.0, 40).tolist()]
    block = dense_block(thetas)
    assert block.shape == (len(thetas), len(STAGE_TIMES))
    for theta, row in zip(thetas, block.tolist()):
        loop = [theta * (p1 + theta * (p2 + theta * p3)) for p1, p2, p3 in DENSE_CUBICS]
        assert [b.hex() for b in row] == [b.hex() for b in loop]
        assert all(type(b) is float for b in row)


@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_dense_output_spans_the_step(setup, params, ctrl):
    # at theta = 0 and 1 the dense output is the step's start and end, to rounding
    grid, state = bump_state(setup)
    kept = []
    dt = stable_dt(state, grid, params, ctrl)
    new = step(state, dt, grid, params, setup, ctrl, kept=kept)
    assert len(kept) == len(STAGE_TIMES)
    weights = dense_block([0.0, 1.0]).tolist()
    start, end = _dense_output(state, dt, weights, kept)
    assert start.tobytes() == state.y.tobytes()
    assert np.abs(end - new.y).max() <= 1e-14 * np.abs(new.y).max()


def dense_error(state, grid, params, setup, ctrl, dt, theta):
    """Max error of a step's dense output at theta, against many small steps."""
    kept = []
    step(state, dt, grid, params, setup, ctrl, kept=kept)
    dense = _dense_output(state, dt, dense_block([theta]).tolist(), kept)[0]
    reference, target = state, state.t + theta * dt
    while reference.t < target - 1e-14:
        reference = step(reference, min(dt / 200.0, target - reference.t), grid, params, setup,
                         ctrl)
    return np.abs(dense - reference.y).max()


@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_dense_output_error_shrinks_sixteenfold_per_dt_halving(setup, params, ctrl):
    # a third-order extension errs by O(dt^4) within its step
    grid, state = bump_state(setup)
    coarse, fine = (dense_error(state, grid, params, setup, ctrl, dt, 0.3)
                    for dt in (0.02, 0.01))
    assert 12.0 < coarse / fine < 20.0


@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_record_read_from_dense_output_agrees_with_a_landed_record(setup, params, ctrl):
    # one run lands on T; the other passes T inside its first step and reads
    # the record there from the dense output
    grid, state = bump_state(setup)
    dt = stable_dt(state, grid, params, ctrl)
    tick = 0.4 * dt
    _, landed = advance(state, tick, tick, grid, params, setup, ctrl)
    _, dense = advance(state, 5.0 * dt, tick, grid, params, setup, ctrl)
    assert dense[1].t == landed[-1].t == tick
    error = dense_error(state, grid, params, setup, ctrl, dt, 0.4)
    for name in ("E", "v_min", "theta_max", "lpinf_dev", "vx_l2", "energy_balance_residual"):
        assert getattr(dense[1], name) == pytest.approx(getattr(landed[-1], name), abs=error)


@pytest.mark.parametrize("n", [4, 5, 127, 128, 129, 256, 257])
def test_dense_output_block_matches_the_per_tick_loop(insulated, params, ctrl, n):
    # each row of a block is bit for bit the state the loop form gives its tick
    # alone: b_1 k_1, then + b_j k_j in stage order, times dt, plus y_n
    grid, state = bump_state(insulated, n=n)
    kept = []
    dt = stable_dt(state, grid, params, ctrl)
    step(state, dt, grid, params, insulated, ctrl, ledger=EnergyLedger(), kept=kept)
    for m in (1, 2, 9, max(1, lagas.integrate._BLOCK_CELLS // n) + 1):
        weights = dense_block(np.linspace(0.0, 1.0, m + 2)[1:-1].tolist()).tolist()
        block = _dense_output(state, dt, weights, kept)
        assert block.shape == (m, 3 * n + 1) and block.flags.c_contiguous
        for row, b in zip(block, weights):
            alone = b[0] * kept[0][0]
            for b_j, (k, _) in zip(b[1:], kept[1:]):
                alone += b_j * k
            alone *= dt
            alone += state.y
            assert row.tobytes() == alone.tobytes()


def test_a_failure_inside_a_block_keeps_the_ticks_before_it(monkeypatch, insulated, params, ctrl):
    # the ticks of a step are read as one block; when its fourth fails, the three
    # before it are recorded and reach on_record in order, with the bytes an
    # unbroken run gives them, and the error names the fourth tick
    grid, state = bump_state(insulated)
    every = 0.002
    _, unbroken = advance(state, 0.5, every, grid, params, insulated, ctrl)
    original, rows = lagas.integrate._dense_output, []

    def fourth_tick_fails(*args):
        block = original(*args)
        if not rows:
            block[3, 64 + 5] = -1e-3
        rows.append(len(block))
        return block

    monkeypatch.setattr(lagas.integrate, "_dense_output", fourth_tick_fails)
    seen = []
    with pytest.raises(IntegrationError) as excinfo:
        advance(state, 0.5, every, grid, params, insulated, ctrl,
                on_record=lambda record, snapshot: seen.append((record, snapshot.t)))
    err = excinfo.value
    assert rows[0] > 4
    assert (err.time, err.stage, err.field_name, err.cell) == (4 * every, None, "theta", 5)
    assert [t for _, t in seen] == [record.t for record, _ in seen] == [k * every for k in range(4)]
    assert [audit_row(record) for record, _ in seen] == list(map(audit_row, unbroken[:4]))


def test_a_failed_dense_output_state_raises_at_its_tick(monkeypatch, insulated, params, ctrl):
    # the interpolant carries no SSP guarantee, so its state is checked and a
    # failure names the tick, the field and the cell
    original = lagas.integrate._dense_output

    def negative_theta(*args):
        y = original(*args)
        y[:, 64 + 5] = -1e-3
        return y

    monkeypatch.setattr(lagas.integrate, "_dense_output", negative_theta)
    grid, state = bump_state(insulated)
    assert 0.013 < stable_dt(state, grid, params, ctrl)
    with pytest.raises(IntegrationError) as excinfo:
        advance(state, 0.5, 0.013, grid, params, insulated, ctrl)
    err = excinfo.value
    assert (err.time, err.stage, err.field_name, err.cell) == (0.013, None, "theta", 5)
    assert "dense output at t = 0.013" in str(err)


def inject_at_stage(monkeypatch, number, inject):
    """Patch ``lagas.integrate.rhs`` so that ``inject`` gets the rates of the ``number``-th
    call made with each Stage; a step's fast pass and its replay each have a Stage of their
    own.  Returns the calls per Stage, in the order the Stages were first seen."""
    original, calls = lagas.integrate.rhs, {}

    def injecting(stage, *args):
        k = original(stage, *args)
        calls[stage] = calls.get(stage, 0) + 1
        if calls[stage] == number:
            inject(k)
        return k

    monkeypatch.setattr(lagas.integrate, "rhs", injecting)
    return calls


@pytest.mark.parametrize("field", ["v", "theta", "u"])
def test_a_stage_holding_both_infinities_names_its_stage(monkeypatch, insulated, params, ctrl,
                                                         field):
    # +inf and -inf sum to NaN in the stage test; under warnings as errors that
    # must still end in the IntegrationError naming stage 3, the field and the
    # cell that validate_state names, not in numpy's invalid-value warning
    grid, state = bump_state(insulated)
    n = grid.n_cells

    def both_infinities(k):
        k[{"v": 0, "theta": n, "u": 2 * n}[field] + 2] = np.inf
        k[2 * n + 5] = -np.inf

    calls = inject_at_stage(monkeypatch, 3, both_infinities)
    with pytest.raises(IntegrationError) as excinfo:
        step(state, stable_dt(state, grid, params, ctrl), grid, params, insulated, ctrl,
             ledger=EnergyLedger())
    err = excinfo.value
    assert (err.stage, err.field_name, err.cell) == (3, field, 2)
    assert list(calls.values())[-1] == 3


#: (field, rate) set in one cell of one stage's rates: a non-finite rate leaves that entry of
#: the stage's result non-finite, and -1e12 takes it far below the floor, finite after a mix
STAGE_INJECTIONS = [*((field, bad) for field in ("v", "theta", "u")
                      for bad in (np.inf, np.nan, -np.inf)),
                    ("v", -1e12), ("theta", -1e12)]


@pytest.mark.parametrize("field,value", STAGE_INJECTIONS,
                         ids=[f"{field}={value:g}" for field, value in STAGE_INJECTIONS])
@pytest.mark.parametrize("number", range(1, 11))
def test_a_failure_injected_at_any_stage_names_that_stage(monkeypatch, insulated, params, ctrl,
                                                          number, field, value):
    # a step tests stages 1-9 at the floor only and its result in full, so a
    # non-finite u, or an infinite v or theta, passes the stages after it; the
    # replay tests each stage in full and names the stage, field and cell hit
    grid, state = bump_state(insulated)
    cell = {"v": 0, "theta": grid.n_cells, "u": 2 * grid.n_cells}[field] + 2

    def inject(k):
        k[cell] = value

    inject_at_stage(monkeypatch, number, inject)
    with pytest.raises(IntegrationError) as excinfo:
        step(state, stable_dt(state, grid, params, ctrl), grid, params, insulated, ctrl,
             ledger=EnergyLedger())
    err = excinfo.value
    assert (err.stage, err.field_name, err.cell) == (number, field, 2)
    reason = "is not above the positivity floor" if np.isfinite(value) else "is non-finite"
    assert f"stage {number} at t = 0:" in str(err) and reason in str(err)


def per_stage_checked_step(state, dt, grid, params, setup, ctrl, sources):
    """The result of step's stage arithmetic with core's full fast test at every stage, as a
    loop of its own, through ``lagas.integrate.rhs``."""
    y0, h, floor = state.y, dt / 6.0, ctrl.positivity_floor
    stage = Stage(y0.copy(), grid, params)
    y = stage.y
    times = list(dict.fromkeys(STAGE_TIMES))
    rows = dict(zip(times, zip(*sources([state.t + c * dt for c in times]))))
    for i, c in enumerate(STAGE_TIMES, 1):
        k = lagas.integrate.rhs(stage, grid, params, setup, rows[c])
        k *= h
        y += k
        if i == 5:
            w5 = y.copy()
            y *= 0.4
            y += 0.6 * y0
        elif i == 10:
            y *= 0.6
            y += 0.04 * y0
            y += 0.36 * w5
        if not positive_and_finite(y, floor):
            assert _failure(y, floor, i, state.t) is None
    return y


def test_a_result_whose_finite_sum_overflows_is_replayed_to_the_same_bits(monkeypatch, cauchy,
                                                                           params, ctrl):
    # the steady state stays put at any dt, so dt = 6 makes h = 1 and stage 10
    # leaves 0.6 * 1.5e308 in four u entries: finite, but their sum overflows
    # the end-of-step test, and the replay, which lets an overflowing stage
    # pass as before, gives those bits with one ledger entry and one sources call
    grid = make_grid(cauchy, 16.0, 64)
    state, n = steady_state(grid), grid.n_cells
    calls = {"sources": 0, "add": 0}

    def sources(times):
        calls["sources"] += 1
        rows = len(times)
        return np.zeros((rows, n)), np.zeros((rows, n + 1)), np.zeros((rows, n))

    def huge_u(k):
        k[2 * n + 3 : 2 * n + 7] = 1.5e308

    class CountingLedger(EnergyLedger):
        def add(self, increment):
            calls["add"] += 1
            super().add(increment)

    stage_calls = inject_at_stage(monkeypatch, 10, huge_u)
    with pytest.warns(RuntimeWarning, match="overflow"):
        expected = per_stage_checked_step(state, 6.0, grid, params, cauchy, ctrl, sources)
        assert np.isfinite(expected).all() and not math.isfinite(expected.sum())
    calls["sources"], kept, ledger = 0, [], CountingLedger()
    new = step(state, 6.0, grid, params, cauchy, ctrl, sources=sources, ledger=ledger, kept=kept)
    assert new.y.tobytes() == expected.tobytes()
    assert list(stage_calls.values()) == [10, 10, 10]  # the oracle, the fast pass, the replay
    assert len(kept) == 10 and all(k.shape == state.y.shape for k, _ in kept)
    assert calls == {"sources": 1, "add": 1}


def test_a_passing_step_runs_the_full_fast_test_on_its_input_and_its_result(monkeypatch,
                                                                            insulated, params,
                                                                            ctrl):
    # the finiteness sum runs once per step, not once per stage: the stages
    # between input and result are tested at the floor alone
    grid, state = bump_state(insulated)
    tested, original = [], lagas.integrate.positive_and_finite
    monkeypatch.setattr(lagas.integrate, "positive_and_finite",
                        lambda y, floor: tested.append(y.copy()) or original(y, floor))
    new = step(state, stable_dt(state, grid, params, ctrl), grid, params, insulated, ctrl,
               ledger=EnergyLedger())
    assert [y.tobytes() for y in tested] == [state.y.tobytes(), new.y.tobytes()]


def test_a_dense_output_row_holding_both_infinities_raises_at_its_tick(monkeypatch, insulated,
                                                                       params, ctrl):
    # the same for a tick read from the dense output: the ticks before it are
    # recorded, and the error names the tick, the field and the cell
    grid, state = bump_state(insulated)
    every, original = 0.002, lagas.integrate._dense_output

    def third_tick_infinite(*args):
        block = original(*args)
        block[2, 64 + 5], block[2, 128 + 7] = np.inf, -np.inf
        return block

    monkeypatch.setattr(lagas.integrate, "_dense_output", third_tick_infinite)
    seen = []
    with pytest.raises(IntegrationError) as excinfo:
        advance(state, 0.5, every, grid, params, insulated, ctrl,
                on_record=lambda record, snapshot: seen.append(snapshot.t))
    err = excinfo.value
    assert (err.time, err.stage, err.field_name, err.cell) == (3 * every, None, "theta", 5)
    assert "dense output at t = 0.006" in str(err)
    assert seen == [k * every for k in range(3)]


def pinned_run_data(setup):
    """The run tests/test_golden.py pins, as library arguments."""
    grid = make_grid(setup, 10.0, 64)
    spec = InitialDataSpec(amplitude_v=0.6, amplitude_u=0.4, amplitude_theta=-0.3, width=1.0)
    return grid, build_initial_data(spec, setup, grid)


@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_steps_do_not_depend_on_the_cadence(setup, params, ctrl):
    # ticks read the dense output and never cut a step, so the final state and
    # the final ledger are the same bits at any cadence
    grid, state = pinned_run_data(setup)
    finals = []
    for every in (0.013, 0.1, 0.5):
        final, records = advance(state, 0.5, every, grid, params, setup, ctrl)
        finals.append((final.t, final.y.tobytes(), records[-1].energy_balance_residual))
    assert finals[0] == finals[1] == finals[2]


def test_dense_audit_config_keeps_every_record_balanced():
    # the dense_audit_n256 benchmark config (L = 20, n = 256, cadence 0.002),
    # its seeded amplitudes at mid-range: 999 of the 1 001 records are read
    # from the dense output of about 110 SSPRK(10,4) steps
    config = config_from_dict({
        "setup": "halfline_insulated", "L": 20.0, "n": 256, "t_end": 2.0, "cadence": 0.002,
        "step": {"cfl_parabolic": 0.4},
        "initial_data": {"amplitude_v": 1.9, "amplitude_u": 0.475, "amplitude_theta": -0.775,
                         "width": 1.0, "center": 10.0},
    })
    grid = make_grid(config.setup, config.half_length, config.n_cells)
    state = build_initial_data(config.initial, config.setup, grid)
    _, records = advance(state, config.t_end, config.cadence, grid, config.gas, config.setup,
                         config.control)
    assert len(records) == 1001
    assert max(abs(r.energy_balance_residual) for r in records) <= 1e-9


def test_ssprk104_evaluates_sources_once_per_distinct_time(params, ctrl):
    setup = SetupKind.HALFLINE_ISOTHERMAL
    grid = make_grid(setup, 4.0, 16)
    rates = make_source_rates(default_pulse_solution(setup, 4.0), params, grid)
    calls = []

    def sources(times):
        calls.append(times)
        return rates(times)

    rest = steady_state(grid)
    state = FluidState(0.3, rest.v, rest.theta, rest.u)
    step(state, 0.06, grid, params, setup, ctrl, sources=sources)
    # c = 0, 1/6, 1/3, 1/2, 2/3, 1/3, 1/2, 2/3, 5/6, 1: seven distinct times,
    # in the order the stages first reach them, in one call
    assert len(calls) == 1
    assert calls[0] == pytest.approx([0.3 + 0.01 * k for k in range(7)], abs=1e-15)


def test_stable_dt_is_ten_parabolic_fractions_up_to_the_ssp_limit(cauchy, unit_params):
    # steady state, unit coefficients, dm = 0.1, so dt_FE = 0.005 and the
    # acoustic bound 0.1/sqrt(2) stays out of the way: min(6, 20 cfl) dt_FE,
    # so every cfl_parabolic from 0.3 up gives the same step
    grid = make_grid(cauchy, 0.5, 10)
    state = steady_state(grid)
    for cfl, expected in [(0.3, 0.03), (0.2, 0.02), (0.4, 0.03), (0.01, 0.001), (1.0, 0.03)]:
        ctrl = StepControl(cfl_hyperbolic=1.0, cfl_parabolic=cfl)
        assert stable_dt(state, grid, unit_params, ctrl) == pytest.approx(expected, rel=1e-12)
    assert stable_dt(state, grid, unit_params, StepControl(dt_max=1e-3)) == 1e-3


def final_difference(a, b):
    return max(np.abs(a.v - b.v).max(), np.abs(a.theta - b.theta).max(),
               np.abs(a.u - b.u).max())


@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_ssprk104_step_halving_shows_fourth_order(setup, params):
    # a bump on the whole line and both half-lines; the finest difference,
    # about 1e-9, sits far above rounding
    grid, state = bump_state(setup)
    t_end = 0.32
    finals = []
    for dt in (0.04, 0.02, 0.01):
        ctrl = StepControl(dt_max=dt)
        st = state
        while st.t < t_end - 1e-12:
            st = step(st, min(dt, t_end - st.t), grid, params, setup, ctrl)
        finals.append(st)
    d1 = final_difference(finals[0], finals[1])
    d2 = final_difference(finals[1], finals[2])
    assert 12.0 < d1 / d2 < 24.0


def test_ssprk104_energy_residual_shrinks_at_fourth_order(insulated, params, ctrl):
    # the ledger weighs the stage boundary powers by the method's weights:
    # fourth order gives ~16x smaller drift per dt halving, a first-order slip 2x
    grid, state = bump_state(insulated, center=4.0)
    residuals = []
    for dt in (8e-3, 4e-3):
        st, trail = state, AuditTrail(state, grid, params, insulated)
        while st.t < 0.5 - 1e-12:
            st = step(st, min(dt, 0.5 - st.t), grid, params, insulated, ctrl,
                      ledger=trail.ledger)
        residuals.append(abs(trail.record(st).energy_balance_residual))
    assert residuals[0] / residuals[1] > 12.0


def spy_steps(monkeypatch):
    """The (start time, dt) of every step advance takes and of every stable_dt it asks for."""
    steps, asked = [], []
    original_step, original_stable_dt = lagas.integrate.step, lagas.integrate.stable_dt

    def spy_step(state, dt, *args, **kwargs):
        steps.append((state.t, dt))
        return original_step(state, dt, *args, **kwargs)

    def spy_stable_dt(state, *args):
        asked.append((state.t, original_stable_dt(state, *args)))
        return asked[-1][1]

    monkeypatch.setattr(lagas.integrate, "step", spy_step)
    monkeypatch.setattr(lagas.integrate, "stable_dt", spy_stable_dt)
    return steps, asked


@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_advance_asks_for_one_stable_dt_per_step(monkeypatch, setup, params, ctrl):
    # each step is the stable step of its start state, or the rest of the way
    # to t_end, whichever is shorter; the ticks inside steps ask for nothing
    grid, state = bump_state(setup)
    steps, asked = spy_steps(monkeypatch)
    advance(state, 0.5, 0.013, grid, params, setup, ctrl)
    assert len(steps) > 1
    assert [t for t, _ in asked] == [t for t, _ in steps]
    assert [dt for _, dt in steps] == [min(dt, 0.5 - t) for t, dt in asked]


@pytest.mark.parametrize("bound", ["acoustic", "dt_max"])
@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_advance_steps_at_the_acoustic_or_dt_max_bound_with_ten_rhs_calls(monkeypatch, setup,
                                                                          bound, params):
    # where a bound other than the diffusive one sets dt, every step but the
    # last is that bound, bit for bit, and still one ten-stage SSPRK(10,4) step
    grid, state = bump_state(setup)
    ctrl = StepControl(cfl_hyperbolic=0.05) if bound == "acoustic" else StepControl(dt_max=2e-3)
    starts, original_step = [], lagas.integrate.step

    def spy_step(start, dt, *args, **kwargs):
        starts.append((start, dt))
        return original_step(start, dt, *args, **kwargs)

    calls, original_rhs = [], lagas.integrate.rhs
    monkeypatch.setattr(lagas.integrate, "step", spy_step)
    monkeypatch.setattr(lagas.integrate, "rhs",
                        lambda *args: calls.append(1) or original_rhs(*args))
    final, _ = advance(state, 0.1, 0.1, grid, params, setup, ctrl)
    assert final.t == 0.1 and len(starts) > 5
    assert len(calls) == 10 * len(starts)
    for start, dt in starts[:-1]:
        sound = np.sqrt(params.R * start.theta * params.gamma) / start.v
        acoustic = ctrl.cfl_hyperbolic * grid.dm / float(sound.max())
        assert dt == (acoustic if bound == "acoustic" else ctrl.dt_max)


def large_data(n):
    """Criterion-6-like random data on the whole line, L = 25."""
    grid = make_grid(SetupKind.CAUCHY, 25.0, n)
    spec = InitialDataSpec(
        family="random_smooth", amplitude_v=0.9, amplitude_u=1.1, amplitude_theta=-0.72,
        width=3.0, center=0.3, seed=7, modes=10,
    )
    return grid, build_initial_data(spec, SetupKind.CAUCHY, grid)


def test_large_data_runs_step_mostly_at_fourth_order(monkeypatch, params, ctrl):
    # the 0.1 cadence does not cut steps: each is ten rhs calls at the stable
    # dt of its start state, but the last, which lands on t_end
    grid, state = large_data(256)
    steps, asked = spy_steps(monkeypatch)
    calls, rhs = [], lagas.integrate.rhs
    monkeypatch.setattr(lagas.integrate, "rhs", lambda *args: calls.append(1) or rhs(*args))
    _, records = advance(state, 1.0, 0.1, grid, params, SetupKind.CAUCHY, ctrl)
    assert len(calls) == 10 * len(steps)
    assert [dt for _, dt in steps[:-1]] == [dt for _, dt in asked[:-1]]
    assert abs(records[-1].energy_balance_residual) < 1e-9


def test_advance_steady_records_are_all_zero(cauchy, params, ctrl):
    grid = make_grid(cauchy, 5.0, 32)
    final, records = advance(steady_state(grid), 1.0, 0.25, grid, params, cauchy, ctrl)
    assert final.t == 1.0
    assert [r.t for r in records] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for r in records:
        assert r.E == 0.0
        assert r.D_visc == 0.0 and r.D_heat == 0.0 and r.cum_D == 0.0
        assert r.lpinf_dev == 0.0 and r.df8_rate == 0.0 and r.z4_rate == 0.0
        assert r.energy_balance_residual == 0.0


def test_advance_to_current_time_is_noop_with_one_record(cauchy, params, ctrl):
    grid, state = bump_state(cauchy)
    mid, records = advance(state, 0.5, 0.1, grid, params, cauchy, ctrl)
    again, records2 = advance(mid, 0.5, 0.1, grid, params, cauchy, ctrl)
    assert len(records2) == 1
    assert records2[0].t == 0.5
    assert np.array_equal(again.v, mid.v)
    assert np.array_equal(again.theta, mid.theta)
    assert np.array_equal(again.u, mid.u)


def test_advance_rejects_backward_target(cauchy, params, ctrl):
    grid, state = bump_state(cauchy)
    mid, _ = advance(state, 0.5, 0.1, grid, params, cauchy, ctrl)
    with pytest.raises(ConfigurationError):
        advance(mid, 0.1, 0.1, grid, params, cauchy, ctrl)


@pytest.mark.parametrize("state_cells,grid_cells", [(64, 32), (32, 64)])
@pytest.mark.parametrize("entry", ["advance", "step", "stable_dt", "rhs"])
def test_a_state_off_the_grid_is_rejected_before_any_work(monkeypatch, cauchy, params, ctrl,
                                                          entry, state_cells, grid_cells):
    # unchecked, a longer state failed inside rhs on a numpy broadcast after the
    # first record, and a shorter one as a positivity DomainError read off u
    calls, records = [], []
    monkeypatch.setattr(lagas.integrate, "rhs", lambda *args, **kwargs: calls.append(args))
    grid = make_grid(cauchy, 8.0, grid_cells)
    state = bump_state(cauchy, n=state_cells)[1]
    run = {
        "advance": lambda: advance(state, 0.1, 0.05, grid, params, cauchy, ctrl,
                                   on_record=lambda record, _: records.append(record)),
        "step": lambda: step(state, 1e-3, grid, params, cauchy, ctrl),
        "stable_dt": lambda: stable_dt(state, grid, params, ctrl),
        "rhs": lambda: rhs(state, grid, params, cauchy),
    }[entry]
    message = f"{entry}: state has {state_cells} cells, grid {grid_cells}$"
    with pytest.raises(ConfigurationError, match=message):
        run()
    assert calls == [] and records == []


def test_a_tick_just_before_t_end_stays_its_own_record(cauchy, params, ctrl):
    # advance's landing slack is 1e-12 of max(1, t_end): a tick 1e-10 before
    # t_end is read from the step's dense output as a record of its own
    grid, state = bump_state(cauchy, n=16)
    _, records = advance(state, 0.01, 0.01 - 1e-10, grid, params, cauchy, ctrl)
    assert [r.t for r in records] == [0.0, 0.01 - 1e-10, 0.01]


def test_advance_lands_exactly_on_t_end(cauchy, params, ctrl):
    grid, state = bump_state(cauchy)
    final, records = advance(state, 0.3, 0.07, grid, params, cauchy, ctrl)
    assert final.t == 0.3
    assert records[-1].t == 0.3
    ticks = [r.t for r in records]
    assert ticks == sorted(ticks)


def test_advance_is_deterministic(cauchy, params, ctrl):
    grid, state = bump_state(cauchy)
    f1, r1 = advance(state.copy(), 0.5, 0.1, grid, params, cauchy, ctrl)
    f2, r2 = advance(state.copy(), 0.5, 0.1, grid, params, cauchy, ctrl)
    assert np.array_equal(f1.v, f2.v)
    assert np.array_equal(f1.theta, f2.theta)
    assert np.array_equal(f1.u, f2.u)
    assert [a.E for a in r1] == [b.E for b in r2]
    assert [a.cum_D for a in r1] == [b.cum_D for b in r2]


def test_advance_cumulative_integrals_nondecreasing(cauchy, params, ctrl):
    grid, state = bump_state(cauchy)
    _, records = advance(state, 1.0, 0.1, grid, params, cauchy, ctrl)
    for earlier, later in zip(records, records[1:]):
        assert later.cum_D >= earlier.cum_D
        assert later.cum_df8 >= earlier.cum_df8
        assert later.cum_z4 >= earlier.cum_z4


def test_per_step_entropy_monotonicity(insulated, params, ctrl):
    # no entropy flux through the insulated wall or the quiet far field
    grid, state = bump_state(insulated, center=4.0)
    e0 = entropy_energy(state, params, grid)
    tol = 1e-8 * (1.0 + e0)
    e_prev = e0
    for _ in range(400):
        state = step(state, stable_dt(state, grid, params, ctrl), grid, params, insulated, ctrl)
        e = entropy_energy(state, params, grid)
        assert e <= e_prev + tol
        e_prev = e


def test_steady_state_preserved_over_thousand_steps(cauchy, params, ctrl):
    grid = make_grid(cauchy, 5.0, 64)
    state = steady_state(grid)
    dt = stable_dt(state, grid, params, ctrl)
    for _ in range(1000):
        state = step(state, dt, grid, params, cauchy, ctrl)
    assert np.abs(state.v - 1.0).max() <= 1e-12
    assert np.abs(state.theta - 1.0).max() <= 1e-12
    assert np.abs(state.u).max() <= 1e-12
