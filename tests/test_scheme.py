import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce
from conftest import random_state
from lagas import (
    DomainError,
    FluidState,
    GasParams,
    ProblemSetup,
    SetupKind,
    make_grid,
    steady_state,
)
from lagas.scheme import boundary_power, heat_flux_faces, rhs, total_energy

ALL_SETUPS = [ProblemSetup(kind) for kind in SetupKind]


def test_pressure_formula(cauchy):
    # a uniform state at rest feels only the pressure jump p - R against the
    # rest-state ghost cells, with p = R*theta/v
    params = GasParams(mu=0.7, kappa=1.3, R=2.0, c_v=1.1)
    grid = make_grid(cauchy, 2.0, 8)
    state = FluidState(0.0, np.full(8, 2.0), np.full(8, 3.0), np.zeros(9))
    d = rhs(state, grid, params, cauchy)
    assert d.du[-1] * grid.dm == pytest.approx(2.0 * 3.0 / 2.0 - 2.0, rel=1e-14)
    assert d.du[0] * grid.dm == pytest.approx(2.0 - 2.0 * 3.0 / 2.0, rel=1e-14)
    assert np.all(d.du[1:-1] == 0.0)


@pytest.mark.parametrize("v,theta", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0), (1.0, -0.5)])
def test_pressure_rejects_nonpositive(cauchy, params, v, theta):
    grid = make_grid(cauchy, 2.0, 8)
    state = steady_state(grid)
    state.v[3], state.theta[3] = v, theta
    with pytest.raises(DomainError):
        rhs(state, grid, params, cauchy)


# without sources the mass rate dv is the cell strain u_x
def test_strain_rate_zero_velocity(cauchy, params):
    grid = make_grid(cauchy, 2.0, 8)
    assert np.all(rhs(steady_state(grid), grid, params, cauchy).dv == 0.0)


def test_strain_rate_linear_velocity(cauchy, params):
    grid = make_grid(cauchy, 2.0, 8)
    slope = 0.75
    u = slope * grid.dm * np.arange(9)
    state = FluidState(0.0, np.ones(8), np.ones(8), u)
    assert np.allclose(rhs(state, grid, params, cauchy).dv, slope, rtol=1e-13)


def test_strain_rate_matches_bruteforce(cauchy, params):
    grid = make_grid(cauchy, 2.0, 8)
    state = random_state(grid, seed=7)
    s = rhs(state, grid, params, cauchy).dv
    assert np.allclose(s, bruteforce.strain_rate(state, grid), rtol=1e-14)


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.kind.value)
def test_heat_flux_zero_for_unit_temperature(setup, params):
    grid = make_grid(setup, 2.0, 8)
    state = steady_state(grid)
    flux = heat_flux_faces(state, grid, params, setup)
    assert np.all(flux == 0.0)


def test_heat_flux_interior_jump(cauchy, params):
    grid = make_grid(cauchy, 2.0, 8)
    delta = 0.3
    theta = np.ones(8)
    theta[4:] += delta
    state = FluidState(0.0, np.ones(8), theta, np.zeros(9))
    flux = heat_flux_faces(state, grid, params, cauchy)
    assert flux[4] == pytest.approx(params.kappa * delta / grid.dm)


def test_heat_flux_insulated_wall_is_exactly_zero(insulated, params):
    grid = make_grid(insulated, 2.0, 8)
    state = random_state(grid, seed=3)
    flux = heat_flux_faces(state, grid, params, insulated)
    assert flux[0] == 0.0


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.kind.value)
def test_rhs_steady_state_is_exactly_zero(setup, params):
    grid = make_grid(setup, 5.0, 32)
    d = rhs(steady_state(grid), grid, params, setup)
    assert np.all(d.dv == 0.0)
    assert np.all(d.du == 0.0)
    assert np.all(d.dtheta == 0.0)


def test_rhs_single_hat_stencil(cauchy):
    # v = theta = 1, u a hat at one interior node: pressure differences vanish
    # and the viscous term is the discrete Laplacian of the hat
    params = GasParams(mu=0.7, kappa=1.3, R=2.0, c_v=1.1)
    grid = make_grid(cauchy, 2.0, 16)
    dm = grid.dm
    k = 8
    u = np.zeros(17)
    u[k] = 1.0
    state = FluidState(0.0, np.ones(16), np.ones(16), u)
    d = rhs(state, grid, params, cauchy)

    assert d.dv[k - 1] == pytest.approx(1.0 / dm, rel=1e-14)
    assert d.dv[k] == pytest.approx(-1.0 / dm, rel=1e-14)
    assert np.all(d.dv[: k - 1] == 0.0) and np.all(d.dv[k + 1 :] == 0.0)

    lap = params.mu / dm**2
    assert d.du[k - 1] == pytest.approx(lap, rel=1e-13)
    assert d.du[k] == pytest.approx(-2.0 * lap, rel=1e-13)
    assert d.du[k + 1] == pytest.approx(lap, rel=1e-13)
    mask = np.ones(17, bool)
    mask[[k - 1, k, k + 1]] = False
    assert np.all(d.du[mask] == 0.0)

    assert d.dtheta[k - 1] == pytest.approx(
        (-params.R / dm + params.mu / dm**2) / params.c_v, rel=1e-13
    )
    assert d.dtheta[k] == pytest.approx(
        (params.R / dm + params.mu / dm**2) / params.c_v, rel=1e-13
    )


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.kind.value)
def test_rhs_matches_bruteforce_stencils(setup, params):
    grid = make_grid(setup, 3.0, 12)
    state = random_state(grid, seed=11)
    if setup.has_wall:
        state.u[0] = 0.0
    d = rhs(state, grid, params, setup)
    dv, du, dth = bruteforce.rhs(state, grid, params, setup)
    assert np.allclose(d.dv, dv, rtol=1e-12, atol=1e-12)
    assert np.allclose(d.du, du, rtol=1e-12, atol=1e-12)
    assert np.allclose(d.dtheta, dth, rtol=1e-12, atol=1e-12)


def assert_close_to_oracle(actual, expected, rel=1e-12):
    """Every entry within ``rel`` times the oracle's largest magnitude."""
    expected = np.asarray(expected)
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


ORACLE_PARAMS = [GasParams(mu=1.0, kappa=1.0, R=1.0, c_v=1.5),
                 GasParams(mu=0.7, kappa=1.3, R=2.0, c_v=1.1)]


@given(
    n=st.integers(min_value=4, max_value=40),
    kind=st.sampled_from(list(SetupKind)),
    params=st.sampled_from(ORACLE_PARAMS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=4, kind=SetupKind.CAUCHY, params=ORACLE_PARAMS[1], seed=0)
@example(n=4, kind=SetupKind.HALFLINE_INSULATED, params=ORACLE_PARAMS[1], seed=1)
@example(n=4, kind=SetupKind.HALFLINE_ISOTHERMAL, params=ORACLE_PARAMS[1], seed=2)
@settings(max_examples=60, deadline=None)
def test_rhs_matches_loop_oracle_with_and_without_sources(n, kind, params, seed):
    # rhs takes the thermal rate as flux divergence plus stress power s*stress
    # and one difference pass over [flux | stress | ghost stress]; the oracle
    # sums -p*s + (flux)_x + mu*s*s/v stencil by stencil.  At n = 4 the
    # seam of that pass lands on du[0] next to only three interior nodes.
    setup = ProblemSetup(kind)
    grid = make_grid(setup, 3.0, n)
    state = random_state(grid, seed=seed)
    if setup.has_wall:
        state.u[0] = 0.0
    rng = np.random.default_rng(seed)
    sources = (rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n + 1),
               rng.uniform(-2.0, 2.0, n))
    for extra in (None, sources):
        d = rhs(state, grid, params, setup, extra)
        expected = bruteforce.rhs(state, grid, params, setup, extra)
        for actual, oracle in zip((d.dv, d.du, d.dtheta), expected):
            assert_close_to_oracle(actual, oracle)

    flux = heat_flux_faces(state, grid, params, setup)
    oracle = [bruteforce.heat_flux(state, grid, params, setup, i) for i in range(n + 1)]
    assert_close_to_oracle(flux, oracle)

    # d/dt total_energy == boundary_power, to 1e-12 of the summed magnitudes
    d = rhs(state, grid, params, setup)
    terms = np.concatenate([params.c_v * d.dtheta, state.u * d.du]) * grid.dm
    power = boundary_power(state, grid, params, setup)
    assert abs(float(terms.sum()) - power) <= 1e-12 * float(np.abs(terms).sum())


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.kind.value)
def test_rhs_discrete_mass_identity(setup, params):
    grid = make_grid(setup, 3.0, 24)
    state = random_state(grid, seed=5)
    d = rhs(state, grid, params, setup)
    total = float(d.dv.sum() * grid.dm)
    expected = float(state.u[-1] - state.u[0])
    assert total == pytest.approx(expected, abs=64 * 24 * np.finfo(float).eps)


def test_rhs_discrete_momentum_identity(cauchy, params):
    # interior node sum telescopes to the stress difference of the outer cells
    grid = make_grid(cauchy, 3.0, 24)
    state = random_state(grid, seed=9)
    d = rhs(state, grid, params, cauchy)
    s = np.array(bruteforce.strain_rate(state, grid))
    stress = params.mu * s / state.v - params.R * state.theta / state.v
    interior_sum = float(d.du[1:-1].sum() * grid.dm)
    assert interior_sum == pytest.approx(float(stress[-1] - stress[0]), rel=1e-12, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_viscous_heating_is_pointwise_nonnegative(seed):
    params = GasParams(1.0, 1.0, 1.0, 1.5)
    setup = ProblemSetup(SetupKind.CAUCHY)
    grid = make_grid(setup, 3.0, 16)
    state = random_state(grid, seed=seed)
    s = np.array(bruteforce.strain_rate(state, grid))
    heating = params.mu * s * s / state.v
    assert np.all(heating >= 0.0)


def test_rhs_translation_equivariance(cauchy, params):
    grid = make_grid(cauchy, 8.0, 64)
    rng = np.random.default_rng(42)
    v = np.ones(64)
    theta = np.ones(64)
    u = np.zeros(65)
    v[20:30] += rng.uniform(-0.3, 0.3, 10)
    theta[20:30] += rng.uniform(-0.3, 0.3, 10)
    u[20:31] = rng.uniform(-0.3, 0.3, 11)
    shifted = FluidState(0.0, np.roll(v, 1), np.roll(theta, 1), np.roll(u, 1))
    state = FluidState(0.0, v, theta, u)

    d = rhs(state, grid, params, cauchy)
    d_shifted = rhs(shifted, grid, params, cauchy)
    window = slice(5, 55)  # away from both boundaries
    assert np.array_equal(d_shifted.dv[6:56], d.dv[window])
    assert np.array_equal(d_shifted.du[6:56], d.du[window])
    assert np.array_equal(d_shifted.dtheta[6:56], d.dtheta[window])


@pytest.mark.parametrize(
    "field,value",
    [("v", -1.0), ("v", np.nan), ("v", np.inf), ("theta", -np.inf), ("theta", np.nan),
     ("theta", np.inf)],
)
def test_rhs_propagates_domain_error(cauchy, params, field, value):
    grid = make_grid(cauchy, 2.0, 8)
    state = steady_state(grid)
    getattr(state, field)[2] = value
    with pytest.raises(DomainError):
        rhs(state, grid, params, cauchy)


@pytest.mark.parametrize("setup", [s for s in ALL_SETUPS if s.has_wall],
                         ids=lambda s: s.kind.value)
def test_rhs_wall_rate_is_zero_even_with_sources(setup, params):
    grid = make_grid(setup, 2.0, 8)
    state = random_state(grid, seed=17)
    state.u[0] = 0.0
    sources = (np.ones(8), np.ones(9), np.ones(8))
    bare = rhs(state, grid, params, setup)
    forced = rhs(state, grid, params, setup, sources)
    assert bare.du[0] == 0.0
    assert forced.du[0] == 0.0
    assert np.array_equal(forced.dv, bare.dv + 1.0)
    assert np.array_equal(forced.du[1:], bare.du[1:] + 1.0)


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.kind.value)
def test_boundary_power_vanishes_at_steady_state(setup, params):
    grid = make_grid(setup, 2.0, 8)
    assert boundary_power(steady_state(grid), grid, params, setup) == 0.0


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.kind.value)
def test_total_energy_budget_closes_semi_discretely(setup, params):
    # d/dt total_energy equals boundary_power when evaluated with the rates
    grid = make_grid(setup, 3.0, 24)
    state = random_state(grid, seed=13)
    if setup.has_wall:
        state.u[0] = 0.0
    d = rhs(state, grid, params, setup)
    de = (params.c_v * d.dtheta.sum() + (state.u * d.du).sum()) * grid.dm
    assert float(de) == pytest.approx(
        boundary_power(state, grid, params, setup), rel=1e-10, abs=1e-10
    )


def test_total_energy_of_steady_state(cauchy, params):
    grid = make_grid(cauchy, 2.0, 8)
    assert total_energy(steady_state(grid), grid, params) == pytest.approx(
        params.c_v * (grid.x_right - grid.x_left)
    )
