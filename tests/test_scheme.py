import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce
from conftest import random_state, split_rates
from lagas import (
    ConfigurationError,
    DomainError,
    FluidState,
    GasParams,
    SetupKind,
    make_grid,
    steady_state,
)
from lagas.core import unpack
from lagas.scheme import Stage, _closures, boundary_power, heat_flux_faces, rhs, total_energy

ALL_SETUPS = list(SetupKind)


def test_pressure_formula(cauchy):
    # a uniform state at rest feels only the pressure jump p - R against the
    # rest-state ghost cells, with p = R*theta/v
    params = GasParams(mu=0.7, kappa=1.3, R=2.0, c_v=1.1)
    grid = make_grid(cauchy, 2.0, 8)
    state = FluidState(0.0, np.full(8, 2.0), np.full(8, 3.0), np.zeros(9))
    du = split_rates(rhs(state, grid, params, cauchy))[2]
    assert du[-1] * grid.dm == pytest.approx(2.0 * 3.0 / 2.0 - 2.0, rel=1e-14)
    assert du[0] * grid.dm == pytest.approx(2.0 - 2.0 * 3.0 / 2.0, rel=1e-14)
    assert np.all(du[1:-1] == 0.0)


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
    assert np.all(split_rates(rhs(steady_state(grid), grid, params, cauchy))[0] == 0.0)


def test_strain_rate_linear_velocity(cauchy, params):
    grid = make_grid(cauchy, 2.0, 8)
    slope = 0.75
    u = slope * grid.dm * np.arange(9)
    state = FluidState(0.0, np.ones(8), np.ones(8), u)
    assert np.allclose(split_rates(rhs(state, grid, params, cauchy))[0], slope, rtol=1e-13)


def test_strain_rate_matches_bruteforce(cauchy, params):
    grid = make_grid(cauchy, 2.0, 8)
    state = random_state(grid, seed=7)
    s = split_rates(rhs(state, grid, params, cauchy))[0]
    assert np.allclose(s, bruteforce.strain_rate(state, grid), rtol=1e-14)


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.value)
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


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.value)
def test_rhs_steady_state_is_exactly_zero(setup, params):
    grid = make_grid(setup, 5.0, 32)
    dv, dtheta, du = split_rates(rhs(steady_state(grid), grid, params, setup))
    assert np.all(dv == 0.0)
    assert np.all(du == 0.0)
    assert np.all(dtheta == 0.0)


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
    dv, dtheta, du = split_rates(rhs(state, grid, params, cauchy))

    assert dv[k - 1] == pytest.approx(1.0 / dm, rel=1e-14)
    assert dv[k] == pytest.approx(-1.0 / dm, rel=1e-14)
    assert np.all(dv[: k - 1] == 0.0) and np.all(dv[k + 1 :] == 0.0)

    lap = params.mu / dm**2
    assert du[k - 1] == pytest.approx(lap, rel=1e-13)
    assert du[k] == pytest.approx(-2.0 * lap, rel=1e-13)
    assert du[k + 1] == pytest.approx(lap, rel=1e-13)
    mask = np.ones(17, bool)
    mask[[k - 1, k, k + 1]] = False
    assert np.all(du[mask] == 0.0)

    assert dtheta[k - 1] == pytest.approx(
        (-params.R / dm + params.mu / dm**2) / params.c_v, rel=1e-13
    )
    assert dtheta[k] == pytest.approx(
        (params.R / dm + params.mu / dm**2) / params.c_v, rel=1e-13
    )


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.value)
def test_rhs_matches_bruteforce_stencils(setup, params):
    grid = make_grid(setup, 3.0, 12)
    state = random_state(grid, seed=11)
    if setup.has_wall:
        state.u[0] = 0.0
    d_v, d_theta, d_u = split_rates(rhs(state, grid, params, setup))
    dv, du, dth = bruteforce.rhs(state, grid, params, setup)
    assert np.allclose(d_v, dv, rtol=1e-12, atol=1e-12)
    assert np.allclose(d_u, du, rtol=1e-12, atol=1e-12)
    assert np.allclose(d_theta, dth, rtol=1e-12, atol=1e-12)


def assert_close_to_oracle(actual, expected, rel=1e-12):
    """Every entry within ``rel`` times the oracle's largest magnitude."""
    expected = np.asarray(expected)
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


ORACLE_PARAMS = [GasParams(mu=1.0, kappa=1.0, R=1.0, c_v=1.5),
                 GasParams(mu=0.7, kappa=1.3, R=2.0, c_v=1.1)]


@given(
    n=st.integers(min_value=4, max_value=40),
    setup=st.sampled_from(list(SetupKind)),
    params=st.sampled_from(ORACLE_PARAMS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=4, setup=SetupKind.CAUCHY, params=ORACLE_PARAMS[1], seed=0)
@example(n=4, setup=SetupKind.HALFLINE_INSULATED, params=ORACLE_PARAMS[1], seed=1)
@example(n=4, setup=SetupKind.HALFLINE_ISOTHERMAL, params=ORACLE_PARAMS[1], seed=2)
@settings(max_examples=60, deadline=None)
def test_rhs_matches_loop_oracle_with_and_without_sources(n, setup, params, seed):
    # rhs takes the thermal rate as flux divergence plus stress power s*stress
    # and one difference pass over [flux | stress | ghost stress]; the oracle
    # sums -p*s + (flux)_x + mu*s*s/v stencil by stencil.  At n = 4 the
    # seam of that pass lands on du[0] next to only three interior nodes.
    grid = make_grid(setup, 3.0, n)
    state = random_state(grid, seed=seed)
    if setup.has_wall:
        state.u[0] = 0.0
    rng = np.random.default_rng(seed)
    sources = (rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n + 1),
               rng.uniform(-2.0, 2.0, n))
    for extra in (None, sources):
        dv, dtheta, du = split_rates(rhs(state, grid, params, setup, extra))
        expected = bruteforce.rhs(state, grid, params, setup, extra)
        for actual, oracle in zip((dv, du, dtheta), expected):
            assert_close_to_oracle(actual, oracle)

    flux = heat_flux_faces(state, grid, params, setup)
    oracle = [bruteforce.heat_flux(state, grid, params, setup, i) for i in range(n + 1)]
    assert_close_to_oracle(flux, oracle)

    # d/dt total_energy == boundary_power, to 1e-12 of the summed magnitudes
    _, dtheta, du = split_rates(rhs(state, grid, params, setup))
    terms = np.concatenate([params.c_v * dtheta, state.u * du]) * grid.dm
    power = boundary_power(state, grid, params, setup)
    assert abs(float(terms.sum()) - power) <= 1e-12 * float(np.abs(terms).sum())


def random_sources(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n + 1), rng.uniform(-2.0, 2.0, n))


@pytest.mark.parametrize("forced", [False, True], ids=["bare", "forced"])
@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.value)
def test_rhs_returns_one_buffer_laid_out_like_a_stage(setup, params, forced):
    # a FluidState and a Stage over its packed copy give the same bytes,
    # [dv | dtheta | du]; the Stage gets its own rates buffer back
    n = 12
    grid = make_grid(setup, 3.0, n)
    state = random_state(grid, seed=23)
    if setup.has_wall:
        state.u[0] = 0.0
    sources = random_sources(n, 23) if forced else None
    rates = rhs(state, grid, params, setup, sources)
    stage = Stage(state.y, grid, params)
    assert rhs(stage, grid, params, setup, sources) is stage.rates
    assert rates.tobytes() == stage.rates.tobytes()
    assert isinstance(rates, np.ndarray) and rates.dtype == np.float64
    assert rates.shape == (3 * n + 1,) and rates.flags.c_contiguous
    dv, du, dtheta = bruteforce.rhs(state, grid, params, setup, sources)
    assert_close_to_oracle(rates[:n], dv)
    assert_close_to_oracle(rates[n : 2 * n], dtheta)
    assert_close_to_oracle(rates[2 * n :], du)


@pytest.mark.parametrize("forced", [False, True], ids=["bare", "forced"])
@pytest.mark.parametrize("n", [4, 5, 128, 129])
@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.value)
def test_a_stage_power_is_nan_until_rhs_leaves_the_boundary_power(setup, params, n, forced):
    # rhs leaves on a Stage the boundary power of the buffer it read, NaN until then
    grid = make_grid(setup, 3.0, n)
    state = random_state(grid, seed=5)
    if setup.has_wall:
        state.u[0] = 0.0
    sources = random_sources(n, n) if forced else None
    stage = Stage(state.y, grid, params)
    assert math.isnan(boundary_power(stage, grid, params, setup))
    rhs(stage, grid, params, setup, sources)
    power = boundary_power(stage, grid, params, setup)
    assert power.hex() == boundary_power(state, grid, params, setup).hex()


def test_a_stage_takes_only_the_grid_and_gas_it_was_built_on(cauchy):
    # a Stage binds its grid's dm and its gas's constants, so it refuses another
    # grid or gas (a mix of the two gases' constants went unreported) and takes
    # equal copies, to the same bits
    params = GasParams(mu=0.7, kappa=1.3, R=2.0, c_v=1.1)
    grid = make_grid(cauchy, 3.0, 16)
    state = random_state(grid, seed=3)
    stage = Stage(state.y.copy(), grid, params)
    others = [(make_grid(cauchy, 4.0, 16), params), (grid, GasParams(1.0, 1.3, 2.0, 1.1)),
              (grid, GasParams(0.7, 1.3, 2.0, 1.5))]
    for other_grid, other_params in others:
        with pytest.raises(ConfigurationError, match="^rhs: a Stage built on "):
            rhs(stage, other_grid, other_params, cauchy)
    assert math.isnan(stage.power)
    copies = make_grid(cauchy, 3.0, 16), GasParams(mu=0.7, kappa=1.3, R=2.0, c_v=1.1)
    expected = rhs(state, grid, params, cauchy).tobytes()
    assert rhs(stage, *copies, cauchy).tobytes() == expected


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_a_stage_writes_every_row_from_a_32_byte_boundary(cauchy, params, n):
    # numpy writes an aligned output row faster and np.empty is only 16-byte
    # aligned, so a Stage cuts its one block from a 64-byte boundary
    grid = make_grid(cauchy, 3.0, n)
    stage = Stage(steady_state(grid).y.copy(), grid, params)
    rows = (stage.work, stage.tmp, stage.rates, stage.dthu, stage.dth, stage.faces_mid,
            stage.stress, stage.vbar)
    assert [row.ctypes.data % 32 for row in rows] == [0] * len(rows)


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.value)
def test_forcing_is_one_add_of_the_packed_rows(setup, params):
    # rhs packs a sources tuple (dv, du, dtheta) like its rates, [dv | dtheta |
    # du], and adds it in one pass, then pins a wall's du[0] at +0.0; a packed
    # row, as a step passes it, gives the same bits, on a Stage too
    n = 12
    grid = make_grid(setup, 3.0, n)
    state = random_state(grid, seed=31)
    sv, su, sth = random_sources(n, 31)
    packed = np.concatenate((sv, sth, su))
    expected = rhs(state, grid, params, setup) + packed
    if setup.has_wall:
        expected[2 * n] = 0.0
    forced = rhs(state, grid, params, setup, (sv, su, sth))
    assert forced.tobytes() == expected.tobytes()
    assert (forced[2 * n] == 0.0) == setup.has_wall
    assert rhs(state, grid, params, setup, packed).tobytes() == expected.tobytes()
    stage = Stage(state.y.copy(), grid, params)
    assert rhs(stage, grid, params, setup, packed).tobytes() == expected.tobytes()


def fifteen_pass_rates(y, grid, params, setup):
    """The rates and boundary power of packed ``y`` as the unfused rhs took them, one numpy
    pass per step: the heat flux (passes 1-4), the strain u_x (5-6), the stress
    (mu*u_x - R*theta)/v (7-10), one difference of the faces for the flux divergence and
    every du (11-12), and the thermal rate in stress-power form (13-15)."""
    n, dm = grid.n_cells, grid.dm
    v, th, u = unpack(y)
    rates, faces, tmp = np.empty_like(y), np.empty(2 * n + 2), np.empty(n)
    dv, dth, du = unpack(rates)
    flux, stress = faces[: n + 1], faces[n + 1 : -1]
    inner = np.subtract(th[1:], th[:-1], out=faces[1:n])
    inner /= np.add(v[:-1], v[1:], out=tmp[:-1])
    inner *= 2.0 * params.kappa / dm
    flux[0], flux[-1], ghost_left, ghost_right, power = _closures(v, th, u, dm, setup, params)
    s = np.subtract(u[1:], u[:-1], out=dv)
    s /= dm
    np.multiply(s, params.mu, out=stress)
    rt = np.multiply(th, params.R, out=tmp)
    stress -= rt
    stress /= v
    faces[-1] = ghost_right
    dthu = np.subtract(faces[1:], faces[:-1], out=rates[n:])
    dthu /= dm
    if ghost_left is not None:
        du[0] = (stress[0] - ghost_left) / dm
    dth += np.multiply(s, stress, out=rt)
    dth /= params.c_v
    if setup.has_wall:
        du[0] = 0.0
    return rates, power


@pytest.mark.parametrize("n", [4, 5, 64])
@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.value)
def test_rhs_of_a_stage_is_the_fifteen_pass_evaluation_bit_for_bit(setup, n):
    # the fused rhs takes one difference over [theta | u], one divide by
    # [vbar | 1 | dm...] and one multiply by [2 kappa/dm... | 0 | mu...] into
    # the faces; its seam slot and constant rows must leave the unfused bits,
    # on a Stage's first state and on a second one written into its buffer
    params = GasParams(mu=0.7, kappa=1.3, R=2.0, c_v=1.1)
    grid = make_grid(setup, 3.0, n)
    first, second = random_state(grid, seed=n), random_state(grid, seed=n + 1, scale=0.9)
    stage = Stage(first.y.copy(), grid, params)
    for state in (first, second):
        stage.y[:] = state.y
        rates = rhs(stage, grid, params, setup)
        expected, power = fifteen_pass_rates(state.y, grid, params, setup)
        assert rates.tobytes() == expected.tobytes()
        assert stage.power.hex() == power.hex()


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.value)
def test_rhs_discrete_mass_identity(setup, params):
    grid = make_grid(setup, 3.0, 24)
    state = random_state(grid, seed=5)
    dv = split_rates(rhs(state, grid, params, setup))[0]
    total = float(dv.sum() * grid.dm)
    expected = float(state.u[-1] - state.u[0])
    assert total == pytest.approx(expected, abs=64 * 24 * np.finfo(float).eps)


def test_rhs_discrete_momentum_identity(cauchy, params):
    # interior node sum telescopes to the stress difference of the outer cells
    grid = make_grid(cauchy, 3.0, 24)
    state = random_state(grid, seed=9)
    du = split_rates(rhs(state, grid, params, cauchy))[2]
    s = np.array(bruteforce.strain_rate(state, grid))
    stress = params.mu * s / state.v - params.R * state.theta / state.v
    interior_sum = float(du[1:-1].sum() * grid.dm)
    assert interior_sum == pytest.approx(float(stress[-1] - stress[0]), rel=1e-12, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_viscous_heating_is_pointwise_nonnegative(seed):
    params = GasParams(1.0, 1.0, 1.0, 1.5)
    setup = SetupKind.CAUCHY
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

    d = split_rates(rhs(state, grid, params, cauchy))
    d_shifted = split_rates(rhs(shifted, grid, params, cauchy))
    window = slice(5, 55)  # away from both boundaries
    for rate_shifted, rate in zip(d_shifted, d):  # dv, dtheta, du
        assert np.array_equal(rate_shifted[6:56], rate[window])


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
                         ids=lambda s: s.value)
def test_rhs_wall_rate_is_zero_even_with_sources(setup, params):
    grid = make_grid(setup, 2.0, 8)
    state = random_state(grid, seed=17)
    state.u[0] = 0.0
    sources = (np.ones(8), np.ones(9), np.ones(8))
    bare_dv, _, bare_du = split_rates(rhs(state, grid, params, setup))
    forced_dv, _, forced_du = split_rates(rhs(state, grid, params, setup, sources))
    assert bare_du[0] == 0.0
    assert forced_du[0] == 0.0
    assert np.array_equal(forced_dv, bare_dv + 1.0)
    assert np.array_equal(forced_du[1:], bare_du[1:] + 1.0)


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.value)
def test_boundary_power_vanishes_at_steady_state(setup, params):
    grid = make_grid(setup, 2.0, 8)
    assert boundary_power(steady_state(grid), grid, params, setup) == 0.0


@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.value)
def test_total_energy_budget_closes_semi_discretely(setup, params):
    # d/dt total_energy equals boundary_power when evaluated with the rates
    grid = make_grid(setup, 3.0, 24)
    state = random_state(grid, seed=13)
    if setup.has_wall:
        state.u[0] = 0.0
    _, dtheta, du = split_rates(rhs(state, grid, params, setup))
    de = (params.c_v * dtheta.sum() + (state.u * du).sum()) * grid.dm
    assert float(de) == pytest.approx(
        boundary_power(state, grid, params, setup), rel=1e-10, abs=1e-10
    )


def test_total_energy_of_steady_state(cauchy, params):
    grid = make_grid(cauchy, 2.0, 8)
    assert total_energy(steady_state(grid), grid, params) == pytest.approx(
        params.c_v * (grid.x_right - grid.x_left)
    )
