import math

import numpy as np
import pytest

import bruteforce
from lagas import (
    ConfigurationError,
    GasParams,
    InitialDataSpec,
    SetupKind,
    StepControl,
    build_initial_data,
    convergence_study,
    default_pulse_solution,
    make_grid,
    make_source_rates,
    manufactured_sources,
    rhs,
    sample_state,
    steady_solution,
    steady_state,
    validate_state,
)
from lagas.core import unpack
from lagas.verification import ManufacturedSolution, gaussian_pulse_solution


def sine_temperature_solution(amplitude: float = 0.1, decay: float = 1.0) -> ManufacturedSolution:
    """v = 1, u = 0, theta = 1 + a*sin(x)*exp(-decay*t)."""
    if not abs(amplitude) < 1.0:
        raise ConfigurationError(f"sine needs |amplitude| < 1, got {amplitude!r}")

    def theta(x):
        x = np.asarray(x, dtype=np.float64)
        f = amplitude * np.sin(x)
        return f, amplitude * np.cos(x), -f

    rest = steady_solution().v  # the zero profile
    return ManufacturedSolution(decay, rest, rest, theta)


# ---------------------------------------------------------------- initial data


def test_zero_amplitudes_give_steady_state(cauchy):
    grid = make_grid(cauchy, 8.0, 64)
    spec = InitialDataSpec(family="gaussian_bump")
    state = build_initial_data(spec, cauchy, grid)
    steady = steady_state(grid)
    assert np.array_equal(state.v, steady.v)
    assert np.array_equal(state.theta, steady.theta)
    assert np.array_equal(state.u, steady.u)


def test_large_gaussian_data_is_valid(cauchy):
    # amplitudes are allowed to be large as long as v and theta stay positive
    grid = make_grid(cauchy, 15.0, 256)
    spec = InitialDataSpec(
        family="gaussian_bump", amplitude_v=2.0, amplitude_theta=-0.8, width=1.0
    )
    state = build_initial_data(spec, cauchy, grid)
    assert validate_state(state).ok
    # cell centers sit dm/2 off the bump peak, so the sampled extrema are a hair inside
    assert state.theta.min() == pytest.approx(0.2, abs=0.01)
    assert state.v.max() == pytest.approx(3.0, abs=0.01)
    assert state.theta.min() >= 0.2 and state.v.max() <= 3.0


def test_overdeep_temperature_dip_is_rejected(cauchy):
    grid = make_grid(cauchy, 8.0, 64)
    spec = InitialDataSpec(family="gaussian_bump", amplitude_theta=-1.2, width=1.0)
    with pytest.raises(ConfigurationError):
        build_initial_data(spec, cauchy, grid)


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        InitialDataSpec(family="squiggle")


@pytest.mark.parametrize("setup", [SetupKind.HALFLINE_INSULATED, SetupKind.HALFLINE_ISOTHERMAL])
@pytest.mark.parametrize("family", ["gaussian_bump", "tanh_front", "random_smooth"])
def test_wall_velocity_is_exactly_zero(setup, family):
    grid = make_grid(setup, 10.0, 128)
    spec = InitialDataSpec(
        family=family, amplitude_v=0.5, amplitude_u=0.7, amplitude_theta=0.3,
        width=1.0, center=4.0, seed=5,
    )
    state = build_initial_data(spec, setup, grid)
    assert state.u[0] == 0.0
    assert validate_state(state).ok


def test_isothermal_wall_temperature_approaches_one():
    setup = SetupKind.HALFLINE_ISOTHERMAL
    spec = InitialDataSpec(
        family="gaussian_bump", amplitude_theta=0.5, width=1.0, center=2.0
    )
    devs = []
    for n in (128, 256, 512):
        grid = make_grid(setup, 10.0, n)
        state = build_initial_data(spec, setup, grid)
        devs.append(abs(state.theta[0] - 1.0))
    assert devs[1] <= 0.75 * devs[0]
    assert devs[2] <= 0.75 * devs[1]


def test_insulated_wall_temperature_slope_flattens():
    setup = SetupKind.HALFLINE_INSULATED
    spec = InitialDataSpec(
        family="gaussian_bump", amplitude_theta=0.5, width=1.0, center=2.0
    )
    slopes = []
    for n in (128, 256, 512):
        grid = make_grid(setup, 10.0, n)
        state = build_initial_data(spec, setup, grid)
        slopes.append(abs(state.theta[1] - state.theta[0]) / grid.dm)
    # even reflection: first-cell slope shrinks ~ dm toward zero
    assert slopes[1] <= 0.75 * slopes[0]
    assert slopes[2] <= 0.75 * slopes[1]


def test_random_smooth_is_seed_deterministic(cauchy):
    grid = make_grid(cauchy, 10.0, 128)
    spec = InitialDataSpec(
        family="random_smooth", amplitude_v=0.5, amplitude_u=0.5,
        amplitude_theta=0.3, width=2.0, seed=123, modes=10,
    )
    a = build_initial_data(spec, cauchy, grid)
    b = build_initial_data(spec, cauchy, grid)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.u, b.u)

    other = InitialDataSpec(
        family="random_smooth", amplitude_v=0.5, amplitude_u=0.5,
        amplitude_theta=0.3, width=2.0, seed=124, modes=10,
    )
    c = build_initial_data(other, cauchy, grid)
    assert not np.array_equal(a.v, c.v)


def test_random_smooth_decays_at_far_field(cauchy):
    grid = make_grid(cauchy, 10.0, 256)
    spec = InitialDataSpec(
        family="random_smooth", amplitude_v=0.5, amplitude_u=0.5,
        amplitude_theta=0.5, width=2.0, seed=9, modes=8,
    )
    state = build_initial_data(spec, cauchy, grid)
    edge = max(
        abs(state.v[0] - 1.0), abs(state.v[-1] - 1.0),
        abs(state.theta[0] - 1.0), abs(state.theta[-1] - 1.0),
        abs(state.u[0]), abs(state.u[-1]),
    )
    assert edge < 1e-3


# ---------------------------------------------------------------- manufactured sources


def test_steady_solution_sources_vanish(params):
    ms = steady_solution()
    x = np.linspace(-3.0, 3.0, 41)
    s_v, s_u, s_th = manufactured_sources(ms, params, x, 0.7)
    assert np.all(s_v == 0.0)
    assert np.all(s_u == 0.0)
    assert np.all(s_th == 0.0)


def _fd(f, x, t, var, order, h=1e-3):
    """4th-order central differences of f(x, t) in one variable."""
    if var == "t":
        samples = [f(x, t + k * h) for k in (-2, -1, 1, 2)]
    else:
        samples = [f(x + k * h, t) for k in (-2, -1, 1, 2)]
    m2, m1, p1, p2 = samples
    if order == 1:
        return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)
    center = f(x, t)
    return (-m2 + 16.0 * m1 - 30.0 * center + 16.0 * p1 - p2) / (12.0 * h * h)


REST = {"v": 1.0, "u": 0.0, "theta": 1.0}


def _values(ms, name):
    """The field's value as a function of (x, t), its closed-form partials unused."""
    profile = getattr(ms, name)
    return lambda x, t: REST[name] + math.exp(-ms.decay * t) * profile(x)[0]


def _time_rate(ms, name, x, t):
    """The closed-form time derivative of one field."""
    return -ms.decay * math.exp(-ms.decay * t) * getattr(ms, name)(x)[0]


def _fd_sources(ms, params, x, t):
    v = _values(ms, "v")(x, t)
    th = _values(ms, "theta")(x, t)
    u_x = _fd(_values(ms, "u"), x, t, "x", 1)
    v_x = _fd(_values(ms, "v"), x, t, "x", 1)
    th_x = _fd(_values(ms, "theta"), x, t, "x", 1)
    u_xx = _fd(_values(ms, "u"), x, t, "x", 2)
    th_xx = _fd(_values(ms, "theta"), x, t, "x", 2)
    v_t = _fd(_values(ms, "v"), x, t, "t", 1)
    u_t = _fd(_values(ms, "u"), x, t, "t", 1)
    th_t = _fd(_values(ms, "theta"), x, t, "t", 1)
    p_x = params.R * (th_x / v - th * v_x / v**2)
    s_v = v_t - u_x
    s_u = u_t + p_x - params.mu * (u_xx / v - u_x * v_x / v**2)
    s_th = (
        params.c_v * th_t
        + params.R * (th / v) * u_x
        - params.kappa * (th_xx / v - th_x * v_x / v**2)
        - params.mu * u_x**2 / v
    )
    return s_v, s_u, s_th


@pytest.mark.parametrize(
    "solution",
    [
        sine_temperature_solution(0.1),
        gaussian_pulse_solution(
            amplitudes=(0.15, 0.12, -0.12),
            centers=(-1.0, 0.5, 0.0),
            widths=(1.8, 1.8, 1.8),
        ),
        # at decay 1 a decay factor misplaced in a coefficient goes unseen
        sine_temperature_solution(0.1, decay=0.7),
        gaussian_pulse_solution(
            amplitudes=(0.15, 0.12, -0.12),
            centers=(-1.0, 0.5, 0.0),
            widths=(1.8, 1.8, 1.8),
            decay=0.6,
        ),
    ],
    ids=["sine-theta", "gaussian-pulse", "sine-theta-decay-0.7", "gaussian-pulse-decay-0.6"],
)
def test_closed_form_sources_match_fd_oracle(solution, params):
    rng = np.random.default_rng(2024)
    xs = rng.uniform(-3.0, 3.0, 100)
    ts = rng.uniform(0.0, 2.0, 100)
    for x, t in zip(xs, ts):
        exact = manufactured_sources(solution, params, np.array([x]), t)
        approx = _fd_sources(solution, params, np.array([x]), t)
        for e, a in zip(exact, approx):
            assert float(a[0]) == pytest.approx(float(e[0]), rel=1e-8, abs=1e-8)


@pytest.mark.parametrize(
    ("solution", "fields"),
    [
        (steady_solution(), (None, None, None)),
        (sine_temperature_solution(0.3, decay=0.7), (None, None, ("sine", 0.3))),
        (
            gaussian_pulse_solution(
                amplitudes=(0.15, -0.12, 0.2), centers=(-1.0, 0.5, 0.0),
                widths=(1.8, 0.9, 1.3), decay=0.6,
            ),
            (("pulse", 0.15, -1.0, 1.8), ("pulse", -0.12, 0.5, 0.9), ("pulse", 0.2, 0.0, 1.3)),
        ),
    ],
    ids=["steady", "sine-theta", "gaussian-pulse"],
)
def test_separable_sources_match_loop_oracle(solution, fields, params):
    # the coefficient-profile form regroups the closed-form sources, so it
    # matches them to rounding, not bit for bit
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.0, 3.0, 8):
        x = rng.uniform(-4.0, 4.0, 200)
        oracle = bruteforce.manufactured_sources(fields, solution.decay, params, x, t)
        for got, want in zip(manufactured_sources(solution, params, x, t), oracle):
            want = np.asarray(want)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "solution",
    [
        steady_solution(),
        sine_temperature_solution(0.3, decay=0.7),
        gaussian_pulse_solution(
            amplitudes=(0.15, -0.12, 0.2), centers=(-1.0, 0.5, 0.0),
            widths=(1.8, 0.9, 1.3), decay=0.6,
        ),
    ],
    ids=["steady", "sine-theta", "gaussian-pulse"],
)
@pytest.mark.parametrize("kind", list(SetupKind), ids=lambda k: k.value)
def test_source_rates_equal_pointwise_sources_bit_for_bit(solution, kind, params):
    # make_source_rates builds the coefficient profiles once per grid and
    # reuses them at every t, a row per time of one call; each row must give
    # the bits of a fresh scalar evaluation at its time, whatever the list (all
    # times at once, one, a repeat, unsorted), and sample_state the bits of
    # rest + exp(-decay*t) * profile
    grid = make_grid(kind, 10.0, 48)
    centers, nodes = grid.cell_centers(), grid.nodes()
    rates = make_source_rates(solution, params, grid)
    times = np.random.default_rng(11).uniform(0.0, 3.0, 6).tolist()
    for ts in (times, times[:1], [times[2]] * 2, [times[4], times[0], times[3]]):
        block = rates(ts)
        assert block.shape == (len(ts), 3 * 48 + 1) and block.dtype == np.float64
        for t, row in zip(ts, block):
            s_v, s_th, s_u = unpack(row)
            c_mass, _, c_th = manufactured_sources(solution, params, centers, t)
            assert _bits(s_v) == _bits(c_mass)
            assert _bits(s_u) == _bits(manufactured_sources(solution, params, nodes, t)[1])
            assert _bits(s_th) == _bits(c_th / params.c_v)
    for t in times:
        state = sample_state(solution, grid, t)
        for name in REST:
            x = nodes if name == "u" else centers
            assert _bits(getattr(state, name)) == _bits(_values(solution, name)(x, t)), name


@pytest.mark.parametrize(
    "build",
    [
        lambda: gaussian_pulse_solution((0.1, 0.1, 0.1), (0.0, 0.0, 0.0), (1.0, 0.0, 1.0)),
        lambda: gaussian_pulse_solution((math.nan, 0.1, 0.1), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        lambda: gaussian_pulse_solution((0.1, math.inf, 0.1), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
        lambda: gaussian_pulse_solution(
            (0.1, 0.1, 0.1), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), decay=math.nan
        ),
        lambda: sine_temperature_solution(0.1, decay=math.nan),
    ],
    ids=["pulse-zero-width", "pulse-nan-amplitude", "pulse-inf-amplitude",
         "pulse-nan-decay", "sine-nan-decay"],
)
def test_manufactured_solution_rejects_bad_parameters(build):
    # each would otherwise give a division by zero or NaN sources, found only
    # once a study runs
    with pytest.raises(ConfigurationError):
        build()


@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_forced_rhs_consistent_with_analytic_rates(setup, params):
    # rhs(sampled solution) + sources should reproduce the analytic time
    # derivatives to second order in dm
    ms = default_pulse_solution(setup, 10.0)
    errs = []
    for n in (128, 256):
        grid = make_grid(setup, 10.0, n)
        state = sample_state(ms, grid, 0.0)
        rates = make_source_rates(ms, params, grid)([0.0])[0]
        dv, dtheta, du = unpack(rhs(state, grid, params, setup, rates))
        centers, nodes = grid.cell_centers(), grid.nodes()
        err = max(
            np.abs(dv - _time_rate(ms, "v", centers, 0.0)).max(),
            np.abs(du[1:-1] - _time_rate(ms, "u", nodes, 0.0)[1:-1]).max(),
            np.abs(dtheta - _time_rate(ms, "theta", centers, 0.0)).max(),
        )
        errs.append(err)
    assert errs[0] / errs[1] > 3.0  # ~4x under dm halving


# ---------------------------------------------------------------- convergence studies


def test_convergence_study_steady_is_roundoff(cauchy, params):
    result = convergence_study(
        steady_solution(), cauchy, params, (8, 16, 32), 0.05, 4.0
    )
    assert result.orders is None
    assert max(max(vals) for vals in result.errors.values()) < 1e-11


def test_convergence_study_rejects_short_n_list(cauchy, params):
    with pytest.raises(ConfigurationError):
        convergence_study(steady_solution(), cauchy, params, (8,), 0.05, 4.0)


def test_convergence_study_rejects_unsorted_n_list(cauchy, params):
    with pytest.raises(ConfigurationError):
        convergence_study(steady_solution(), cauchy, params, (32, 16, 64), 0.05, 4.0)


def test_convergence_study_second_order_quick(cauchy, params):
    ms = default_pulse_solution(cauchy, 10.0)
    result = convergence_study(ms, cauchy, params, (32, 64, 128), 0.1, 10.0)
    assert result.orders is not None
    for field, order in result.orders.items():
        assert order > 1.5, (field, order)


def test_pulse_solution_rejects_positivity_breaking_amplitude():
    with pytest.raises(ConfigurationError):
        gaussian_pulse_solution(
            amplitudes=(1.5, 0.0, 0.0), centers=(0.0, 0.0, 0.0), widths=(1.0, 1.0, 1.0)
        )
