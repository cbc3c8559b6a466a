import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagas import (
    ConfigurationError,
    FluidState,
    GasParams,
    IntegrationError,
    MassGrid,
    SetupKind,
    StiffnessError,
    make_grid,
    steady_state,
    validate_state,
)
from lagas.core import require_valid
from lagas.diagnostics import entropy_energy


def test_make_grid_cauchy(cauchy):
    grid = make_grid(cauchy, 10.0, 100)
    assert (grid.x_left, grid.x_right) == (-10.0, 10.0)
    assert grid.dm == pytest.approx(0.2)


def test_make_grid_halfline(insulated):
    grid = make_grid(insulated, 20.0, 400)
    assert (grid.x_left, grid.x_right) == (0.0, 20.0)
    assert grid.dm == pytest.approx(0.05)


# a float or infinite n must fail here, not later as a TypeError or OverflowError,
# and so must an L whose spacing overflows to inf or underflows to 0, or whose
# spacing squared is not a normal float
@pytest.mark.parametrize("bad", [(10.0, 3), (-1.0, 100), (0.0, 100), (10.0, 4.0),
                                 (10.0, math.inf), (1e308, 16), (5e-324, 16),
                                 (4e204, 64), (4e-211, 16), (5e-300, 64)])
def test_make_grid_rejects_bad_config(cauchy, bad):
    half_length, n = bad
    with pytest.raises(ConfigurationError):
        make_grid(cauchy, half_length, n)


def test_grid_layout():
    grid = MassGrid(0.0, 4.0, 8)
    assert grid.nodes().shape == (9,)
    assert grid.cell_centers().shape == (8,)
    assert grid.cell_centers()[0] == pytest.approx(0.25)
    assert MassGrid(0.0, 4.0, np.int64(8)) == grid


# dyadic extents make every node exactly representable, so uniformity
# of the spacing can be asserted bitwise
@given(
    scale=st.integers(min_value=1, max_value=64),
    exponent=st.integers(min_value=-3, max_value=3),
    n_pow=st.integers(min_value=2, max_value=9),
)
def test_grid_spacing_exact_on_dyadic_grids(scale, exponent, n_pow):
    half_length = scale * 2.0**exponent
    grid = make_grid(SetupKind.CAUCHY, half_length, 2**n_pow)
    assert np.all(np.diff(grid.nodes()) == grid.dm)


@given(
    half_length=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    n=st.integers(min_value=4, max_value=2000),
)
@settings(max_examples=50)
def test_grid_spacing_uniform_generally(half_length, n):
    grid = make_grid(SetupKind.CAUCHY, half_length, n)
    spacing = np.diff(grid.nodes())
    assert np.allclose(spacing, grid.dm, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("field", ["mu", "kappa", "R", "c_v"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_gas_params_require_positive(field, bad):
    values = {"mu": 1.0, "kappa": 1.0, "R": 1.0, "c_v": 1.0}
    values[field] = bad
    with pytest.raises(ConfigurationError):
        GasParams(**values)


def test_gamma():
    assert GasParams(1.0, 1.0, 1.0, 1.5).gamma == pytest.approx(1.0 / 1.5 + 1.0)


def test_steady_state_values(cauchy):
    grid = make_grid(cauchy, 2.0, 8)
    state = steady_state(grid)
    assert np.all(state.v == 1.0)
    assert np.all(state.theta == 1.0)
    assert np.all(state.u == 0.0)
    assert state.t == 0.0


@given(floor=st.floats(min_value=1e-300, max_value=0.999, allow_nan=False))
@settings(max_examples=30)
def test_steady_state_validates_for_any_subunit_floor(floor):
    grid = make_grid(SetupKind.CAUCHY, 2.0, 8)
    assert validate_state(steady_state(grid), floor).ok


def test_default_positivity_floor_lies_between_1e_10_and_2e_10(cauchy):
    # POSITIVITY_FLOOR pinned by what it does: a min v of 2e-10 passes the
    # default floor, and 1e-10 is not above it
    state = steady_state(make_grid(cauchy, 2.0, 8))
    state.v[3] = 2e-10
    assert validate_state(state).ok
    state.v[3] = 1e-10
    assert validate_state(state).message() == "v[3] is not above the positivity floor 1e-10"


def test_require_valid_passes_finite_entries_whose_sum_overflows(cauchy):
    # the fast test's sum overflows, quietly, and the naming scan finds nothing
    grid = make_grid(cauchy, 2.0, 8)
    y = steady_state(grid).y
    y[[0, 20]] = 1e308
    assert require_valid("input", y, grid) is y


def test_steady_state_has_zero_entropy_energy(cauchy, params):
    grid = make_grid(cauchy, 2.0, 8)
    assert entropy_energy(steady_state(grid), params, grid) == 0.0


def test_validate_state_flags_negative_theta(cauchy):
    grid = make_grid(cauchy, 2.0, 8)
    state = steady_state(grid)
    state.theta[5] = -0.1
    report = validate_state(state, 1e-10)
    assert not report.ok
    assert report.field_name == "theta"
    assert report.index == 5


def test_validate_state_flags_nonfinite_v(cauchy):
    grid = make_grid(cauchy, 2.0, 8)
    state = steady_state(grid)
    state.v[0] = np.nan
    report = validate_state(state)
    assert not report.ok
    assert (report.field_name, report.index) == ("v", 0)
    assert "non-finite" in report.message()


def test_validate_state_flags_nonfinite_u(cauchy):
    grid = make_grid(cauchy, 2.0, 8)
    state = steady_state(grid)
    state.u[3] = np.inf
    report = validate_state(state)
    assert (report.ok, report.field_name, report.index) == (False, "u", 3)


def test_validate_state_rejects_bad_floor(cauchy):
    grid = make_grid(cauchy, 2.0, 8)
    with pytest.raises(ConfigurationError):
        validate_state(steady_state(grid), floor=0.0)


def test_fluid_state_shape_checks():
    with pytest.raises(ConfigurationError):
        FluidState(0.0, np.ones(8), np.ones(7), np.zeros(9))
    with pytest.raises(ConfigurationError):
        FluidState(0.0, np.ones(8), np.ones(8), np.zeros(8))
    with pytest.raises(ConfigurationError):
        FluidState(-1.0, np.ones(8), np.ones(8), np.zeros(9))


def test_fluid_state_copy_is_independent(cauchy):
    grid = make_grid(cauchy, 2.0, 8)
    original = steady_state(grid)
    snapshot = (original.v.copy(), original.theta.copy(), original.u.copy())
    clone = original.copy()
    clone.v[:] = 9.0
    clone.theta[:] = 9.0
    clone.u[:] = 9.0
    assert np.array_equal(original.v, snapshot[0])
    assert np.array_equal(original.theta, snapshot[1])
    assert np.array_equal(original.u, snapshot[2])


def test_a_state_owns_one_packed_buffer():
    # v, theta and u are views of one C-contiguous float64 [v | theta | u]: the state never
    # aliases the arrays it was built from, from_packed adopts its buffer, a copy shares nothing
    rng = np.random.default_rng(5)
    n = 9
    v, theta, u = rng.uniform(0.5, 2, n), rng.uniform(0.5, 2, n), rng.uniform(-1, 1, n + 1)
    state = FluidState(0.25, v, theta, u)
    y = state.y
    assert y.dtype == np.float64 and y.flags.c_contiguous and y.shape == (3 * n + 1,)
    assert np.array_equal(y, np.concatenate((v, theta, u)))
    assert all(np.shares_memory(field, y) for field in (state.v, state.theta, state.u))
    packed = y.copy()
    for arr in (v, theta, u):
        arr[:] = 7.0
    assert np.array_equal(state.y, packed)
    assert np.array_equal(state.u, packed[2 * n :])
    assert FluidState.from_packed(0.5, y).y is y
    assert not np.shares_memory(state.copy().y, y)
    for twin in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert all(np.shares_memory(field, twin.y) for field in (twin.v, twin.theta, twin.u))
        assert np.array_equal(twin.y, y) and not np.shares_memory(twin.y, y)


def test_cell_velocity_averages_nodes(cauchy):
    grid = make_grid(cauchy, 2.0, 4)
    state = FluidState(0.0, np.ones(4), np.ones(4), np.arange(5.0))
    assert np.allclose(state.cell_velocity(), [0.5, 1.5, 2.5, 3.5])


def test_only_half_line_setups_have_a_wall():
    assert not SetupKind.CAUCHY.has_wall
    assert SetupKind.HALFLINE_INSULATED.has_wall
    assert SetupKind.HALFLINE_ISOTHERMAL.has_wall


@pytest.mark.parametrize(
    "error",
    [
        StiffnessError("dt collapsed", time=1.25),
        IntegrationError("theta <= 0", time=2.5, stage=3, cell=17, field_name="theta"),
        IntegrationError("non-finite u", time=0.5),
    ],
    ids=["stiffness", "integration", "integration-no-context"],
)
def test_run_errors_survive_pickling(error):
    # a worker process of `lagas sweep --jobs` sends its failures back pickled
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    for name in ("time", "stage", "cell", "field_name"):
        assert getattr(back, name, None) == getattr(error, name, None), name
