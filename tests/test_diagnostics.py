import importlib
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import lagas.integrate
from conftest import random_state
from lagas import (
    DomainError,
    FluidState,
    GasParams,
    MassGrid,
    SetupKind,
    advance,
    build_initial_data,
    InitialDataSpec,
    StepControl,
    make_grid,
    steady_state,
)
from lagas.diagnostics import (
    DEFAULT_EXCESS_THRESHOLDS,
    AuditTrail,
    audit_columns,
    audit_header,
    audit_row,
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


@pytest.fixture
def grid16(cauchy):
    return make_grid(cauchy, 4.0, 16)


def positive_state(grid, seed):
    return random_state(grid, seed)


# ---------------------------------------------------------------- oracles


def test_all_diagnostics_match_bruteforce(params, grid16):
    for seed in range(8):
        state = positive_state(grid16, seed)
        assert entropy_energy(state, params, grid16) == pytest.approx(
            bruteforce.entropy_energy(state, params, grid16), rel=1e-12
        )
        dv, dh = dissipation_rates(state, params, grid16)
        bdv, bdh = bruteforce.dissipation_rates(state, params, grid16)
        assert dv == pytest.approx(bdv, rel=1e-12)
        assert dh == pytest.approx(bdh, rel=1e-12)
        assert field_bounds(state) == pytest.approx(
            bruteforce.field_bounds(state), rel=1e-15
        )
        for p in (2.0, 4.0, math.inf):
            assert lp_deviation(state, grid16, p) == pytest.approx(
                bruteforce.lp_deviation(state, grid16, p), rel=1e-12
            )
        h1 = h1_seminorms(state, grid16)
        expected = bruteforce.h1_seminorms(state, grid16)
        assert (h1.vx_l2, h1.ux_l2, h1.thetax_l2, h1.uxx_l2, h1.thetaxx_l2) == pytest.approx(
            expected, rel=1e-12
        )
        for a in (1.5, 2.0, 3.0):
            assert truncated_excess(state, grid16, a) == pytest.approx(
                bruteforce.truncated_excess(state, grid16, a), rel=1e-12
            )
        assert df8_rate(state, grid16) == pytest.approx(
            bruteforce.df8_rate(state, grid16), rel=1e-12
        )
        assert z4_rate(state, grid16) == pytest.approx(
            bruteforce.z4_rate(state, grid16), rel=1e-12
        )
        w = state.theta - 1.0
        assert sup_embedding_check(w, grid16) == pytest.approx(
            bruteforce.sup_embedding_check(list(w), grid16), rel=1e-12
        )


# ---------------------------------------------------------------- entropy energy


def test_entropy_energy_zero_at_steady_state(params, grid16):
    assert entropy_energy(steady_state(grid16), params, grid16) == 0.0


def test_entropy_energy_single_cell_value(unit_params, insulated):
    # one cell at v = 2 on a unit-dm grid: R*(2 - ln 2 - 1)
    grid = make_grid(insulated, 4.0, 4)
    assert grid.dm == 1.0
    v = np.ones(4)
    v[1] = 2.0
    state = FluidState(0.0, v, np.ones(4), np.zeros(5))
    expected = 2.0 - math.log(2.0) - 1.0
    assert entropy_energy(state, unit_params, grid) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.306853, abs=1e-6)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_entropy_energy_nonnegative(seed):
    params = GasParams(1.0, 1.0, 1.0, 1.5)
    grid = make_grid(SetupKind.CAUCHY, 4.0, 16)
    assert entropy_energy(positive_state(grid, seed), params, grid) >= 0.0


def test_entropy_energy_rejects_nonpositive_fields(params, grid16):
    state = steady_state(grid16)
    state.theta[3] = -1.0
    with pytest.raises(DomainError):
        entropy_energy(state, params, grid16)


# ---------------------------------------------------------------- dissipation


def test_dissipation_zero_at_steady_state(params, grid16):
    assert dissipation_rates(steady_state(grid16), params, grid16) == (0.0, 0.0)


def test_dissipation_single_face_jump(params, grid16):
    delta = 1e-3
    theta = np.ones(16)
    theta[8:] += delta
    state = FluidState(0.0, np.ones(16), theta, np.zeros(17))
    _, d_heat = dissipation_rates(state, params, grid16)
    assert d_heat == pytest.approx(params.kappa * delta**2 / grid16.dm, rel=5e-3)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_dissipation_rates_nonnegative(seed):
    params = GasParams(1.0, 1.0, 1.0, 1.5)
    grid = make_grid(SetupKind.CAUCHY, 4.0, 16)
    dv, dh = dissipation_rates(positive_state(grid, seed), params, grid)
    assert dv >= 0.0 and dh >= 0.0


# ---------------------------------------------------------------- bounds, norms


def test_field_bounds_steady(grid16):
    assert field_bounds(steady_state(grid16)) == (1.0, 1.0, 1.0, 1.0)


def test_field_bounds_detects_inserted_value(grid16):
    state = steady_state(grid16)
    state.v[7] = 0.5
    assert field_bounds(state)[0] == 0.5


def test_lp_deviation_zero_at_steady(grid16):
    for p in (2.0, 3.0, math.inf):
        assert lp_deviation(steady_state(grid16), grid16, p) == 0.0


def test_lp_deviation_measure_formula(grid16):
    delta, m_cells = 0.25, 5
    theta = np.ones(16)
    theta[:m_cells] += delta
    state = FluidState(0.0, np.ones(16), theta, np.zeros(17))
    p = 4.0
    expected = (m_cells * grid16.dm * delta**p) ** (1.0 / p)
    assert lp_deviation(state, grid16, p) == pytest.approx(expected, rel=1e-12)


def test_lp_deviation_large_p_approaches_sup(cauchy):
    grid = make_grid(cauchy, 10.0, 256)
    x = grid.cell_centers()
    theta = 1.0 + 0.5 * np.exp(-((x / 2.0) ** 2))
    state = FluidState(0.0, np.ones(256), theta, np.zeros(257))
    p64 = lp_deviation(state, grid, 64.0)
    sup = lp_deviation(state, grid, math.inf)
    assert abs(p64 - sup) / sup < 0.05


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
def test_lp_deviation_rejects_small_p(grid16, p):
    with pytest.raises(DomainError):
        lp_deviation(steady_state(grid16), grid16, p)


def test_h1_seminorms_zero_at_steady(grid16):
    h1 = h1_seminorms(steady_state(grid16), grid16)
    assert (h1.vx_l2, h1.ux_l2, h1.thetax_l2, h1.uxx_l2, h1.thetaxx_l2) == (
        0.0,
        0.0,
        0.0,
        0.0,
        0.0,
    )


def test_h1_seminorms_linear_temperature(grid16):
    slope = 0.4
    theta = 1.0 + slope * grid16.cell_centers()
    state = FluidState(0.0, np.ones(16), theta, np.zeros(17))
    h1 = h1_seminorms(state, grid16)
    covered = (grid16.n_cells - 1) * grid16.dm
    assert h1.thetax_l2**2 == pytest.approx(slope**2 * covered, rel=1e-10)
    assert h1.thetaxx_l2 == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------- excess sets


def test_truncated_excess_steady(grid16):
    assert truncated_excess(steady_state(grid16), grid16, 2.0) == (0.0, 0.0)


def test_truncated_excess_single_hot_cell(insulated):
    grid = make_grid(insulated, 4.0, 8)
    assert grid.dm == 0.5
    theta = np.ones(8)
    theta[3] = 3.0
    state = FluidState(0.0, np.ones(8), theta, np.zeros(9))
    assert truncated_excess(state, grid, 2.0) == (0.5, 0.5)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_truncated_excess_monotone_in_threshold(seed):
    grid = make_grid(SetupKind.CAUCHY, 4.0, 16)
    state = positive_state(grid, seed)
    e2, om2 = truncated_excess(state, grid, 2.0)
    e3, om3 = truncated_excess(state, grid, 3.0)
    assert e3 <= e2 and om3 <= om2


def test_truncated_excess_rejects_threshold_below_one(grid16):
    with pytest.raises(DomainError):
        truncated_excess(steady_state(grid16), grid16, 1.0)


# ---------------------------------------------------------------- sup embedding


def test_sup_embedding_zero_field(grid16):
    assert sup_embedding_check(np.zeros(16), grid16) == (0.0, 0.0)


@pytest.mark.parametrize("height,half_width", [(1.0, 3), (0.2, 5), (2.5, 2)])
def test_sup_embedding_holds_for_hats(cauchy, height, half_width):
    grid = make_grid(cauchy, 8.0, 64)
    w = np.zeros(64)
    k = half_width
    ramp = np.linspace(0.0, height, k + 1)[1:]
    w[30 - k : 30] = ramp
    w[30 : 30 + k] = ramp[::-1]
    lhs, rhs = sup_embedding_check(w, grid)
    assert lhs == pytest.approx(height**2)
    assert lhs <= rhs * (1.0 + 1e-6)


# ---------------------------------------------------------------- df8 / z4


def test_df8_rate_steady(grid16):
    assert df8_rate(steady_state(grid16), grid16) == 0.0


def test_df8_rate_single_strained_cell(grid16):
    s = 1e-3
    u = np.zeros(17)
    u[9:] = s * grid16.dm  # strain s in cell 8 only
    state = FluidState(0.0, np.ones(16), np.ones(16), u)
    assert df8_rate(state, grid16) == pytest.approx(2.0 * s**2 * grid16.dm, rel=1e-6)


def test_z4_rate_steady(grid16):
    assert z4_rate(steady_state(grid16), grid16) == 0.0


# ---------------------------------------------------------------- audit trail


def run_short_bump(setup=SetupKind.CAUCHY, n=64, t_end=0.5, every=0.1):
    grid = make_grid(setup, 8.0, n)
    params = GasParams(1.0, 1.0, 1.0, 1.5)
    spec = InitialDataSpec(
        family="gaussian_bump",
        amplitude_v=0.8,
        amplitude_u=0.5,
        amplitude_theta=-0.4,
        width=1.0,
        center=0.0 if setup is SetupKind.CAUCHY else 4.0,
    )
    state = build_initial_data(spec, setup, grid)
    final, records = advance(
        state, t_end, every, grid, params, setup, StepControl()
    )
    return grid, params, records


def test_audit_trail_trapezoid_matches_hand_sum():
    _, _, records = run_short_bump(t_end=0.3, every=0.1)
    acc = 0.0
    for earlier, later in zip(records, records[1:]):
        h = later.t - earlier.t
        acc += 0.5 * ((earlier.D_visc + earlier.D_heat) + (later.D_visc + later.D_heat)) * h
    assert records[-1].cum_D == pytest.approx(acc, rel=1e-12)


def test_energy_balance_residual_small_for_bump_run():
    _, _, records = run_short_bump(SetupKind.HALFLINE_INSULATED, t_end=0.5)
    assert abs(records[-1].energy_balance_residual) <= 1e-6


@pytest.mark.parametrize("dt", [2e-3, 1e-3])
@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_energy_balance_residual_is_round_off_where_dt_max_binds(setup, dt):
    # dt_max clamps every step far below the stable one: the fourth-order
    # ledger's drift over 0.5 time units then sits at rounding, some 1e-14
    grid = make_grid(setup, 8.0, 64)
    params = GasParams(1.0, 1.0, 1.0, 1.5)
    spec = InitialDataSpec(
        family="gaussian_bump", amplitude_v=0.8, amplitude_u=0.5, amplitude_theta=-0.4,
        width=1.0, center=0.0 if setup is SetupKind.CAUCHY else 4.0,
    )
    state = build_initial_data(spec, setup, grid)
    _, records = advance(state, 0.5, 0.5, grid, params, setup, StepControl(dt_max=dt))
    assert abs(records[-1].energy_balance_residual) < 1e-13


def test_integral_diagnostics_scale_with_dm():
    # same field values on a grid with doubled dm: integrals double, sups unchanged
    params = GasParams(1.0, 1.0, 1.0, 1.5)
    small = MassGrid(0.0, 4.0, 16)
    large = MassGrid(0.0, 8.0, 16)
    state = positive_state(small, seed=21)
    assert entropy_energy(state, params, large) == pytest.approx(
        2.0 * entropy_energy(state, params, small), rel=1e-12
    )
    e_small = truncated_excess(state, small, 1.5)
    e_large = truncated_excess(state, large, 1.5)
    assert e_large[0] == pytest.approx(2.0 * e_small[0], rel=1e-12)
    assert e_large[1] == pytest.approx(2.0 * e_small[1], rel=1e-12)
    assert lp_deviation(state, large, math.inf) == lp_deviation(state, small, math.inf)


def test_audit_csv_shape_and_determinism():
    _, _, records = run_short_bump(t_end=0.2, every=0.1)
    header = audit_header()
    columns = audit_columns()
    assert header.count(",") == len(columns) - 1
    assert "E_eq2.12" in columns and "cum_df8" in columns and "cum_z4" in columns
    row = audit_row(records[-1])
    assert row.count(",") == len(columns) - 1
    assert audit_row(records[-1]) == row


def test_audit_header_sorts_levels_as_the_record_does(params, cauchy):
    # AuditTrail keeps its levels sorted; a header in the given order would put
    # the a = 1.5 values under excess_a3
    grid = make_grid(cauchy, 4.0, 32)
    state = hot_state(grid, 0, theta_top=2.0)
    assert audit_header((3.0, 1.5)) == audit_header((1.5, 3.0))
    record = AuditTrail(state, grid, params, cauchy, (3.0, 1.5)).record(state)
    row = dict(zip(audit_columns((3.0, 1.5)), map(float, audit_row(record).split(","))))
    assert (row["excess_a1.5"], row["omega_a1.5"]) == truncated_excess(state, grid, 1.5)
    assert row["excess_a1.5"] > 0.0
    assert (row["excess_a3"], row["omega_a3"]) == (0.0, 0.0)


def test_readme_audit_table_lists_exactly_the_audit_columns():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("`audit.csv` — one row per diagnostic tick")[1].split("\n\n")[1]
    names = [name for line in table.splitlines()[2:]
             for name in re.findall(r"`([^`]+)`", line.split("|")[1])]
    i = names.index("excess_a<a>")
    assert names[i + 1] == "omega_a<a>"
    names[i:i + 2] = [f"{column}_a{a:g}" for a in DEFAULT_EXCESS_THRESHOLDS
                      for column in ("excess", "omega")]
    assert names == audit_columns()


def test_audit_trail_rejects_bad_thresholds(params, cauchy, grid16):
    with pytest.raises(DomainError):
        AuditTrail(steady_state(grid16), grid16, params, cauchy, excess_thresholds=(0.5,))


@pytest.mark.parametrize("thresholds", [(2.0, 2.0), (3.0, 2.0000001, 2.0)])
def test_audit_trail_rejects_thresholds_sharing_a_column(params, cauchy, grid16, thresholds):
    # audit_columns names each level excess_a{a:g}; a repeat gives a header
    # longer than every row
    with pytest.raises(DomainError, match="distinct column names"):
        AuditTrail(steady_state(grid16), grid16, params, cauchy, thresholds)


# ---------------------------------------------------------------- one record, one pass


def hot_state(grid, seed, theta_top):
    """A positive random state whose theta peaks at exactly ``theta_top``."""
    rng = np.random.default_rng(seed)
    n = grid.n_cells
    theta = rng.uniform(0.4, theta_top, n)
    theta[rng.integers(n)] = theta_top
    v = rng.uniform(0.3, 2.5, n)
    u = rng.uniform(-0.8, 0.8, n + 1)
    return FluidState(0.0, v, theta, u)


def assert_record_matches_functionals_and_bruteforce(state, grid, params, setup, theta_top):
    """Every field of one record equals its public functional bit for bit and the
    loop oracle to rel 1e-12; ``theta_top`` is max theta."""
    levels = (1.5, 2.0, 3.0)
    record = AuditTrail(state, grid, params, setup, levels).record(state)

    h1 = h1_seminorms(state, grid)
    assert record.E == entropy_energy(state, params, grid)
    assert (record.D_visc, record.D_heat) == dissipation_rates(state, params, grid)
    assert (record.v_min, record.v_max, record.theta_min, record.theta_max) == field_bounds(state)
    assert record.lp2_dev == lp_deviation(state, grid, 2.0)
    assert record.lpinf_dev == lp_deviation(state, grid, math.inf)
    assert (record.vx_l2, record.ux_l2, record.thetax_l2, record.uxx_l2,
            record.thetaxx_l2) == (h1.vx_l2, h1.ux_l2, h1.thetax_l2, h1.uxx_l2, h1.thetaxx_l2)
    assert record.df8_rate == df8_rate(state, grid)
    assert record.z4_rate == z4_rate(state, grid)
    assert sorted(record.excess) == list(levels)
    for a in levels:
        assert record.excess[a] == truncated_excess(state, grid, a)
        # a level at or above max theta skips the array work; it must give
        # the same bits the array expression gives
        over = np.maximum(state.theta - a, 0.0)
        array_path = (float((over * over).sum() * grid.dm),
                      float(np.count_nonzero(state.theta > a) * grid.dm))
        assert record.excess[a] == array_path
        assert (record.excess[a] == (0.0, 0.0)) == (a >= theta_top)

    def close(expected):
        return pytest.approx(expected, rel=1e-12, abs=0.0)

    assert record.E == close(bruteforce.entropy_energy(state, params, grid))
    assert (record.D_visc, record.D_heat) == close(bruteforce.dissipation_rates(state, params, grid))
    assert (record.v_min, record.v_max, record.theta_min, record.theta_max) == close(
        bruteforce.field_bounds(state))
    assert record.lp2_dev == close(bruteforce.lp_deviation(state, grid, 2.0))
    assert record.lpinf_dev == close(bruteforce.lp_deviation(state, grid, math.inf))
    assert record.outer_dev == bruteforce.outer_deviation(state, setup)
    assert (record.vx_l2, record.ux_l2, record.thetax_l2, record.uxx_l2,
            record.thetaxx_l2) == close(bruteforce.h1_seminorms(state, grid))
    assert record.df8_rate == close(bruteforce.df8_rate(state, grid))
    assert record.z4_rate == close(bruteforce.z4_rate(state, grid))
    for a in levels:
        assert record.excess[a] == close(bruteforce.truncated_excess(state, grid, a))
    ubar = [0.5 * (state.u[j] + state.u[j + 1]) for j in range(grid.n_cells)]
    assert record.int_u4 == close(sum(w**4 for w in ubar) * grid.dm)
    assert record.sup_theta_excess == close(max(theta_top - 1.5, 0.0) ** 2)


# theta peaks below every excess level, just above one, between levels, on
# one, and above all of them
@pytest.mark.parametrize("theta_top", [1.4, 1.5 + 1e-9, 1.8, 2.0, 2.5, 3.0 + 1e-9, 3.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_audit_record_matches_functionals_and_bruteforce(params, cauchy, theta_top, seed):
    grid = make_grid(cauchy, 4.0, 32)
    state = hot_state(grid, seed, theta_top)
    assert_record_matches_functionals_and_bruteforce(state, grid, params, cauchy, theta_top)


# the record sums its rows in whole-buffer reductions: grids from the fewest
# cells to either side of numpy's 128-element pairwise-summation block, with
# no excess level active, some, all, and the rest state
@pytest.mark.parametrize("theta_top", [None, 1.4, 2.5, 3.5], ids=["rest", "1.4", "2.5", "3.5"])
@pytest.mark.parametrize("n", [4, 5, 127, 128, 129, 256, 257])
@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_audit_record_matches_functionals_and_bruteforce_across_grids(params, setup, n, theta_top):
    grid = make_grid(setup, 4.0, n)
    if theta_top is None:
        state, theta_top = steady_state(grid), 1.0
    else:
        state = hot_state(grid, n, theta_top)
    assert_record_matches_functionals_and_bruteforce(state, grid, params, setup, theta_top)


def test_row_reduction_sums_each_row_as_its_own_sum():
    # the record's sums rest on this: np.add.reduce along the contiguous rows of
    # a buffer, or of its leading columns, gives each row's own .sum() bit for
    # bit, across numpy's pairwise-summation block boundaries
    rng = np.random.default_rng(5)
    for m in [*range(1, 300), 511, 512, 513, 1023, 1024, 1025, 4095, 4096, 4097]:
        buffer = rng.standard_normal((4, m + 2)) * 10.0 ** rng.uniform(-3, 3, (4, 1))
        for rows in (buffer[:, :m], np.ascontiguousarray(buffer[:, :m])):
            assert np.add.reduce(rows, 1).tolist() == [float(row.copy().sum()) for row in rows]
    # a block's sums reduce C-contiguous (m, k), (m, 2, k) and (kinds, m, k) arrays,
    # and row views of packed states such as block[:, n : 2 * n], along the last
    # axis; each row gives its own .sum(), for row lengths k about numpy's
    # 128-element pairwise block and about 4 096
    for m, k in ((1, 4), (9, 127), (9, 128), (2, 129), (16, 255), (16, 256), (3, 257),
                 (1, 4095), (1, 4096), (2, 4097)):
        for shape in ((m, k), (m, 2, k), (5, m, k)):
            rows = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, (*shape[:-1], 1))
            assert np.add.reduce(rows, -1).ravel().tolist() == [
                float(row.copy().sum()) for row in rows.reshape(-1, k)]
        block = rng.standard_normal((m, 3 * k + 1)) * 10.0 ** rng.uniform(-3, 3, (m, 1))
        assert np.add.reduce(block[:, k : 2 * k], -1).tolist() == [
            float(row.copy().sum()) for row in block[:, k : 2 * k]]


def block_of_states(grid, m, seed):
    """m packed positive states: the rest state first, then states whose theta tops
    cycle below every excess level and above each of them."""
    states = [steady_state(grid)] + [hot_state(grid, seed + i, (1.4, 1.6, 2.5, 3.5)[i % 4])
                                     for i in range(1, m)]
    return np.array([state.packed() for state in states])


@pytest.mark.parametrize("n", [4, 5, 127, 128, 129, 256, 257])
@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_record_block_gives_the_records_of_one_state_at_a_time(params, setup, n):
    # one _Tick serves a whole block; each record, trapezoids and inflows included,
    # must be bit for bit the one its state gets alone, for one state, a few, and
    # more than advance puts in one block
    grid, levels = make_grid(setup, 4.0, n), (1.5, 2.0, 3.0)
    rng = np.random.default_rng(n)
    for m in (1, 2, 9, max(1, lagas.integrate._BLOCK_CELLS // n) + 1):
        block = block_of_states(grid, m, n + m)
        times, inflows = (0.1 * np.arange(1, m + 1)).tolist(), rng.uniform(-1.0, 1.0, m).tolist()
        initial = hot_state(grid, m, 2.0)
        together, alone = (AuditTrail(initial, grid, params, setup, levels) for _ in range(2))
        assert together.record(initial) == alone.record(initial)
        got = together.record_block(times, block, inflows)
        want = [alone.record(FluidState.from_packed(t, y), inflow)
                for t, y, inflow in zip(times, block, inflows)]
        assert [audit_row(record) for record in got] == [audit_row(record) for record in want]
        assert got == want
        if m >= 4:  # the rest state, and rows above every level take the array path
            assert got[0].lpinf_dev == 0.0
            assert all(any(record.excess[a][0] > 0.0 for record in got) for a in levels)


def test_record_block_rejects_times_out_of_order(params, cauchy, grid16):
    state = steady_state(grid16)
    trail = AuditTrail(state, grid16, params, cauchy)
    block = np.array([state.packed()] * 2)
    with pytest.raises(DomainError, match="t=0.25 is earlier than the last, at t=0.5"):
        trail.record_block([0.5, 0.25], block, [0.0, 0.0])
    assert [record.t for record in trail.record_block([0.25, 0.5], block, [0.0, 0.0])] == [0.25, 0.5]


def test_unchecked_functionals_stay_quiet_on_a_zero_volume(cauchy):
    # the functionals that check nothing take no log and divide by no field, so a
    # zero volume raises no warning; their values are pinned bit for bit and
    # checked against the loop oracle
    grid = make_grid(cauchy, 4.0, 129)
    rng = np.random.default_rng(11)
    v = rng.uniform(0.5, 2.0, 129)
    v[40] = 0.0
    state = FluidState(0.0, v, rng.uniform(0.5, 2.5, 129), rng.uniform(-1.0, 1.0, 130))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h1 = tuple(vars(h1_seminorms(state, grid)).values())
        lp2, lpinf = lp_deviation(state, grid, 2.0), lp_deviation(state, grid, math.inf)
        df8, z4 = df8_rate(state, grid), z4_rate(state, grid)
        excess = truncated_excess(state, grid, 1.5)
    assert h1 == (29.574383536171986, 34.88848800689442, 36.788657356603494,
                  958.6998696901557, 1011.4469877250839)
    assert (lp2, lpinf, df8, z4) == (2.806503772200929, 1.4818590268122902,
                                     4480.993316233282, 1943419.1006526998)
    assert excess == (1.2315694297925348, 4.0310077519379846)
    assert h1 == pytest.approx(bruteforce.h1_seminorms(state, grid), rel=1e-12)
    assert (lp2, lpinf) == pytest.approx(
        (bruteforce.lp_deviation(state, grid, 2.0), bruteforce.lp_deviation(state, grid, math.inf)),
        rel=1e-12)
    assert (df8, z4) == pytest.approx(
        (bruteforce.df8_rate(state, grid), bruteforce.z4_rate(state, grid)), rel=1e-12)
    assert excess == pytest.approx(bruteforce.truncated_excess(state, grid, 1.5), rel=1e-12)


@pytest.mark.parametrize("L", [4e-211, 1e-150])
@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_rest_state_audit_stays_quiet_at_a_tiny_grid_spacing(params, setup, L):
    # every difference is taken within one field of one state: no pass divides a
    # jump across a seam, such as u_0 - theta_{n-1}, by a spacing of about L / 16
    grid = make_grid(setup, L, 16)
    state = steady_state(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = AuditTrail(state, grid, params, setup).record(state)
        h1 = tuple(vars(h1_seminorms(state, grid)).values())
        rates = df8_rate(state, grid), z4_rate(state, grid)
    values = dict(vars(record))
    excess = values.pop("excess")
    assert [values.pop(name) for name in ("v_min", "v_max", "theta_min", "theta_max")] == [1.0] * 4
    assert set(values.values()) | set(sum(excess.values(), ())) | {*h1, *rates} == {0.0}


def test_audit_record_rejects_a_snapshot_earlier_than_the_last(params, cauchy, grid16):
    state = positive_state(grid16, seed=2)
    trail = AuditTrail(state, grid16, params, cauchy)
    first = trail.record(replace(state, t=0.5))
    # a backward step would make the trapezoid's h negative and shrink cum_D
    with pytest.raises(DomainError, match=r"t=0\.25 .* t=0\.5"):
        trail.record(replace(state, t=0.25))
    # the failed call changed nothing, and a repeated time is no step at all
    again = trail.record(replace(state, t=0.5))
    assert (again.cum_D, again.cum_df8, again.cum_z4) == (first.cum_D, first.cum_df8, first.cum_z4)
    later = trail.record(replace(state, t=1.0))
    d_total = first.D_visc + first.D_heat
    assert later.cum_D == 0.5 * (d_total + d_total) * 0.5


# n = 20 has one outer cell per end and n = 21 two
@pytest.mark.parametrize("n", [4, 20, 21, 40])
@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_audit_record_outer_dev_matches_loop_oracle(params, setup, n):
    grid = make_grid(setup, 4.0, n)
    rng = np.random.default_rng(n)
    for _ in range(6):
        # the three fields deviate alike, so each in turn holds the maximum
        state = FluidState(0.0, 1.0 + rng.uniform(-0.5, 0.5, n),
                           1.0 + rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, n + 1))
        record = AuditTrail(state, grid, params, setup).record(state)
        assert record.outer_dev == bruteforce.outer_deviation(state, setup)


@pytest.mark.parametrize("n, k", [(20, 1), (21, 2)])
@pytest.mark.parametrize("setup", list(SetupKind), ids=lambda k: k.value)
def test_outer_dev_sees_exactly_the_outer_cells_and_their_nodes(params, setup, n, k):
    grid = make_grid(setup, 4.0, n)
    rest = steady_state(grid)
    trail = AuditTrail(rest, grid, params, setup)
    for name, size, left in (("v", n, k), ("theta", n, k), ("u", n + 1, k + 1)):
        for index in range(size):
            state = rest.copy()
            getattr(state, name)[index] += 0.5
            outer = index >= n - k or (index < left and not setup.has_wall)
            assert trail.record(state).outer_dev == (0.5 if outer else 0.0), (name, index)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.5])
@pytest.mark.parametrize("field", ["v", "theta"])
def test_audit_record_rejects_nonfinite_or_nonpositive_fields(params, cauchy, grid16,
                                                               field, bad):
    state = positive_state(grid16, seed=4)
    trail = AuditTrail(state, grid16, params, cauchy)
    broken = state.copy()
    getattr(broken, field)[5] = bad
    # the check runs on the bounds, before any array work could warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite positive"):
            trail.record(broken)


# ---------------------------------------------------------------- summarize


def short_run(t_end=0.5, rest=False):
    """Records every 0.05 of seeded random data on the whole line, or of the rest state."""
    setup = SetupKind.CAUCHY
    grid = make_grid(setup, 8.0, 32)
    spec = InitialDataSpec(family="random_smooth", amplitude_v=0.5, amplitude_u=0.4,
                           amplitude_theta=-0.3, width=2.0, seed=3, modes=4)
    state = steady_state(grid) if rest else build_initial_data(spec, setup, grid)
    params = GasParams(1.0, 1.0, 1.0, 1.5)
    return advance(state, t_end, 0.05, grid, params, setup, StepControl())[1]


def test_summarize_matches_loop_oracle_on_a_run():
    records = short_run()
    assert len(records) == 11
    assert summarize(records) == bruteforce.summarize(records)


def test_summarize_needs_a_record():
    with pytest.raises(ValueError, match="at least one audit record"):
        summarize([])


def test_summarize_single_record():
    records = short_run(t_end=0.0)
    summary = summarize(records)
    assert summary == bruteforce.summarize(records)
    assert summary["records"] == 1 and summary["decay"]["tail_monotone"] is True


def test_summarize_rest_state_ratios_are_zero():
    records = short_run(rest=True)
    summary = summarize(records)
    assert summary == bruteforce.summarize(records)
    assert summary["decay"]["final_over_max"] == 0.0
    assert summary["h1_final_over_max"] == {"vx": 0.0, "ux": 0.0, "thetax": 0.0}
    assert summary["df8_tail_growth"] == 0.0


@pytest.mark.parametrize("index, rise, monotone", [
    (10, 1.01, True),      # exactly 1 % in the tail
    (10, 1.0102, False),   # 1.02 %
    (9, 1.0102, False),    # the first step inside the tail, records 8 -> 9 of 11
    (8, 1.5, True),        # records 7 -> 8: before the tail starts
])
def test_summarize_tail_allows_one_percent_rise(index, rise, monotone):
    records = short_run()
    linf = [1.0 - 0.05 * k for k in range(len(records))]
    linf[index] = linf[index - 1] * rise
    edited = [replace(r, lpinf_dev=x) for r, x in zip(records, linf)]
    summary = summarize(edited)
    assert summary["decay"]["tail_monotone"] is monotone
    assert summary == bruteforce.summarize(edited)


@pytest.mark.parametrize("cum_d, ok", [(1e-6, True), (math.nextafter(1e-6, 1.0), False)])
def test_summarize_entropy_defect_at_the_tolerance(cum_d, ok):
    records = short_run(rest=True)  # E = 0 throughout: the tolerance is 1e-6
    edited = records[:-1] + [replace(records[-1], cum_D=cum_d)]
    summary = summarize(edited)
    audit = summary["entropy_audit"]
    assert audit["tolerance"] == 1e-6 and audit["max_defect"] == cum_d
    assert audit["ok"] is ok and audit["min_defect"] == 0.0
    assert summary == bruteforce.summarize(edited)


def test_summarize_reports_the_signed_budget_and_df8_tail_growth():
    records = short_run()  # 11 records: the tail runs from record 8
    e0 = records[0].E
    edited = [replace(r, E=e0, cum_D=-0.1 * k, cum_df8=float(k)) for k, r in enumerate(records)]
    summary = summarize(edited)
    assert summary["entropy_audit"]["max_defect"] == 0.0
    assert summary["entropy_audit"]["min_defect"] == pytest.approx(-1.0, rel=1e-12)
    assert summary["df8_tail_growth"] == 0.2
    assert summary == bruteforce.summarize(edited)


def test_summarize_reports_the_largest_outer_deviation():
    records = short_run()
    edited = [replace(r, outer_dev=0.1 * k) for k, r in enumerate(records)]
    edited[4] = replace(edited[4], outer_dev=7.0)
    summary = summarize(edited)
    assert summary["max_outer_deviation"] == 7.0
    assert summary == bruteforce.summarize(edited)


def test_perfbench_entropy_verdict_agrees_with_summarize(monkeypatch):
    # perfbench/worker.py keeps its own copy of the entropy tolerance
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    worker = importlib.import_module("worker")
    sys.modules.pop("worker")
    sys.modules.pop("tracer")
    records = short_run()
    e0 = records[0].E
    tolerance = e0 * 1e-3 + 1e-6
    verdicts = []
    for share in (0.0, 0.5, 0.999, 1.001, 2.0):
        edited = [records[0], replace(records[-1], E=e0, cum_D=share * tolerance)]
        ok = summarize(edited)["entropy_audit"]["ok"]
        assert worker.entropy_defect_ok([r.E for r in edited], [r.cum_D for r in edited]) == ok
        verdicts.append(ok)
    assert verdicts == [True, True, True, False, False]
