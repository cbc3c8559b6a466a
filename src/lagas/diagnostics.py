"""Audit functionals: energy, dissipation, norms, running integrals.

Instantaneous quantities are pure functions of a state snapshot, all taken by
``_Tick`` in a fixed handful of whole-buffer numpy passes and bit for bit what
one pass per functional gives: each summand keeps its operand order, each
buffer of summand rows is reduced along its contiguous rows (numpy sums each
exactly as that row's own ``.sum()``), and max |x - 1| over a field comes from
its bounds, since fl(x - 1) is monotone in x.  The running time integrals
(cum_D, cum_df8, cum_z4) are accumulated by trapezoid on the record cadence
inside :class:`AuditTrail`, which also tracks the total-energy ledger the
integrator feeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import DomainError, FluidState, GasParams, MassGrid, SetupKind
from .scheme import total_energy

__all__ = [
    "AuditRecord", "AuditTrail", "EnergyLedger", "H1Seminorms", "entropy_energy",
    "dissipation_rates", "energy_balance_residual", "field_bounds", "lp_deviation",
    "h1_seminorms", "truncated_excess", "check_excess_thresholds", "sup_embedding_check",
    "df8_rate", "z4_rate", "audit_columns", "audit_header", "audit_row", "summarize",
]

DEFAULT_EXCESS_THRESHOLDS = (1.5, 2.0, 3.0)


def check_excess_thresholds(thresholds) -> tuple[float, ...]:
    """The levels a of the truncated-excess audit, sorted; each must be finite and
    exceed 1, and no two may share an audit column name ``excess_a{a:g}``."""
    levels = tuple(sorted(float(a) for a in thresholds))
    if not levels or not all(1.0 < a < math.inf for a in levels):
        raise DomainError(
            f"excess thresholds must be non-empty, finite and each above 1, got {levels!r}"
        )
    if len({f"{a:g}" for a in levels}) < len(levels):
        raise DomainError(f"excess thresholds must have distinct column names, got {levels!r}")
    return levels


class _Tick:
    """The intermediates of one state that the audit functionals share, taken in a
    fixed handful of whole-buffer numpy passes whatever n is.

    ``y = [v | theta | u]`` packs the fields, its first 2n entries the block
    ``[v; theta]`` whose row minima and maxima are the bounds.  One subtract and
    divide over y gives ``[v_x | . | theta_x | . | u_x]``, one over its theta_x
    and u_x part the second differences, and one add and halve over y the means
    ``[v_face | . | theta_face | . | ubar]``; a ``.`` straddles a field seam and
    is never read.  The rest lives in one buffer of n-long rows: the means;
    v - 1, theta - 1 and u, made absolute with ubar in one pass (ubar enters
    only squared); the squared second differences; then the summands, a run of
    face rows (their first n - 1 columns) and a run of cell rows, the squared
    first differences landing in one pass where the runs meet.  ``np.add.reduce``
    along the rows of a run gives each row's own ``.sum()`` bit for bit, each
    row being contiguous (along a Fortran-ordered buffer's rows it would not),
    so no row is padded to another's length; max |v - 1| and max |theta - 1|
    come from the bounds, fl(x - 1) being monotone in x.  Operand order is part
    of the audit.csv bytes that tests/test_golden.py pins: df8's
    ``((1 + theta + ubar^2)*s)*s`` is not ``(1 + theta + ubar^2)*(s*s)``.

    Each functional is one method here: an audit record applies them all to one
    instance, and each public functional its own to a fresh one.  With ``check``
    set, v and theta must be finite and positive (NaN fails the minima), tested
    on the bounds before any other array work; DomainError names ``check``.  Only
    then are the rows that divide by v and theta written; only entropy_energy,
    which is checked, takes a log.
    """

    def __init__(self, state: FluidState, dm: float, check: str | None = None) -> None:
        n = len(state.v)
        y = np.concatenate((state.v, state.theta, state.u))
        self.vt = vt = y[: 2 * n].reshape(2, n)
        self.bounds = v_min, v_max, th_min, th_max = _bounds(vt)
        if check and not (v_min > 0.0 and th_min > 0.0 and max(v_max, th_max) < math.inf):
            raise DomainError(f"{check} needs finite positive v and theta")
        # rows 0-6: [v_face | .], [theta_face | .], ubar, v - 1, theta - 1, u, its last
        # node; 7: [theta_xx^2 | . .]; faces: u_xx^2 (on interior nodes), z4's, D_heat's
        # (checked), v_x^2, theta_x^2; cells: u_x^2, df8's, lp_deviation(2)'s, u^4, D_visc's
        vx_row = 11 if check else 10
        self.dm, self.work = dm, np.empty((vx_row + 7 if check else vx_row + 6, n))
        flat = self.work.reshape(-1)
        mean = np.multiply(np.add(y[:-1], y[1:], flat[: 3 * n]), 0.5, flat[: 3 * n])
        np.subtract(y[: 2 * n], 1.0, flat[3 * n : 5 * n])
        flat[5 * n : 6 * n + 1] = state.u
        np.abs(flat[2 * n : 6 * n + 1], flat[2 * n : 6 * n + 1])
        #: |ubar|, |v - 1|, |theta - 1| on cells, and |u| on nodes
        self.abs_dev, self.abs_u = self.work[2:5], flat[5 * n : 6 * n + 1]
        d1 = (y[1:] - y[:-1]) / dm
        d2 = (d1[n + 1 :] - d1[n:-1]) / dm
        np.multiply(d1, d1, flat[vx_row * n : (vx_row + 3) * n])
        np.multiply(d2, d2, flat[7 * n : 9 * n - 1])
        faces, cells = self.work[8 : vx_row + 2, : n - 1], self.work[vx_row + 2 :]
        vx, s = d1[: n - 1], d1[2 * n :]
        # abs_dev ** 2.0, which numpy evaluates as this square
        th_face, powers = mean[n:-n - 1], self.abs_dev * self.abs_dev
        np.multiply(np.multiply(th_face, vx, faces[1]), vx, faces[1])
        df8 = np.add(np.add(1.0, vt[1], cells[1]), powers[0], cells[1])
        np.multiply(np.multiply(df8, s, df8), s, df8)
        self._lp_summand(powers, cells[2])
        np.multiply(powers[0], powers[0], cells[3])
        if check:
            heat = np.multiply(np.multiply(mean[: n - 1], th_face, faces[2]), th_face, faces[2])
            np.divide(faces[4], heat, heat)
            np.divide(cells[0], np.multiply(vt[0], vt[1], cells[4]), cells[4])
        uxx_ss, self.z4_faces, *heat, vx_ss, thx_ss = np.add.reduce(faces, 1).tolist()
        ux_ss, self.df8_cells, self.lp2_sum, self.u4_sum, *visc = np.add.reduce(cells, 1).tolist()
        #: sums of squares of (v_x, u_x, theta_x, u_xx, theta_xx), and the dissipation sums
        self.sq_sums = vx_ss, ux_ss, thx_ss, uxx_ss, float(np.add.reduce(flat[7 * n : 8 * n - 2]))
        self.dissipation_sums = visc + heat

    @staticmethod
    def _lp_summand(powers: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """|v - 1|^p + |ubar|^p + |theta - 1|^p from the rows of ``abs_dev ** p``."""
        return np.add(np.add(powers[1], powers[0], out), powers[2], out)

    def entropy_energy(self, params: GasParams) -> float:
        excess, ubar = np.log(self.vt), self.abs_dev[0]
        np.subtract(np.subtract(self.vt, excess, excess), 1.0, excess)
        density = 0.5 * ubar * ubar + params.R * excess[0]
        density += params.c_v * excess[1]
        return float(np.add.reduce(density) * self.dm)

    def dissipation_rates(self, params: GasParams) -> tuple[float, float]:
        visc, heat = self.dissipation_sums
        return params.mu * visc * self.dm, params.kappa * heat * self.dm

    def lp_deviation(self, p: float) -> float:
        if not p > 1.0:
            raise DomainError(f"lp_deviation needs p in (1, inf], got {p!r}")
        if math.isinf(p):
            v_min, v_max, th_min, th_max = self.bounds
            du = float(np.maximum.reduce(self.abs_dev[0]))
            return max(abs(v_min - 1.0), abs(v_max - 1.0), du, abs(th_min - 1.0), abs(th_max - 1.0))
        total = self.lp2_sum if p == 2.0 else np.add.reduce(self._lp_summand(self.abs_dev ** p))
        return float((total * self.dm) ** (1.0 / p))

    def outer_deviation(self, left: bool) -> float:
        k, dev, nodes = max(1, math.ceil(0.05 * len(self.vt[0]))), self.work[3:6], self.abs_u
        # rows |v - 1|, |theta - 1|, |u|: the u row holds every node of an end but its last
        right = max(np.maximum.reduce(dev[:, -k:], None), nodes[-1])
        return float(max(right, np.maximum.reduce(dev[:, :k], None), nodes[k]) if left else right)

    def h1_seminorms(self) -> H1Seminorms:
        return H1Seminorms(*(math.sqrt(total * self.dm) for total in self.sq_sums))

    def truncated_excess(self, a: float) -> tuple[float, float]:
        if a >= self.bounds[3]:  # the bits the array path gives for theta <= a
            return 0.0, 0.0
        th = self.vt[1]
        over = np.maximum(th - a, 0.0)
        return float((over * over).sum() * self.dm), float(np.count_nonzero(th > a) * self.dm)

    def df8_rate(self) -> float:
        return (self.df8_cells + self.sq_sums[2]) * self.dm

    def z4_rate(self) -> float:
        return (self.z4_faces + self.sq_sums[3] + self.sq_sums[4]) * self.dm


def entropy_energy(state: FluidState, params: GasParams, grid: MassGrid) -> float:
    """Nonnegative energy u^2/2 + R*(v - ln v - 1) + c_v*(theta - ln theta - 1).

    Midpoint quadrature over cells, with u averaged to cell centers.  Zero
    exactly at the rest state and strictly positive elsewhere.
    """
    return _Tick(state, grid.dm, check="entropy energy").entropy_energy(params)


def dissipation_rates(state: FluidState, params: GasParams, grid: MassGrid) -> tuple[float, float]:
    """Viscous and heat-conduction dissipation rates, both >= 0.

    D_visc = mu * sum_cells u_x^2/(v*theta) * dm;
    D_heat = kappa * sum over interior faces of theta_x^2/(v*theta^2) * dm
    with face values by arithmetic mean.
    """
    return _Tick(state, grid.dm, check="dissipation rates").dissipation_rates(params)


def energy_balance_residual(te_now: float, te_initial: float, boundary_inflow: float) -> float:
    """Relative drift of total energy against the time-integrated boundary power."""
    return (te_now - te_initial - boundary_inflow) / abs(te_initial)


def field_bounds(state: FluidState) -> tuple[float, float, float, float]:
    """(v_min, v_max, theta_min, theta_max), exact over cells."""
    return _bounds(np.stack((state.v, state.theta)))


def _bounds(vt: np.ndarray) -> tuple[float, float, float, float]:
    """field_bounds of the 2 x n block [v; theta], by one min and one max pass."""
    low, high = np.minimum.reduce(vt, 1).tolist(), np.maximum.reduce(vt, 1).tolist()
    return low[0], high[0], low[1], high[1]


def lp_deviation(state: FluidState, grid: MassGrid, p: float) -> float:
    """L^p norm of (v-1, u, theta-1) with node u averaged to cells; p in (1, inf]."""
    return _Tick(state, grid.dm).lp_deviation(p)


@dataclass(frozen=True)
class H1Seminorms:
    """L2 norms of first differences and of the composed second differences."""

    vx_l2: float
    ux_l2: float
    thetax_l2: float
    uxx_l2: float
    thetaxx_l2: float


def h1_seminorms(state: FluidState, grid: MassGrid) -> H1Seminorms:
    """Divided differences at their natural stagger locations, no ghosts.

    v_x and theta_x live on interior faces, u_x on cells; second differences
    compose the first ones (u_xx on interior nodes, theta_xx on interior cells).
    """
    return _Tick(state, grid.dm).h1_seminorms()


def truncated_excess(state: FluidState, grid: MassGrid, a: float) -> tuple[float, float]:
    """(integral of (theta - a)_+^2, measure of {theta > a}) for a > 1.

    The super-level set is measured by cell counting.
    """
    check_excess_thresholds((a,))
    return _Tick(state, grid.dm).truncated_excess(a)


def sup_embedding_check(values: np.ndarray, grid: MassGrid) -> tuple[float, float]:
    """(sup w^2, 2*||w||_2*||w_x||_2) for a cell field decaying at the far end."""
    w = np.asarray(values, dtype=np.float64)
    dm = grid.dm
    lhs = float((w * w).max()) if w.size else 0.0
    wx = np.diff(w) / dm
    rhs = 2.0 * math.sqrt(float((w * w).sum() * dm)) * math.sqrt(float((wx * wx).sum() * dm))
    return lhs, rhs


def df8_rate(state: FluidState, grid: MassGrid) -> float:
    """Instantaneous value of the integral of (1 + theta + u^2)*u_x^2 + theta_x^2."""
    return _Tick(state, grid.dm).df8_rate()


def z4_rate(state: FluidState, grid: MassGrid) -> float:
    """Instantaneous value of the integral of theta*v_x^2 + u_xx^2 + theta_xx^2."""
    return _Tick(state, grid.dm).z4_rate()


@dataclass(frozen=True)
class AuditRecord:
    """One time-stamped row of every audited functional.  ``outer_dev`` audits the
    truncation: the max of |v - 1|, |theta - 1| and |u| over the outermost 5 % of
    cells (at least one) and their nodes, at x = L and on the whole line at -L too."""

    t: float
    E: float
    D_visc: float
    D_heat: float
    cum_D: float
    v_min: float
    v_max: float
    theta_min: float
    theta_max: float
    lp2_dev: float
    lpinf_dev: float
    outer_dev: float
    vx_l2: float
    ux_l2: float
    thetax_l2: float
    uxx_l2: float
    thetaxx_l2: float
    df8_rate: float
    cum_df8: float
    z4_rate: float
    cum_z4: float
    int_u4: float
    sup_theta_excess: float
    excess: dict[float, tuple[float, float]]
    energy_balance_residual: float


#: audit.csv's scalar columns: the AuditRecord fields before ``excess``, in order;
#: the energy-identity ones carry the equation tag of the audit file format
_SCALAR_FIELDS = tuple(f.name for f in fields(AuditRecord))
_SCALAR_FIELDS = _SCALAR_FIELDS[: _SCALAR_FIELDS.index("excess")]
_TAGGED = ("E", "D_visc", "D_heat", "cum_D")


def audit_columns(excess_thresholds=DEFAULT_EXCESS_THRESHOLDS) -> list[str]:
    """Column names in audit.csv order, the excess levels sorted as AuditTrail records them."""
    names = [f"{name}_eq2.12" if name in _TAGGED else name for name in _SCALAR_FIELDS]
    for a in check_excess_thresholds(excess_thresholds):
        names += [f"excess_a{a:g}", f"omega_a{a:g}"]
    names.append("energy_balance_residual")
    return names


def audit_header(excess_thresholds=DEFAULT_EXCESS_THRESHOLDS) -> str:
    return ",".join(audit_columns(excess_thresholds))


def audit_row(record: AuditRecord) -> str:
    """Serialize one record in audit_columns order (shortest round-trip floats)."""
    parts = [repr(getattr(record, name)) for name in _SCALAR_FIELDS]
    for a in sorted(record.excess):
        parts += map(repr, record.excess[a])
    parts.append(repr(record.energy_balance_residual))
    return ",".join(parts)


@dataclass
class EnergyLedger:
    """Accumulated boundary-energy inflow along one trajectory."""

    inflow: float = 0.0

    def add(self, increment: float) -> None:
        self.inflow += increment


class AuditTrail:
    """Running audit along one trajectory.

    ``record`` takes snapshots of a single trajectory in time order, and fails
    with DomainError on one earlier than the last; the cumulative integrals are
    trapezoids on that cadence, and the energy ledger is filled by the
    integrator at every step.  A snapshot read between steps comes with its own
    ``inflow``, the ledger's at that time.
    """

    def __init__(self, initial: FluidState, grid: MassGrid, params: GasParams, setup: SetupKind,
                 excess_thresholds=DEFAULT_EXCESS_THRESHOLDS) -> None:
        self.excess_thresholds = check_excess_thresholds(excess_thresholds)
        self.grid, self.params, self.setup = grid, params, setup
        self.ledger = EnergyLedger()
        self._te0 = total_energy(initial, grid, params)
        self._prev: tuple[float, float, float, float] | None = None
        self._cum_d = self._cum_df8 = self._cum_z4 = 0.0

    def record(self, state: FluidState, inflow: float | None = None) -> AuditRecord:
        grid, params = self.grid, self.params
        if self._prev is not None and state.t < self._prev[0]:
            raise DomainError(
                f"audit record at t={state.t!r} is earlier than the last, at t={self._prev[0]!r}")
        tick = _Tick(state, grid.dm, check="audit record")
        d_visc, d_heat = tick.dissipation_rates(params)
        d_total, df8, z4 = d_visc + d_heat, tick.df8_rate(), tick.z4_rate()
        if self._prev is not None:
            t_prev, d_prev, df8_prev, z4_prev = self._prev
            h = state.t - t_prev
            self._cum_d += 0.5 * (d_total + d_prev) * h
            self._cum_df8 += 0.5 * (df8 + df8_prev) * h
            self._cum_z4 += 0.5 * (z4 + z4_prev) * h
        self._prev = (state.t, d_total, df8, z4)
        v_min, v_max, th_min, th_max = tick.bounds
        te = total_energy(state, grid, params)
        return AuditRecord(
            t=state.t, E=tick.entropy_energy(params),
            D_visc=d_visc, D_heat=d_heat, cum_D=self._cum_d,
            v_min=v_min, v_max=v_max, theta_min=th_min, theta_max=th_max,
            lp2_dev=tick.lp_deviation(2.0), lpinf_dev=tick.lp_deviation(math.inf),
            outer_dev=tick.outer_deviation(not self.setup.has_wall),
            **vars(tick.h1_seminorms()),
            df8_rate=df8, cum_df8=self._cum_df8, z4_rate=z4, cum_z4=self._cum_z4,
            int_u4=tick.u4_sum * grid.dm, sup_theta_excess=max(th_max - 1.5, 0.0) ** 2,
            excess={a: tick.truncated_excess(a) for a in self.excess_thresholds},
            energy_balance_residual=energy_balance_residual(
                te, self._te0, self.ledger.inflow if inflow is None else inflow),
        )


#: a run's tail is its last fifth; there the sup norm may rise 1 % from record to record
_TAIL_FRACTION, _TAIL_JITTER = 0.2, 0.01


def summarize(records: list[AuditRecord]) -> dict:
    """The verdicts of summary.json that a run's records give, in its key order.

    A ratio is 0.0 where its denominator is 0; the entropy budget E + cum_D - E0
    is ok while its maximum stays within a thousandth of E0 plus 1e-6;
    df8_tail_growth is the share of the final cum_df8 accrued over the tail;
    max_outer_deviation is the truncation audit's largest outer_dev."""
    if not records:
        raise ValueError("summarize needs at least one audit record")
    e0, last = records[0].E, records[-1]
    start = math.floor(len(records) * (1.0 - _TAIL_FRACTION))
    linf = [r.lpinf_dev for r in records]
    defects = [r.E + r.cum_D - e0 for r in records]
    tolerance = e0 * 1e-3 + 1e-6

    def ratio(value: float, peak: float) -> float:
        return value / peak if peak > 0.0 else 0.0

    def final_over_max(name: str) -> float:
        return ratio(getattr(last, name), max(getattr(r, name) for r in records))

    return {
        "records": len(records),
        "bounds": {
            "v": [min(r.v_min for r in records), max(r.v_max for r in records)],
            "theta": [min(r.theta_min for r in records), max(r.theta_max for r in records)],
        },
        "decay": {
            "linf_initial": linf[0],
            "linf_max": max(linf),
            "linf_final": linf[-1],
            "final_over_max": final_over_max("lpinf_dev"),
            "tail_monotone": all(later <= earlier * (1.0 + _TAIL_JITTER) + 1e-14
                                 for earlier, later in zip(linf[start:], linf[start + 1:])),
        },
        "h1_final_over_max": {key: final_over_max(f"{key}_l2") for key in ("vx", "ux", "thetax")},
        "entropy_audit": {
            "initial": e0,
            "max_defect": max(defects),
            "min_defect": min(defects),
            "tolerance": tolerance,
            "ok": max(defects) <= tolerance,
        },
        "energy_balance_residual": last.energy_balance_residual,
        "int_u4_max": max(r.int_u4 for r in records),
        "df8_tail_growth": ratio(last.cum_df8 - records[start].cum_df8, last.cum_df8),
        "max_outer_deviation": max(r.outer_dev for r in records),
    }
