"""Audit functionals: energy, dissipation, norms, running integrals.

Instantaneous quantities are pure functions of a state snapshot, all taken by
``_Tick`` for a block of snapshots at once, each field read in its own shape,
and bit for bit what one pass per functional gives: each summand keeps its
operand order, each is reduced along its last axis (numpy sums every row
exactly as its own ``.sum()``), and max |x - 1| over a field comes from its
bounds, since fl(x - 1) is monotone in x.  The running time integrals
(cum_D, cum_df8, cum_z4) are accumulated by trapezoid on the record cadence
inside :class:`AuditTrail`, which also tracks the total-energy ledger the
integrator feeds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .core import DomainError, FluidState, GasParams, MassGrid, SetupKind, require_valid, unpack
from .scheme import total_energies

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
    """The intermediates that the audit functionals share, for a block of m packed
    states ``[v | theta | u]``; each method gives one value per state.

    Each field is read in its own shape, ``vt`` = [v; theta] as (m, 2, n) and u as
    (m, n + 1), so every mean, difference and summand is formed within one field of one
    state, and nothing is computed across a seam.  The summands on faces and on cells
    are the rows of a (kind, m, n - 1) and a (kind, m, n) array, theta_xx^2 an (m, n - 2)
    one, each reduced along its last axis: numpy sums every row exactly as its own
    ``.sum()``, and one reduction serves each location.  Operand order is part of the
    audit.csv bytes that tests/test_golden.py pins: df8's ``((1 + theta + ubar^2)*s)*s``
    is not ``(1 + theta + ubar^2)*(s*s)``.

    A tick checks nothing: it divides by no field and takes no log until entropy_energy
    or dissipation_rates is called, on a block that the caller has checked.
    """

    def __init__(self, block: np.ndarray, dm: float) -> None:
        v, _, u = unpack(block)
        m, n = v.shape
        vt = block[:, : 2 * n].reshape(m, 2, n)  # [v; theta], a view
        self.n, self.dm, self.vt, self.bounds = n, dm, vt, _bounds(vt)
        lo, hi, below, above = vt[:, :, :-1], vt[:, :, 1:], u[:, :-1], u[:, 1:]
        # [v; theta] and [v_x; theta_x] on interior faces, u and u_x on cells; then u_xx
        # on interior faces and theta_xx on interior cells
        mean, grads, ubar, ux = lo + hi, hi - lo, below + above, above - below
        mean *= 0.5
        ubar *= 0.5
        self.mean = mean
        grads /= dm
        ux /= dm
        uxx, thxx = ux[:, 1:] - ux[:, :-1], grads[:, 1, 1:] - grads[:, 1, :-1]
        uxx /= dm
        thxx /= dm
        dev = vt - 1.0
        self.ubar, self.dev = ubar, (np.abs(dev, dev), np.abs(u))  # |v - 1|, |theta - 1|; |u|
        ubar2, powers = ubar * ubar, dev * dev
        # on faces v_x^2, theta_x^2, theta*v_x^2 and u_xx^2; on cells u_x^2, df8's,
        # lp_deviation(2)'s and u^4
        self.faces, self.cells = faces, cells = np.empty((4, m, n - 1)), np.empty((4, m, n))
        np.multiply(grads, grads, faces[:2].swapaxes(0, 1))
        th_face, vx = mean[:, 1], grads[:, 0]
        np.multiply(np.multiply(th_face, vx, faces[2]), vx, faces[2])
        np.multiply(uxx, uxx, faces[3])
        np.multiply(ux, ux, cells[0])
        df8 = np.add(np.add(1.0, vt[:, 1], cells[1]), ubar2, cells[1])
        np.multiply(np.multiply(df8, ux, df8), ux, df8)
        self._lp_summand(powers[:, 0], powers[:, 1], ubar2, cells[2])
        np.multiply(ubar2, ubar2, cells[3])
        vx_ss, thx_ss, self.z4_faces, uxx_ss = np.add.reduce(faces, 2).tolist()
        ux_ss, self.df8_cells, self.lp2_sums, self.u4_sums = np.add.reduce(cells, 2).tolist()
        thxx_ss = np.add.reduce(thxx * thxx, 1).tolist()
        #: per state, sums of squares of (v_x, u_x, theta_x, u_xx, theta_xx)
        self.sq_sums = list(zip(vx_ss, ux_ss, thx_ss, uxx_ss, thxx_ss))
        self.theta_top = max(b[3] for b in self.bounds)

    @staticmethod
    def _lp_summand(v_powers: np.ndarray, theta_powers: np.ndarray, ubar_powers: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """|v - 1|^p + |ubar|^p + |theta - 1|^p from those powers, lined up cell by cell."""
        return np.add(np.add(v_powers, ubar_powers, out), theta_powers, out)

    def entropy_energy(self, params: GasParams) -> list[float]:
        excess = np.log(self.vt)
        np.subtract(np.subtract(self.vt, excess, excess), 1.0, excess)
        density = 0.5 * self.ubar * self.ubar + params.R * excess[:, 0]
        density += params.c_v * excess[:, 1]
        return [total * self.dm for total in np.add.reduce(density, 1).tolist()]

    def dissipation_rates(self, params: GasParams) -> list[tuple[float, float]]:
        # u_x^2/(v theta) on cells and theta_x^2/(vbar theta^2) on faces, formed on demand
        (v, th), th_face = self.vt.swapaxes(0, 1), self.mean[:, 1]
        visc = np.add.reduce(self.cells[0] / (v * th), 1).tolist()
        heat = np.add.reduce(self.faces[1] / (self.mean[:, 0] * th_face * th_face), 1).tolist()
        return [(params.mu * d_visc * self.dm, params.kappa * d_heat * self.dm)
                for d_visc, d_heat in zip(visc, heat)]

    def lp_deviation(self, p: float) -> list[float]:
        if math.isinf(p):
            du = np.maximum.reduce(np.abs(self.ubar), 1).tolist()
            return [max(abs(v_min - 1.0), abs(v_max - 1.0), d, abs(th_min - 1.0), abs(th_max - 1.0))
                    for (v_min, v_max, th_min, th_max), d in zip(self.bounds, du)]
        totals = self.lp2_sums
        if p != 2.0:
            powers, ubar = self.dev[0] ** p, np.abs(self.ubar) ** p
            totals = np.add.reduce(self._lp_summand(powers[:, 0], powers[:, 1], ubar), 1).tolist()
        return [(total * self.dm) ** (1.0 / p) for total in totals]

    def outer_deviation(self, left: bool) -> list[float]:
        k, (dev, dev_u) = max(1, math.ceil(0.05 * self.n)), self.dev
        # an end's k cells (|v - 1|, |theta - 1|) and the k + 1 nodes that bound them (|u|)
        right = np.maximum(np.maximum.reduce(dev[:, :, -k:], (1, 2)),
                           np.maximum.reduce(dev_u[:, -k - 1 :], 1))
        if left:
            right = np.maximum(right, np.maximum(np.maximum.reduce(dev[:, :, :k], (1, 2)),
                                                 np.maximum.reduce(dev_u[:, : k + 1], 1)))
        return right.tolist()

    def h1_seminorms(self) -> list[tuple[float, float, float, float, float]]:
        dm = self.dm
        return [(math.sqrt(vx * dm), math.sqrt(ux * dm), math.sqrt(thx * dm), math.sqrt(uxx * dm),
                 math.sqrt(thxx * dm)) for vx, ux, thx, uxx, thxx in self.sq_sums]

    def truncated_excess(self, a: float) -> list[tuple[float, float]]:
        if a >= self.theta_top:  # the bits the array path gives
            return [(0.0, 0.0)] * len(self.bounds)
        th = self.vt[:, 1]
        over, counts = np.maximum(th - a, 0.0), np.count_nonzero(th > a, 1).tolist()
        totals = np.add.reduce(over * over, 1).tolist()
        return [(total * self.dm, float(count * self.dm)) for total, count in zip(totals, counts)]

    def df8_rate(self) -> list[float]:
        return [(cells + sq[2]) * self.dm for cells, sq in zip(self.df8_cells, self.sq_sums)]

    def z4_rate(self) -> list[float]:
        return [(faces + sq[3] + sq[4]) * self.dm for faces, sq in zip(self.z4_faces, self.sq_sums)]


def _one(method, state: FluidState, grid: MassGrid, *args):
    """_Tick ``method`` at one state, checked as the public function of the same name."""
    return method(_Tick(require_valid(method.__name__, state.y[None], grid), grid.dm), *args)[0]


def entropy_energy(state: FluidState, params: GasParams, grid: MassGrid) -> float:
    """Nonnegative energy u^2/2 + R*(v - ln v - 1) + c_v*(theta - ln theta - 1).

    Midpoint quadrature over cells, with u averaged to cell centers.  Zero
    exactly at the rest state and strictly positive elsewhere.
    """
    return _one(_Tick.entropy_energy, state, grid, params)


def dissipation_rates(state: FluidState, params: GasParams, grid: MassGrid) -> tuple[float, float]:
    """Viscous and heat-conduction dissipation rates, both >= 0.

    D_visc = mu * sum_cells u_x^2/(v*theta) * dm;
    D_heat = kappa * sum over interior faces of theta_x^2/(v*theta^2) * dm
    with face values by arithmetic mean.
    """
    return _one(_Tick.dissipation_rates, state, grid, params)


def energy_balance_residual(te_now: float, te_initial: float, boundary_inflow: float) -> float:
    """Relative drift of total energy against the time-integrated boundary power."""
    return (te_now - te_initial - boundary_inflow) / abs(te_initial)


def field_bounds(state: FluidState) -> tuple[float, float, float, float]:
    """(v_min, v_max, theta_min, theta_max), exact over cells."""
    return _bounds(np.stack((state.v, state.theta))[None])[0]


def _bounds(vt: np.ndarray) -> list[tuple[float, float, float, float]]:
    """field_bounds of each 2 x n block [v; theta] of ``vt``, by one min and one max pass."""
    low, high = np.minimum.reduce(vt, 2).tolist(), np.maximum.reduce(vt, 2).tolist()
    return [(v_min, v_max, th_min, th_max) for (v_min, th_min), (v_max, th_max) in zip(low, high)]


def lp_deviation(state: FluidState, grid: MassGrid, p: float) -> float:
    """L^p norm of (v-1, u, theta-1) with node u averaged to cells; p in (1, inf]."""
    if not p > 1.0:
        raise DomainError(f"lp_deviation needs p in (1, inf], got {p!r}")
    return _one(_Tick.lp_deviation, state, grid, p)


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
    return H1Seminorms(*_one(_Tick.h1_seminorms, state, grid))


def truncated_excess(state: FluidState, grid: MassGrid, a: float) -> tuple[float, float]:
    """(integral of (theta - a)_+^2, measure of {theta > a}) for a > 1.

    The super-level set is measured by cell counting.
    """
    check_excess_thresholds((a,))
    return _one(_Tick.truncated_excess, state, grid, a)


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
    return _one(_Tick.df8_rate, state, grid)


def z4_rate(state: FluidState, grid: MassGrid) -> float:
    """Instantaneous value of the integral of theta*v_x^2 + u_xx^2 + theta_xx^2."""
    return _one(_Tick.z4_rate, state, grid)


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
_scalars = operator.attrgetter(*_SCALAR_FIELDS)
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
    parts = list(map(repr, _scalars(record)))
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

    ``record`` and ``record_block`` (several packed snapshots at once) take snapshots of
    a single trajectory in time order, and fail with DomainError on one earlier than the
    last; the initial state and each snapshot must pass ``require_valid`` on ``grid``.  The
    cumulative integrals are trapezoids on that cadence, and the energy ledger is filled
    by the integrator at every step.  A snapshot read between steps comes with its own
    ``inflow``, the ledger's at that time.
    """

    def __init__(self, initial: FluidState, grid: MassGrid, params: GasParams, setup: SetupKind,
                 excess_thresholds=DEFAULT_EXCESS_THRESHOLDS) -> None:
        self.excess_thresholds = check_excess_thresholds(excess_thresholds)
        self.grid, self.params, self.setup = grid, params, setup
        self.ledger = EnergyLedger()
        require_valid("AuditTrail", initial.y, grid)
        self._te0 = total_energies(initial.theta[None], initial.u[None], grid.dm, params)[0]
        self._prev: tuple[float, float, float, float] | None = None
        self._cum_d = self._cum_df8 = self._cum_z4 = 0.0

    def record(self, state: FluidState, inflow: float | None = None) -> AuditRecord:
        """The record of one snapshot, the one-state case of :meth:`record_block`."""
        inflow = self.ledger.inflow if inflow is None else inflow
        return self._records("AuditTrail.record", (state.t,), state.y[None], (inflow,))[0]

    def record_block(self, times, block: np.ndarray, inflows) -> list[AuditRecord]:
        """One _Tick's records of the C-ordered packed states block[i] at times[i], inflows[i]."""
        return self._records("AuditTrail.record_block", times, block, inflows)

    def _records(self, what: str, times, block: np.ndarray, inflows) -> list[AuditRecord]:
        for last, t in zip([-math.inf if self._prev is None else self._prev[0], *times], times):
            if t < last:
                raise DomainError(
                    f"audit record at t={t!r} is earlier than the last, at t={last!r}")
        grid, params, levels = self.grid, self.params, self.excess_thresholds
        require_valid(what, block, grid)
        tick = _Tick(block, grid.dm)
        columns = zip(
            times, tick.entropy_energy(params), tick.dissipation_rates(params), tick.bounds,
            tick.lp_deviation(2.0), tick.lp_deviation(math.inf),
            tick.outer_deviation(not self.setup.has_wall), tick.h1_seminorms(), tick.df8_rate(),
            tick.z4_rate(), tick.u4_sums, zip(*[tick.truncated_excess(a) for a in levels]),
            total_energies(*unpack(block)[1:], grid.dm, params), inflows)
        records = []
        for t, e, (d_visc, d_heat), bounds, lp2, lpinf, outer, h1, df8, z4, u4, excess, te, inflow \
                in columns:
            d_total = d_visc + d_heat
            if self._prev is not None:
                t_prev, d_prev, df8_prev, z4_prev = self._prev
                h = t - t_prev
                self._cum_d += 0.5 * (d_total + d_prev) * h
                self._cum_df8 += 0.5 * (df8 + df8_prev) * h
                self._cum_z4 += 0.5 * (z4 + z4_prev) * h
            self._prev = (t, d_total, df8, z4)
            records.append(AuditRecord(  # in field order, the seminorms as the tick gives them
                t, e, d_visc, d_heat, self._cum_d, *bounds, lp2, lpinf, outer, *h1,
                df8, self._cum_df8, z4, self._cum_z4, u4 * grid.dm,
                max(bounds[3] - 1.5, 0.0) ** 2, dict(zip(levels, excess)),
                energy_balance_residual(te, self._te0, inflow)))
        return records


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
