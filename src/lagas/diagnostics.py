"""Audit functionals: energy, dissipation, norms, running integrals.

Instantaneous quantities are pure functions of a state snapshot.  The
running time integrals (cum_D, cum_df8, cum_z4) are accumulated by
trapezoid on the record cadence inside :class:`AuditTrail`, which also
tracks the total-energy ledger the integrator feeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import DomainError, FluidState, GasParams, MassGrid, SetupKind
from .scheme import total_energy

__all__ = [
    "AuditRecord",
    "AuditTrail",
    "EnergyLedger",
    "H1Seminorms",
    "entropy_energy",
    "dissipation_rates",
    "energy_balance_residual",
    "field_bounds",
    "lp_deviation",
    "h1_seminorms",
    "truncated_excess",
    "check_excess_thresholds",
    "sup_embedding_check",
    "df8_rate",
    "z4_rate",
    "audit_columns",
    "audit_header",
    "audit_row",
    "summarize",
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


def _dx(w: np.ndarray, dm: float) -> np.ndarray:
    """Divided first difference; the same subtraction as ``np.diff``, without its overhead."""
    return (w[1:] - w[:-1]) / dm


class _Tick:
    """The intermediates of one state that several functionals share, computed once:
    differences at the stagger locations :func:`h1_seminorms` names, face means,
    squares and sums of squares.

    Each functional is one method here: an audit record applies them all to one
    instance, and each public functional applies its own to a fresh one.  With
    ``check`` set, v and theta must be finite and positive (NaN fails the minima),
    tested on the bounds before any other array work; DomainError names ``check``.
    Operand order is part of the audit.csv bytes that tests/test_golden.py pins:
    df8's ``((1 + theta + ubar^2)*s)*s`` is not ``(1 + theta + ubar^2)*(s*s)``.
    """

    def __init__(self, state: FluidState, dm: float, check: str | None = None) -> None:
        self.state, self.dm = state, dm
        self.bounds = v_min, v_max, th_min, th_max = field_bounds(state)
        if check and not (v_min > 0.0 and th_min > 0.0 and max(v_max, th_max) < math.inf):
            raise DomainError(f"{check} needs finite positive v and theta")
        v, th = state.v, state.theta
        self.ubar = state.cell_velocity()
        self.vx, self.ux, self.thx = _dx(v, dm), _dx(state.u, dm), _dx(th, dm)
        self.ux_sq, self.thx_sq = self.ux * self.ux, self.thx * self.thx
        self.th_face = 0.5 * (th[:-1] + th[1:])
        uxx, thxx = _dx(self.ux, dm), _dx(self.thx, dm)
        #: sums of squares of (v_x, u_x, theta_x, u_xx, theta_xx)
        self.sq_sums = tuple(float(w.sum()) for w in (
            self.vx * self.vx, self.ux_sq, self.thx_sq, uxx * uxx, thxx * thxx))
        #: |v - 1|, |u| averaged to cells, |theta - 1|
        self.abs_dev = np.abs(v - 1.0), np.abs(self.ubar), np.abs(th - 1.0)

    def entropy_energy(self, params: GasParams) -> float:
        v, th, ubar = self.state.v, self.state.theta, self.ubar
        density = (
            0.5 * ubar * ubar
            + params.R * (v - np.log(v) - 1.0)
            + params.c_v * (th - np.log(th) - 1.0)
        )
        return float(density.sum() * self.dm)

    def dissipation_rates(self, params: GasParams) -> tuple[float, float]:
        v, th, dm = self.state.v, self.state.theta, self.dm
        d_visc = params.mu * float((self.ux_sq / (v * th)).sum()) * dm
        v_face = 0.5 * (v[:-1] + v[1:])
        th_face = self.th_face
        d_heat = params.kappa * float((self.thx_sq / (v_face * th_face * th_face)).sum()) * dm
        return d_visc, d_heat

    def lp_deviation(self, p: float) -> float:
        if not p > 1.0:
            raise DomainError(f"lp_deviation needs p in (1, inf], got {p!r}")
        dv, du, dth = self.abs_dev
        if math.isinf(p):
            return float(max(dv.max(), du.max(), dth.max()))
        total = (dv ** p + du ** p + dth ** p).sum() * self.dm
        return float(total ** (1.0 / p))

    def outer_deviation(self, left: bool) -> float:
        k = max(1, math.ceil(0.05 * len(self.state.v)))
        (dv, _, dth), u = self.abs_dev, self.state.u
        ends = [(dv[-k:], dth[-k:], u[-k - 1:])] + ([(dv[:k], dth[:k], u[:k + 1])] if left else [])
        return max(float(max(v.max(), th.max(), np.abs(w).max())) for v, th, w in ends)

    def h1_seminorms(self) -> H1Seminorms:
        return H1Seminorms(*(math.sqrt(total * self.dm) for total in self.sq_sums))

    def truncated_excess(self, a: float) -> tuple[float, float]:
        if a >= self.bounds[3]:  # the bits the array path gives for theta <= a
            return 0.0, 0.0
        th = self.state.theta
        over = np.maximum(th - a, 0.0)
        return float((over * over).sum() * self.dm), float(np.count_nonzero(th > a) * self.dm)

    def df8_rate(self) -> float:
        s, ubar, (_, _, thx_ss, _, _) = self.ux, self.ubar, self.sq_sums
        cells = ((1.0 + self.state.theta + ubar * ubar) * s * s).sum()
        return float((cells + thx_ss) * self.dm)

    def z4_rate(self) -> float:
        vx, (_, _, _, uxx_ss, thxx_ss) = self.vx, self.sq_sums
        return float(((self.th_face * vx * vx).sum() + uxx_ss + thxx_ss) * self.dm)


def entropy_energy(state: FluidState, params: GasParams, grid: MassGrid) -> float:
    """Nonnegative energy u^2/2 + R*(v - ln v - 1) + c_v*(theta - ln theta - 1).

    Midpoint quadrature over cells, with u averaged to cell centers.  Zero
    exactly at the rest state and strictly positive elsewhere.
    """
    return _Tick(state, grid.dm, check="entropy energy").entropy_energy(params)


def dissipation_rates(
    state: FluidState, params: GasParams, grid: MassGrid
) -> tuple[float, float]:
    """Viscous and heat-conduction dissipation rates, both >= 0.

    D_visc = mu * sum_cells u_x^2/(v*theta) * dm;
    D_heat = kappa * sum over interior faces of theta_x^2/(v*theta^2) * dm
    with face values by arithmetic mean.
    """
    return _Tick(state, grid.dm, check="dissipation rates").dissipation_rates(params)


def energy_balance_residual(
    te_now: float, te_initial: float, boundary_inflow: float
) -> float:
    """Relative drift of total energy against the time-integrated boundary power."""
    return (te_now - te_initial - boundary_inflow) / abs(te_initial)


def field_bounds(state: FluidState) -> tuple[float, float, float, float]:
    """(v_min, v_max, theta_min, theta_max), exact over cells."""
    v, th = state.v, state.theta
    return float(v.min()), float(v.max()), float(th.min()), float(th.max())


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


def truncated_excess(
    state: FluidState, grid: MassGrid, a: float
) -> tuple[float, float]:
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
    rhs = 2.0 * math.sqrt(float((w * w).sum() * dm)) * math.sqrt(
        float((wx * wx).sum() * dm)
    )
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
        names.append(f"excess_a{a:g}")
        names.append(f"omega_a{a:g}")
    names.append("energy_balance_residual")
    return names


def audit_header(excess_thresholds=DEFAULT_EXCESS_THRESHOLDS) -> str:
    return ",".join(audit_columns(excess_thresholds))


def audit_row(record: AuditRecord) -> str:
    """Serialize one record in audit_columns order (shortest round-trip floats)."""
    parts = [repr(getattr(record, name)) for name in _SCALAR_FIELDS]
    for a in sorted(record.excess):
        excess, omega = record.excess[a]
        parts.append(repr(excess))
        parts.append(repr(omega))
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

    ``record`` must be called with snapshots of a single trajectory in time
    order; the cumulative integrals are trapezoids on that cadence, and the
    energy ledger is filled by the integrator at every step.  A snapshot read
    between steps comes with its own ``inflow``, the ledger's at that time.
    """

    def __init__(
        self,
        initial: FluidState,
        grid: MassGrid,
        params: GasParams,
        setup: SetupKind,
        excess_thresholds=DEFAULT_EXCESS_THRESHOLDS,
    ) -> None:
        self.excess_thresholds = check_excess_thresholds(excess_thresholds)
        self.grid = grid
        self.params = params
        self.setup = setup
        self.ledger = EnergyLedger()
        self._te0 = total_energy(initial, grid, params)
        self._prev: tuple[float, float, float, float] | None = None
        self._cum_d = 0.0
        self._cum_df8 = 0.0
        self._cum_z4 = 0.0

    def record(self, state: FluidState, inflow: float | None = None) -> AuditRecord:
        grid, params = self.grid, self.params
        tick = _Tick(state, grid.dm, check="audit record")
        d_visc, d_heat = tick.dissipation_rates(params)
        d_total = d_visc + d_heat
        df8 = tick.df8_rate()
        z4 = tick.z4_rate()
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
            t=state.t,
            E=tick.entropy_energy(params),
            D_visc=d_visc,
            D_heat=d_heat,
            cum_D=self._cum_d,
            v_min=v_min,
            v_max=v_max,
            theta_min=th_min,
            theta_max=th_max,
            lp2_dev=tick.lp_deviation(2.0),
            lpinf_dev=tick.lp_deviation(math.inf),
            outer_dev=tick.outer_deviation(not self.setup.has_wall),
            **vars(tick.h1_seminorms()),
            df8_rate=df8,
            cum_df8=self._cum_df8,
            z4_rate=z4,
            cum_z4=self._cum_z4,
            int_u4=float(np.square(tick.ubar * tick.ubar).sum() * grid.dm),
            sup_theta_excess=max(th_max - 1.5, 0.0) ** 2,
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
