"""Audit functionals: energy, dissipation, norms, running integrals.

Instantaneous quantities are pure functions of a state snapshot.  The
running time integrals (cum_D, cum_df8, cum_z4) are accumulated by
trapezoid on the record cadence inside :class:`AuditTrail`, which also
tracks the total-energy ledger the integrator feeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, FluidState, GasParams, MassGrid, ProblemSetup, require_positive
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
]

DEFAULT_EXCESS_THRESHOLDS = (1.5, 2.0, 3.0)


def check_excess_thresholds(thresholds) -> tuple[float, ...]:
    """The levels a of the truncated-excess audit, sorted; each must exceed 1."""
    levels = tuple(sorted(float(a) for a in thresholds))
    if not levels or not all(a > 1.0 for a in levels):
        raise DomainError(f"excess thresholds must be non-empty and each above 1, got {levels!r}")
    return levels


def entropy_energy(state: FluidState, params: GasParams, grid: MassGrid) -> float:
    """Nonnegative energy u^2/2 + R*(v - ln v - 1) + c_v*(theta - ln theta - 1).

    Midpoint quadrature over cells, with u averaged to cell centers.  Zero
    exactly at the rest state and strictly positive elsewhere.
    """
    require_positive("entropy energy", state.v, state.theta)
    v, th = state.v, state.theta
    ubar = state.cell_velocity()
    density = (
        0.5 * ubar * ubar
        + params.R * (v - np.log(v) - 1.0)
        + params.c_v * (th - np.log(th) - 1.0)
    )
    return float(density.sum() * grid.dm)


def dissipation_rates(
    state: FluidState, params: GasParams, grid: MassGrid
) -> tuple[float, float]:
    """Viscous and heat-conduction dissipation rates, both >= 0.

    D_visc = mu * sum_cells u_x^2/(v*theta) * dm;
    D_heat = kappa * sum over interior faces of theta_x^2/(v*theta^2) * dm
    with face values by arithmetic mean.
    """
    require_positive("dissipation rates", state.v, state.theta)
    v, th = state.v, state.theta
    dm = grid.dm
    s = np.diff(state.u) / dm
    d_visc = params.mu * float((s * s / (v * th)).sum()) * dm
    th_x = np.diff(th) / dm
    v_face = 0.5 * (v[:-1] + v[1:])
    th_face = 0.5 * (th[:-1] + th[1:])
    d_heat = params.kappa * float((th_x * th_x / (v_face * th_face * th_face)).sum()) * dm
    return d_visc, d_heat


def energy_balance_residual(
    te_now: float, te_initial: float, boundary_inflow: float
) -> float:
    """Relative drift of total energy against the time-integrated boundary power."""
    return (te_now - te_initial - boundary_inflow) / abs(te_initial)


def field_bounds(state: FluidState) -> tuple[float, float, float, float]:
    """(v_min, v_max, theta_min, theta_max), exact over cells."""
    return (
        float(state.v.min()),
        float(state.v.max()),
        float(state.theta.min()),
        float(state.theta.max()),
    )


def lp_deviation(state: FluidState, grid: MassGrid, p: float) -> float:
    """L^p norm of (v-1, u, theta-1) with node u averaged to cells; p in (1, inf]."""
    if not p > 1.0:
        raise DomainError(f"lp_deviation needs p in (1, inf], got {p!r}")
    dv = state.v - 1.0
    du = state.cell_velocity()
    dth = state.theta - 1.0
    if math.isinf(p):
        return float(
            max(np.abs(dv).max(), np.abs(du).max(), np.abs(dth).max())
        )
    total = (np.abs(dv) ** p + np.abs(du) ** p + np.abs(dth) ** p).sum() * grid.dm
    return float(total ** (1.0 / p))


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
    dm = grid.dm

    def l2(w: np.ndarray) -> float:
        return float(np.sqrt((w * w).sum() * dm))

    vx = np.diff(state.v) / dm
    thx = np.diff(state.theta) / dm
    ux = np.diff(state.u) / dm
    uxx = np.diff(ux) / dm
    thxx = np.diff(thx) / dm
    return H1Seminorms(l2(vx), l2(ux), l2(thx), l2(uxx), l2(thxx))


def truncated_excess(
    state: FluidState, grid: MassGrid, a: float
) -> tuple[float, float]:
    """(integral of (theta - a)_+^2, measure of {theta > a}) for a > 1.

    The super-level set is measured by cell counting.
    """
    check_excess_thresholds((a,))
    over = np.maximum(state.theta - a, 0.0)
    excess = float((over * over).sum() * grid.dm)
    omega = float(np.count_nonzero(state.theta > a) * grid.dm)
    return excess, omega


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
    dm = grid.dm
    s = np.diff(state.u) / dm
    ubar = state.cell_velocity()
    thx = np.diff(state.theta) / dm
    cells = ((1.0 + state.theta + ubar * ubar) * s * s).sum()
    faces = (thx * thx).sum()
    return float((cells + faces) * dm)


def z4_rate(state: FluidState, grid: MassGrid) -> float:
    """Instantaneous value of the integral of theta*v_x^2 + u_xx^2 + theta_xx^2."""
    dm = grid.dm
    vx = np.diff(state.v) / dm
    th_face = 0.5 * (state.theta[:-1] + state.theta[1:])
    ux = np.diff(state.u) / dm
    uxx = np.diff(ux) / dm
    thxx = np.diff(np.diff(state.theta) / dm) / dm
    return float(((th_face * vx * vx).sum() + (uxx * uxx).sum() + (thxx * thxx).sum()) * dm)


@dataclass(frozen=True)
class AuditRecord:
    """One time-stamped row of every audited functional."""

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


# CSV column names; the tagged ones are pinned by the audit file format.
_SCALAR_COLUMNS: tuple[tuple[str, str], ...] = (
    ("t", "t"),
    ("E", "E_eq2.12"),
    ("D_visc", "D_visc_eq2.12"),
    ("D_heat", "D_heat_eq2.12"),
    ("cum_D", "cum_D_eq2.12"),
    ("v_min", "v_min"),
    ("v_max", "v_max"),
    ("theta_min", "theta_min"),
    ("theta_max", "theta_max"),
    ("lp2_dev", "lp2_dev"),
    ("lpinf_dev", "lpinf_dev"),
    ("vx_l2", "vx_l2"),
    ("ux_l2", "ux_l2"),
    ("thetax_l2", "thetax_l2"),
    ("uxx_l2", "uxx_l2"),
    ("thetaxx_l2", "thetaxx_l2"),
    ("df8_rate", "df8_rate"),
    ("cum_df8", "cum_df8"),
    ("z4_rate", "z4_rate"),
    ("cum_z4", "cum_z4"),
    ("int_u4", "int_u4"),
    ("sup_theta_excess", "sup_theta_excess"),
)


def audit_columns(excess_thresholds=DEFAULT_EXCESS_THRESHOLDS) -> list[str]:
    """Column names in audit.csv order."""
    names = [column for _, column in _SCALAR_COLUMNS]
    for a in excess_thresholds:
        names.append(f"excess_a{a:g}")
        names.append(f"omega_a{a:g}")
    names.append("energy_balance_residual")
    return names


def audit_header(excess_thresholds=DEFAULT_EXCESS_THRESHOLDS) -> str:
    return ",".join(audit_columns(excess_thresholds))


def audit_row(record: AuditRecord) -> str:
    """Serialize one record in audit_columns order (shortest round-trip floats)."""
    parts = [repr(getattr(record, field)) for field, _ in _SCALAR_COLUMNS]
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
    energy ledger is filled by the integrator at every step.
    """

    def __init__(
        self,
        initial: FluidState,
        grid: MassGrid,
        params: GasParams,
        setup: ProblemSetup,
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

    def record(self, state: FluidState) -> AuditRecord:
        grid, params = self.grid, self.params
        d_visc, d_heat = dissipation_rates(state, params, grid)
        d_total = d_visc + d_heat
        df8 = df8_rate(state, grid)
        z4 = z4_rate(state, grid)
        if self._prev is not None:
            t_prev, d_prev, df8_prev, z4_prev = self._prev
            h = state.t - t_prev
            self._cum_d += 0.5 * (d_total + d_prev) * h
            self._cum_df8 += 0.5 * (df8 + df8_prev) * h
            self._cum_z4 += 0.5 * (z4 + z4_prev) * h
        self._prev = (state.t, d_total, df8, z4)

        v_min, v_max, th_min, th_max = field_bounds(state)
        h1 = h1_seminorms(state, grid)
        ubar = state.cell_velocity()
        int_u4 = float((ubar ** 4).sum() * grid.dm)
        sup_excess = max(th_max - 1.5, 0.0) ** 2
        excess = {a: truncated_excess(state, grid, a) for a in self.excess_thresholds}
        te = total_energy(state, grid, params)
        residual = energy_balance_residual(te, self._te0, self.ledger.inflow)

        return AuditRecord(
            t=state.t,
            E=entropy_energy(state, params, grid),
            D_visc=d_visc,
            D_heat=d_heat,
            cum_D=self._cum_d,
            v_min=v_min,
            v_max=v_max,
            theta_min=th_min,
            theta_max=th_max,
            lp2_dev=lp_deviation(state, grid, 2.0),
            lpinf_dev=lp_deviation(state, grid, math.inf),
            vx_l2=h1.vx_l2,
            ux_l2=h1.ux_l2,
            thetax_l2=h1.thetax_l2,
            uxx_l2=h1.uxx_l2,
            thetaxx_l2=h1.thetaxx_l2,
            df8_rate=df8,
            cum_df8=self._cum_df8,
            z4_rate=z4,
            cum_z4=self._cum_z4,
            int_u4=int_u4,
            sup_theta_excess=sup_excess,
            excess=excess,
            energy_balance_residual=residual,
        )
