"""Explicit time advancement: low-storage SSP Runge-Kutta steps under a stable dt.

``advance`` marches a trajectory to a target time, the only time a step lands
on, and emits one :class:`~lagas.diagnostics.AuditRecord` per diagnostic tick,
read from the dense output of the step that spans it.  Trajectories are
deterministic: identical inputs give bit-identical outputs at any cadence.  One
driver, ``step``, runs two coefficient tables: the third-order SSPRK(4,3) of
Spiteri & Ruuth (2002) and the fourth-order SSPRK(10,4) of Ketcheson (2008).

Inside a step every stage is one contiguous float64 buffer ``[v | theta | u]``
(n cells, n cells, n + 1 nodes).  ``rhs`` returns rates in the same layout,
each stage is one whole-buffer combination computed in place in its rate
buffer, and only the step's result becomes a FluidState, with views of its
buffer as fields.  Each state is checked once: ``step`` checks its input
(finite, positive v and theta) before the first stage, and every stage result
after it is formed; ``rhs`` does not check the packed stages again.  A stage
passes on one min over ``[v | theta]`` against the floor and one finite sum
of the whole buffer; only a failing stage goes through ``validate_state``, to
name the stage, field and cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    POSITIVITY_FLOOR,
    ConfigurationError,
    FluidState,
    GasParams,
    IntegrationError,
    MassGrid,
    SetupKind,
    StiffnessError,
    require_cells_match,
    require_positive,
    validate_state,
)
from .diagnostics import DEFAULT_EXCESS_THRESHOLDS, AuditRecord, AuditTrail, EnergyLedger
from .scheme import boundary_power, rhs

__all__ = ["SSPRK43", "SSPRK104", "SSPTable", "StepControl", "stable_dt", "step", "advance"]

#: sources(t) -> (dv, du, dtheta) extra rates, or None
SourceFn = Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True, eq=False)
class SSPTable:
    """A low-storage SSP Runge-Kutta method in Shu-Osher form.

    Stage i = 1, 2, ... is an Euler substep w_i = y + h F(y), h = dt/ssp, with
    sources at t0 + c[i-1] dt.  ``mix[i] = (a, ((k, b), ...))`` makes the next
    stage input a w_i + sum b w_k, with w_0 = y0 and k > 0 a mixed stage.  The
    ledger weighs stage inputs by weights/denominator.  The diffusive step is
    at most ``reach`` SSPRK(4,3) steps and ``ssp`` forward-Euler steps.

    ``dense[j] = (p1, p2, p3)`` makes b_j(theta) = p1 theta + p2 theta^2 +
    p3 theta^3 in the dense output y_n + dt sum_j b_j(theta) k_j: the
    minimum-norm cubic meeting the four third-order conditions, with b(1) =
    weights/denominator.  Its least b_j is -1/24 (SSPRK(4,3)), -0.028
    (SSPRK(10,4)); none is >= 0 throughout, as sum_j b_j c_j = theta^2/2
    then fails: the c and c^2 conditions zero the low terms where c_j > 0.
    """

    ssp: float
    reach: float
    c: tuple[float, ...]
    weights: tuple[float, ...]
    denominator: float
    mix: dict[int, tuple[float, tuple[tuple[int, float], ...]]]
    dense: tuple[tuple[float, float, float], ...]

    def dense_weights(self, theta: float) -> tuple[float, ...]:
        """b_j(theta) for each stage, theta in [0, 1] the fraction of the step."""
        return tuple(theta * (p1 + theta * (p2 + theta * p3)) for p1, p2, p3 in self.dense)


#: Spiteri & Ruuth 2002, SSP coefficient 2: y3 = 1/3 w3 + 2/3 y0
SSPRK43 = SSPTable(2.0, 1.0, (0.0, 0.5, 1.0, 0.5), (1.0, 1.0, 1.0, 3.0), 6.0,
                   {3: (1.0 / 3.0, ((0, 2.0 / 3.0),))},
                   ((1.0, -1.5, 2 / 3), (0.0, 1.5, -4 / 3), (0.0, -0.5, 2 / 3), (0.0, 0.5, 0.0)))
#: Ketcheson 2008, SSP coefficient 6: y5 = 2/5 w5 + 3/5 y0 and
#: y_{n+1} = 3/5 w10 + 1/25 y0 + 9/25 w5, every weight b 1/10
SSPRK104 = SSPTable(6.0, 10.0, (0, 1 / 6, 1 / 3, 1 / 2, 2 / 3, 1 / 3, 1 / 2, 2 / 3, 5 / 6, 1),
                    (1.0,) * 10, 10.0, {5: (0.4, ((0, 0.6),)), 10: (0.6, ((0, 0.04), (5, 0.36)))},
                    ((11 / 15, -13 / 10, 2 / 3), (16 / 45, -11 / 30, 1 / 9),
                     (4 / 45, 7 / 30, -2 / 9), (-1 / 15, 1 / 2, -1 / 3), (-1 / 9, 13 / 30, -2 / 9),
                     (4 / 45, 7 / 30, -2 / 9), (-1 / 15, 1 / 2, -1 / 3), (-1 / 9, 13 / 30, -2 / 9),
                     (-2 / 45, 1 / 30, 1 / 9), (2 / 15, -7 / 10, 2 / 3)))


@dataclass(frozen=True)
class StepControl:
    """Safety factors and guards for the explicit step size; ``cfl_parabolic``
    is a fraction of SSPRK(4,3)'s diffusive limit, 2x the forward-Euler one.
    SSPRK(10,4) takes up to 10 such steps, capped at its own limit 6x forward
    Euler, which the default reaches.  The default 0.3, not 0.4, keeps the
    relative energy-balance residual of a 128-cell random-data run (L = 25,
    to t = 0.05, all SSPRK(4,3) steps) under 1e-9."""

    cfl_hyperbolic: float = 0.4
    cfl_parabolic: float = 0.3
    dt_min: float = 1e-12
    dt_max: float = 1.0
    positivity_floor: float = POSITIVITY_FLOOR

    def __post_init__(self) -> None:
        for name in ("cfl_hyperbolic", "cfl_parabolic"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ConfigurationError(f"{name} must lie in (0, 1], got {value!r}")
        if not (0.0 < self.dt_min <= self.dt_max and np.isfinite(self.dt_min)):
            raise ConfigurationError(
                f"need 0 < dt_min <= dt_max with dt_min finite, "
                f"got ({self.dt_min!r}, {self.dt_max!r})"
            )
        if not (self.positivity_floor > 0.0 and np.isfinite(self.positivity_floor)):
            raise ConfigurationError(
                f"positivity_floor must be finite and positive, got {self.positivity_floor!r}"
            )


def stable_dt(
    state: FluidState, grid: MassGrid, params: GasParams, ctrl: StepControl,
    table: SSPTable = SSPRK43,
) -> float:
    """Largest safe step of ``table``: min of acoustic and diffusive limits.

    Acoustic scale c = sqrt(R*theta*gamma)/v per cell; diffusive scale
    max(mu/v, kappa/(c_v*v)); the diffusive limit is ``cfl_parabolic`` of
    SSPRK(4,3)'s, times the table's ``reach`` up to its own SSP limit.
    Raises StiffnessError when the unclamped step falls below dt_min
    (blow-up or floor-level v/theta).
    """
    require_cells_match("stable_dt", state, grid)
    v, th = state.v, state.theta
    v_min = require_positive("stable_dt", v, th)
    dm = grid.dm
    sound = np.sqrt(params.R * th * params.gamma) / v
    dt_hyp = ctrl.cfl_hyperbolic * dm / float(np.maximum.reduce(sound))
    # rounded division and multiplication are monotone, so the largest
    # diffusivity over the cells is the one at min v, bit for bit
    diffusivity = max(params.mu / v_min, params.kappa / (params.c_v * v_min))
    dt43 = SSPRK43.ssp * ctrl.cfl_parabolic * dm * dm / (2.0 * float(diffusivity))
    dt_par = min(table.ssp * dm * dm / (2.0 * float(diffusivity)), table.reach * dt43)
    dt = min(dt_hyp, dt_par)
    if dt < ctrl.dt_min:
        raise StiffnessError(
            f"stable step {dt:.3e} fell below dt_min {ctrl.dt_min:.3e} "
            f"at t = {state.t:.6g}", time=state.t,
        )
    return min(dt, ctrl.dt_max)


def _checked(y: np.ndarray, floor: float, stage: int | None, t_start: float) -> None:
    """Raise IntegrationError unless the packed stage is finite with v, theta above floor.

    One min over ``[v | theta]`` (NaN fails it) and one sum of the buffer,
    finite unless an entry is NaN or infinite or finite entries overflow it
    (numpy then warns).  Only a stage failing either goes through
    validate_state, which passes an overflow and names the field and cell of
    any other failure.  A ``stage`` of None is a dense-output state at t_start.
    """
    if (np.minimum.reduce(y[: 2 * (y.shape[0] // 3)]) > floor
            and math.isfinite(np.add.reduce(y))):
        return
    report = validate_state(FluidState.from_packed(t_start, y), floor)
    if not report.ok:
        where = "dense output" if stage is None else f"stage {stage}"
        raise IntegrationError(
            f"{where} at t = {t_start:.6g}: {report.message()}",
            time=t_start,
            stage=stage,
            cell=report.index,
            field_name=report.field_name,
        )


def step(
    state: FluidState,
    dt: float,
    grid: MassGrid,
    params: GasParams,
    setup: SetupKind,
    ctrl: StepControl,
    sources: SourceFn | None = None,
    ledger: EnergyLedger | None = None,
    table: SSPTable = SSPRK43,
    kept: list[tuple[np.ndarray, float]] | None = None,
) -> FluidState:
    """One step of ``table``: positivity-checked Euler substeps of h = dt/ssp.

    A state off the grid's cell count (ConfigurationError) or with v or theta not finite
    and positive (DomainError) fails before any stage.  Sources are evaluated once per
    distinct stage time.  A ledger gets the boundary-energy inflow with the scheme's
    weights, so the total-energy residual measures time-integration error only.  A
    stage whose result fails the floor raises IntegrationError naming it (1, 2, ...).
    A ``kept`` list gets each stage's rates k_j and boundary power (NaN without a
    ledger) for :func:`_dense_output`; the result's bits stay the same.
    """
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt!r}")
    require_cells_match("step", state, grid)
    y0 = state.packed()
    require_positive("step", y0[: 2 * grid.n_cells])
    t0, h = state.t, dt / table.ssp
    floor = ctrl.positivity_floor
    forcing = {} if sources is None else {
        c: sources(t0 + c * dt) for c in dict.fromkeys(table.c)
    }

    y, mixed, inflow, power = y0, {0: y0}, 0.0, math.nan
    for i, (c, weight) in enumerate(zip(table.c, table.weights), 1):
        if ledger is not None:
            power = boundary_power(y, grid, params, setup)
            inflow += weight * power
        w = rhs(y, grid, params, setup, forcing.get(c))
        if kept is not None:
            kept.append((w, power))
        w = np.multiply(w, h, out=w if kept is None else None)  # a kept rate stays
        w += y
        y = w
        if i in table.mix:
            a, terms = table.mix[i]
            mixed[i] = w
            y = a * w
            for k, coef in terms:
                y += coef * mixed[k]
        _checked(y, floor, i, t0)

    if ledger is not None:
        ledger.add(dt * inflow / table.denominator)
    return FluidState.from_packed(t0 + dt, y)


def _dense_output(start: FluidState, dt: float, weights: tuple[float, ...],
                  kept: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """The packed state y_n + dt sum_j b_j k_j of a step from ``start`` whose stage
    rates were kept, summed elementwise in stage order so that its bits are fixed."""
    acc, term = weights[0] * kept[0][0], np.empty_like(kept[0][0])
    for b, (k, _) in zip(weights[1:], kept[1:]):
        acc += np.multiply(k, b, out=term)
    acc *= dt
    acc += start.packed()
    return acc


def advance(
    state: FluidState,
    t_end: float,
    every: float,
    grid: MassGrid,
    params: GasParams,
    setup: SetupKind,
    ctrl: StepControl,
    sources: SourceFn | None = None,
    excess_thresholds=DEFAULT_EXCESS_THRESHOLDS,
    on_record: Callable[[AuditRecord, FluidState], None] | None = None,
) -> tuple[FluidState, list[AuditRecord]]:
    """March to ``t_end``, emitting an AuditRecord every ``every`` time units.

    A record is always written at the start time and at ``t_end``, the only
    time a step lands on; each step's table is the one that reaches it with
    the fewer rhs calls.  A tick inside a step reads the state and the ledger
    inflow from its dense output (within rounding of its end, the landed
    state), which fails as a stage does.  A state off the grid's cell count fails
    before any record; calling with ``t_end`` equal to the state time is a no-op
    that emits the single record.  Step failures carry the time of failure.
    """
    if not np.isfinite(t_end) or t_end < state.t:
        raise ConfigurationError(
            f"t_end must be >= the state time {state.t!r}, got {t_end!r}"
        )
    if not every > 0.0:
        raise ConfigurationError(f"cadence must be positive, got {every!r}")
    require_cells_match("advance", state, grid)

    trail = AuditTrail(state, grid, params, setup, excess_thresholds)
    records = [trail.record(state)]
    if on_record is not None:
        on_record(records[0], state)

    t0 = state.t
    eps = 1e-12 * max(1.0, abs(t_end))
    landed, tick = state, 1
    while state.t < t_end - eps:
        target = t0 + tick * every
        if target > t_end - eps:
            target = t_end
        while landed.t < target - eps:
            # fewer rhs calls to t_end, stages * ceil(gap / dt); ties, and
            # gaps within one SSPRK(4,3) step, go to SSPRK(4,3)
            start, inflow = landed, trail.ledger.inflow
            table, dt, gap = SSPRK43, stable_dt(start, grid, params, ctrl), t_end - start.t
            if gap > dt:
                dt104 = stable_dt(start, grid, params, ctrl, SSPRK104)
                if 4 * math.ceil(gap / dt) > 10 * math.ceil(gap / dt104):
                    table, dt = SSPRK104, dt104
            dt = min(dt, gap)
            kept = [] if target < start.t + dt - eps else None
            landed = step(
                start, dt, grid, params, setup, ctrl,
                sources=sources, ledger=trail.ledger, table=table, kept=kept,
            )
        if target < landed.t - eps:
            weights = table.dense_weights((target - start.t) / dt)
            y = _dense_output(start, dt, weights, kept)
            _checked(y, ctrl.positivity_floor, None, target)
            state = FluidState.from_packed(target, y)
            record = trail.record(
                state, inflow + dt * sum(b * power for b, (_, power) in zip(weights, kept)))
        else:
            state = replace(landed, t=target)
            record = trail.record(state)
        records.append(record)
        if on_record is not None:
            on_record(record, state)
        tick += 1
    return state, records
