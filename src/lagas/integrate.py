"""Explicit time advancement: low-storage SSPRK(10,4) steps under a stable dt.

``advance`` marches a trajectory to a target time, the only time a step lands
on, and emits one :class:`~lagas.diagnostics.AuditRecord` per diagnostic tick.
The ticks inside a step are read from its dense output as one block of packed
states, checked and audited together.  Trajectories are deterministic: identical
inputs give bit-identical outputs at any cadence.  Every step is the
fourth-order, ten-stage SSPRK(10,4) of Ketcheson (2008).

Inside a step every stage is one contiguous float64 buffer ``[v | theta | u]``
(n cells, n cells, n + 1 nodes).  ``rhs`` returns rates in the same layout,
each stage is one whole-buffer combination computed in place in its rate
buffer, and only the step's result becomes a FluidState, with views of its
buffer as fields.  ``step`` checks its input (finite, positive v and theta), then
each stage result with ``_passes``; ``rhs`` checks no packed stage again.  Only a
failing stage goes through ``validate_state``, to name the stage, field and cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

__all__ = ["SSPRK104", "SSPTable", "StepControl", "stable_dt", "step", "advance"]

#: the ticks inside a step are read and audited as blocks of at most this many cells
_BLOCK_CELLS = 4096
#: sources(t) -> (dv, du, dtheta) extra rates, or None
SourceFn = Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True, eq=False)
class SSPTable:
    """A low-storage SSP Runge-Kutta method in Shu-Osher form.

    Stage i = 1, 2, ... is an Euler substep w_i = y + h F(y), h = dt/ssp, with
    sources at t0 + c[i-1] dt.  ``mix[i] = (a, ((k, b), ...))`` makes the next
    stage input a w_i + sum b w_k, with w_0 = y0 and k > 0 a mixed stage.  The
    ledger weighs stage inputs by weights/denominator.  The step is at most
    ``ssp`` forward-Euler steps.

    ``dense[j] = (p1, p2, p3)`` makes b_j(theta) = p1 theta + p2 theta^2 +
    p3 theta^3 in the dense output y_n + dt sum_j b_j(theta) k_j: the
    minimum-norm cubic meeting the four third-order conditions, with b(1) =
    weights/denominator.  SSPRK(10,4)'s least b_j is -0.028; none is >= 0
    throughout, as sum_j b_j c_j = theta^2/2 then fails: the c and c^2
    conditions zero the low terms where c_j > 0.
    """

    ssp: float
    c: tuple[float, ...]
    weights: tuple[float, ...]
    denominator: float
    mix: dict[int, tuple[float, tuple[tuple[int, float], ...]]]
    dense: tuple[tuple[float, float, float], ...]

    def dense_weights(self, theta: float) -> tuple[float, ...]:
        """b_j(theta) for each stage, theta in [0, 1] the fraction of the step."""
        return tuple(theta * (p1 + theta * (p2 + theta * p3)) for p1, p2, p3 in self.dense)


#: Ketcheson 2008, SSP coefficient 6: y5 = 2/5 w5 + 3/5 y0 and
#: y_{n+1} = 3/5 w10 + 1/25 y0 + 9/25 w5, every weight b 1/10
SSPRK104 = SSPTable(6.0, (0, 1 / 6, 1 / 3, 1 / 2, 2 / 3, 1 / 3, 1 / 2, 2 / 3, 5 / 6, 1),
                    (1.0,) * 10, 10.0, {5: (0.4, ((0, 0.6),)), 10: (0.6, ((0, 0.04), (5, 0.36)))},
                    ((11 / 15, -13 / 10, 2 / 3), (16 / 45, -11 / 30, 1 / 9),
                     (4 / 45, 7 / 30, -2 / 9), (-1 / 15, 1 / 2, -1 / 3), (-1 / 9, 13 / 30, -2 / 9),
                     (4 / 45, 7 / 30, -2 / 9), (-1 / 15, 1 / 2, -1 / 3), (-1 / 9, 13 / 30, -2 / 9),
                     (-2 / 45, 1 / 30, 1 / 9), (2 / 15, -7 / 10, 2 / 3)))


@dataclass(frozen=True)
class StepControl:
    """Safety factors and guards for the explicit step size.

    The diffusive step is 10 times ``cfl_parabolic`` of twice the forward-Euler
    limit dt_FE, capped at SSPRK(10,4)'s SSP limit 6 dt_FE: every value in
    [0.3, 1] gives the same 6 dt_FE step, to rounding, and only smaller values
    shorten it."""

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


def stable_dt(state: FluidState, grid: MassGrid, params: GasParams, ctrl: StepControl) -> float:
    """Largest safe SSPRK(10,4) step: min of acoustic and diffusive limits.

    Acoustic scale c = sqrt(R*theta*gamma)/v per cell; diffusive scale
    D = max(mu/v, kappa/(c_v*v)) and forward-Euler limit dt_FE = dm^2/(2D); the
    diffusive limit is min(6 dt_FE, 10 * (2 ``cfl_parabolic`` dt_FE)).
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
    two_d = 2.0 * float(max(params.mu / v_min, params.kappa / (params.c_v * v_min)))
    # the operand order is part of the step's bits: ten times (2 cfl_parabolic dm^2 / 2D)
    dt_par = min(SSPRK104.ssp * dm * dm / two_d,
                 10.0 * (2.0 * ctrl.cfl_parabolic * dm * dm / two_d))
    dt = min(dt_hyp, dt_par)
    if dt < ctrl.dt_min:
        raise StiffnessError(
            f"stable step {dt:.3e} fell below dt_min {ctrl.dt_min:.3e} "
            f"at t = {state.t:.6g}", time=state.t,
        )
    return min(dt, ctrl.dt_max)


def _passes(y: np.ndarray, floor: float) -> bool:
    """The stage test of a packed state or block: its min over [v | theta] is above floor
    (NaN fails it) and its sum finite (finite entries may overflow it; numpy then warns)."""
    return (np.minimum.reduce(y[..., : 2 * (y.shape[-1] // 3)], None) > floor
            and math.isfinite(np.add.reduce(y, None)))


def _checked(y: np.ndarray, floor: float, stage: int | None, t_start: float) -> None:
    """Raise IntegrationError unless the packed stage is finite with v, theta above floor.

    A stage failing :func:`_passes` goes through validate_state, which passes an overflow
    and names the field and cell of another failure; a None ``stage`` is a dense-output tick.
    """
    if _passes(y, floor):
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
    kept: list[tuple[np.ndarray, float]] | None = None,
) -> FluidState:
    """One SSPRK(10,4) step: ten positivity-checked Euler substeps of h = dt/6.

    A state off the grid's cell count (ConfigurationError) or with v or theta not finite
    and positive (DomainError) fails before any stage.  Sources are evaluated once per
    distinct stage time.  A ledger gets the boundary-energy inflow with the scheme's
    weights, so the total-energy residual measures time-integration error only.  A
    stage whose result fails the floor raises IntegrationError naming it (1 to 10).
    A ``kept`` list gets each stage's rates k_j and boundary power (NaN without a
    ledger) for :func:`_dense_output`; the result's bits stay the same.
    """
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt!r}")
    require_cells_match("step", state, grid)
    y0 = state.packed()
    require_positive("step", y0[: 2 * grid.n_cells])
    table = SSPRK104
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
        if not _passes(y, floor):
            _checked(y, floor, i, t0)

    if ledger is not None:
        ledger.add(dt * inflow / table.denominator)
    return FluidState.from_packed(t0 + dt, y)


def _dense_output(start: FluidState, dt: float, weights: list[tuple[float, ...]],
                  kept: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """The block of packed states y_n + dt sum_j b_j k_j, a row per row of weights, of a step
    whose rates were kept: a pass per stage over all rows, in stage order, fixes its bits."""
    b = np.array(weights)[:, :, None]
    acc, term = b[:, 0] * kept[0][0], np.empty((len(b), kept[0][0].shape[0]))
    for j, (k, _) in enumerate(kept[1:], 1):
        acc += np.multiply(b[:, j], k, out=term)
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
    time a step lands on; each step is the stable one, or the rest of the way
    to ``t_end`` if that is shorter.  The ticks inside a step, at most
    ``_BLOCK_CELLS // n`` (one or more) at a time, read their states and ledger
    inflows from its dense output as one block, checked as a stage is and
    recorded in one ``record_block``; on_record then sees each in order.  In a block that fails
    the check the ticks before the failing one are still recorded.  A state off
    the grid's cell count fails before any record; calling with ``t_end`` equal
    to the state time is a no-op that emits the single record.  Step failures
    carry the time of failure.
    """
    if not np.isfinite(t_end) or t_end < state.t:
        raise ConfigurationError(f"t_end must be >= the state time {state.t!r}, got {t_end!r}")
    if not every > 0.0:
        raise ConfigurationError(f"cadence must be positive, got {every!r}")
    require_cells_match("advance", state, grid)

    trail = AuditTrail(state, grid, params, setup, excess_thresholds)
    records = [trail.record(state)]
    if on_record is not None:
        on_record(records[0], state)

    t0, eps = state.t, 1e-12 * max(1.0, abs(t_end))
    landed, tick, cap = state, 1, max(1, _BLOCK_CELLS // grid.n_cells)
    while state.t < t_end - eps:
        target = t0 + tick * every
        if target > t_end - eps:
            target = t_end
        while landed.t < target - eps:
            start, inflow = landed, trail.ledger.inflow
            dt = min(stable_dt(start, grid, params, ctrl), t_end - start.t)
            kept = [] if target < start.t + dt - eps else None
            landed = step(start, dt, grid, params, setup, ctrl, sources=sources,
                          ledger=trail.ledger, kept=kept)
        if target < landed.t - eps:  # later ticks need no clamp, as t_end >= landed.t
            times = [target]
            while len(times) < cap and (later := t0 + (tick + len(times)) * every) < landed.t - eps:
                times.append(later)
            weights = [SSPRK104.dense_weights((t - start.t) / dt) for t in times]
            block = _dense_output(start, dt, weights, kept)
            inflows = [inflow + dt * sum(b * p for b, (_, p) in zip(row, kept)) for row in weights]
        else:
            times, block, inflows = [target], landed.packed()[None], [trail.ledger.inflow]
        tick += len(times)
        # a block failing the stage test goes a tick at a time, up to the tick that fails
        whole = _passes(block, ctrl.positivity_floor)
        for part in [slice(None)] if whole else [slice(i, i + 1) for i in range(len(times))]:
            if not whole:
                _checked(block[part.start], ctrl.positivity_floor, None, times[part.start])
            batch = trail.record_block(times[part], block[part], inflows[part])
            for record, t, y in zip(batch, times[part], block[part]):
                state = FluidState.from_packed(t, y)
                records.append(record)
                if on_record is not None:
                    on_record(record, state)
    return state, records
