"""Explicit time advancement: SSP-RK3 steps under a stability-controlled dt.

``advance`` marches a trajectory to a target time, truncating steps so that
every diagnostic tick (and the final time) is hit exactly, and emits one
:class:`~lagas.diagnostics.AuditRecord` per tick.  Trajectories are
deterministic: identical inputs give bit-identical outputs.

Inside a step every stage is one contiguous float64 buffer ``[v | theta | u]``
(n cells, n cells, n + 1 nodes).  ``rhs`` returns rates in the same layout,
each stage is one whole-buffer combination computed in place in its rate
buffer, and only the step's result becomes a FluidState, with views of its
buffer as fields.  A stage passes on one min over ``[v | theta]`` against the
floor and one finiteness test; only a failing stage goes through
``validate_state``, to name the stage, field and cell.
"""

from __future__ import annotations

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
    ProblemSetup,
    StiffnessError,
    require_positive,
    validate_state,
)
from .diagnostics import DEFAULT_EXCESS_THRESHOLDS, AuditRecord, AuditTrail, EnergyLedger
from .scheme import boundary_power, rhs

__all__ = ["StepControl", "stable_dt", "step", "advance"]

#: sources(t) -> (dv, du, dtheta) extra rates, or None
SourceFn = Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class StepControl:
    """Safety factors and guards for the explicit step size."""

    cfl_hyperbolic: float = 0.4
    cfl_parabolic: float = 0.4
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
    state: FluidState, grid: MassGrid, params: GasParams, ctrl: StepControl
) -> float:
    """Largest safe explicit step: min of acoustic and diffusive limits.

    Acoustic scale c = sqrt(R*theta*gamma)/v per cell; diffusive scale
    max(mu/v, kappa/(c_v*v)).  Raises StiffnessError when the unclamped
    step falls below dt_min (blow-up or floor-level v/theta).
    """
    v, th = state.v, state.theta
    v_min = require_positive("stable_dt", v, th)
    dm = grid.dm
    sound = np.sqrt(params.R * th * params.gamma) / v
    dt_hyp = ctrl.cfl_hyperbolic * dm / float(sound.max())
    # rounded division and multiplication are monotone, so the largest
    # diffusivity over the cells is the one at min v, bit for bit
    diffusivity = max(params.mu / v_min, params.kappa / (params.c_v * v_min))
    dt_par = ctrl.cfl_parabolic * dm * dm / (2.0 * float(diffusivity))
    dt = min(dt_hyp, dt_par)
    if dt < ctrl.dt_min:
        raise StiffnessError(
            f"stable step {dt:.3e} fell below dt_min {ctrl.dt_min:.3e} "
            f"at t = {state.t:.6g}"
        )
    return min(dt, ctrl.dt_max)


def _checked(y: np.ndarray, floor: float, stage: int, t_start: float) -> None:
    """Raise IntegrationError unless the packed stage is finite with v, theta above floor.

    One min over ``[v | theta]`` (NaN fails it) and one finiteness test; only
    a failing stage goes through validate_state to name the field and cell.
    """
    if y[: 2 * (y.shape[0] // 3)].min() > floor and np.isfinite(y).all():
        return
    report = validate_state(FluidState.from_packed(t_start, y), floor)
    if not report.ok:
        raise IntegrationError(
            f"stage {stage} at t = {t_start:.6g}: {report.message()}",
            time=t_start,
            stage=stage,
            cell=report.index,
            field_name=report.field_name,
        )


def _convex_stage(
    k: np.ndarray, dt: float, y: np.ndarray, w: float, y0: np.ndarray, w0: float
) -> np.ndarray:
    """w0*y0 + w*(y + dt*k), the same float operations, in place in the rates k."""
    k *= dt
    k += y
    k *= w
    k += w0 * y0
    return k


def step(
    state: FluidState,
    dt: float,
    grid: MassGrid,
    params: GasParams,
    setup: ProblemSetup,
    ctrl: StepControl,
    sources: SourceFn | None = None,
    ledger: EnergyLedger | None = None,
) -> FluidState:
    """One SSP-RK3 step (three convex Euler substeps), positivity-checked.

    When a ledger is supplied, the boundary-energy inflow over the step is
    accumulated with the matching third-order stage weights, so the
    total-energy residual measures time-integration error only.
    """
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt!r}")
    t0 = state.t
    floor = ctrl.positivity_floor

    def rate(y: np.ndarray, t: float) -> np.ndarray:
        extra = sources(t) if sources is not None else None
        return rhs(y, grid, params, setup, extra).rates

    y0 = state.packed()
    y1 = rate(y0, t0)
    y1 *= dt
    y1 += y0
    _checked(y1, floor, 1, t0)
    y2 = _convex_stage(rate(y1, t0 + dt), dt, y1, 0.25, y0, 0.75)
    _checked(y2, floor, 2, t0)
    third = 1.0 / 3.0
    out = _convex_stage(rate(y2, t0 + 0.5 * dt), dt, y2, 2.0 * third, y0, third)
    _checked(out, floor, 3, t0)

    if ledger is not None:
        bp0 = boundary_power(y0, grid, params, setup)
        bp1 = boundary_power(y1, grid, params, setup)
        bp2 = boundary_power(y2, grid, params, setup)
        ledger.add(dt * (bp0 + bp1 + 4.0 * bp2) / 6.0)
    return FluidState.from_packed(t0 + dt, out)


def advance(
    state: FluidState,
    t_end: float,
    every: float,
    grid: MassGrid,
    params: GasParams,
    setup: ProblemSetup,
    ctrl: StepControl,
    sources: SourceFn | None = None,
    excess_thresholds=DEFAULT_EXCESS_THRESHOLDS,
    on_record: Callable[[AuditRecord, FluidState], None] | None = None,
) -> tuple[FluidState, list[AuditRecord]]:
    """March to ``t_end``, emitting an AuditRecord every ``every`` time units.

    A record is always written at the start time and at ``t_end``; steps are
    truncated to land exactly on each tick.  Calling with ``t_end`` equal to
    the state time is a no-op that emits the single record.  Step failures
    propagate with the time of failure attached.
    """
    if not np.isfinite(t_end) or t_end < state.t:
        raise ConfigurationError(
            f"t_end must be >= the state time {state.t!r}, got {t_end!r}"
        )
    if not every > 0.0:
        raise ConfigurationError(f"cadence must be positive, got {every!r}")

    trail = AuditTrail(state, grid, params, setup, excess_thresholds)
    records = [trail.record(state)]
    if on_record is not None:
        on_record(records[0], state)

    t0 = state.t
    eps = 1e-12 * max(1.0, abs(t_end))
    tick = 1
    while state.t < t_end - eps:
        target = t0 + tick * every
        if target > t_end - eps:
            target = t_end
        while state.t < target - eps:
            dt = stable_dt(state, grid, params, ctrl)
            dt = min(dt, target - state.t)
            state = step(
                state, dt, grid, params, setup, ctrl,
                sources=sources, ledger=trail.ledger,
            )
        state = replace(state, t=target)
        record = trail.record(state)
        records.append(record)
        if on_record is not None:
            on_record(record, state)
        tick += 1
    return state, records
