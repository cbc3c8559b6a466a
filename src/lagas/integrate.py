"""Explicit time advancement: SSPRK(4,3) steps under a stability-controlled dt.

``advance`` marches a trajectory to a target time, truncating steps so that
every diagnostic tick (and the final time) is hit exactly, and emits one
:class:`~lagas.diagnostics.AuditRecord` per tick.  Trajectories are
deterministic: identical inputs give bit-identical outputs.  The scheme is
the four-stage, third-order SSPRK(4,3) of Spiteri & Ruuth (2002), whose SSP
coefficient 2 lets ``stable_dt`` double the forward-Euler diffusive limit.

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

_SSP_COEFFICIENT = 2.0  # SSPRK(4,3) keeps Euler's positivity up to twice its step


@dataclass(frozen=True)
class StepControl:
    """Safety factors and guards for the explicit step size; ``cfl_parabolic``
    is a fraction of SSPRK(4,3)'s diffusive limit, 2x the forward-Euler one.
    The default 0.3, not 0.4, keeps the relative energy-balance residual of a
    128-cell random-data run (L = 25, to t = 0.05) under 1e-9."""

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
    state: FluidState, grid: MassGrid, params: GasParams, ctrl: StepControl
) -> float:
    """Largest safe explicit step: min of acoustic and diffusive limits.

    Acoustic scale c = sqrt(R*theta*gamma)/v per cell; diffusive scale
    max(mu/v, kappa/(c_v*v)); the diffusive limit is SSPRK(4,3)'s, its SSP
    coefficient 2 times forward Euler's.  Raises StiffnessError when the
    unclamped step falls below dt_min (blow-up or floor-level v/theta).
    """
    v, th = state.v, state.theta
    v_min = require_positive("stable_dt", v, th)
    dm = grid.dm
    sound = np.sqrt(params.R * th * params.gamma) / v
    dt_hyp = ctrl.cfl_hyperbolic * dm / float(sound.max())
    # rounded division and multiplication are monotone, so the largest
    # diffusivity over the cells is the one at min v, bit for bit
    diffusivity = max(params.mu / v_min, params.kappa / (params.c_v * v_min))
    dt_par = _SSP_COEFFICIENT * ctrl.cfl_parabolic * dm * dm / (2.0 * float(diffusivity))
    dt = min(dt_hyp, dt_par)
    if dt < ctrl.dt_min:
        raise StiffnessError(
            f"stable step {dt:.3e} fell below dt_min {ctrl.dt_min:.3e} "
            f"at t = {state.t:.6g}", time=state.t,
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
    """One SSPRK(4,3) step: four positivity-checked Euler substeps of h = dt/2.

    y1 = y0 + h F(y0), y2 = y1 + h F(y1), y3 = 2/3 y0 + 1/3 (y2 + h F(y2)) and
    y_{n+1} = y3 + h F(y3), with sources at t0 + (0, 1/2, 1, 1/2) dt.  A ledger
    gets the boundary-energy inflow with the scheme's weights (1/6, 1/6, 1/6,
    1/2), so the total-energy residual measures time-integration error only.
    """
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt!r}")
    t0, h = state.t, 0.5 * dt
    floor = ctrl.positivity_floor
    times = (t0, t0 + h, t0 + dt)
    s0, s_mid, s1 = [sources(t) for t in times] if sources is not None else [None] * 3

    def euler(y: np.ndarray, extra) -> np.ndarray:
        k = rhs(y, grid, params, setup, extra).rates
        k *= h
        k += y
        return k

    y0 = state.packed()
    y1 = euler(y0, s0)
    _checked(y1, floor, 1, t0)
    y2 = euler(y1, s_mid)
    _checked(y2, floor, 2, t0)
    y3 = euler(y2, s1)
    y3 *= 1.0 / 3.0
    y3 += (2.0 / 3.0) * y0
    _checked(y3, floor, 3, t0)
    out = euler(y3, s_mid)
    _checked(out, floor, 4, t0)

    if ledger is not None:
        bp = [boundary_power(y, grid, params, setup) for y in (y0, y1, y2, y3)]
        ledger.add(dt * (bp[0] + bp[1] + bp[2] + 3.0 * bp[3]) / 6.0)
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
