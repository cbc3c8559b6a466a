"""Explicit time advancement: low-storage SSPRK(10,4) steps under a stable dt.

``advance`` marches a trajectory to a target time, the only time a step lands
on, and emits one :class:`~lagas.diagnostics.AuditRecord` per diagnostic tick.
The ticks inside a step are read from its dense output as one block of packed
states, checked and audited together.  Trajectories are deterministic: identical
inputs give bit-identical outputs at any cadence.  Every step is the
fourth-order, ten-stage SSPRK(10,4) of Ketcheson (2008).

A state is read in place as its buffer ``state.y``, ``[v | theta | u]``; a step copies it into the
stage buffer of a :class:`~lagas.scheme.Stage`, where ``rhs`` leaves rates in the same layout and
the boundary power: the last passing step's Stage, loaded afresh, on that step's very grid and gas,
else a new one, as in a failing step's replay.  The Euler substeps and the method's two mixes
update that buffer in place, and the result adopts it.  Every state check is core's fast
``positive_and_finite``, with its naming scan behind it: an input state on its grid passes
``require_valid``, in ``step`` only once ``on_grid`` or the fast test fails; a step's result and
each dense-output block are tested at the floor, its other stages by ``above_floor`` of the Stage's
``vth`` alone, and ``_failure`` names the stage, field and cell of a failing step's replay
(IntegrationError), in which every stage is tested in full.
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
    above_floor,
    on_grid,
    positive_and_finite,
    require_valid,
    validate_state,
)
from .diagnostics import DEFAULT_EXCESS_THRESHOLDS, AuditRecord, AuditTrail, EnergyLedger
from .scheme import Stage, boundary_power, rhs

__all__ = ["STAGE_TIMES", "DENSE_CUBICS", "dense_block", "StepControl", "stable_dt", "step",
           "advance"]

#: the ticks inside a step are read and audited as blocks of at most this many cells
_BLOCK_CELLS = 4096
#: sources(times) -> extra rates, a row per time packed like the rates, [dv | dtheta | du]
SourceFn = Callable[[list[float]], np.ndarray]
#: the slot holding the Stage of the last passing step, which a step popping it reuses on the same
#: grid and gas; popped, it is never shared by two threads or a re-entrant call
_SPARE: dict[str, Stage] = {}


#: SSPRK(10,4) of Ketcheson 2008, SSP coefficient 6: stage i = 1, ..., 10 is an Euler
#: substep w_i = y + h F(y), h = dt/6, with sources at t0 + STAGE_TIMES[i-1] dt; the sixth
#: stage input is y5 = 2/5 w5 + 3/5 y0, the result 3/5 w10 + 1/25 y0 + 9/25 w5, and every
#: weight b is 1/10, the ledger's too.  The step is at most 6 forward-Euler steps.
STAGE_TIMES = (0, 1 / 6, 1 / 3, 1 / 2, 2 / 3, 1 / 3, 1 / 2, 2 / 3, 5 / 6, 1)
#: the distinct stage times in stage order, one sources row each, and each stage's row
_TIMES = tuple(dict.fromkeys(STAGE_TIMES))
_ROWS = tuple(map(_TIMES.index, STAGE_TIMES))
#: (p1, p2, p3) of stage j make b_j(theta) = p1 theta + p2 theta^2 + p3 theta^3 in the dense
#: output y_n + dt sum_j b_j(theta) k_j: the minimum-norm cubic meeting the four third-order
#: conditions, with b(1) = 1/10.  The least b_j is -0.028; none is >= 0 throughout, as
#: sum_j b_j c_j = theta^2/2 then fails: the c and c^2 conditions zero the low terms where c_j > 0
DENSE_CUBICS = ((11 / 15, -13 / 10, 2 / 3), (16 / 45, -11 / 30, 1 / 9),
                (4 / 45, 7 / 30, -2 / 9), (-1 / 15, 1 / 2, -1 / 3), (-1 / 9, 13 / 30, -2 / 9),
                (4 / 45, 7 / 30, -2 / 9), (-1 / 15, 1 / 2, -1 / 3), (-1 / 9, 13 / 30, -2 / 9),
                (-2 / 45, 1 / 30, 1 / 9), (2 / 15, -7 / 10, 2 / 3))
#: the mixes' weights 2/5, 3/5, 1/25 and 9/25 as read-only 0-d operands, which numpy need not
#: convert on each call as it does a float; step binds h = dt/6 likewise, as a local once a step,
#: since two threads may step at once
_MIX = np.array([0.4, 0.6, 0.04, 0.36])
_MIX.flags.writeable = False
_W40, _W60, _W04, _W36 = (_MIX[i, ...] for i in range(4))


def dense_block(thetas: list[float]) -> np.ndarray:
    """The dense-output weights b_j(theta), theta in [0, 1] the fraction of the step, a row
    per theta and a column per stage, in one numpy pass of their operations."""
    theta, (p1, p2, p3) = np.array(thetas)[:, None], np.array(DENSE_CUBICS).T
    return theta * (p1 + theta * (p2 + theta * p3))


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
    diffusive limit is min(6 dt_FE, 10 * (2 ``cfl_parabolic`` dt_FE)).  Rounding is
    monotone, so the largest D is the one at min v, and no cell's c exceeds
    sqrt(R*max theta*gamma)/min v in the same operand order: when that bound's acoustic step
    is no shorter than the diffusive limit, the pass over the cells is skipped, bit for bit.
    A state failing ``require_valid`` fails first; StiffnessError when the unclamped step
    falls below dt_min (blow-up or floor-level v/theta).
    """
    require_valid("stable_dt", state.y, grid)
    v, th, dm = state.v, state.theta, grid.dm
    v_min = float(np.minimum.reduce(v))
    two_d = 2.0 * max(params.mu / v_min, params.kappa / (params.c_v * v_min))
    # the operand order is part of the step's bits: ten times (2 cfl_parabolic dm^2 / 2D)
    dt = min(6.0 * dm * dm / two_d, 10.0 * (2.0 * ctrl.cfl_parabolic * dm * dm / two_d))
    bound = math.sqrt(params.R * float(np.maximum.reduce(th)) * params.gamma) / v_min
    if ctrl.cfl_hyperbolic * dm / bound < dt:
        sound = np.sqrt(params.R * th * params.gamma) / v
        dt = min(ctrl.cfl_hyperbolic * dm / float(np.maximum.reduce(sound)), dt)
    if dt < ctrl.dt_min:
        raise StiffnessError(
            f"stable step {dt:.3e} fell below dt_min {ctrl.dt_min:.3e} "
            f"at t = {state.t:.6g}", time=state.t,
        )
    return min(dt, ctrl.dt_max)


def _failure(y: np.ndarray, floor: float, stage: int | None,
             t_start: float) -> IntegrationError | None:
    """The IntegrationError naming the field and cell of a packed stage failing the fast test,
    or None for finite entries whose sum overflowed; a None ``stage`` is a dense-output tick."""
    if (report := validate_state(FluidState.from_packed(t_start, y), floor)).ok:
        return None
    where = "dense output" if stage is None else f"stage {stage}"
    return IntegrationError(f"{where} at t = {t_start:.6g}: {report.message()}", time=t_start,
                            stage=stage, cell=report.index, field_name=report.field_name)


@np.errstate(invalid="ignore", over="ignore")
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

    A state failing ``require_valid`` fails before any stage.  ``sources`` gets one call, with
    the distinct stage times t0 + c dt in stage order, and returns a row per time packed like
    the rates, shape (7, 3n + 1), else a ConfigurationError before any stage; each stage adds
    its time's row.  A ledger gets the boundary-energy inflow with the scheme's weights, so the
    total-energy residual measures time-integration error only.  Stages 1 to 9 are tested at
    the floor, the result for finiteness too, as a non-finite entry survives every update and
    mix; a failing step is replayed, each stage tested in full, only to raise the
    IntegrationError naming the first bad stage (1 to 10), never numpy's warning.  A ``kept``
    list gets a copy of each stage's rates k_j and its boundary power (NaN without a ledger)
    for :func:`_dense_output`; the result's bits stay put.
    """
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt!r}")
    y0 = state.y
    if not (on_grid(y0, grid) and positive_and_finite(y0, 0.0)):  # under step's errstate
        require_valid("step", y0, grid)
    t0, floor, h, mark = state.t, ctrl.positivity_floor, np.array(dt / 6.0), len(kept or ())
    forcing = None if sources is None else sources([t0 + c * dt for c in _TIMES])
    if forcing is not None and getattr(forcing, "shape", None) != (len(_TIMES), y0.shape[0]):
        raise ConfigurationError(f"step: sources must return rows of shape (7, {y0.shape[0]}), "
                                 f"got {getattr(forcing, 'shape', type(forcing).__name__)}")

    def stages(named: bool) -> tuple[Stage, float] | None:
        if kept is not None:
            del kept[mark:]  # a replay keeps only its own rates
        stage = None if named else _SPARE.pop("stage", None)  # a replay builds a Stage of its own
        if stage is not None and stage.grid is grid and stage.params is params:
            stage.load(y0.copy())
        else:
            stage = Stage(y0.copy(), grid, params)
        y, vth, inflow, power = stage.y, stage.vth, 0.0, math.nan
        for i, row in enumerate(_ROWS, 1):
            k = rhs(stage, grid, params, setup, forcing if forcing is None else forcing[row])
            if ledger is not None:
                power = boundary_power(stage, grid, params, setup)
                inflow += power
            if kept is not None:
                kept.append((k.copy(), power))
            np.add(y, np.multiply(k, h, k), y)  # in place: y + k h, bit for bit k h + y
            if i == 5:  # y5 = 2/5 w5 + 3/5 y0, keeping w5; the spent k holds each mix product
                w5 = y.copy()
                np.add(np.multiply(y, _W40, y), np.multiply(_W60, y0, k), y)
            elif i == 10:  # 3/5 w10 + 1/25 y0 + 9/25 w5
                np.add(np.multiply(y, _W60, y), np.multiply(_W04, y0, k), y)
                np.add(y, np.multiply(_W36, w5, k), y)
            if not (positive_and_finite(y, floor) if named or i == 10 else above_floor(vth, floor)):
                if not named:
                    return None
                if error := _failure(y, floor, i, t0):  # None: finite, but the sum overflowed
                    raise error
        return stage, inflow

    stage, inflow = stages(False) or stages(True)
    if ledger is not None:
        ledger.add(dt * inflow / 10.0)
    _SPARE["stage"] = stage  # a failing step leaves the slot empty
    return FluidState.from_packed(t0 + dt, stage.y)


def _dense_output(start: FluidState, dt: float, weights: list[tuple[float, ...]],
                  kept: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """The block of packed states y_n + dt sum_j b_j k_j, a row per row of weights, of a step
    whose rates were kept: a pass per stage over all rows, in stage order, fixes its bits."""
    b = np.array(weights)[:, :, None]
    acc, term = b[:, 0] * kept[0][0], np.empty((len(b), kept[0][0].shape[0]))
    for j, (k, _) in enumerate(kept[1:], 1):
        acc += np.multiply(b[:, j], k, out=term)
    acc *= dt
    acc += start.y
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
    the check the ticks before the failing one are still recorded.  A state failing
    ``require_valid`` fails before any record; calling with ``t_end`` equal
    to the state time is a no-op that emits the single record.  Step failures
    carry the time of failure.
    """
    if not np.isfinite(t_end) or t_end < state.t:
        raise ConfigurationError(f"t_end must be >= the state time {state.t!r}, got {t_end!r}")
    if not every > 0.0:
        raise ConfigurationError(f"cadence must be positive, got {every!r}")
    require_valid("advance", state.y, grid)

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
            weights = dense_block([(t - start.t) / dt for t in times])
            block = _dense_output(start, dt, weights, kept)
            inflows = [inflow + dt * sum(b * p for b, (_, p) in zip(row, kept))
                       for row in weights.tolist()]
            # a block failing the stage test is recorded up to its first failing tick
            with np.errstate(invalid="ignore", over="ignore"):  # one per block, as in a step
                failures = [] if positive_and_finite(block, ctrl.positivity_floor) else \
                    [_failure(y, ctrl.positivity_floor, None, t) for t, y in zip(times, block)]
        else:  # the landed state, which the step checked at the floor as its stage 10
            times, block, inflows = [target], landed.y[None], [trail.ledger.inflow]
            failures = []
        tick += len(times)
        good = next((i for i, error in enumerate(failures) if error is not None), len(times))
        if good:  # record_block takes one row or more
            for record, t, y in zip(trail.record_block(times[:good], block[:good], inflows[:good]),
                                    times, block):
                state = FluidState.from_packed(t, y)
                records.append(record)
                if on_record is not None:
                    on_record(record, state)
        if good < len(times):
            raise failures[good]
    return state, records
