"""Setups, discrete gas state, mass grid, physical parameters, and validity checks.

A setup is a :class:`SetupKind` member.  Everything here is value-like: grids
and parameter sets are frozen, and a ``FluidState`` owns one packed buffer, so it can
be copied and mutated without touching the original or the arrays it was built from.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigurationError",
    "DomainError",
    "StiffnessError",
    "IntegrationError",
    "SetupKind",
    "ProblemSetup",
    "GasParams",
    "MassGrid",
    "FluidState",
    "ValidationReport",
    "POSITIVITY_FLOOR",
    "make_grid",
    "first_breach",
    "positive_and_finite",
    "require_valid",
    "steady_state",
    "unpack",
    "validate_state",
]

#: Default hard floor for v and theta; a violation signals numerical failure.
POSITIVITY_FLOOR = 1e-10


class ConfigurationError(ValueError):
    """Invalid grid, parameter set, initial data, or run configuration."""


class DomainError(ValueError):
    """A physical quantity left its admissible range (v > 0, theta > 0, ...)."""


class _TimedError(RuntimeError):
    """A run failure at state ``time``."""

    def __reduce__(self):
        # RuntimeError pickles as cls(*args), which drops the keyword-only time;
        # the other fields come back with the instance state
        return functools.partial(type(self), time=self.time), self.args, self.__dict__


class StiffnessError(_TimedError):
    """The stable time step fell below the configured minimum at state ``time``."""

    def __init__(self, message: str, *, time: float) -> None:
        super().__init__(message)
        self.time = time


class IntegrationError(_TimedError):
    """A time step produced an invalid state."""

    def __init__(
        self,
        message: str,
        *,
        time: float,
        stage: int | None = None,
        cell: int | None = None,
        field_name: str | None = None,
    ) -> None:
        super().__init__(message)
        self.time = time
        self.stage = stage
        self.cell = cell
        self.field_name = field_name


class SetupKind(enum.Enum):
    """Which boundary/far-field configuration a run uses.

    The far-field (and wall, where present) reference state is the fixed
    triple ``(v, u, theta) = (1, 0, 1)``; it is not configurable.
    """

    CAUCHY = "cauchy"
    HALFLINE_INSULATED = "halfline_insulated"
    HALFLINE_ISOTHERMAL = "halfline_isothermal"

    @property
    def has_wall(self) -> bool:
        """True when x = 0 is a solid wall (half-line setups)."""
        return self is not SetupKind.CAUCHY


#: another name for SetupKind: perfbench/worker.py still builds its setups as
#: ``lagas.ProblemSetup(kind)``, which returns ``kind`` itself
ProblemSetup = SetupKind


@dataclass(frozen=True)
class GasParams:
    """Transport and thermodynamic constants, all strictly positive.

    mu    -- dynamic viscosity
    kappa -- heat conductivity
    R     -- gas constant
    c_v   -- heat capacity at constant volume
    """

    mu: float
    kappa: float
    R: float
    c_v: float

    def __post_init__(self) -> None:
        for name in ("mu", "kappa", "R", "c_v"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ConfigurationError(
                    f"gas parameter {name} must be a positive real, got {value!r}"
                )

    @property
    def gamma(self) -> float:
        """Adiabatic exponent implied by p = R*theta/v and e = c_v*theta."""
        return self.R / self.c_v + 1.0


@dataclass(frozen=True)
class MassGrid:
    """Uniform mesh in the Lagrangian mass coordinate.

    Cells j = 0..n_cells-1 are centered at x_left + (j + 1/2)*dm; nodes
    i = 0..n_cells sit at x_left + i*dm.  Velocity lives on nodes, specific
    volume and temperature on cells (cell j lies between nodes j and j+1).
    """

    x_left: float
    x_right: float
    n_cells: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x_left) and np.isfinite(self.x_right)):
            raise ConfigurationError("grid extents must be finite")
        if self.x_left >= self.x_right:
            raise ConfigurationError(
                f"grid needs x_left < x_right, got [{self.x_left}, {self.x_right}]"
            )
        if not isinstance(self.n_cells, (int, np.integer)) or self.n_cells < 4:
            raise ConfigurationError(
                f"n_cells must be an integer >= 4, got {self.n_cells!r}"
            )
        dm = float(self.dm)  # a Python float's square overflows without a numpy warning
        if not np.finfo(float).tiny <= dm * dm < np.inf:
            raise ConfigurationError(
                f"grid [{self.x_left}, {self.x_right}] with {self.n_cells} cells has "
                f"spacing {dm}; its square must be a normal float"
            )

    @property
    def dm(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dm

    def nodes(self) -> np.ndarray:
        return self.x_left + np.arange(self.n_cells + 1) * self.dm


def make_grid(setup: SetupKind, half_length: float, n_cells: int) -> MassGrid:
    """Truncate the unbounded domain to [-L, L] (Cauchy) or [0, L] (half-line)."""
    if not (np.isfinite(half_length) and half_length > 0.0):
        raise ConfigurationError(f"half_length must be positive, got {half_length!r}")
    if setup is SetupKind.CAUCHY:
        return MassGrid(-half_length, half_length, n_cells)
    return MassGrid(0.0, half_length, n_cells)


@dataclass(frozen=True)
class FluidState:
    """Discrete fields at one instant: v, theta on cells; u on nodes.

    Each is a view of the state's own contiguous float64 buffer ``y``, ``[v | theta | u]``,
    which construction fills with a copy, checking only shapes and the time stamp;
    positivity is the job of :func:`validate_state` so that deliberately broken states can
    be built in tests."""

    t: float
    v: np.ndarray
    theta: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        v, theta, u = (np.asarray(a, dtype=np.float64) for a in (self.v, self.theta, self.u))
        if v.ndim != 1 or theta.ndim != 1 or u.ndim != 1:
            raise ConfigurationError("state fields must be one-dimensional")
        if theta.shape != v.shape:
            raise ConfigurationError(f"theta has {theta.shape[0]} cells but v has {v.shape[0]}")
        if u.shape[0] != v.shape[0] + 1:
            raise ConfigurationError(
                f"u must have one entry per node ({v.shape[0] + 1}), got {u.shape[0]}")
        vars(self).update(vars(FluidState.from_packed(self.t, np.concatenate((v, theta, u)))))

    @classmethod
    def from_packed(cls, t: float, y: np.ndarray) -> "FluidState":
        """The state at time ``t`` that adopts ``y``, a packed ``[v | theta | u]``, uncopied."""
        if not (math.isfinite(t) and t >= 0.0):
            raise ConfigurationError(f"time must be a nonnegative real, got {t!r}")
        state = object.__new__(cls)  # frozen: its fields go straight into its __dict__
        vars(state).update(zip(("t", "y", "v", "theta", "u"), (t, y, *unpack(y))))
        return state

    def __reduce__(self):  # a pickle or deep copy keeps the fields views of one buffer
        return FluidState.from_packed, (self.t, self.y)

    @property
    def n_cells(self) -> int:
        return self.v.shape[0]

    def cell_velocity(self) -> np.ndarray:
        """Node velocity averaged to cell centers (second order, zero-preserving)."""
        return 0.5 * (self.u[:-1] + self.u[1:])

    def copy(self) -> "FluidState":
        return FluidState.from_packed(self.t, self.y.copy())


def unpack(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (v, theta, u) views of a packed ``[v | theta | u]`` state or block, on its last axis."""
    n = _cells(y)
    return y[..., :n], y[..., n : 2 * n], y[..., 2 * n :]


def _cells(y: np.ndarray) -> int:
    """n of a packed state or block, 3n + 1 entries on its last axis, without unpack's views."""
    return (y.shape[-1] - 1) // 3


def steady_state(grid: MassGrid) -> FluidState:
    """The rest state (v, u, theta) = (1, 0, 1) at t = 0."""
    n = grid.n_cells
    return FluidState(0.0, np.ones(n), np.ones(n), np.zeros(n + 1))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a state check; names the first offending entry on failure."""

    ok: bool
    field_name: str | None = None
    index: int | None = None
    reason: str | None = None

    def message(self) -> str:
        if self.ok:
            return "state ok"
        return f"{self.field_name}[{self.index}] {self.reason}"


def on_grid(y: np.ndarray, grid: MassGrid) -> bool:
    """Whether packed ``y``, a state or a block of them, has the grid's 3n + 1 entries a row."""
    return y.shape[-1] == 3 * grid.n_cells + 1


def above_floor(vth: np.ndarray, floor: float) -> bool:
    """The min of ``vth``, the [v | theta] of packed states, above ``floor``; NaN fails."""
    return np.minimum.reduce(vth, None) > floor


def positive_and_finite(y: np.ndarray, floor: float) -> bool:
    """The fast state test of packed ``y``, a state ``[v | theta | u]`` or a C-ordered block of
    them: :func:`above_floor` and one sum finite, which finite entries may overflow and +inf
    and -inf make NaN, so a False goes to :func:`first_breach`; numpy warns, so hold an errstate."""
    return (above_floor(y[..., : 2 * _cells(y)], floor)
            and math.isfinite(np.add.reduce(y, None)))


def first_breach(y: np.ndarray, floor: float = 0.0) -> ValidationReport:
    """The naming scan of packed ``y``, a state: the first non-finite entry of v, theta and u
    in that order, or the first v or theta entry not above ``floor``."""
    for name, arr, needs_floor in zip(("v", "theta", "u"), unpack(y), (True, True, False)):
        finite = np.isfinite(arr)
        if not finite.all():
            return ValidationReport(False, name, int(np.argmin(finite)), "is non-finite")
        if needs_floor and arr.min() <= floor:
            return ValidationReport(False, name, int(np.argmax(arr <= floor)),
                                    f"is not above the positivity floor {floor:g}")
    return ValidationReport(True)


def require_valid(what: str, y: np.ndarray, grid: MassGrid) -> np.ndarray:
    """Packed ``y``, a state or a block of them, that public function ``what`` took on ``grid``,
    once it is :func:`on_grid` (else a ConfigurationError names both cell counts or widths) and
    finite with positive v and theta (else a DomainError names its first bad field and cell)."""
    if not on_grid(y, grid):
        width, n = y.shape[-1], grid.n_cells
        has = (f"{_cells(y)} cells, grid {n}" if width % 3 == 1
               else f"width {width}, grid {n} needs 3n + 1 = {3 * n + 1}")
        raise ConfigurationError(f"{what}: state has {has}")
    with np.errstate(invalid="ignore", over="ignore"):
        if positive_and_finite(y, 0.0):
            return y
    for row in y.reshape(-1, y.shape[-1]):
        if not (report := first_breach(row)).ok:
            raise DomainError(f"{what} needs finite positive v and theta, and finite u: "
                              f"{report.message()}")
    return y  # finite entries whose sum overflows


def validate_state(state: FluidState, floor: float = POSITIVITY_FLOOR) -> ValidationReport:
    """Check finiteness of all fields and that min v and min theta exceed ``floor``."""
    if not (np.isfinite(floor) and floor > 0.0):
        raise ConfigurationError(f"positivity floor must be positive, got {floor!r}")
    return first_breach(state.y, floor)
