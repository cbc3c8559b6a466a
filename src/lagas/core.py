"""Discrete gas state, mass grid, physical parameters, and validity checks.

Everything here is value-like: grids and parameter sets are frozen, and a
``FluidState`` can be copied and mutated without touching the original.
"""

from __future__ import annotations

import enum
import functools
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
    "require_positive",
    "steady_state",
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
    """The three boundary/far-field configurations."""

    CAUCHY = "cauchy"
    HALFLINE_INSULATED = "halfline_insulated"
    HALFLINE_ISOTHERMAL = "halfline_isothermal"


@dataclass(frozen=True)
class ProblemSetup:
    """Which boundary/far-field configuration a run uses.

    The far-field (and wall, where present) reference state is the fixed
    triple ``(v, u, theta) = (1, 0, 1)``; it is not configurable.
    """

    kind: SetupKind

    @property
    def has_wall(self) -> bool:
        """True when x = 0 is a solid wall (half-line setups)."""
        return self.kind is not SetupKind.CAUCHY


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

    @property
    def dm(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dm

    def nodes(self) -> np.ndarray:
        return self.x_left + np.arange(self.n_cells + 1) * self.dm


def make_grid(setup: ProblemSetup, half_length: float, n_cells: int) -> MassGrid:
    """Truncate the unbounded domain to [-L, L] (Cauchy) or [0, L] (half-line)."""
    if not (np.isfinite(half_length) and half_length > 0.0):
        raise ConfigurationError(f"half_length must be positive, got {half_length!r}")
    if setup.kind is SetupKind.CAUCHY:
        return MassGrid(-half_length, half_length, n_cells)
    return MassGrid(0.0, half_length, n_cells)


@dataclass(frozen=True)
class FluidState:
    """Discrete fields at one instant: v, theta on cells; u on nodes.

    Construction checks only shapes and the time stamp; positivity is the
    job of :func:`validate_state` so that deliberately broken states can be
    built in tests.
    """

    t: float
    v: np.ndarray
    theta: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.float64))
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=np.float64))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.float64))
        if self.v.ndim != 1 or self.theta.ndim != 1 or self.u.ndim != 1:
            raise ConfigurationError("state fields must be one-dimensional")
        if self.theta.shape != self.v.shape:
            raise ConfigurationError(
                f"theta has {self.theta.shape[0]} cells but v has {self.v.shape[0]}"
            )
        if self.u.shape[0] != self.v.shape[0] + 1:
            raise ConfigurationError(
                f"u must have one entry per node ({self.v.shape[0] + 1}), "
                f"got {self.u.shape[0]}"
            )
        if not (np.isfinite(self.t) and self.t >= 0.0):
            raise ConfigurationError(f"time must be a nonnegative real, got {self.t!r}")

    @property
    def n_cells(self) -> int:
        return self.v.shape[0]

    def cell_velocity(self) -> np.ndarray:
        """Node velocity averaged to cell centers (second order, zero-preserving)."""
        return 0.5 * (self.u[:-1] + self.u[1:])

    def copy(self) -> "FluidState":
        return FluidState(self.t, self.v.copy(), self.theta.copy(), self.u.copy())

    def packed(self) -> np.ndarray:
        """The fields copied into one contiguous buffer ``[v | theta | u]`` (3n+1)."""
        return np.concatenate((self.v, self.theta, self.u))

    @classmethod
    def from_packed(cls, t: float, y: np.ndarray) -> "FluidState":
        """A state whose fields are views of a packed ``[v | theta | u]`` buffer."""
        n = (y.shape[0] - 1) // 3
        return cls(t, y[:n], y[n : 2 * n], y[2 * n :])


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


def require_positive(what: str, *fields: np.ndarray) -> float:
    """Raise DomainError unless every entry is finite and > 0 (NaN fails the min);
    return the first field's min, which callers may need next."""
    lows = [values.min() for values in fields]
    if not all(low > 0.0 for low in lows) or not all(x.max() < np.inf for x in fields):
        raise DomainError(f"{what} needs finite positive v and theta")
    return lows[0]


def validate_state(state: FluidState, floor: float = POSITIVITY_FLOOR) -> ValidationReport:
    """Check finiteness of all fields and that min v and min theta exceed ``floor``."""
    if not (np.isfinite(floor) and floor > 0.0):
        raise ConfigurationError(f"positivity floor must be positive, got {floor!r}")
    checks = (("v", state.v, True), ("theta", state.theta, True), ("u", state.u, False))
    for name, arr, needs_floor in checks:
        finite = np.isfinite(arr)
        if not finite.all():
            idx = int(np.argmin(finite))
            return ValidationReport(False, name, idx, "is non-finite")
        if needs_floor and arr.min() <= floor:
            idx = int(np.argmax(arr <= floor))
            return ValidationReport(
                False, name, idx, f"is not above the positivity floor {floor:g}"
            )
    return ValidationReport(True)
