"""Initial-data families, manufactured solutions, and convergence studies.

Initial data decay to the rest state at far-field ends and are made
compatible with the wall by construction: for half-line setups the velocity
perturbation is odd-reflected across x = 0 (so u(0) = 0 exactly), the
temperature perturbation is even-reflected for the insulated wall (zero
slope) and odd-reflected for the isothermal wall (value 1 at the wall).

Manufactured solutions carry their own closed-form partials so the forcing
terms can be evaluated exactly; a finite-difference oracle cross-checks the
closed forms in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConfigurationError,
    FluidState,
    GasParams,
    MassGrid,
    ProblemSetup,
    SetupKind,
    make_grid,
    validate_state,
)
from .integrate import StepControl, advance

__all__ = [
    "InitialDataSpec",
    "build_initial_data",
    "FieldFunctions",
    "ManufacturedSolution",
    "steady_solution",
    "gaussian_pulse_solution",
    "sine_temperature_solution",
    "default_pulse_solution",
    "manufactured_sources",
    "make_source_rates",
    "sample_state",
    "ConvergenceResult",
    "check_refinement",
    "convergence_study",
]

FAMILIES = ("gaussian_bump", "tanh_front", "random_smooth")


@dataclass(frozen=True)
class InitialDataSpec:
    """Parameters of one initial-data family.

    Amplitudes scale unit-sup perturbations of (v, u, theta) around
    (1, 0, 1); width and center set the profile geometry; seed and modes
    apply to the random_smooth family only.
    """

    family: str = "gaussian_bump"
    amplitude_v: float = 0.0
    amplitude_u: float = 0.0
    amplitude_theta: float = 0.0
    width: float = 1.0
    center: float = 0.0
    seed: int = 0
    modes: int = 8

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown initial-data family {self.family!r}; choose from {FAMILIES}"
            )
        if not self.width > 0.0:
            raise ConfigurationError(f"width must be positive, got {self.width!r}")
        if self.modes < 1:
            raise ConfigurationError(f"modes must be >= 1, got {self.modes!r}")


def _gaussian_profile(spec: InitialDataSpec, tag: int) -> Callable[[np.ndarray], np.ndarray]:
    c, w = spec.center, spec.width

    def profile(x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=np.float64) - c) / w
        return np.exp(-z * z)

    return profile


def _tanh_front_profile(spec: InitialDataSpec, tag: int) -> Callable[[np.ndarray], np.ndarray]:
    # smoothed top-hat: unit plateau of half-width `width`, edges width/4
    c, w = spec.center, spec.width
    edge = 0.25 * w

    def profile(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * (np.tanh((x - (c - w)) / edge) - np.tanh((x - (c + w)) / edge))

    return profile


def _random_smooth_profile(spec: InitialDataSpec, tag: int) -> Callable[[np.ndarray], np.ndarray]:
    # truncated Fourier series with k^-3 spectral decay under a Gaussian
    # envelope; sup-normalized on a fixed fine sampling so the shape is
    # grid-independent and bit-identical for a given seed
    c, w = spec.center, spec.width
    rng = np.random.default_rng([spec.seed, tag])
    k = np.arange(1, spec.modes + 1)
    cos_coeff = rng.standard_normal(spec.modes) / k**3
    sin_coeff = rng.standard_normal(spec.modes) / k**3

    def shape(xi: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(xi)
        for i, kk in enumerate(k):
            acc += cos_coeff[i] * np.cos(kk * xi) + sin_coeff[i] * np.sin(kk * xi)
        return acc * np.exp(-0.5 * xi * xi)

    xi_ref = np.linspace(-8.0, 8.0, 4097)
    norm = float(np.abs(shape(xi_ref)).max())
    if norm == 0.0:
        norm = 1.0

    def profile(x: np.ndarray) -> np.ndarray:
        xi = (np.asarray(x, dtype=np.float64) - c) / w
        return shape(xi) / norm

    return profile


_PROFILE_BUILDERS = {
    "gaussian_bump": _gaussian_profile,
    "tanh_front": _tanh_front_profile,
    "random_smooth": _random_smooth_profile,
}


def build_initial_data(
    spec: InitialDataSpec, setup: ProblemSetup, grid: MassGrid
) -> FluidState:
    """Sample an initial state; wall compatibility is enforced by construction."""
    builder = _PROFILE_BUILDERS[spec.family]
    p_v = builder(spec, 1)
    p_u = builder(spec, 2)
    p_th = builder(spec, 3)

    if setup.has_wall:
        def even(p):
            return lambda x: p(x) + p(-np.asarray(x, dtype=np.float64))

        def odd(p):
            return lambda x: p(x) - p(-np.asarray(x, dtype=np.float64))

        p_v = even(p_v)
        p_u = odd(p_u)
        p_th = even(p_th) if setup.kind is SetupKind.HALFLINE_INSULATED else odd(p_th)

    centers = grid.cell_centers()
    nodes = grid.nodes()
    v = 1.0 + spec.amplitude_v * p_v(centers)
    u = spec.amplitude_u * p_u(nodes)
    theta = 1.0 + spec.amplitude_theta * p_th(centers)

    if setup.has_wall:
        u[0] = 0.0  # odd reflection gives 0 already; keep it exact
    state = FluidState(0.0, v, theta, u)
    report = validate_state(state)
    if not report.ok:
        raise ConfigurationError(f"initial data invalid: {report.message()}")
    return state


@dataclass(frozen=True)
class FieldFunctions:
    """One closed-form space-time field with the partials the sources need."""

    value: Callable[[np.ndarray, float], np.ndarray]
    dt: Callable[[np.ndarray, float], np.ndarray]
    dx: Callable[[np.ndarray, float], np.ndarray]
    dxx: Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class ManufacturedSolution:
    """Smooth positive fields (v, u, theta) used as an exact forced solution."""

    v: FieldFunctions
    u: FieldFunctions
    theta: FieldFunctions


def _constant_field(value: float) -> FieldFunctions:
    def const(x, t):
        return value + 0.0 * np.asarray(x, dtype=np.float64)

    def zero(x, t):
        return 0.0 * np.asarray(x, dtype=np.float64)

    return FieldFunctions(const, zero, zero, zero)


def _gaussian_pulse_field(
    amplitude: float, center: float, width: float, decay: float, baseline: float
) -> FieldFunctions:
    if baseline - abs(amplitude) <= 0.0 and baseline != 0.0:
        raise ConfigurationError(
            f"pulse amplitude {amplitude!r} would break positivity of baseline {baseline!r}"
        )

    def offset(x):
        return (np.asarray(x, dtype=np.float64) - center) / width

    def shape(x):
        z = offset(x)
        return np.exp(-z * z)

    def scaled(x, t):
        return amplitude * math.exp(-decay * t) * shape(x)

    def value(x, t):
        return baseline + scaled(x, t)

    def dt(x, t):
        return -decay * amplitude * math.exp(-decay * t) * shape(x)

    def dx(x, t):
        return scaled(x, t) * (-2.0 * offset(x) / width)

    def dxx(x, t):
        z = offset(x)
        return scaled(x, t) * (4.0 * z * z - 2.0) / (width * width)

    return FieldFunctions(value, dt, dx, dxx)


def steady_solution() -> ManufacturedSolution:
    """The rest state as a (trivial) manufactured solution."""
    return ManufacturedSolution(
        v=_constant_field(1.0), u=_constant_field(0.0), theta=_constant_field(1.0)
    )


def gaussian_pulse_solution(
    amplitudes: tuple[float, float, float],
    centers: tuple[float, float, float],
    widths: tuple[float, float, float],
    decay: float = 1.0,
) -> ManufacturedSolution:
    """Time-decaying Gaussian pulses around the rest state."""
    a_v, a_u, a_th = amplitudes
    c_v_, c_u, c_th = centers
    w_v, w_u, w_th = widths
    return ManufacturedSolution(
        v=_gaussian_pulse_field(a_v, c_v_, w_v, decay, 1.0),
        u=_gaussian_pulse_field(a_u, c_u, w_u, decay, 0.0),
        theta=_gaussian_pulse_field(a_th, c_th, w_th, decay, 1.0),
    )


def sine_temperature_solution(amplitude: float = 0.1, decay: float = 1.0) -> ManufacturedSolution:
    """v = 1, u = 0, theta = 1 + a*sin(x)*exp(-decay*t)."""
    if not abs(amplitude) < 1.0:
        raise ConfigurationError("sine amplitude must keep theta positive")

    def value(x, t):
        return 1.0 + amplitude * math.exp(-decay * t) * np.sin(np.asarray(x, float))

    def dt(x, t):
        return -decay * amplitude * math.exp(-decay * t) * np.sin(np.asarray(x, float))

    def dx(x, t):
        return amplitude * math.exp(-decay * t) * np.cos(np.asarray(x, float))

    def dxx(x, t):
        return -amplitude * math.exp(-decay * t) * np.sin(np.asarray(x, float))

    return ManufacturedSolution(
        v=_constant_field(1.0),
        u=_constant_field(0.0),
        theta=FieldFunctions(value, dt, dx, dxx),
    )


def default_pulse_solution(setup: ProblemSetup, half_length: float) -> ManufacturedSolution:
    """Setup-aware pulses whose tails vanish to round-off at every boundary.

    The pulses sit mid-domain with widths small enough that values and all
    derivatives at the walls and artificial ends are negligible, so the same
    closed forms satisfy every boundary closure.
    """
    L = half_length
    if setup.kind is SetupKind.CAUCHY:
        centers = (-0.10 * L, 0.05 * L, 0.0)
        widths = (0.18 * L, 0.18 * L, 0.18 * L)
    else:
        centers = (0.45 * L, 0.53 * L, 0.50 * L)
        widths = (0.10 * L, 0.10 * L, 0.10 * L)
    return gaussian_pulse_solution(
        amplitudes=(0.15, 0.12, -0.12), centers=centers, widths=widths, decay=1.0
    )


def _mass_thermal_sources(ms: ManufacturedSolution, params: GasParams, x, t: float):
    v = ms.v.value(x, t)
    v_x = ms.v.dx(x, t)
    v_t = ms.v.dt(x, t)
    u_x = ms.u.dx(x, t)
    th = ms.theta.value(x, t)
    th_t = ms.theta.dt(x, t)
    th_x = ms.theta.dx(x, t)
    th_xx = ms.theta.dxx(x, t)

    heat_over_v_x = th_xx / v - th_x * v_x / (v * v)
    s_v = v_t - u_x
    s_th = (
        params.c_v * th_t
        + params.R * (th / v) * u_x
        - params.kappa * heat_over_v_x
        - params.mu * u_x * u_x / v
    )
    return s_v, s_th


def _momentum_source(ms: ManufacturedSolution, params: GasParams, x, t: float):
    v = ms.v.value(x, t)
    v_x = ms.v.dx(x, t)
    u_t = ms.u.dt(x, t)
    u_x = ms.u.dx(x, t)
    u_xx = ms.u.dxx(x, t)
    th = ms.theta.value(x, t)
    th_x = ms.theta.dx(x, t)

    p_x = params.R * (th_x / v - th * v_x / (v * v))
    strain_over_v_x = u_xx / v - u_x * v_x / (v * v)
    return u_t + p_x - params.mu * strain_over_v_x


def manufactured_sources(
    ms: ManufacturedSolution, params: GasParams, x: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forcings that make ``ms`` an exact solution of the governing system.

    Returned per equation: mass (v_t - u_x), momentum, and thermal, the
    latter scaled as the c_v*theta_t equation.
    """
    s_v, s_th = _mass_thermal_sources(ms, params, x, t)
    return s_v, _momentum_source(ms, params, x, t), s_th


def make_source_rates(ms: ManufacturedSolution, params: GasParams, grid: MassGrid):
    """Adapt manufactured forcings to the rate layout the integrator expects.

    Mass and thermal rates sample at cell centers (thermal divided by c_v to
    become a theta rate); the momentum rate samples at nodes.  Each forcing
    is evaluated only where it is sampled.
    """
    centers = grid.cell_centers()
    nodes = grid.nodes()

    def rates(t: float):
        s_v, s_th = _mass_thermal_sources(ms, params, centers, t)
        return s_v, _momentum_source(ms, params, nodes, t), s_th / params.c_v

    return rates


def sample_state(ms: ManufacturedSolution, grid: MassGrid, t: float = 0.0) -> FluidState:
    """Evaluate a manufactured solution on the grid."""
    centers = grid.cell_centers()
    nodes = grid.nodes()
    return FluidState(t, ms.v.value(centers, t), ms.theta.value(centers, t), ms.u.value(nodes, t))


@dataclass(frozen=True)
class ConvergenceResult:
    """Per-resolution L2 errors and fitted orders of a refinement study."""

    n_list: tuple[int, ...]
    dm: tuple[float, ...]
    errors: dict[str, tuple[float, ...]]
    orders: dict[str, float] | None

    ROUNDOFF = 1e-11


def check_refinement(n_list, t_end: float) -> tuple[int, ...]:
    """The grid sizes of a refinement study (at least 3, each >= 4 cells, increasing),
    after checking them and the end time."""
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 3:
        raise ConfigurationError(f"n_list needs at least 3 resolutions, got {n_list!r}")
    if any(n < 4 for n in n_list):
        raise ConfigurationError(f"n_list: every resolution must be >= 4 cells, got {n_list!r}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigurationError(f"n_list must be strictly increasing, got {n_list!r}")
    if not t_end > 0.0:
        raise ConfigurationError(f"t_end must be positive, got {t_end!r}")
    return n_list


def convergence_study(
    ms: ManufacturedSolution,
    setup: ProblemSetup,
    params: GasParams,
    n_list,
    t_end: float,
    half_length: float,
    ctrl: StepControl = StepControl(),
) -> ConvergenceResult:
    """Run the forced problem at each resolution and fit the spatial order.

    Errors are grid-weighted L2 differences against the manufactured fields
    at ``t_end``.  When every error sits at round-off (e.g. the steady
    solution) the order fit is skipped and ``orders`` is None.
    """
    n_list = check_refinement(n_list, t_end)

    dms: list[float] = []
    errors: dict[str, list[float]] = {"v": [], "u": [], "theta": []}
    for n in n_list:
        grid = make_grid(setup, half_length, n)
        state = sample_state(ms, grid, 0.0)
        sources = make_source_rates(ms, params, grid)
        final, _ = advance(
            state, t_end, every=t_end,
            grid=grid, params=params, setup=setup, ctrl=ctrl, sources=sources,
        )
        centers = grid.cell_centers()
        nodes = grid.nodes()
        dm = grid.dm
        dms.append(dm)

        def l2(delta: np.ndarray) -> float:
            return float(np.sqrt((delta * delta).sum() * dm))

        errors["v"].append(l2(final.v - ms.v.value(centers, t_end)))
        errors["u"].append(l2(final.u - ms.u.value(nodes, t_end)))
        errors["theta"].append(l2(final.theta - ms.theta.value(centers, t_end)))

    frozen = {name: tuple(vals) for name, vals in errors.items()}
    worst = max(max(vals) for vals in frozen.values())
    if worst < ConvergenceResult.ROUNDOFF:
        orders = None
    else:
        log_dm = np.log(np.asarray(dms))
        orders = {
            name: float(np.polyfit(log_dm, np.log(np.asarray(vals)), 1)[0])
            for name, vals in frozen.items()
        }
    return ConvergenceResult(n_list, tuple(dms), frozen, orders)
