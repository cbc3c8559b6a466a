"""Initial-data families, manufactured solutions, and convergence studies.

Initial data decay to the rest state at far-field ends and are made
compatible with the wall by construction: for half-line setups the velocity
perturbation is odd-reflected across x = 0 (so u(0) = 0 exactly), the
temperature perturbation is even-reflected for the insulated wall (zero
slope) and odd-reflected for the isothermal wall (value 1 at the wall).

Manufactured solutions carry their own closed-form partials so the forcing
terms can be evaluated exactly; a finite-difference oracle cross-checks the
closed forms in the test-suite.  A manufactured field is its sampler:
``field(x)`` computes the spatial profiles (and their exponentials) at the
points x once and returns ``at(t)``, the :class:`Partials` there at time t;
time enters every partial only through one scalar factor exp(-decay*t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    "Partials",
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
        if not 0.0 < self.width < math.inf:
            raise ConfigurationError(f"width must be finite and positive, got {self.width!r}")
        for name in ("amplitude_v", "amplitude_u", "amplitude_theta", "center"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.modes < 1:
            raise ConfigurationError(f"modes must be >= 1, got {self.modes!r}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed!r}")


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
    p_v, p_u, p_th = (builder(spec, tag) for tag in (1, 2, 3))

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


class Partials(NamedTuple):
    """A field and the partials the sources read, at one point set and time."""

    value: np.ndarray
    dt: np.ndarray
    dx: np.ndarray
    dxx: np.ndarray


#: a closed-form space-time field: ``field(x)`` returns ``at(t) -> Partials``
Field = Callable[[np.ndarray], Callable[[float], Partials]]


@dataclass(frozen=True)
class ManufacturedSolution:
    """Smooth positive fields (v, u, theta) used as an exact forced solution."""

    v: Field
    u: Field
    theta: Field


def _constant_field(value: float) -> Field:
    def sample(x):
        zero = 0.0 * np.asarray(x, dtype=np.float64)
        partials = Partials(value + zero, zero, zero, zero)
        return lambda t: partials

    return sample


def _gaussian_pulse_field(
    amplitude: float, center: float, width: float, decay: float, baseline: float
) -> Field:
    if not (all(map(math.isfinite, (amplitude, center, width, decay))) and width > 0.0
            and (baseline == 0.0 or baseline - abs(amplitude) > 0.0)):
        raise ConfigurationError(
            f"pulse (amplitude, center, width, decay) = {(amplitude, center, width, decay)!r}:"
            f" need all finite, width > 0 and |amplitude| < baseline {baseline!r} if nonzero"
        )

    def sample(x):
        z = (np.asarray(x, dtype=np.float64) - center) / width
        shape = np.exp(-z * z)
        slope = -2.0 * z / width
        curvature = 4.0 * z * z - 2.0

        def at(t):
            e = math.exp(-decay * t)
            scaled = amplitude * e * shape
            return Partials(
                baseline + scaled, -decay * amplitude * e * shape,
                scaled * slope, scaled * curvature / (width * width),
            )

        return at

    return sample


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
    if not (abs(amplitude) < 1.0 and math.isfinite(decay)):
        raise ConfigurationError(
            f"sine needs |amplitude| < 1 and a finite decay, got {amplitude!r}, {decay!r}"
        )

    def sample(x):
        sin = np.sin(np.asarray(x, float))
        cos = np.cos(np.asarray(x, float))

        def at(t):
            e = math.exp(-decay * t)
            return Partials(
                1.0 + amplitude * e * sin, -decay * amplitude * e * sin,
                amplitude * e * cos, -amplitude * e * sin,
            )

        return at

    return ManufacturedSolution(v=_constant_field(1.0), u=_constant_field(0.0), theta=sample)


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


def _sample_fields(ms: ManufacturedSolution, x):
    """``at(t)``: the (v, u, theta) partials at the points x."""
    at_v, at_u, at_th = ms.v(x), ms.u(x), ms.theta(x)
    return lambda t: (at_v(t), at_u(t), at_th(t))


def _mass_thermal_sources(params: GasParams, v: Partials, u: Partials, th: Partials):
    heat_over_v_x = th.dxx / v.value - th.dx * v.dx / (v.value * v.value)
    s_v = v.dt - u.dx
    s_th = (
        params.c_v * th.dt
        + params.R * (th.value / v.value) * u.dx
        - params.kappa * heat_over_v_x
        - params.mu * u.dx * u.dx / v.value
    )
    return s_v, s_th


def _momentum_source(params: GasParams, v: Partials, u: Partials, th: Partials):
    p_x = params.R * (th.dx / v.value - th.value * v.dx / (v.value * v.value))
    strain_over_v_x = u.dxx / v.value - u.dx * v.dx / (v.value * v.value)
    return u.dt + p_x - params.mu * strain_over_v_x


def manufactured_sources(
    ms: ManufacturedSolution, params: GasParams, x: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forcings that make ``ms`` an exact solution of the governing system.

    Returned per equation: mass (v_t - u_x), momentum, and thermal, the
    latter scaled as the c_v*theta_t equation.
    """
    fields = _sample_fields(ms, x)(t)
    s_v, s_th = _mass_thermal_sources(params, *fields)
    return s_v, _momentum_source(params, *fields), s_th


def make_source_rates(ms: ManufacturedSolution, params: GasParams, grid: MassGrid):
    """Adapt manufactured forcings to the rate layout the integrator expects.

    Mass and thermal rates sample at cell centers (thermal divided by c_v to
    become a theta rate); the momentum rate samples at nodes.  The fields are
    sampled once per point set here, so each ``rates(t)`` call only scales
    the stored profiles.
    """
    at_centers = _sample_fields(ms, grid.cell_centers())
    at_nodes = _sample_fields(ms, grid.nodes())

    def rates(t: float):
        s_v, s_th = _mass_thermal_sources(params, *at_centers(t))
        return s_v, _momentum_source(params, *at_nodes(t)), s_th / params.c_v

    return rates


def sample_state(ms: ManufacturedSolution, grid: MassGrid, t: float = 0.0) -> FluidState:
    """Evaluate a manufactured solution on the grid."""
    centers = grid.cell_centers()
    nodes = grid.nodes()
    return FluidState(t, ms.v(centers)(t).value, ms.theta(centers)(t).value, ms.u(nodes)(t).value)


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
        exact = sample_state(ms, grid, t_end)
        dm = grid.dm
        dms.append(dm)
        for name in errors:
            delta = getattr(final, name) - getattr(exact, name)
            errors[name].append(float(np.sqrt((delta * delta).sum() * dm)))

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
