"""Initial-data families, manufactured solutions, and convergence studies.

Initial data come from one sampler of every family and field, decay to the
rest state at far-field ends, and meet the wall by reflection across x = 0:
on the half line the velocity perturbation is odd (so u(0) = 0 exactly), the
volume's is even, and the temperature's is even at the insulated wall (zero
slope) and odd at the isothermal wall (value 1 at the wall).

Manufactured solutions are separable: each is the rest state (1, 0, 1)
plus exp(-decay*t) times a fixed profile per field, with one decay rate
shared by v, u and theta.  A field is its profile sampler, ``field(x) ->
(F, F_x, F_xx)`` in closed form; a finite-difference oracle cross-checks
those in the test-suite.  The forcing terms are polynomial in e =
exp(-decay*t) and r = 1/(1 + e*F_v), so their coefficient profiles are
built once per point set, and the rates at a list of times are one pass
of them over a column of scalar exps.
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
    MassGrid,
    SetupKind,
    make_grid,
    validate_state,
)
from .integrate import StepControl, advance

__all__ = [
    "InitialDataSpec",
    "build_initial_data",
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


def _profile(spec: InitialDataSpec, tag: int, x: np.ndarray) -> np.ndarray:
    """Field ``tag`` (1 = v, 2 = u, 3 = theta) of the spec's family at the points x:
    a unit-sup perturbation of the rest state."""
    c, w = spec.center, spec.width
    if spec.family == "gaussian_bump":
        z = (x - c) / w
        return np.exp(-z * z)
    if spec.family == "tanh_front":
        # smoothed top-hat: unit plateau of half-width `width`, edges width/4
        edge = 0.25 * w
        return 0.5 * (np.tanh((x - (c - w)) / edge) - np.tanh((x - (c + w)) / edge))
    # random_smooth: truncated Fourier series with k^-3 spectral decay under a
    # Gaussian envelope; sup-normalized on a fixed fine sampling so the shape is
    # grid-independent and bit-identical for a given seed
    rng = np.random.default_rng([spec.seed, tag])
    k = np.arange(1, spec.modes + 1)
    cos_coeff = rng.standard_normal(spec.modes) / k**3
    sin_coeff = rng.standard_normal(spec.modes) / k**3

    def shape(xi: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(xi)
        for i, kk in enumerate(k):
            acc += cos_coeff[i] * np.cos(kk * xi) + sin_coeff[i] * np.sin(kk * xi)
        return acc * np.exp(-0.5 * xi * xi)

    norm = float(np.abs(shape(np.linspace(-8.0, 8.0, 4097))).max())
    return shape((x - c) / w) / (norm or 1.0)


def build_initial_data(
    spec: InitialDataSpec, setup: SetupKind, grid: MassGrid, floor: float = POSITIVITY_FLOOR
) -> FluidState:
    """Sample an initial state, checked against the positivity ``floor``; wall
    compatibility is enforced by construction."""
    centers, nodes = grid.cell_centers(), grid.nodes()
    p_v, p_u, p_th = (_profile(spec, 1, centers), _profile(spec, 2, nodes),
                      _profile(spec, 3, centers))
    if setup.has_wall:
        # reflect across x = 0: v even, u odd, theta even at the insulated
        # wall and odd at the isothermal one
        th_sign = 1.0 if setup is SetupKind.HALFLINE_INSULATED else -1.0
        p_v = p_v + _profile(spec, 1, -centers)
        p_u = p_u - _profile(spec, 2, -nodes)
        p_th = p_th + th_sign * _profile(spec, 3, -centers)

    v = 1.0 + spec.amplitude_v * p_v
    u = spec.amplitude_u * p_u
    theta = 1.0 + spec.amplitude_theta * p_th

    if setup.has_wall:
        u[0] = 0.0  # odd reflection gives 0 already; keep it exact
    state = FluidState(0.0, v, theta, u)
    report = validate_state(state, floor)
    if not report.ok:
        raise ConfigurationError(f"initial data invalid: {report.message()}")
    return state


#: a closed-form profile: ``profile(x) -> (F, F_x, F_xx)`` at the points x
Profile = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ManufacturedSolution:
    """An exact forced solution (1, 0, 1) + exp(-decay*t) * (F_v, F_u, F_theta).

    Each field is the :data:`Profile` of its deviation from the rest state;
    one decay rate is shared by all three.
    """

    decay: float
    v: Profile
    u: Profile
    theta: Profile

    def __post_init__(self) -> None:
        if not math.isfinite(self.decay):
            raise ConfigurationError(f"decay must be finite, got {self.decay!r}")


def _zero_profile(x):
    zero = np.zeros_like(np.asarray(x, dtype=np.float64))
    return zero, zero, zero


def _pulse_profile(amplitude: float, center: float, width: float) -> Profile:
    if not (math.isfinite(amplitude) and math.isfinite(center) and 0.0 < width < math.inf):
        raise ConfigurationError(
            f"pulse (amplitude, center, width) = {(amplitude, center, width)!r}:"
            " need all finite and width > 0"
        )

    def profile(x):
        z = (np.asarray(x, dtype=np.float64) - center) / width
        f = amplitude * np.exp(-z * z)
        return f, f * (-2.0 * z / width), f * (4.0 * z * z - 2.0) / (width * width)

    return profile


def steady_solution() -> ManufacturedSolution:
    """The rest state as a (trivial) manufactured solution."""
    return ManufacturedSolution(1.0, _zero_profile, _zero_profile, _zero_profile)


def gaussian_pulse_solution(
    amplitudes: tuple[float, float, float],
    centers: tuple[float, float, float],
    widths: tuple[float, float, float],
    decay: float = 1.0,
) -> ManufacturedSolution:
    """Time-decaying Gaussian pulses around the rest state."""
    a_v, _, a_th = amplitudes
    if not (abs(a_v) < 1.0 and abs(a_th) < 1.0):
        raise ConfigurationError(
            f"pulse amplitudes {amplitudes!r}: v and theta need |amplitude| < 1 to stay positive"
        )
    v, u, theta = map(_pulse_profile, amplitudes, centers, widths)
    return ManufacturedSolution(decay, v, u, theta)


def sine_temperature_solution(amplitude: float = 0.1, decay: float = 1.0) -> ManufacturedSolution:
    """v = 1, u = 0, theta = 1 + a*sin(x)*exp(-decay*t)."""
    if not abs(amplitude) < 1.0:
        raise ConfigurationError(f"sine needs |amplitude| < 1, got {amplitude!r}")

    def theta(x):
        x = np.asarray(x, dtype=np.float64)
        f = amplitude * np.sin(x)
        return f, amplitude * np.cos(x), -f

    return ManufacturedSolution(decay, _zero_profile, _zero_profile, theta)


def default_pulse_solution(setup: SetupKind, half_length: float) -> ManufacturedSolution:
    """Setup-aware pulses whose tails vanish to round-off at every boundary.

    The pulses sit mid-domain with widths small enough that values and all
    derivatives at the walls and artificial ends are negligible, so the same
    closed forms satisfy every boundary closure.
    """
    L = half_length
    if setup is SetupKind.CAUCHY:
        centers = (-0.10 * L, 0.05 * L, 0.0)
        widths = (0.18 * L, 0.18 * L, 0.18 * L)
    else:
        centers = (0.45 * L, 0.53 * L, 0.50 * L)
        widths = (0.10 * L, 0.10 * L, 0.10 * L)
    return gaussian_pulse_solution(
        amplitudes=(0.15, 0.12, -0.12), centers=centers, widths=widths, decay=1.0
    )


# With e = exp(-decay*t) and r = 1/(1 + e*F_v), the sources are
#   mass      s_v  = e*K
#   momentum  s_u  = e*(M0 + r*(M1 + r*(M2 + e*M3)))
#   thermal   s_th = e*(T0 + r*(T1 + e*T2 + (e*r)*T3))
# in time-independent coefficient profiles, built once per point set below;
# s_th is the source of the c_v*theta_t equation.


def _mass_thermal_sources(ms: ManufacturedSolution, params: GasParams, x):
    """``at(e) -> (s_v, s_th)`` at the points x; a column e gives a row per entry."""
    (fv, fv_x, _), (_, fu_x, _), (fth, fth_x, fth_xx) = ms.v(x), ms.u(x), ms.theta(x)
    k = -ms.decay * fv - fu_x
    t0 = -params.c_v * ms.decay * fth
    t1 = params.R * fu_x - params.kappa * fth_xx
    t2 = (params.R * fth - params.mu * fu_x) * fu_x
    t3 = params.kappa * fth_x * fv_x

    def at(e):
        r = 1.0 / (1.0 + e * fv)
        return e * k, e * (t0 + r * (t1 + e * t2 + (e * r) * t3))

    return at


def _momentum_source(ms: ManufacturedSolution, params: GasParams, x):
    """``at(e) -> s_u`` at the points x; a column e gives a row per entry."""
    (fv, fv_x, _), (fu, fu_x, fu_xx), (fth, fth_x, _) = ms.v(x), ms.u(x), ms.theta(x)
    m0 = -ms.decay * fu
    m1 = params.R * fth_x - params.mu * fu_xx
    m2 = -params.R * fv_x
    m3 = (params.mu * fu_x - params.R * fth) * fv_x

    def at(e):
        r = 1.0 / (1.0 + e * fv)
        return e * (m0 + r * (m1 + r * (m2 + e * m3)))

    return at


def manufactured_sources(
    ms: ManufacturedSolution, params: GasParams, x: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forcings that make ``ms`` an exact solution of the governing system.

    Returned per equation: mass (v_t - u_x), momentum, and thermal, the
    latter scaled as the c_v*theta_t equation.
    """
    e = math.exp(-ms.decay * t)
    s_v, s_th = _mass_thermal_sources(ms, params, x)(e)
    return s_v, _momentum_source(ms, params, x)(e), s_th


def make_source_rates(ms: ManufacturedSolution, params: GasParams, grid: MassGrid):
    """Adapt manufactured forcings to the rate layout the integrator expects.

    Mass and thermal rates sample at cell centers (thermal divided by c_v to
    become a theta rate); the momentum rate samples at nodes.  The coefficient
    profiles are built once per point set here.  ``rates(times)`` gives a row
    per time: e is a column of scalar exps, so each array product covers
    every row and each entry has the bits of :func:`manufactured_sources`.
    """
    mass_thermal = _mass_thermal_sources(ms, params, grid.cell_centers())
    momentum = _momentum_source(ms, params, grid.nodes())

    def rates(times: list[float]):
        e = np.array([math.exp(-ms.decay * t) for t in times])[:, None]
        s_v, s_th = mass_thermal(e)
        return s_v, momentum(e), s_th / params.c_v

    return rates


def sample_state(ms: ManufacturedSolution, grid: MassGrid, t: float = 0.0) -> FluidState:
    """Evaluate a manufactured solution on the grid."""
    e = math.exp(-ms.decay * t)
    centers = grid.cell_centers()
    return FluidState(
        t, 1.0 + e * ms.v(centers)[0], 1.0 + e * ms.theta(centers)[0], e * ms.u(grid.nodes())[0]
    )


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
    if not 0.0 < t_end < math.inf:
        raise ConfigurationError(f"t_end must be finite and positive, got {t_end!r}")
    return n_list


def convergence_study(
    ms: ManufacturedSolution,
    setup: SetupKind,
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
