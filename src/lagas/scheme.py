"""Semi-discrete spatial operators on the staggered mass grid.

The governing rates are

    v_t = u_x
    u_t = (mu * u_x / v - p)_x,                      p = R * theta / v
    c_v * theta_t = -p * u_x + (kappa * theta_x / v)_x + mu * u_x**2 / v

with u_x the cell-centered divided difference of the node velocities and
theta_x the face-centered difference of the cell temperatures.  The right end
is always far field; the setup says how the left end closes:

- ``CAUCHY``: far field, a ghost cell (v, theta) = (1, 1) at full spacing and
  a ghost node u = 0;
- ``HALFLINE_INSULATED``: a solid wall, u = 0 held strongly, zero heat flux;
- ``HALFLINE_ISOTHERMAL``: a solid wall, u = 0 held strongly, wall temperature
  1 applied at half spacing.

:func:`rhs` evaluates the thermal rate in stress-power form,
c_v * theta_t = (kappa * theta_x / v)_x + sigma * u_x with the momentum stress
sigma = mu * u_x / v - p; in exact arithmetic that is the third line above.

All operators are deterministic, and pure but for :func:`rhs` of a :class:`Stage`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    FluidState,
    GasParams,
    MassGrid,
    SetupKind,
    require_cells_match,
    require_valid,
    unpack,
)

__all__ = [
    "Stage",
    "heat_flux_faces",
    "rhs",
    "boundary_power",
    "total_energy",
]


class Stage:
    """A step's workspace: a stage buffer ``y`` ``[v | theta | u]``, ``rates`` laid out
    alike, faces ``[heat flux | stress | right ghost stress]``, a scratch row, every view
    :func:`rhs` needs, sliced once, and the ``power`` rhs sets (else NaN)."""

    def __init__(self, y: np.ndarray) -> None:
        self.y, self.power, self.rates = y, math.nan, np.empty_like(y)
        self.v, self.th, self.u = v, th, u = unpack(y)
        self.dv, self.dth, self.du = unpack(self.rates)
        n = v.shape[0]
        self.tmp, faces = np.empty(n), np.empty(2 * n + 2)
        self.dthu, self.vbar = self.rates[n:], self.tmp[:-1]
        self.flux, self.flux_inner, self.stress = faces[: n + 1], faces[1:n], faces[n + 1 : -1]
        self.faces_lo, self.faces_hi = faces[:-1], faces[1:]
        self.v_lo, self.v_hi, self.th_lo, self.th_hi = v[:-1], v[1:], th[:-1], th[1:]
        self.u_lo, self.u_hi = u[:-1], u[1:]


def _far_field_stress(u_out: float, params: GasParams, dm: float) -> float:
    """Stress of the rest-state ghost cell beyond an end whose node moves out at u_out."""
    return -params.R - params.mu * (u_out / dm)


def _closures(v: np.ndarray, th: np.ndarray, u: np.ndarray, dm: float, setup: SetupKind,
              params: GasParams) -> tuple[float, float, float | None, float, float]:
    """Heat fluxes through the left and right closures (against a ghost cell (1, 1) or the
    isothermal wall at dm/2), far-field ghost stresses (None at a wall) and their power."""
    c, th0, u0, un = 2.0 * params.kappa / dm, th.item(0) - 1.0, u.item(0), u.item(-1)
    flux_right = c * ((1.0 - th.item(-1)) / (1.0 + v.item(-1)))
    ghost_left, ghost_right = None, _far_field_stress(un, params, dm)
    work = un * ghost_right  # a wall does no work, as u = 0 there
    if setup is SetupKind.CAUCHY:
        flux_left, ghost_left = c * (th0 / (v.item(0) + 1.0)), _far_field_stress(-u0, params, dm)
        work -= u0 * ghost_left
    else:
        flux_left = 0.0 if setup is SetupKind.HALFLINE_INSULATED else c * (th0 / v.item(0))
    return flux_left, flux_right, ghost_left, ghost_right, flux_right - flux_left + work


def _heat_flux(stage: Stage, dm: float, setup: SetupKind, params: GasParams) -> tuple:
    """Heat flux (2*kappa/dm)*(theta_i - theta_{i-1})/(v_{i-1} + v_i) into ``stage.flux``;
    returns the :func:`_closures` that give its ends."""
    inner = np.subtract(stage.th_hi, stage.th_lo, out=stage.flux_inner)
    inner /= np.add(stage.v_lo, stage.v_hi, out=stage.vbar)
    inner *= 2.0 * params.kappa / dm
    ends = _closures(stage.v, stage.th, stage.u, dm, setup, params)
    stage.flux[0], stage.flux[-1] = ends[:2]
    return ends


def heat_flux_faces(
    state: FluidState, grid: MassGrid, params: GasParams, setup: SetupKind
) -> np.ndarray:
    """Heat flux kappa*theta_x/v at every node (face): the face difference of theta over
    the arithmetic-mean specific volume, the left face closed as ``setup`` says, the
    right one by the far field.  ``rhs`` and ``boundary_power`` use the same fluxes."""
    stage = Stage(state.y)
    _heat_flux(stage, grid.dm, setup, params)
    return stage.flux


def rhs(
    state: FluidState | Stage,
    grid: MassGrid,
    params: GasParams,
    setup: SetupKind,
    sources: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Semi-discrete rates for (v, u, theta), packed like a stage: ``[dv | dtheta | du]``.

    Interior node i feels the stress difference of its two neighbor cells,
    stress = (mu*u_x - R*theta)/v.  Far-field boundary nodes see a ghost cell at the rest
    state whose strain uses a ghost node with u = 0; a wall node has du = 0, imposing
    u(0, t) = 0 strongly.  ``sources`` are optional extra rates (dv, du, dtheta), e.g.
    manufactured forcings.  ``state`` may be a FluidState with the grid's cell count (else
    ConfigurationError), finite positive v and theta and a finite u (else DomainError), or
    a checked :class:`Stage`, whose rates and ``power`` rhs sets.
    """
    stage = state
    if not isinstance(state, Stage):
        require_cells_match("rhs", state, grid)
        stage = Stage(require_valid("rhs", state.y))
    dm, du, dth = grid.dm, stage.du, stage.dth
    # one difference of faces [heat flux | stress | right ghost stress] is the flux divergence,
    # then every du, the seam (stress[0] - flux[n]) on du[0], which the left closure then sets
    _, _, ghost_left, ghost_right, stage.power = _heat_flux(stage, dm, setup, params)
    s = np.subtract(stage.u_hi, stage.u_lo, out=stage.dv)  # u_x; dv until sources are added
    s /= dm
    stress = np.multiply(s, params.mu, out=stage.stress)
    rt = np.multiply(stage.th, params.R, out=stage.tmp)
    stress -= rt
    stress /= stage.v
    stage.faces_hi[-1] = ghost_right
    dthu = np.subtract(stage.faces_hi, stage.faces_lo, out=stage.dthu)
    dthu /= dm
    if ghost_left is not None:
        du[0] = (stress.item(0) - ghost_left) / dm
    dth += np.multiply(s, stress, out=rt)  # c_v*dtheta = diff(flux)/dm + s*stress
    dth /= params.c_v

    if sources is not None:
        sv, su, sth = sources
        stage.dv += sv
        du += su
        dth += sth
    if setup.has_wall:
        du[0] = 0.0  # the wall rate stays pinned, even under forcing
    return stage.rates


def boundary_power(
    state: FluidState | Stage, grid: MassGrid, params: GasParams, setup: SetupKind
) -> float:
    """Rate of total-energy inflow through the two closures.

    Uses the scheme's own boundary fluxes, so the semi-discrete budget
    d/dt total_energy == boundary_power holds exactly.  Of a :class:`Stage`
    it is the ``power`` :func:`rhs` left there, of a FluidState the same.
    """
    if isinstance(state, Stage):
        return state.power
    return _closures(state.v, state.theta, state.u, grid.dm, setup, params)[-1]


def total_energy(state: FluidState, grid: MassGrid, params: GasParams) -> float:
    """Thermal plus kinetic energy of the truncated domain.

    Kinetic energy is summed over nodes with full weight; with that
    convention the spatial exchange terms telescope and only boundary
    fluxes remain in the budget.
    """
    return total_energies(state.theta[None], state.u[None], grid.dm, params)[0]


def total_energies(theta: np.ndarray, u: np.ndarray, dm: float, params: GasParams) -> list[float]:
    """total_energy of each state whose fields are the rows of ``theta`` and ``u``."""
    thermal, kinetic = np.add.reduce(theta, 1).tolist(), np.add.reduce(u * u, 1).tolist()
    return [(params.c_v * th + 0.5 * ke) * dm for th, ke in zip(thermal, kinetic)]
