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

All operators are pure functions of their inputs and deterministic.
"""

from __future__ import annotations

import numpy as np

from .core import (
    FluidState,
    GasParams,
    MassGrid,
    SetupKind,
    require_cells_match,
    require_positive,
)

__all__ = [
    "heat_flux_faces",
    "rhs",
    "boundary_power",
    "total_energy",
]


def _boundary_heat_fluxes(
    v: np.ndarray, th: np.ndarray, dm: float, setup: SetupKind, kappa: float
) -> tuple[float, float]:
    """Heat flux through the left and right closures, as Python floats: the interior
    formula against a ghost cell (1, 1), or against the isothermal wall at dm/2."""
    c = 2.0 * kappa / dm
    th0 = th.item(0) - 1.0
    if setup is SetupKind.CAUCHY:
        flux_left = c * (th0 / (v.item(0) + 1.0))
    elif setup is SetupKind.HALFLINE_INSULATED:
        flux_left = 0.0
    else:
        flux_left = c * (th0 / v.item(0))
    return flux_left, c * ((1.0 - th.item(-1)) / (1.0 + v.item(-1)))


def _heat_flux(v: np.ndarray, th: np.ndarray, dm: float, setup: SetupKind, kappa: float,
               out: np.ndarray) -> np.ndarray:
    """Heat flux (2*kappa/dm)*(theta_i - theta_{i-1})/(v_{i-1} + v_i) into ``out``."""
    inner = np.subtract(th[1:], th[:-1], out=out[1:-1])
    inner /= v[:-1] + v[1:]
    inner *= 2.0 * kappa / dm
    out[0], out[-1] = _boundary_heat_fluxes(v, th, dm, setup, kappa)
    return out


def heat_flux_faces(
    state: FluidState, grid: MassGrid, params: GasParams, setup: SetupKind
) -> np.ndarray:
    """Heat flux kappa*theta_x/v at every node (face): the face difference of theta over
    the arithmetic-mean specific volume, the left face closed as ``setup`` says, the
    right one by the far field.  ``rhs`` and ``boundary_power`` use the same fluxes."""
    out = np.empty(grid.n_cells + 1)
    return _heat_flux(state.v, state.theta, grid.dm, setup, params.kappa, out)


def _far_field_stress(u_out: float, params: GasParams, dm: float) -> float:
    """Stress of the rest-state ghost cell beyond an end whose node moves out at u_out."""
    return -params.R - params.mu * (u_out / dm)


def rhs(
    state: FluidState | np.ndarray,
    grid: MassGrid,
    params: GasParams,
    setup: SetupKind,
    sources: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Semi-discrete rates for (v, u, theta), packed like a stage: ``[dv | dtheta | du]``.

    Interior node i feels the stress difference of its two neighbor cells,
    stress = (mu*u_x - R*theta)/v.  Far-field boundary nodes see a ghost cell
    at the rest state whose strain uses a ghost node with u = 0; a wall node
    has du = 0, imposing u(0, t) = 0 strongly.  ``sources`` are optional
    extra rates (dv, du, dtheta), e.g. manufactured forcings.  ``state`` may
    be a FluidState, which must have the grid's cell count (else
    ConfigurationError) and finite positive v and theta (else DomainError),
    or a packed ``[v | theta | u]`` stage, which is taken as checked:
    ``integrate.step`` checks every stage it passes.
    """
    n = grid.n_cells
    if isinstance(state, np.ndarray):
        y = state
    else:
        require_cells_match("rhs", state, grid)
        y = state.packed()
        require_positive("rhs", y[: 2 * n])
    v, th, u = y[:n], y[n : 2 * n], y[2 * n :]
    dm = grid.dm

    rates = np.empty_like(y)
    dv, dth, du = rates[:n], rates[n : 2 * n], rates[2 * n :]
    # faces holds [heat flux (n + 1) | stress (n) | right ghost stress]: one
    # difference of it is the flux divergence followed by every du, with the
    # seam (stress[0] - flux[n]) on du[0], which the left closure then sets
    faces = np.empty(2 * n + 2)
    _heat_flux(v, th, dm, setup, params.kappa, faces[: n + 1])
    s = np.subtract(u[1:], u[:-1], out=dv)  # u_x; dv until sources are added
    s /= dm
    stress = np.multiply(s, params.mu, out=faces[n + 1 : -1])
    rt = params.R * th
    stress -= rt
    stress /= v
    faces[-1] = _far_field_stress(u.item(-1), params, dm)
    np.subtract(faces[1:], faces[:-1], out=rates[n:])
    rates[n:] /= dm
    if setup is SetupKind.CAUCHY:
        du[0] = (stress.item(0) - _far_field_stress(-u.item(0), params, dm)) / dm
    dth += np.multiply(s, stress, out=rt)  # c_v*dtheta = diff(flux)/dm + s*stress
    dth /= params.c_v

    if sources is not None:
        sv, su, sth = sources
        dv += sv
        du += su
        dth += sth
    if setup.has_wall:
        du[0] = 0.0  # the wall rate stays pinned, even under forcing
    return rates


def boundary_power(
    state: FluidState | np.ndarray, grid: MassGrid, params: GasParams, setup: SetupKind
) -> float:
    """Rate of total-energy inflow through the two closures.

    Uses the scheme's own boundary fluxes, so the semi-discrete budget
    d/dt total_energy == boundary_power holds exactly (walls do no work
    because u = 0 there).  ``state`` may be a FluidState or a packed stage.
    """
    y = state if isinstance(state, np.ndarray) else state.packed()
    n, dm = grid.n_cells, grid.dm
    f_left, f_right = _boundary_heat_fluxes(y[:n], y[n : 2 * n], dm, setup, params.kappa)
    u0, un = y.item(2 * n), y.item(-1)
    work = un * _far_field_stress(un, params, dm)
    if setup is SetupKind.CAUCHY:
        work -= u0 * _far_field_stress(-u0, params, dm)
    return f_right - f_left + work


def total_energy(state: FluidState, grid: MassGrid, params: GasParams) -> float:
    """Thermal plus kinetic energy of the truncated domain.

    Kinetic energy is summed over nodes with full weight; with that
    convention the spatial exchange terms telescope and only boundary
    fluxes remain in the budget.
    """
    thermal = params.c_v * float(np.add.reduce(state.theta))
    kinetic = 0.5 * float(np.add.reduce(state.u * state.u))
    return (thermal + kinetic) * grid.dm
