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

All operators are deterministic, and pure but for :func:`rhs` of a :class:`Stage`, which binds
its grid's and gas's constants.  One straight-line kernel evaluates the rates on a Stage for rhs
and heat_flux_faces: it fuses the theta and u differences into one pass over a work row, the
seam between them scaled by 0 onto a face the right closure then sets, and keeps every entry's
operands and their order, so the rates have the bits of one pass per operation.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConfigurationError,
    FluidState,
    GasParams,
    MassGrid,
    SetupKind,
    on_grid,
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


#: the ufuncs the kernel calls, each with its out operand positional
_add, _sub, _mul, _div = np.add, np.subtract, np.multiply, np.divide


class Stage:
    """A workspace on one grid and gas, built once and reused across the steps of a trajectory,
    binding dm, 2*kappa/dm, R, mu and c_v (R, c_v and a twin of dm as the kernel's 0-d operands,
    which numpy need not convert on each call as it does a float): from one 64-byte-aligned
    block, so that each row written starts 32-byte aligned when 4 divides n, a buffer whose tail
    is ``rates``, laid out like a state, and whose head is the work row ``[theta diffs | seam |
    u diffs]``, its u half ``dv``, its spent theta half then the scratch row ``tmp``; faces
    ``[heat flux | stress | right ghost stress]``; the rows ``[vbar | 1 | dm...]`` dividing the
    work row and ``[2*kappa/dm... | 0 | mu...]`` scaling it into the faces, filled once, only
    vbar rewritten; the views :func:`_kernel` needs.  :meth:`load` points it at ``y``."""

    def __init__(self, y: np.ndarray, grid: MassGrid, params: GasParams) -> None:
        n, self.grid, self.params, self.dm = grid.n_cells, grid, params, grid.dm
        self.R, self.c_v, self.dm_0d = (np.array(x, float) for x in (params.R, params.c_v, self.dm))
        mem = np.empty(10 * n + 15)
        mem = mem[(-mem.ctypes.data % 64) // 8 :]  # numpy writes a 32-byte-aligned row faster
        buf, faces, rows = mem[: 4 * n + 1], mem[4 * n + 3 : 6 * n + 5], mem[6 * n + 8 : 10 * n + 8]
        self.work, self.tmp, self.rates = buf[: 2 * n], buf[:n], buf[n:]
        self.dv, self.dth, self.du = unpack(self.rates)
        self.dthu = buf[2 * n :]
        rows[n - 1], rows[n : 2 * n], rows[3 * n - 1], rows[3 * n :] = 1.0, self.dm, 0.0, params.mu
        rows[2 * n : 3 * n - 1] = 2.0 * params.kappa / self.dm
        self.divisor, self.scale, self.vbar = rows[: 2 * n], rows[2 * n :], rows[: n - 1]
        self.flux, self.stress, self.faces_mid = faces[: n + 1], faces[n + 1 : -1], faces[1:-1]
        self.faces_lo, self.faces_hi = faces[:-1], faces[1:]
        self.load(y)

    def load(self, y: np.ndarray) -> None:
        """Point the stage buffer ``y`` ``[v | theta | u]``, its ``vth`` view ``[v | theta]`` for
        the floor test and the kernel's views of it at ``y``, and ``power`` at NaN."""
        if not on_grid(y, self.grid):  # its width error; its caller checks the values
            require_valid("Stage", y, self.grid)
        n, (self.v, self.th, self.u) = self.grid.n_cells, unpack(y)
        self.y, self.vth, self.power = y, y[: 2 * n], math.nan
        self.y_lo, self.y_hi, self.v_lo, self.v_hi = y[n:-1], y[n + 1 :], self.v[:-1], self.v[1:]


def _require_built_on(what: str, stage: Stage, grid: MassGrid, params: GasParams) -> None:
    """A ConfigurationError naming ``what`` unless ``grid`` and ``params`` are the ones ``stage``
    was built on or equal ones; its callers test identity first."""
    if grid != stage.grid or params != stage.params:
        raise ConfigurationError(f"{what}: a Stage built on {stage.grid} and {stage.params} "
                                 f"got {grid} and {params}")


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


def _kernel(stage: Stage, setup: SetupKind, sources: np.ndarray | None) -> np.ndarray:
    """The rates of ``stage.y`` into ``stage.rates``, and its boundary power into
    ``stage.power``: one difference, divide and multiply over the work row give the heat flux
    (2*kappa/dm)*(theta_i - theta_{i-1})/(v_{i-1} + v_i), u_x into ``dv`` and mu*u_x into the
    stress, the seam landing on flux[n] times 0 before :func:`_closures` sets the flux's ends;
    one difference of the faces is then the flux divergence and every du, the seam
    (stress[0] - flux[n]) on du[0], which the left closure sets; ``sources``, packed like the
    rates, are one add, and a wall's du[0] stays 0."""
    _add(stage.v_lo, stage.v_hi, stage.vbar)
    work = _sub(stage.y_hi, stage.y_lo, stage.work)
    _div(work, stage.divisor, work)
    _mul(work, stage.scale, stage.faces_mid)
    flux, stress, dm, du, dth = stage.flux, stage.stress, stage.dm, stage.du, stage.dth
    flux[0], flux[-1], ghost_left, stage.faces_hi[-1], stage.power = _closures(
        stage.v, stage.th, stage.u, dm, setup, stage.params)
    rt = _mul(stage.th, stage.R, stage.tmp)
    _div(_sub(stress, rt, stress), stage.v, stress)
    _div(_sub(stage.faces_hi, stage.faces_lo, stage.dthu), stage.dm_0d, stage.dthu)
    if ghost_left is not None:
        du[0] = (stress.item(0) - ghost_left) / dm
    _add(dth, _mul(stage.dv, stress, rt), dth)  # c_v*dtheta = diff(flux)/dm + u_x*stress
    _div(dth, stage.c_v, dth)
    if sources is not None:
        _add(stage.rates, sources, stage.rates)
    if ghost_left is None:
        du[0] = 0.0  # the wall rate stays pinned, even under forcing
    return stage.rates


def heat_flux_faces(
    state: FluidState, grid: MassGrid, params: GasParams, setup: SetupKind
) -> np.ndarray:
    """Heat flux kappa*theta_x/v at every node (face): the face difference of theta over
    the arithmetic-mean specific volume, the left face closed as ``setup`` says, the
    right one by the far field.  ``rhs`` and ``boundary_power`` use the same fluxes."""
    stage = Stage(require_valid("heat_flux_faces", state.y, grid), grid, params)
    _kernel(stage, setup, None)
    return stage.flux


def rhs(
    state: FluidState | Stage,
    grid: MassGrid,
    params: GasParams,
    setup: SetupKind,
    sources: np.ndarray | None = None,
) -> np.ndarray:
    """Semi-discrete rates for (v, u, theta), packed like a stage: ``[dv | dtheta | du]``.

    Interior node i feels the stress difference of its two neighbor cells,
    stress = (mu*u_x - R*theta)/v.  Far-field boundary nodes see a ghost cell at the rest
    state whose strain uses a ghost node with u = 0; a wall node has du = 0, imposing
    u(0, t) = 0 strongly.  ``sources`` are optional extra rates, e.g. manufactured forcings:
    one row packed like the rates, of shape (3n + 1,), else a ConfigurationError.
    ``state`` may be a FluidState, which must pass ``require_valid`` on ``grid``, or a
    checked :class:`Stage`, whose rates and ``power`` rhs sets; a Stage takes only the grid
    and gas it was built on (the same objects or equal ones), else a ConfigurationError.
    """
    if state.__class__ is not Stage:  # a FluidState: checked, then run in a Stage of its own
        state = Stage(require_valid("rhs", state.y, grid), grid, params)
    elif grid is not state.grid or params is not state.params:
        _require_built_on("rhs", state, grid, params)
    if sources is not None and getattr(sources, "shape", None) != state.y.shape:
        raise ConfigurationError(f"rhs: sources must be one packed row of shape {state.y.shape}, "
                                 f"got {getattr(sources, 'shape', type(sources).__name__)}")
    return _kernel(state, setup, sources)


def boundary_power(
    state: FluidState | Stage, grid: MassGrid, params: GasParams, setup: SetupKind
) -> float:
    """Rate of total-energy inflow through the two closures.

    Uses the scheme's own boundary fluxes, so the semi-discrete budget
    d/dt total_energy == boundary_power holds exactly.  Of a :class:`Stage`, on the grid and
    gas it was built on as in :func:`rhs`, it is the ``power`` rhs left there.
    """
    if state.__class__ is Stage:
        if grid is not state.grid or params is not state.params:
            _require_built_on("boundary_power", state, grid, params)
        return state.power
    require_valid("boundary_power", state.y, grid)
    return _closures(state.v, state.theta, state.u, grid.dm, setup, params)[-1]


def total_energy(state: FluidState, grid: MassGrid, params: GasParams) -> float:
    """Thermal plus kinetic energy of the truncated domain.

    Kinetic energy is summed over nodes with full weight; with that
    convention the spatial exchange terms telescope and only boundary
    fluxes remain in the budget.
    """
    require_valid("total_energy", state.y, grid)
    return total_energies(state.theta[None], state.u[None], grid.dm, params)[0]


def total_energies(theta: np.ndarray, u: np.ndarray, dm: float, params: GasParams) -> list[float]:
    """total_energy of each state whose fields are the rows of ``theta`` and ``u``."""
    thermal, kinetic = np.add.reduce(theta, 1).tolist(), np.add.reduce(u * u, 1).tolist()
    return [(params.c_v * th + 0.5 * ke) * dm for th, ke in zip(thermal, kinetic)]
