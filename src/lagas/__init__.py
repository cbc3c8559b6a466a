"""1D viscous heat-conducting perfect gas in Lagrangian mass coordinates.

A staggered-grid, method-of-lines solver for the (v, u, theta) system with
three boundary setups (whole line, insulated wall, isothermal wall), plus a
diagnostic layer that audits energy dissipation, field bounds, space-time
integral budgets, and large-time decay along every run.

The top level exports the names runs and studies use: setups, grids,
states, the integrator, ``rhs``, initial data and manufactured solutions.
The other scheme operators and the audit functionals live in
:mod:`lagas.scheme` and :mod:`lagas.diagnostics`.
"""

from .core import (
    ConfigurationError,
    DomainError,
    FluidState,
    GasParams,
    IntegrationError,
    MassGrid,
    ProblemSetup,
    SetupKind,
    StiffnessError,
    make_grid,
    steady_state,
    validate_state,
)
from .integrate import StepControl, advance, stable_dt, step
from .scheme import rhs
from .verification import (
    InitialDataSpec,
    build_initial_data,
    convergence_study,
    default_pulse_solution,
    manufactured_sources,
    make_source_rates,
    sample_state,
    steady_solution,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DomainError",
    "FluidState",
    "GasParams",
    "InitialDataSpec",
    "IntegrationError",
    "MassGrid",
    "ProblemSetup",
    "SetupKind",
    "StepControl",
    "StiffnessError",
    "advance",
    "build_initial_data",
    "convergence_study",
    "default_pulse_solution",
    "make_grid",
    "make_source_rates",
    "manufactured_sources",
    "rhs",
    "sample_state",
    "stable_dt",
    "steady_solution",
    "steady_state",
    "step",
    "validate_state",
]
