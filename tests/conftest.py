"""Shared fixtures; keeping this file also puts tests/ on sys.path."""

import numpy as np
import pytest

from lagas import GasParams, SetupKind, StepControl


@pytest.fixture
def params():
    return GasParams(mu=1.0, kappa=1.0, R=1.0, c_v=1.5)


@pytest.fixture
def unit_params():
    return GasParams(mu=1.0, kappa=1.0, R=1.0, c_v=1.0)


@pytest.fixture
def cauchy():
    return SetupKind.CAUCHY


@pytest.fixture
def insulated():
    return SetupKind.HALFLINE_INSULATED


@pytest.fixture
def isothermal():
    return SetupKind.HALFLINE_ISOTHERMAL


@pytest.fixture
def ctrl():
    return StepControl()


def random_state(grid, seed, scale=0.5):
    """A positive, finite random state for oracle comparisons."""
    from lagas import FluidState

    rng = np.random.default_rng(seed)
    n = grid.n_cells
    v = 1.0 + scale * rng.uniform(-0.8, 1.5, n)
    theta = 1.0 + scale * rng.uniform(-0.8, 1.5, n)
    u = scale * rng.uniform(-1.0, 1.0, n + 1)
    return FluidState(0.0, v, theta, u)


def split_rates(rates):
    """The (dv, dtheta, du) slices of rhs's packed rates ``[dv | dtheta | du]``."""
    n = (rates.shape[0] - 1) // 3
    return rates[:n], rates[n : 2 * n], rates[2 * n :]
