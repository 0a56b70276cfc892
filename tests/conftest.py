"""Shared fixtures: grids, ground states, and the alpha*Q dichotomy sweep.

Everything heavy is session-scoped. The dichotomy sweep is shared between
the evolution tests and the acceptance gate so the eight runs happen once.
"""

import pytest

import hypnls.groundstate as gsm
import hypnls.hypgeom as hg
from hypnls.expcli import dichotomy_row

R_MAX = 20.0
N_POINTS = 2000

DICHOTOMY_ALPHAS = (0.5, 0.9, 1.1, 1.5)


@pytest.fixture(scope="session")
def grid3():
    return hg.build_grid(3, R_MAX, N_POINTS)


@pytest.fixture(scope="session")
def grid2():
    return hg.build_grid(2, R_MAX, N_POINTS)


@pytest.fixture(scope="session")
def gs3_zero(grid3):
    return gsm.solve_ground_state(3.0, 0.0, grid3)


@pytest.fixture(scope="session")
def gs3_half(grid3):
    return gsm.solve_ground_state(3.0, 0.5, grid3)


@pytest.fixture(scope="session")
def gs2_zero(grid2):
    return gsm.solve_ground_state(3.0, 0.0, grid2)


@pytest.fixture(scope="session")
def dichotomy_runs(gs3_zero, gs2_zero):
    """The quick-tier dichotomy rows of both dimensions, keyed by (n, alpha):
    (row, RunOutcome) as the dichotomy subcommand forms them."""
    return {
        (gs.grid.n, alpha): dichotomy_row(gs, alpha, 2e-3, 3.0)
        for gs in (gs3_zero, gs2_zero)
        for alpha in DICHOTOMY_ALPHAS
    }
