"""Shared fixtures: grids, ground states, and the alpha*Q dichotomy sweep.

Everything heavy is session-scoped. The dichotomy sweep is shared between
the evolution tests and the acceptance gate so the eight runs happen once.
"""

import numpy as np
import pytest

import hypnls.evolve as ev
import hypnls.functionals as fn
import hypnls.groundstate as gsm
import hypnls.hypgeom as hg
from hypnls.expcli import DICHOTOMY_H1_FACTOR

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
    return gsm.solve_ground_state(3, 3.0, 0.0, grid3)


@pytest.fixture(scope="session")
def gs3_half(grid3):
    return gsm.solve_ground_state(3, 3.0, 0.5, grid3)


@pytest.fixture(scope="session")
def gs2_zero(grid2):
    return gsm.solve_ground_state(2, 3.0, 0.0, grid2)


@pytest.fixture(scope="session")
def dichotomy_runs(gs3_zero, gs2_zero):
    """Forward runs of alpha*Q for both dimensions, keyed by (n, alpha)."""
    cfg = ev.IntegratorConfig(
        dt=2e-3,
        blowup_h1_factor=DICHOTOMY_H1_FACTOR,
        diag_stride=10.0,
    )
    runs = {}
    for gs in (gs3_zero, gs2_zero):
        q_values = gs.field_on_grid().values
        for alpha in DICHOTOMY_ALPHAS:
            u0 = fn.RadialField(grid=gs.grid, values=alpha * q_values)
            runs[(gs.n, alpha)] = ev.evolve_run(u0, 3.0, cfg, 3.0, 0.0, gs)
    return runs
