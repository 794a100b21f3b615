"""Shared fixtures: the 1D reference snapshot matrices, and the exact
Taylor-Green vortex."""

import numpy as np
import pytest

from podsnap.cases1d import Heat1DConfig, gen_advected_jump, gen_sigmoid, solve_heat1d
from podsnap.grids import Grid1D


@pytest.fixture(scope="session")
def heat_matrix():
    """Default 256 x 128 heat-equation matrix."""
    return solve_heat1d(Heat1DConfig())


@pytest.fixture(scope="session")
def jump_matrix():
    """Default 256 x 128 advected-jump matrix."""
    return gen_advected_jump(Grid1D(256), 128)


@pytest.fixture(scope="session")
def sigmoid_steep_matrix():
    return gen_sigmoid(Grid1D(256), 128, k=100.0)


@pytest.fixture(scope="session")
def sigmoid_stretched_matrix():
    return gen_sigmoid(Grid1D(256), 128, k=15.0)


def random_snapshot_matrix(rng, n_dof, n_snaps, rank=None):
    """Random matrix (optionally of limited rank) wrapped for POD."""
    from podsnap.snapshots import matrix_from_array

    if rank is None:
        data = rng.normal(size=(n_dof, n_snaps))
    else:
        data = rng.normal(size=(n_dof, rank)) @ rng.normal(size=(rank, n_snaps))
    return matrix_from_array(data)


def taylor_green(grid, nu, t):
    """Exact free-slip Taylor-Green vortex on ``grid`` at time ``t``:
    u = sin(x) cos(y) e^{-2 nu t}, v = -cos(x) sin(y) e^{-2 nu t} and
    p = (cos 2x + cos 2y)/4 e^{-4 nu t}, sampled at the u faces, v faces
    and cell centers of the staggered grid. Returns (u, v, p)."""
    x_face, y_face = np.arange(grid.nx + 1) * grid.dx, np.arange(grid.ny + 1) * grid.dy
    x_cell, y_cell = (np.arange(grid.nx) + 0.5) * grid.dx, (np.arange(grid.ny) + 0.5) * grid.dy
    decay = np.exp(-2.0 * nu * t)
    u = np.sin(x_face)[None, :] * np.cos(y_cell)[:, None] * decay
    v = -np.cos(x_cell)[None, :] * np.sin(y_face)[:, None] * decay
    p = 0.25 * (np.cos(2 * x_cell)[None, :] + np.cos(2 * y_cell)[:, None]) * decay**2
    return u, v, p
