"""1D snapshot generators: heat diffusion and advected step families.

Three families of snapshot matrices whose singular-value decay spans
the smooth-to-discontinuous range:

* :func:`solve_heat1d` -- homogeneous-Dirichlet heat equation started
  from a rectangle pulse (fast, near-exponential decay);
* :func:`gen_sigmoid` -- step front ``1 / (1 + exp(-k (t - x)))``
  advected across the unit interval, with tunable steepness ``k``
  (decay slows as ``k`` grows);
* :func:`gen_advected_jump` -- the discontinuous limit ``u = 1 if
  x <= t else 0`` (slow, algebraic decay).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ArgumentError
from .grids import Grid1D, require_finite
from .snapshots import FieldLayout, SnapshotMatrix

# Steepness defaults for the two sigmoid variants: "steep" is visually
# close to a discontinuity at 256-node resolution, "stretched" spreads
# the front over a quarter of the domain.
STEEP_K = 100.0
STRETCHED_K = 15.0

# Resolution of every 1D case unless a caller asks for another.
N_NODES = 256
N_SNAPS = 128


@dataclass(frozen=True)
class InitialCondition1D:
    """Rectangle pulse: ``height`` on ``[left, right]`` and zero outside.

    Its support must lie strictly inside the unit interval so the
    homogeneous Dirichlet boundary holds at t = 0.
    """

    left: float = 0.25
    right: float = 0.75
    height: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if not (0.0 < self.left < self.right < 1.0):
            raise ArgumentError(
                f"rectangle [{self.left}, {self.right}] must lie strictly inside (0, 1)"
            )

    def sample(self, grid: Grid1D) -> np.ndarray:
        x = grid.nodes()
        return np.where((x >= self.left) & (x <= self.right), self.height, 0.0)


@dataclass(frozen=True)
class Heat1DConfig:
    """Heat equation run: du/dt = alpha * d2u/dx2, u = 0 on the boundary,
    marched by implicit Euler (unconditionally stable in dt)."""

    alpha: float = 1.0
    dt: float = 1e-3
    grid: Grid1D = field(default_factory=lambda: Grid1D(N_NODES))
    n_snaps: int = N_SNAPS
    ic: InitialCondition1D = field(default_factory=InitialCondition1D)

    def __post_init__(self):
        require_finite(self)
        if self.alpha <= 0:
            raise ArgumentError(f"alpha must be positive, got {self.alpha}")
        if self.dt <= 0:
            raise ArgumentError(f"dt must be positive, got {self.dt}")
        if self.n_snaps < 1:
            raise ArgumentError(f"n_snaps must be at least 1, got {self.n_snaps}")


def solve_heat1d(cfg: Heat1DConfig) -> SnapshotMatrix:
    """March the heat equation and collect every step as a column.

    Column j is the solution after j steps (column 0 is the initial
    condition), labelled with t_j = j * dt. Both boundary rows are
    exactly zero in every column.
    """
    n = cfg.grid.n_nodes
    r = cfg.alpha * cfg.dt / cfg.grid.spacing**2
    rows = np.zeros((cfg.n_snaps, n))
    rows[0, 1:-1] = cfg.ic.sample(cfg.grid)[1:-1]

    # (I + r * tridiag(-1, 2, -1)) u_new = u_old on interior nodes
    bands = np.zeros((3, n - 2))
    bands[0, 1:] = -r
    bands[1, :] = 1.0 + 2.0 * r
    bands[2, :-1] = -r
    for j in range(1, cfg.n_snaps):
        rows[j, 1:-1] = scipy.linalg.solve_banded((1, 1), bands, rows[j - 1, 1:-1])

    # one row per snapshot, so the matrix is snapshot-major
    return SnapshotMatrix(rows.T, FieldLayout.single("u", n), cfg.dt * np.arange(cfg.n_snaps))


def _advection_times(n_snaps: int) -> np.ndarray:
    if n_snaps < 2:
        raise ArgumentError(f"need at least 2 snapshots, got {n_snaps}")
    return np.arange(n_snaps) / (n_snaps - 1)


def gen_advected_jump(grid: Grid1D, n_snaps: int = N_SNAPS) -> SnapshotMatrix:
    """Advected discontinuity: entry (i, j) = 1 if x_i <= t_j else 0.

    The front positions t_j sample the grid's unit interval uniformly.
    """
    t = _advection_times(n_snaps)
    x = grid.nodes()
    # one row per snapshot, so the matrix is snapshot-major
    rows = (x[None, :] <= t[:, None]).astype(np.float64)
    return SnapshotMatrix(rows.T, FieldLayout.single("u", grid.n_nodes), t)


def gen_sigmoid(grid: Grid1D, n_snaps: int = N_SNAPS, k: float = STEEP_K) -> SnapshotMatrix:
    """Advected smooth step: entry (i, j) = 1 / (1 + exp(-k (t_j - x_i))).

    ``k`` is the front steepness; the advected jump is the k -> infinity
    limit. Any finite positive ``k`` is safe: where ``exp`` overflows the
    entry is exactly 0, and where it underflows exactly 1.
    """
    if not (np.isfinite(k) and k > 0):
        raise ArgumentError(f"steepness k must be finite and positive, got {k}")
    t = _advection_times(n_snaps)
    x = grid.nodes()
    z = k * (t[:, None] - x[None, :])
    with np.errstate(over="ignore"):
        rows = 1.0 / (1.0 + np.exp(-z))
    return SnapshotMatrix(rows.T, FieldLayout.single("u", grid.n_nodes), t)
