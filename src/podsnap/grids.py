"""Structured grids: 1D node grids and the 2D staggered (MAC) layout."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError


def require_finite(config) -> None:
    """Raise :class:`ArgumentError` naming the first float field of the
    dataclass ``config`` that is NaN or infinite."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in ("float", float) and not np.isfinite(value):
            raise ArgumentError(f"{type(config).__name__}.{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid of ``n_nodes`` nodes spanning the unit interval.

    Every 1D case lives on [0, 1]; a domain of length L is the same
    problem with the diffusivity scaled by 1 / L^2.
    """

    n_nodes: int

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ArgumentError(f"need at least 2 nodes, got {self.n_nodes}")

    @property
    def spacing(self) -> float:
        return 1.0 / (self.n_nodes - 1)

    def nodes(self) -> np.ndarray:
        """Node coordinates x_i = i * spacing."""
        return np.linspace(0.0, 1.0, self.n_nodes)


@dataclass(frozen=True)
class StaggeredGrid2D:
    """MAC-staggered layout on a rectangle of ``nx`` x ``ny`` cells.

    Pressure and temperature live at cell centers (shape ``(ny, nx)``,
    row index along y), the x-velocity u at vertical faces
    (``(ny, nx + 1)``), and the y-velocity v at horizontal faces
    (``(ny + 1, nx)``).
    """

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if self.nx < 2 or self.ny < 2:
            raise ArgumentError(f"need at least 2x2 cells, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise ArgumentError("domain extents must be positive")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def u_shape(self) -> tuple[int, int]:
        return (self.ny, self.nx + 1)

    @property
    def v_shape(self) -> tuple[int, int]:
        return (self.ny + 1, self.nx)

    @property
    def cell_shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def n_u(self) -> int:
        return self.ny * (self.nx + 1)

    @property
    def n_v(self) -> int:
        return (self.ny + 1) * self.nx

    @property
    def n_cells(self) -> int:
        return self.ny * self.nx
