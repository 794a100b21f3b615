"""Grid type invariants and staggered-layout bookkeeping."""

import numpy as np
import pytest

from podsnap.errors import ArgumentError
from podsnap.grids import Grid1D, StaggeredGrid2D


class TestGrid1D:
    def test_nodes_and_spacing(self):
        grid = Grid1D(5)
        assert grid.spacing == 0.25
        np.testing.assert_allclose(grid.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_validation(self):
        with pytest.raises(ArgumentError):
            Grid1D(1)


class TestStaggeredGrid2D:
    def test_shapes_and_counts(self):
        grid = StaggeredGrid2D(4, 3, lx=2.0, ly=1.5)
        assert grid.u_shape == (3, 5)
        assert grid.v_shape == (4, 4)
        assert grid.cell_shape == (3, 4)
        assert grid.n_u == 15 and grid.n_v == 16 and grid.n_cells == 12
        assert grid.dx == 0.5 and grid.dy == 0.5

    def test_validation(self):
        with pytest.raises(ArgumentError):
            StaggeredGrid2D(1, 4)
        with pytest.raises(ArgumentError):
            StaggeredGrid2D(4, 4, lx=0.0)
