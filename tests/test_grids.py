"""Grid type invariants, staggered-layout bookkeeping, and the finite
check every config dataclass shares."""

import dataclasses

import numpy as np
import pytest

from podsnap.cases1d import Heat1DConfig, InitialCondition1D
from podsnap.errors import ArgumentError
from podsnap.grids import Grid1D, StaggeredGrid2D
from podsnap.solidify2d import CoolingWall, SimConfig, ViscosityModel

# every config dataclass, with the arguments it needs besides the field under test
CONFIGS = {
    StaggeredGrid2D: {"nx": 4, "ny": 4},
    ViscosityModel: {},
    CoolingWall: {},
    SimConfig: {"grid": StaggeredGrid2D(4, 4)},
    InitialCondition1D: {},
    Heat1DConfig: {},
}
FLOAT_FIELDS = [
    (cls, f.name) for cls in CONFIGS for f in dataclasses.fields(cls) if f.type in ("float", float)
]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_non_finite_float_field_is_rejected_by_name(cls, name, value):
    with pytest.raises(ArgumentError, match=rf"^{cls.__name__}\.{name} must be finite"):
        cls(**CONFIGS[cls], **{name: value})


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
