"""podsnap: snapshot generation and singular-value decay analysis.

Workflow: generate snapshot matrices (1D heat/advection families or the
2D freezing cavity), decompose them with :func:`podsnap.pod.decompose`,
and quantify spectral decay with :mod:`podsnap.analysis`. Matrices
persist in the SNAP1 binary format; spectra and reports export as CSV.
"""

from . import analysis, cases1d, errors, grids, pod, snapshots, solidify2d
from .grids import Grid1D, StaggeredGrid2D
from .pod import (
    EnergyReport,
    PodBasis,
    PodSpectrum,
    component_split,
    decompose,
    modes_for_energy,
    normalized_spectrum,
    truncate,
)
from .snapshots import FieldLayout, SnapshotMatrix, matrix_from_array, read_snap, write_snap

__version__ = "0.1.0"

__all__ = [
    "EnergyReport",
    "FieldLayout",
    "Grid1D",
    "PodBasis",
    "PodSpectrum",
    "SnapshotMatrix",
    "StaggeredGrid2D",
    "analysis",
    "cases1d",
    "component_split",
    "decompose",
    "errors",
    "grids",
    "matrix_from_array",
    "modes_for_energy",
    "normalized_spectrum",
    "pod",
    "read_snap",
    "snapshots",
    "solidify2d",
    "truncate",
    "write_snap",
]
