"""Shared field-geometry layer: one memoised spatial model per field.

:class:`FieldModel` owns a field approximation's points and lazily builds,
caches and shares every spatial artifact the DECOR pipeline needs (neighbour
index, radius adjacencies, grid decompositions, probe grids) over one
NumPy grid-hash index.  See :mod:`repro.field.model` for the
artifact/cache-key table, :mod:`repro.field.backends` for the index (and
the kd-tree the tests check it against) and :mod:`repro.field.csr` for
the structure-only adjacency.
"""

from repro.field.backends import GridHashBackend
from repro.field.csr import Adjacency
from repro.field.model import (
    DirtyRegion,
    FieldModel,
    FieldModelStats,
    as_field_model,
    same_cell_adjacency_of,
)

__all__ = [
    "Adjacency",
    "DirtyRegion",
    "FieldModel",
    "FieldModelStats",
    "GridHashBackend",
    "as_field_model",
    "same_cell_adjacency_of",
]
