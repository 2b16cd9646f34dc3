"""Shared field-geometry layer: one memoised spatial model per field.

:class:`FieldModel` owns a field approximation's points and lazily builds,
caches and shares every spatial artifact the DECOR pipeline needs (neighbour
index, radius adjacencies, grid decompositions, probe grids) behind a small
registry of interchangeable neighbour-search backends.  See
:mod:`repro.field.model` for the artifact/cache-key table,
:mod:`repro.field.backends` for the backend registry and
:mod:`repro.field.csr` for the structure-only adjacency.
"""

from repro.field.backends import (
    BACKEND_ENV_VAR,
    GridHashBackend,
    KDTreeBackend,
    available_backends,
    register_backend,
    resolve_backend_name,
)
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
    "BACKEND_ENV_VAR",
    "DirtyRegion",
    "FieldModel",
    "FieldModelStats",
    "GridHashBackend",
    "KDTreeBackend",
    "as_field_model",
    "available_backends",
    "register_backend",
    "resolve_backend_name",
    "same_cell_adjacency_of",
]
