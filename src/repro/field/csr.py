"""The structure-only CSR matrix behind every radius adjacency."""

from __future__ import annotations

import numpy as np

__all__ = ["Adjacency", "sorted_unique"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of 1-D input without NaNs, minus the ``numpy.ma``
    import ``np.unique`` makes on its first call."""
    out = np.sort(values)
    if out.size > 1:
        out = out[np.concatenate(([True], out[1:] != out[:-1]))]
    return out


class Adjacency:
    """A square 0/1 matrix in CSR form: every stored entry is 1, so only
    ``indptr`` and ``indices`` are kept (int32, each row's columns sorted
    and distinct) and there is no ``data`` array.  ``A @ x`` sums ``x``
    over each row's columns (Eq. 1's mat-vec).  Treat it as read-only.
    :meth:`rows` caches one array per row; a pickle carries only
    ``indptr``, ``indices`` and ``n``.

    >>> a = Adjacency.from_keys(np.array([0, 1, 3, 4, 8]), 3)  # row * 3 + col
    >>> a.toarray().astype(int).tolist()
    [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    >>> (a @ np.array([1.0, 2.0, 4.0])).tolist(), a.nnz
    ([3.0, 3.0, 4.0], 5)
    """

    __slots__ = ("_rows", "indices", "indptr", "shape")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, n: int) -> None:
        self.indptr = indptr
        self.indices = indices
        self.shape = (n, n)
        self._rows: list[np.ndarray] | None = None

    def __reduce__(self) -> tuple[type[Adjacency], tuple[np.ndarray, np.ndarray, int]]:
        # the row cache is rebuilt on demand, never shipped
        return (Adjacency, (self.indptr, self.indices, self.shape[0]))

    @classmethod
    def from_keys(cls, keys: np.ndarray, n: int) -> Adjacency:
        """The adjacency storing the sorted, distinct keys ``row * n + col``."""
        rows = keys // n
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr, (keys - rows * n).astype(np.int32), n)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def rows(self) -> list[np.ndarray]:
        """Row ``i``'s columns as a read-only ``intp`` array, for every row.

        Built on the first call as views over one ``intp`` copy of
        ``indices`` (so never views of a buffer the adjacency wraps, such
        as a shared-memory segment); later calls return the same list.
        """
        if self._rows is None:
            cols = self.indices.astype(np.intp)
            cols.flags.writeable = False
            bounds = self.indptr.tolist()
            self._rows = [cols[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        return self._rows

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry, in storage order."""
        return np.repeat(np.arange(self.shape[0], dtype=np.intp), np.diff(self.indptr))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # take: fancy indexing with int32 indices first copies them to intp
        weights = x.take(self.indices)
        return np.bincount(self.row_ids(), weights=weights, minlength=self.shape[0])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row_ids(), self.indices] = 1.0
        return out
