"""The certified L2 projection filter shared by the QMap refines.

Paper Section 2.3.1's contractive filter-and-refine, in mapped space: an
orthogonal projection ``W`` with ``||W||_2 <= 1`` is 1-Lipschitz, so
``||(v - q) W||`` less its rounding bounds the float L2 distance from
below (:func:`~repro.kernels.gram.l2_lower_bound`).  An index whose port
evaluates L2 (the QMap model's) holds one :class:`ProjectionFilter` over
its rows and evaluates in float64 only the rows the bound cannot rule out;
what it charges, reports and returns does not change.  A non-finite row
makes the norm bound, and so every cut, not finite: nothing is ruled out.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from ..kernels import gram
from ..kernels.kernels import L2Kernel
from .base import DistancePort, grown

__all__ = ["ProjectionFilter", "SCAN_FLOOR", "PIVOT_FLOOR"]

#: Least ``(rows, dimensions)`` a filter is built over, per refine, where
#: the in-process A/Bs of ``EXPERIMENTS.md`` (E_A11) find it pays.  The
#: scan bounds every row: below 128 dimensions a float64 row costs about
#: what its bound does, below 1 024 rows the query evaluates too few to
#: repay ``q W``.  The pivot table's refine reaches only the few hundred
#: rows its pivots leave, so the bound's fixed cost per query (``q W``,
#: the gather of their projections, a cut per block) is repaid only from
#: 4 000 rows of 256 dimensions; at 1 024 rows it is a loss at any width.
SCAN_FLOOR = (1024, 128)
PIVOT_FLOOR = (4000, 256)


#: Serializes the projection of rows a query needs first, so concurrent
#: queries (the thread executor) never lose an update of the norm bound.
_PROJECT_LOCK = threading.Lock()


class ProjectionFilter:
    """``W`` (:func:`~repro.kernels.gram.l2_basis`), the rows projected on
    it and a bound on their norms (:func:`~repro.kernels.gram.l2_project`).

    A row is projected the first time a query bounds it, not at build or
    restore: a ``batch512`` build or restart then pays only for ``W``, and
    the rows a kNN refine never reaches are never projected.  The buffers
    grow with the index, an insert leaving its row to be projected so.
    """

    __slots__ = ("basis", "size", "_projected", "_done", "_norm")

    def __init__(self, basis: np.ndarray, size: int) -> None:
        self.basis = basis
        #: Rows the filter covers: the index's.
        self.size = size
        self._projected = np.empty((size, basis.shape[1]), dtype=np.float64)
        self._done = np.zeros(size, dtype=bool)
        self._norm = 0.0

    @classmethod
    def over(
        cls,
        port: DistancePort,
        rows: np.ndarray,
        floor: tuple[int, int],
        basis: np.ndarray | None = None,
    ) -> "ProjectionFilter | None":
        """The filter over *rows*, or ``None`` where it is off: a port that
        is not L2, rows fewer or shorter than the refine's *floor*
        (:data:`SCAN_FLOOR`, :data:`PIVOT_FLOOR`), or a basis that fails
        its certificate.  A given *basis* (a snapshot's) is re-certified
        and used; a missing or refused one is rebuilt from the rows."""
        m, n = rows.shape
        if not isinstance(port.kernel, L2Kernel) or m < floor[0] or n < floor[1]:
            return None
        if basis is not None:
            basis = np.asarray(basis, dtype=np.float64)
            if basis.ndim != 2 or basis.shape[0] != n or not gram.l2_basis_certified(basis):
                basis = None
        if basis is None:
            basis = gram.l2_basis(rows)
            if not basis.shape[1]:
                return None
        return cls(basis, m)

    def append(self, index: int) -> None:
        """Cover the row stored at *index* (the next one)."""
        self._projected = grown(self._projected, index, 1)
        self._done = grown(self._done, index, 1)
        self._done[index] = False
        self.size = index + 1

    def bound(
        self, query: np.ndarray, rows: "np.ndarray | slice", data: np.ndarray
    ) -> tuple[np.ndarray, Callable[[float], float]]:
        """``(squares, cut)`` of :func:`~repro.kernels.gram.l2_lower_bound`
        for *query* over the *rows* of *data* (indices or a slice from 0): a
        row with ``squares > cut(r)`` is farther than ``r`` from the query.
        Rows not projected yet are projected first."""
        if isinstance(rows, slice):
            missing = np.flatnonzero(~self._done[rows])
        else:
            missing = rows[~self._done[rows]]
        if missing.size:
            self._project(data, missing)
        projected = self._projected
        rows = projected[rows] if isinstance(rows, slice) else np.take(projected, rows, axis=0)
        return gram.l2_lower_bound(self.basis, rows, self._norm, query)

    def _project(self, data: np.ndarray, rows: np.ndarray) -> None:
        """Project *rows* of *data*; the norm bound covers them before they
        are marked done, so a reader never sees a row it does not cover."""
        with _PROJECT_LOCK:
            rows = rows[~self._done[rows]]
            projected, norm = gram.l2_project(self.basis, data[rows])
            self._projected[rows] = projected
            self._norm = float(np.maximum(self._norm, norm))  # a NaN sticks
            self._done[rows] = True
