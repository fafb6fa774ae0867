"""Distance kernels: per-metric batched evaluators and query contexts.

A *kernel* packages the batched math of :mod:`repro.kernels.gram` behind a
small object interface the access-method layer can hold on to:

``bind(query) -> QueryContext``
    a query bound for repeated evaluation (``many(rows)``, ``one(row)``);
``one_to_many`` / ``pairwise`` / ``cross``
    free-standing batched forms for build-time work;
``row_norms(rows)``
    the per-row term ``vAv^T`` (``vv^T`` for L2), which no evaluation
    reads; it is kept for what it costs to compute;
``fit`` / ``map`` / ``stages`` (QFD only)
    the two certified stages of the sequential scan
    (:func:`~repro.kernels.gram.qfd_stages`): an O(k) sum per row from the
    rows projected on ``W = G V`` (``V`` the L2 filter's certified basis
    fitted to the rows mapped by the Cholesky factor ``G``), then an O(n)
    sum per row from the rows mapped by ``G``, each tested against a cut of
    the query's; the scan evaluates only the rows neither rules out.

Every QFD evaluation is one arithmetic, the difference form of
:func:`~repro.kernels.gram.qfd_one_to_many` (O(n^2) per row), and every
L2 evaluation is that of :func:`~repro.kernels.gram.l2_one_to_many`, what
QMap buys: O(n) per row.  :func:`resolve_kernel` maps a scalar distance
function to its kernel, or ``None`` when no batched form is known (the
caller then falls back to the function's own vectorized form or a plain
loop).

There is one arithmetic per kernel, whatever the rows' store: float32 rows
(a memory-mapped database) are upcast to float64 before any product, so
they give the floats of their float64 copy, and database-sized operands
are read in :func:`~repro.kernels.gram.row_tiles`.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from . import gram

__all__ = [
    "QFDKernel",
    "QFDQueryContext",
    "L2Kernel",
    "L2QueryContext",
    "resolve_kernel",
]

#: Serializes the build of a :class:`QFDKernel`'s filter operands, so the
#: rows a scan maps and the factor its queries read are one.
_OPERANDS_LOCK = threading.Lock()


class QFDQueryContext:
    """A query bound to a QFD matrix.

    Every distance, one row or many, is
    :func:`~repro.kernels.gram.qfd_one_to_many`: the same floats the
    scan, the pivot table and the build get for the same pair.
    """

    __slots__ = ("_matrix", "query")

    def __init__(self, kernel: "QFDKernel", query: np.ndarray) -> None:
        self._matrix = kernel.matrix
        self.query = np.asarray(query, dtype=np.float64)

    def many(self, rows: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
        """Distances from the bound query to every row (*norms* is unused)."""
        return gram.qfd_one_to_many(self._matrix, self.query, rows)

    def one(self, row: np.ndarray) -> float:
        """Distance from the bound query to a single row."""
        return float(self.many(np.asarray(row)[None, :])[0])


class QFDKernel:
    """Batched evaluator for a static QFD matrix: the difference form and
    the QFD scan's two certified stages (:meth:`stages`) over the rows
    projected on the rank-k operand (:meth:`fit`) and the rows mapped by
    the Cholesky factor (:meth:`map`).

    *factor*, ``np.linalg.cholesky`` of the matrix (the one a
    :class:`~repro.core.qfd.QuadraticFormDistance` made for its
    positive-definiteness check), is the map's ``G``; without it the
    kernel factors the matrix on first use.
    """

    __slots__ = ("matrix", "_filter_operands", "_factor")

    def __init__(self, matrix: np.ndarray, factor: np.ndarray | None = None) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self._factor = factor
        self._filter_operands: tuple | None = None

    def __reduce__(self):
        # The filter's operands and the factor are rebuilt, not shipped.
        return (QFDKernel, (self.matrix,))

    def _operands(self) -> tuple:
        """:attr:`radius`, :attr:`factor` and its terms
        (:func:`~repro.kernels.gram.qfd_factor_terms`), made once by their
        first use — a query, not the build."""
        operands = self._filter_operands
        if operands is None:
            with _OPERANDS_LOCK:
                operands = self._filter_operands
                if operands is None:
                    factor, terms = self._factor, None
                    try:
                        factor = np.linalg.cholesky(self.matrix) if factor is None else factor
                    except np.linalg.LinAlgError:  # not positive definite: no map
                        factor = None
                    if factor is not None:
                        terms = gram.qfd_factor_terms(self.matrix, factor)
                    operands = (gram.abs_sum_radius(self.matrix), factor, terms)
                    self._filter_operands = operands
        return operands

    @property
    def radius(self) -> float:
        """``R >= || |A| ||_2`` (:func:`~repro.kernels.gram.abs_sum_radius`)."""
        return self._operands()[0]

    @property
    def factor(self) -> np.ndarray | None:
        """``G``, the rows' map, or ``None`` for a matrix without one."""
        return self._operands()[1]

    def fit(self, rows: np.ndarray) -> tuple:
        """:func:`~repro.kernels.gram.qfd_weights` over *rows*: ``(V, W,
        (F_W, delta))``, the operand :meth:`stages` projects on."""
        _, factor, terms = self._operands()
        return gram.qfd_weights(factor, terms[0], rows)

    def map(self, rows: np.ndarray) -> tuple[np.ndarray, float]:
        """:func:`~repro.kernels.gram.qfd_map` by :attr:`factor`."""
        _, factor, terms = self._operands()
        return gram.qfd_map(factor, terms[0], rows)

    def stages(
        self, q: np.ndarray, fitted: tuple, v_norm: float
    ) -> tuple[Callable, Callable] | None:
        """:func:`~repro.kernels.gram.qfd_stages` of *q* over rows of norm at
        most *v_norm* projected on the *fitted* :meth:`fit` (the kernel must
        have a :attr:`factor`)."""
        radius, factor, terms = self._operands()
        _, weights, w_terms = fitted
        return gram.qfd_stages(factor, weights, radius, (*w_terms, *terms), v_norm, q)

    def row_norms(self, rows: np.ndarray) -> np.ndarray:
        return gram.qfd_row_norms(self.matrix, rows)

    def bind(self, query: np.ndarray) -> QFDQueryContext:
        return QFDQueryContext(self, query)

    def one_to_many(self, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return gram.qfd_one_to_many(self.matrix, q, rows)

    def pairwise(self, rows: np.ndarray) -> np.ndarray:
        return gram.qfd_pairwise(self.matrix, rows)

    def cross(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """``(a, b)`` distance matrix: one :meth:`one_to_many` per row of *a*;
        *rows_b* may be database-sized (it is read in row tiles)."""
        out = np.empty((rows_a.shape[0], rows_b.shape[0]), dtype=np.float64)
        for i, row in enumerate(rows_a):
            out[i] = self.one_to_many(row, rows_b)
        return out


class L2QueryContext:
    """A query bound to the Euclidean distance.

    Every distance, one row or many, is
    :func:`~repro.kernels.gram.l2_one_to_many`: the floats of the scalar
    :func:`repro.distances.minkowski.euclidean` and of the kernel's
    matrices, so the QMap model's mapped-space results equal a plain scan's.
    """

    __slots__ = ("query",)

    def __init__(self, query: np.ndarray) -> None:
        self.query = np.asarray(query, dtype=np.float64)

    def many(self, rows: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
        return gram.l2_one_to_many(self.query, rows)

    def one(self, row: np.ndarray) -> float:
        return float(self.many(np.asarray(row)[None, :])[0])


class L2Kernel:
    """Batched evaluator for the Euclidean distance."""

    __slots__ = ()

    def row_norms(self, rows: np.ndarray) -> np.ndarray:
        return gram.l2_row_norms(rows)

    def bind(self, query: np.ndarray) -> L2QueryContext:
        return L2QueryContext(query)

    def one_to_many(self, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return gram.l2_one_to_many(q, rows)

    def pairwise(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`cross` of *rows* with themselves: exactly symmetric, with
        a zero diagonal (``(u - v)^2`` and ``(v - u)^2`` are one float)."""
        return self.cross(rows, rows)

    def cross(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """``(a, b)`` distance matrix whose row ``i`` is, bit for bit,
        :meth:`one_to_many` of ``a[i]``: blocks of *a*'s rows broadcast
        against *rows_b*, ``_L2_TILE_FLOATS`` differences at a time, then
        the same row-wise ``einsum`` and ``sqrt``.  A *rows_b* past one tile
        (a database-sized operand) streams through one call per row."""
        m, n = rows_b.shape
        out = np.empty((rows_a.shape[0], m), dtype=np.float64)
        step = gram._L2_TILE_FLOATS // max(m * n, 1)
        if not step:
            for i, row in enumerate(rows_a):
                out[i] = gram.l2_one_to_many(row, rows_b)
            return out
        rows_a = np.asarray(rows_a, dtype=np.float64)
        for start in range(0, rows_a.shape[0], step):
            diff = (rows_a[start : start + step, None] - rows_b).reshape(-1, n)
            gram._einsum("ij,ij->i", diff, diff, out=out[start : start + step].reshape(-1))
        return np.sqrt(out, out=out)


def resolve_kernel(func: Callable) -> QFDKernel | L2Kernel | None:
    """Best batched kernel for a scalar distance function, or ``None``.

    Unwraps :class:`~repro.distances.base.CountingDistance` to inspect the
    underlying metric; recognizes the static QFD and the plain Euclidean
    distance.  Imports lazily — this module sits below the distance layer.
    """
    from ..distances.base import CountingDistance

    if isinstance(func, CountingDistance):
        func = func.func
    from ..core.qfd import QuadraticFormDistance

    if isinstance(func, QuadraticFormDistance):
        return QFDKernel(func.matrix, func.cholesky_factor)
    from ..distances.minkowski import euclidean

    if func is euclidean:
        return L2Kernel()
    return None
