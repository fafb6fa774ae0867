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
``project(shadow)`` / ``lower_bound(q, shadow, norms, projected)`` (QFD only)
    the rows' float32 copy (:func:`~repro.kernels.gram.qfd_shadow`)
    projected on the certified rank-k term's ``W``, and an O(n + k)
    certified lower bound on every row's float64 squared distance from
    them (:func:`~repro.kernels.gram.qfd_lower_bound`): the sequential
    scan evaluates only the rows it cannot rule out.

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

#: Serializes the build of a :class:`QFDKernel`'s bound operands, so the
#: projected rows a scan makes and the ``W`` its queries read are one.
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
    the certified O(n + k) bound the QFD scan prunes with
    (:meth:`lower_bound`).

    *factor*, a Cholesky factor of the matrix (the one a
    :class:`~repro.core.qfd.QuadraticFormDistance` made for its
    positive-definiteness check), spares the bound's estimate a
    factorization; it is dropped once the bound's operands are made.
    """

    __slots__ = ("matrix", "_filter_operands", "_factor")

    def __init__(self, matrix: np.ndarray, factor: np.ndarray | None = None) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self._factor = factor
        self._filter_operands: tuple[np.ndarray, float, float] | None = None

    def __reduce__(self):
        # The bound's operands are rebuilt, not shipped to a worker.
        return (QFDKernel, (self.matrix,))

    def _operands(self) -> tuple[np.ndarray, float, float]:
        """:attr:`weights`, :attr:`mu` and :attr:`radius`, made once by their
        first use — a query, not the build."""
        operands = self._filter_operands
        if operands is None:
            with _OPERANDS_LOCK:
                operands = self._filter_operands
                if operands is None:
                    operands = (
                        *gram.spectral_floor(self.matrix, self._factor),
                        gram.abs_sum_radius(self.matrix),
                    )
                    self._filter_operands = operands
                    self._factor = None
        return operands

    @property
    def weights(self) -> np.ndarray:
        """``W``, ``n x k`` (``k = 0``: only the rank-0 bound certifies)."""
        return self._operands()[0]

    @property
    def mu(self) -> float:
        """``mu`` with ``(A + A^T) / 2 - W W^T - mu I`` certified positive
        semi-definite, or ``0.0`` (:func:`~repro.kernels.gram.spectral_floor`)."""
        return self._operands()[1]

    @property
    def radius(self) -> float:
        """``R >= || |A| ||_2`` (:func:`~repro.kernels.gram.abs_sum_radius`)."""
        return self._operands()[2]

    def project(self, shadow: np.ndarray) -> np.ndarray:
        """``shadow @ W`` in float64 (:func:`~repro.kernels.gram.qfd_project`)."""
        return gram.qfd_project(self.weights, shadow)

    def lower_bound(
        self,
        q: np.ndarray,
        shadow: np.ndarray | None,
        norms: np.ndarray,
        projected: np.ndarray | None = None,
        *,
        rows_exact: bool = False,
    ) -> np.ndarray:
        """Per row, a lower bound on the float64 path's squared distance,
        ``-inf`` where none is certain
        (:func:`~repro.kernels.gram.qfd_lower_bound`); *norms* is
        :func:`~repro.kernels.gram.shadow_norms` of the shadow and
        *projected* its :meth:`project`.  Without *projected* only
        ``mu ||v - q||^2`` counts; without *shadow* only the rank-k term."""
        weights, mu, radius = self._operands()
        return gram.qfd_lower_bound(
            mu, radius, q, shadow, norms,
            weights=None if projected is None else weights, projected=projected,
            rows_exact=rows_exact,
        )

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
