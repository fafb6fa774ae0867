"""Distance kernels: per-metric batched evaluators and query contexts.

A *kernel* packages the Gram-expansion math of :mod:`repro.kernels.gram`
behind a small object interface the access-method layer can hold on to:

``row_norms(rows)``
    the cacheable per-row term (``vAv^T`` for QFD, ``vv^T`` for L2);
``bind(query, ...) -> QueryContext``
    precompute the per-query terms once (``qA`` and ``qAq^T``) so every
    subsequent candidate costs one O(n) dot product;
``one_to_many`` / ``pairwise`` / ``cross``
    free-standing batched forms for build-time work.

:func:`resolve_kernel` maps a scalar distance function to its kernel, or
``None`` when no batched form is known (the caller then falls back to the
function's own vectorized form or a plain loop).

There is one arithmetic per kernel, whatever the rows' store: float32 rows
(a memory-mapped database) are upcast to float64 before any product, so
they give the floats of their float64 copy, and database-sized operands
are read in :func:`~repro.kernels.gram.row_tiles`.
"""

from __future__ import annotations

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


class QFDQueryContext:
    """Per-query amortization for the QFD: ``qA`` and ``qAq^T`` once.

    After binding, each candidate distance is
    ``sqrt(qAq^T - 2 qA.v + vAv^T)`` — O(n) with a cached row norm instead
    of the O(n^2) quadratic form per pair.
    """

    __slots__ = ("_kernel", "query", "q_a", "q_norm")

    def __init__(self, kernel: "QFDKernel", query: np.ndarray) -> None:
        self._kernel = kernel
        self.query = np.asarray(query, dtype=np.float64)
        # gemv, not part of a chunk-wide gemm: per-query BLAS paths must be
        # identical no matter how many queries share the bind site.
        self.q_a = self.query @ kernel.matrix
        self.q_norm = float(self.q_a @ self.query)

    def many(self, rows: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
        """Distances from the bound query to every row."""
        return gram.qfd_one_to_many(
            self._kernel.matrix,
            self.query,
            rows,
            row_norms=norms,
            q_a=self.q_a,
            q_norm=self.q_norm,
        )

    def one(self, row: np.ndarray, norm: float | None = None) -> float:
        """Distance from the bound query to a single row."""
        row = np.asarray(row, dtype=np.float64)
        if norm is None:
            g = row @ self._kernel.matrix
            norm = float(g @ row)
        sq = self.q_norm + norm - 2.0 * float(row @ self.q_a)
        if sq <= gram.RECHECK_REL * (self.q_norm + norm):
            diff = row - self.query
            sq = float(diff @ self._kernel.matrix @ diff)
        return float(np.sqrt(sq if sq > 0.0 else 0.0))


class QFDKernel:
    """Batched Gram-expansion evaluator for a static QFD matrix."""

    __slots__ = ("matrix",)

    #: The bound context's Gram expansion reads the cached ``vAv^T`` terms.
    context_uses_norms = True

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)

    def row_norms(self, rows: np.ndarray) -> np.ndarray:
        return gram.qfd_row_norms(self.matrix, rows)

    def bind(self, query: np.ndarray) -> QFDQueryContext:
        return QFDQueryContext(self, query)

    def one_to_many(
        self, q: np.ndarray, rows: np.ndarray, *, row_norms: np.ndarray | None = None
    ) -> np.ndarray:
        return gram.qfd_one_to_many(self.matrix, q, rows, row_norms=row_norms)

    def pairwise(
        self, rows: np.ndarray, *, row_norms: np.ndarray | None = None
    ) -> np.ndarray:
        return gram.qfd_pairwise(self.matrix, rows, row_norms=row_norms)

    def cross(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        *,
        norms_a: np.ndarray | None = None,
        norms_b: np.ndarray | None = None,
    ) -> np.ndarray:
        return gram.qfd_cross(
            self.matrix, rows_a, rows_b, norms_a=norms_a, norms_b=norms_b
        )


class L2QueryContext:
    """Per-query context for L2 — difference-based by design.

    The diff form is exact near zero and bit-identical to
    :func:`repro.distances.minkowski.euclidean_one_to_many`, which keeps the
    QMap model's mapped-space results exactly equal to a plain scan; the
    Gram form for L2 is exposed only through the kernel's batch methods.
    """

    __slots__ = ("query",)

    def __init__(self, query: np.ndarray) -> None:
        self.query = np.asarray(query, dtype=np.float64)

    def many(self, rows: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
        return gram.l2_one_to_many(self.query, rows)

    def one(self, row: np.ndarray, norm: float | None = None) -> float:
        return float(np.linalg.norm(np.asarray(row, dtype=np.float64) - self.query))


class L2Kernel:
    """Batched evaluator for the Euclidean distance."""

    __slots__ = ()

    #: :class:`L2QueryContext` is difference-based and ignores row norms,
    #: so callers need not compute, cache or gather them.
    context_uses_norms = False

    def row_norms(self, rows: np.ndarray) -> np.ndarray:
        return gram.l2_row_norms(rows)

    def bind(self, query: np.ndarray) -> L2QueryContext:
        return L2QueryContext(query)

    def one_to_many(
        self, q: np.ndarray, rows: np.ndarray, *, row_norms: np.ndarray | None = None
    ) -> np.ndarray:
        return gram.l2_one_to_many(q, rows)

    def pairwise(
        self, rows: np.ndarray, *, row_norms: np.ndarray | None = None
    ) -> np.ndarray:
        return gram.l2_pairwise(rows, row_norms=row_norms)

    def cross(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        *,
        norms_a: np.ndarray | None = None,
        norms_b: np.ndarray | None = None,
    ) -> np.ndarray:
        return gram.l2_cross(rows_a, rows_b, norms_a=norms_a, norms_b=norms_b)


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
        return QFDKernel(func.matrix)
    from ..distances.minkowski import euclidean

    if func is euclidean:
        return L2Kernel()
    return None
