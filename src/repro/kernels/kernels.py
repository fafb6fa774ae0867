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
``filter(q, shadow)`` (QFD only)
    the certified float32 squared distances over a float32 copy of the
    rows (:func:`~repro.kernels.gram.qfd_shadow`), ``(s, delta)`` with
    ``|s - d64| <= delta``, that the sequential scan filters with before
    it evaluates in float64;
``lower_bound(q, shadow, norms)`` (QFD only)
    an O(n) certified lower bound on every row's ``d64``
    (:func:`~repro.kernels.gram.qfd_lower_bound`), which decides which
    rows the filter runs on at all.

Every QFD evaluation is one arithmetic, the difference form of
:func:`~repro.kernels.gram.qfd_one_to_many` (O(n^2) per row); the L2
kernel is what QMap buys, O(n) per row.  :func:`resolve_kernel` maps a
scalar distance function to its kernel, or ``None`` when no batched form
is known (the caller then falls back to the function's own vectorized
form or a plain loop).

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

    def one(self, row: np.ndarray, norm: float | None = None) -> float:
        """Distance from the bound query to a single row."""
        return float(self.many(np.asarray(row)[None, :])[0])


class QFDKernel:
    """Batched evaluator for a static QFD matrix: the difference form, its
    certified float32 filter over the upper triangle (:meth:`filter`) and
    the O(n) bound that runs before it (:meth:`lower_bound`).

    *factor*, a Cholesky factor of the matrix (the one a
    :class:`~repro.core.qfd.QuadraticFormDistance` made for its
    positive-definiteness check), spares :attr:`mu`'s estimate a
    factorization; it is dropped once :attr:`mu` is made.
    """

    __slots__ = ("matrix", "_filter_operands", "_factor")

    def __init__(self, matrix: np.ndarray, factor: np.ndarray | None = None) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self._factor = factor
        self._filter_operands: (
            tuple[np.ndarray, tuple[np.ndarray, ...], float, float] | None
        ) = None

    def __reduce__(self):
        # The filter's operands (mu included) are rebuilt, not shipped to a worker.
        return (QFDKernel, (self.matrix,))

    def _operands(self) -> tuple[np.ndarray, tuple[np.ndarray, ...], float, float]:
        """:attr:`triangle32`, its column blocks, :attr:`radius` and
        :attr:`mu`, made by their first use — a query, not the build;
        racing threads make the same values."""
        factor = self._factor  # read first: the build drops it after publishing
        operands = self._filter_operands
        if operands is None:
            operands = (
                *gram.qfd_triangle(self.matrix),
                gram.abs_sum_radius(self.matrix),
                gram.lambda_min_floor(self.matrix, factor),
            )
            self._filter_operands = operands
            self._factor = None
        return operands

    @property
    def triangle32(self) -> np.ndarray:
        """``triu(A + A^T, 1) + diag(A)`` in float32, flushed of float32
        subnormals (:func:`~repro.kernels.gram.qfd_triangle`)."""
        return self._operands()[0]

    @property
    def radius(self) -> float:
        """``R >= || |A| ||_2`` (:func:`~repro.kernels.gram.abs_sum_radius`)."""
        return self._operands()[2]

    @property
    def mu(self) -> float:
        """A certified lower bound on the smallest eigenvalue of the
        matrix's symmetric part, ``0.0`` when none above zero certifies
        (:func:`~repro.kernels.gram.lambda_min_floor`)."""
        return self._operands()[3]

    def filter(
        self, q: np.ndarray, shadow: np.ndarray, *, rows_exact: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(s, delta)`` per shadow row: the float32 squared distance and a
        bound on its distance from the float64 path's
        (:func:`~repro.kernels.gram.qfd_filter`)."""
        _, blocks, radius, _ = self._operands()
        return gram.qfd_filter(blocks, radius, q, shadow, rows_exact=rows_exact)

    def lower_bound(
        self, q: np.ndarray, shadow: np.ndarray, norms: np.ndarray, *, rows_exact: bool = False
    ) -> np.ndarray:
        """Per shadow row, a lower bound on the float64 path's squared
        distance, ``-inf`` where none is certain
        (:func:`~repro.kernels.gram.qfd_lower_bound`); *norms* is
        :func:`~repro.kernels.gram.shadow_norms` of *shadow*."""
        _, _, radius, mu = self._operands()
        return gram.qfd_lower_bound(mu, radius, q, shadow, norms, rows_exact=rows_exact)

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
        return QFDKernel(func.matrix, func.cholesky_factor)
    from ..distances.minkowski import euclidean

    if func is euclidean:
        return L2Kernel()
    return None
