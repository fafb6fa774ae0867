"""The quadratic form distance (paper Sections 1.2 and 3.2).

``QFD_A(u, v) = sqrt((u - v) A (u - v)^T)`` for a static symmetric
positive-definite ``n x n`` matrix ``A``.  A diagonal ``A`` reduces the QFD
to a weighted Euclidean distance and ``A = I`` to the ordinary Euclidean
distance; these degenerate cases are covered by tests.

The class below validates the matrix once at construction and then offers
single-pair, one-against-many and pairwise evaluation.  Evaluation cost is
O(n^2) per pair — the very cost the QMap model removes.
"""

from __future__ import annotations

import numpy as np

from .._typing import ArrayLike, Matrix, Vector, as_square_matrix, as_vector, as_vector_batch
from ..exceptions import NotSymmetricError
from ..kernels.gram import _flush_subnormals, row_tiles
from .symmetrize import is_symmetric, symmetrize
from .validation import require_positive_definite

__all__ = ["QuadraticFormDistance"]


class QuadraticFormDistance:
    """A static-matrix quadratic form distance.

    Parameters
    ----------
    matrix:
        The ``n x n`` QFD matrix ``A``.  Must be strictly positive-definite.
        A non-symmetric matrix is accepted only with
        ``symmetrize_input=True``, in which case the QFD-equivalent
        symmetric matrix of paper Section 3.2.3 is substituted.
    symmetrize_input:
        Allow a general matrix and replace it by its symmetric part.

    Examples
    --------
    >>> import numpy as np
    >>> qfd = QuadraticFormDistance(np.eye(3))
    >>> round(qfd([0, 0, 0], [3, 4, 0]), 6)   # reduces to Euclidean
    5.0
    """

    def __init__(self, matrix: ArrayLike, *, symmetrize_input: bool = False) -> None:
        mat = as_square_matrix(matrix, name="QFD matrix")
        if not is_symmetric(mat):
            if not symmetrize_input:
                raise NotSymmetricError(
                    "QFD matrix is not symmetric; pass symmetrize_input=True "
                    "to substitute the equivalent symmetric matrix "
                    "(paper Section 3.2.3)"
                )
            mat = symmetrize(mat)
        require_positive_definite(mat, name="QFD matrix")
        self._matrix = mat
        self._matrix.setflags(write=False)

    @property
    def matrix(self) -> Matrix:
        """The validated symmetric positive-definite QFD matrix (read-only)."""
        return self._matrix

    @property
    def dim(self) -> int:
        """Dimensionality ``n`` of the histogram space."""
        return self._matrix.shape[0]

    def __call__(self, u: ArrayLike, v: ArrayLike) -> float:
        """Distance between two vectors: ``sqrt((u-v) A (u-v)^T)``."""
        return float(np.sqrt(self.squared(u, v)))

    def squared(self, u: ArrayLike, v: ArrayLike) -> float:
        """Squared form ``(u-v) A (u-v)^T`` without the square root.

        The squared value can be slightly negative from rounding when
        ``u ~ v``; it is clamped at zero so the metric postulates hold
        numerically.
        """
        z = as_vector(u, self.dim, name="u") - as_vector(v, self.dim, name="v")
        return max(float(z @ self._matrix @ z), 0.0)

    def one_to_many(self, q: ArrayLike, batch: ArrayLike) -> Vector:
        """Distances from *q* to every row of *batch*, vectorized.

        This is the workhorse of the sequential scan in the QFD model;
        still O(n^2) arithmetic per row, merely amortized through BLAS.
        The rows are read in :func:`~repro.kernels.gram.row_tiles`, so a
        memory-mapped float32 store is upcast one tile at a time.
        """
        query = as_vector(q, self.dim, name="q")
        rows = as_vector_batch(batch, self.dim, name="batch", keep_float32=True)
        out = np.empty(rows.shape[0], dtype=np.float64)
        for tile in row_tiles(rows.shape[0]):
            diff = _flush_subnormals(rows[tile] - query, inplace=True)
            # One BLAS gemm plus an elementwise reduction: still O(m n^2)
            # arithmetic, just with the best constants the QFD model can get.
            sq = np.einsum("ij,ij->i", diff @ self._matrix, diff)
            out[tile] = np.sqrt(np.maximum(sq, 0.0))
        return out

    def pairwise(self, batch: ArrayLike) -> Matrix:
        """Full ``m x m`` distance matrix over the rows of *batch*.

        Uses the Gram-matrix identity
        ``d(u,v)^2 = uAu^T + vAv^T - 2 uAv^T`` so the cost is one
        ``m x n @ n x n`` product instead of ``m^2`` separate forms.
        """
        rows = _flush_subnormals(as_vector_batch(batch, self.dim, name="batch"))
        cross = rows @ self._matrix @ rows.T
        norms = np.diag(cross)
        sq = norms[:, None] + norms[None, :] - (cross + cross.T)
        # Gram-expansion cancellation can leave tiny negative values (or a
        # nonzero diagonal); clamp and pin so the metric postulates hold
        # exactly: d(u, u) == 0 and d >= 0 even for near-singular PD
        # matrices.
        np.fill_diagonal(sq, 0.0)
        return np.sqrt(np.maximum(sq, 0.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QuadraticFormDistance(dim={self.dim})"
