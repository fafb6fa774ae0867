"""Rank-k SVD reduction of the QFD matrix (paper Section 2.3.1).

The transformational approach of Hafner et al. / Seidl & Kriegel: decompose
the symmetric PD matrix ``A = V diag(lambda) V^T`` and keep only the ``k``
largest eigenvalues.  The map ``u -> u V_k sqrt(diag(lambda_k))`` sends the
database into a k-dimensional Euclidean space where

    L2(u_k, v_k) <= QFD_A(u, v),

with equality at ``k = n`` (dropping the non-negative terms
``lambda_i ((u-v) V)_i^2`` for i > k can only shrink the squared form).
The bound is *contractive*, so a filter-and-refine search is exact but may
admit false positives — more of them as ``k`` shrinks, which is exactly the
drawback the paper holds against these methods (and which bench E_A1
measures).  At ``k = n`` this map is an alternative construction of the
QMap transformation itself: an orthogonal change of basis away from the
Cholesky factor.
"""

from __future__ import annotations

import numpy as np

from .._typing import ArrayLike, Matrix, Vector, as_vector, as_vector_batch
from ..core.qfd import QuadraticFormDistance
from ..exceptions import QueryError
from ..kernels.gram import l2_one_to_many

__all__ = ["SVDReduction"]


class SVDReduction:
    """Contractive rank-k reduction of a QFD space.

    Parameters
    ----------
    qfd:
        The source distance (or a raw matrix accepted by
        :class:`~repro.core.qfd.QuadraticFormDistance`).
    k:
        Target dimensionality, ``1 <= k <= n``.
    """

    def __init__(self, qfd: QuadraticFormDistance | ArrayLike, k: int) -> None:
        if not isinstance(qfd, QuadraticFormDistance):
            qfd = QuadraticFormDistance(qfd)
        n = qfd.dim
        if not 1 <= k <= n:
            raise QueryError(f"target rank must be in [1, {n}], got {k}")
        self._qfd = qfd
        self._k = k
        eigenvalues, eigenvectors = np.linalg.eigh(qfd.matrix)
        # eigh returns ascending order; keep the k largest.
        order = np.argsort(eigenvalues)[::-1][:k]
        lam = eigenvalues[order]
        vecs = eigenvectors[:, order]
        self._map = vecs * np.sqrt(lam)  # (n, k)
        self._map.setflags(write=False)
        #: Fraction of the total spectrum mass kept by the reduction.
        self.spectrum_coverage = float(lam.sum() / eigenvalues.sum())

    @property
    def qfd(self) -> QuadraticFormDistance:
        """The exact source distance (used for refinement)."""
        return self._qfd

    @property
    def k(self) -> int:
        """Target dimensionality."""
        return self._k

    @property
    def source_dim(self) -> int:
        """Source dimensionality ``n``."""
        return self._qfd.dim

    @property
    def map_matrix(self) -> Matrix:
        """The ``(n, k)`` reduction matrix ``V_k sqrt(diag(lambda_k))``."""
        return self._map

    def transform(self, u: ArrayLike) -> Vector:
        """Map one vector into the reduced space (O(nk))."""
        return as_vector(u, self.source_dim, name="u") @ self._map

    def transform_batch(self, batch: ArrayLike) -> Matrix:
        """Map a whole database into the reduced space."""
        return as_vector_batch(batch, self.source_dim, name="batch") @ self._map

    def lower_bound(self, u_reduced: ArrayLike, v_reduced: ArrayLike) -> float:
        """L2 in the reduced space — a lower bound on the true QFD."""
        a = as_vector(u_reduced, self._k, name="u_reduced")
        b = as_vector(v_reduced, self._k, name="v_reduced")
        return float(l2_one_to_many(a, b[None, :])[0])

    def lower_bound_one_to_many(self, q_reduced: ArrayLike, batch_reduced: ArrayLike) -> Vector:
        """Vectorized reduced-space L2 from one query row to many rows."""
        q = as_vector(q_reduced, self._k, name="q_reduced")
        return l2_one_to_many(q, as_vector_batch(batch_reduced, self._k, name="batch_reduced"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SVDReduction(n={self.source_dim}, k={self._k})"
