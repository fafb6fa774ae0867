"""QBIC-style average-color lower bound, generalized (paper Section 2.3.1).

Faloutsos et al. (the paper's reference [14]) filter QFD range queries on
RGB histograms with a 3-dimensional bound: the distance between the images'
*average colors* — scaled by a constant — never exceeds the full histogram
QFD.  The classic result is specific to RGB; here it is generalized to any
QFD matrix and any linear feature map.

Given a projection ``P`` (each histogram maps to ``u P^T``, e.g. ``P`` =
the bin prototype colors, making ``u P^T`` the image's average color), the
largest constant ``c`` with

    QFD_A(u, v)^2 >= c * || (u - v) P^T ||^2     for all u, v

is ``c* = 1 / lambda_max(P A^{-1} P^T)``: the requirement is
``A - c P^T P`` positive-semidefinite, i.e. ``c <= 1 / lambda_max(A^{-1/2}
P^T P A^{-1/2})``, and that largest eigenvalue equals the one of
``P A^{-1} P^T``.  The map ``u -> sqrt(c*) u P^T`` is then contractive and
drives the same filter-and-refine machinery as the SVD reduction.
"""

from __future__ import annotations

import numpy as np

from .._typing import ArrayLike, Matrix, Vector, as_vector, as_vector_batch
from ..core.qfd import QuadraticFormDistance
from ..exceptions import DimensionMismatchError, MatrixError
from ..kernels.gram import l2_one_to_many

__all__ = ["ProjectionBound", "average_color_bound"]


class ProjectionBound:
    """Optimal contractive bound through a fixed linear projection.

    Parameters
    ----------
    qfd:
        The source distance (or raw QFD matrix).
    projection:
        ``(k, n)`` matrix ``P``; histograms map to ``u P^T`` in R^k.
    """

    def __init__(self, qfd: QuadraticFormDistance | ArrayLike, projection: ArrayLike) -> None:
        if not isinstance(qfd, QuadraticFormDistance):
            qfd = QuadraticFormDistance(qfd)
        proj = np.asarray(projection, dtype=np.float64)
        if proj.ndim != 2:
            raise DimensionMismatchError(f"projection must be 2-D, got shape {proj.shape}")
        if proj.shape[1] != qfd.dim:
            raise DimensionMismatchError(
                f"projection has {proj.shape[1]} columns, QFD space has dim {qfd.dim}"
            )
        if not np.isfinite(proj).all():
            raise MatrixError("projection contains non-finite entries")
        self._qfd = qfd
        self._projection = proj
        import scipy.linalg  # deferred: keeps `import repro` scipy-free

        # c* = 1 / lambda_max(P A^{-1} P^T); solve A X = P^T instead of
        # forming the inverse.
        x = scipy.linalg.solve(qfd.matrix, proj.T, assume_a="pos")
        gram = proj @ x
        lam_max = float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[-1])
        if lam_max <= 0.0:
            raise MatrixError("projection is identically zero; no usable bound")
        self._scale = 1.0 / np.sqrt(lam_max)
        self._map = self._scale * proj.T  # (n, k)
        self._map.setflags(write=False)

    @property
    def qfd(self) -> QuadraticFormDistance:
        """The exact source distance (used for refinement)."""
        return self._qfd

    @property
    def k(self) -> int:
        """Dimensionality of the projected space."""
        return self._projection.shape[0]

    @property
    def source_dim(self) -> int:
        """Source dimensionality ``n``."""
        return self._qfd.dim

    @property
    def scale(self) -> float:
        """The optimal contraction constant ``sqrt(c*)``."""
        return self._scale

    @property
    def map_matrix(self) -> Matrix:
        """The ``(n, k)`` contractive map ``sqrt(c*) P^T``."""
        return self._map

    def transform(self, u: ArrayLike) -> Vector:
        """Map one histogram to its scaled projected feature."""
        return as_vector(u, self.source_dim, name="u") @ self._map

    def transform_batch(self, batch: ArrayLike) -> Matrix:
        """Map a whole database."""
        return as_vector_batch(batch, self.source_dim, name="batch") @ self._map

    def lower_bound(self, u_reduced: ArrayLike, v_reduced: ArrayLike) -> float:
        """L2 in the projected space — a lower bound on the true QFD."""
        a = as_vector(u_reduced, self.k, name="u_reduced")
        b = as_vector(v_reduced, self.k, name="v_reduced")
        return float(np.linalg.norm(a - b))

    def lower_bound_one_to_many(self, q_reduced: ArrayLike, batch_reduced: ArrayLike) -> Vector:
        """Vectorized projected-space L2 from one query to many rows."""
        q = as_vector(q_reduced, self.k, name="q_reduced")
        return l2_one_to_many(q, as_vector_batch(batch_reduced, self.k, name="batch_reduced"))


def average_color_bound(
    qfd: QuadraticFormDistance | ArrayLike, prototypes: ArrayLike
) -> ProjectionBound:
    """The classic QBIC average-color bound.

    *prototypes* is the ``(n, 3)`` array of bin colors (e.g.
    :func:`repro.color.rgb_bin_prototypes`); a histogram's projection
    ``u P^T`` with ``P = prototypes^T`` is exactly its average color.
    """
    proto = np.asarray(prototypes, dtype=np.float64)
    if proto.ndim != 2:
        raise DimensionMismatchError(
            f"prototypes must be (n, c), got shape {proto.shape}"
        )
    return ProjectionBound(qfd, proto.T)
