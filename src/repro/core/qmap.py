"""The QMap model — homeomorphic QFD-to-Euclidean transformation (Section 3.3).

Given the static QFD matrix ``A`` and its Cholesky factor ``B`` with
``A = B B^T`` (Section 3.2.2), the paper derives

    QFD_A(u, v)^2 = (u - v) B B^T (u - v)^T = (uB - vB)(uB - vB)^T
                  = L2(uB, vB)^2

so the linear map ``u -> uB`` carries the QFD space onto an equivalent
Euclidean space with *exactly* preserved distances.  Databases transformed
this way can be indexed by any unmodified metric (or spatial) access method,
paying O(n) per distance instead of O(n^2).

:class:`QMap` encapsulates the factorization and the forward/inverse maps.
The transformation itself costs O(n^2) per vector (one matrix-to-vector
product), which is why indexing a *sequential file* is the single case in
Table 1 where the raw QFD model wins.
"""

from __future__ import annotations

import numpy as np

from .._typing import ArrayLike, Matrix, Vector, as_vector, as_vector_batch
from ..distances.minkowski import euclidean
from ..kernels.cholesky_cache import cached_cholesky
from ..kernels.gram import _flush_subnormals
from .qfd import QuadraticFormDistance

__all__ = ["QMap"]

#: Most floats per product of :meth:`QMap.transform_batch`: bounds the flushed copy (8 MB).
_TILE_FLOATS = 1 << 20


class QMap:
    """Transforms vectors from a QFD space to the equivalent Euclidean space.

    Parameters
    ----------
    qfd:
        The quadratic form distance to map, or a raw QFD matrix accepted by
        :class:`~repro.core.qfd.QuadraticFormDistance`.

    Examples
    --------
    >>> import numpy as np
    >>> a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
    >>> qmap = QMap(a)
    >>> u, v = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    >>> l2 = qmap.euclidean(qmap.transform(u), qmap.transform(v))
    >>> bool(np.isclose(l2, qmap.qfd(u, v)))
    True
    """

    def __init__(self, qfd: QuadraticFormDistance | ArrayLike) -> None:
        if not isinstance(qfd, QuadraticFormDistance):
            qfd = QuadraticFormDistance(qfd)
        self._qfd = qfd
        # Content-addressed cache: experiment sweeps construct many QMaps
        # over the same handful of matrices, so the O(n^3) factorization is
        # paid once per distinct matrix (the factor is already read-only).
        self._b = cached_cholesky(qfd.matrix)
        # B factors the matrix the QFD's positive-definiteness check
        # factored: the QFD keeps this shared copy instead of its own.
        qfd._factor = self._b

    @property
    def qfd(self) -> QuadraticFormDistance:
        """The source quadratic form distance."""
        return self._qfd

    @property
    def matrix(self) -> Matrix:
        """The transformation matrix ``B`` (lower-triangular Cholesky factor)."""
        return self._b

    @property
    def dim(self) -> int:
        """Dimensionality of both the source and target spaces (``k = n``)."""
        return self._qfd.dim

    def transform(self, u: ArrayLike) -> Vector:
        """Map one vector into the Euclidean space: ``u' = u B``  (O(n^2))."""
        return _flush_subnormals(as_vector(u, self.dim, name="u")) @ self._b

    def transform_batch(self, batch: ArrayLike) -> Matrix:
        """Map a whole ``(m, n)`` database at once: ``U' = U B``.

        Subnormal entries are flushed first (an x86 assist per multiply-add,
        for < 1e-308 of a mapped entry), a tile of rows at a time so the copy
        stays small.  Tiles are few (each product is a thread rendezvous) and
        near-equal: a remainder of a few rows takes BLAS's small-matrix path,
        whose last ulp differs from a tall product's.
        """
        rows = as_vector_batch(batch, self.dim, name="batch")
        out = np.empty(rows.shape, dtype=np.float64)
        edges = np.linspace(0, len(rows), -(-rows.size // _TILE_FLOATS) + 1, dtype=int)
        for start, stop in zip(edges[:-1], edges[1:]):
            np.matmul(_flush_subnormals(rows[start:stop]), self._b, out=out[start:stop])
        return out

    def inverse_transform(self, u_prime: ArrayLike) -> Vector:
        """Map a Euclidean-space vector back to the QFD space.

        ``B`` is lower-triangular with positive diagonal, hence invertible;
        a triangular solve recovers ``u`` from ``u' = u B`` — the map is a
        homeomorphism, as the paper's title transformation requires.
        """
        # Imported here: no build, query or restore inverts the map, and
        # scipy.linalg is half of the package's import time.
        import scipy.linalg

        vec = as_vector(u_prime, self.dim, name="u_prime")
        # u' = u B  <=>  B^T u^T = u'^T; B^T is upper-triangular.
        return scipy.linalg.solve_triangular(self._b.T, vec, lower=False)

    def inverse_transform_batch(self, batch: ArrayLike) -> Matrix:
        """Inverse map for a batch of row vectors."""
        import scipy.linalg

        rows = as_vector_batch(batch, self.dim, name="batch")
        return scipy.linalg.solve_triangular(self._b.T, rows.T, lower=False).T

    def euclidean(self, u_prime: ArrayLike, v_prime: ArrayLike) -> float:
        """L2 distance in the target space (equals the source-space QFD)."""
        a = as_vector(u_prime, self.dim, name="u_prime")
        b = as_vector(v_prime, self.dim, name="v_prime")
        return euclidean(a, b)

    def distance_via_map(self, u: ArrayLike, v: ArrayLike) -> float:
        """QFD computed the QMap way: transform both vectors, then L2.

        Exposed for tests and didactic use; real deployments transform each
        vector once at indexing time and never per-distance.
        """
        return self.euclidean(self.transform(u), self.transform(v))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QMap(dim={self.dim})"
