"""Minkowski (Lp) distances (paper Section 1.1).

The paper's Section 1.1 introduces the Lp family

    Lp(u, v) = (sum_i |u_i - v_i|^p)^(1/p),   p >= 1

with the Manhattan (L1), Euclidean (L2) and Chessboard (L-infinity)
members used in multimedia retrieval, plus the weighted Euclidean variant
that a diagonal QFD matrix reduces to.  All are O(n) per evaluation —
the qualitative advantage the QMap model buys for the QFD.
"""

from __future__ import annotations

import numpy as np

from .._typing import ArrayLike, Vector, as_vector, as_vector_batch
from ..exceptions import QueryError
from ..kernels.gram import l2_one_to_many

__all__ = [
    "minkowski",
    "manhattan",
    "euclidean",
    "chessboard",
    "weighted_euclidean",
    "euclidean_one_to_many",
    "MinkowskiDistance",
    "WeightedEuclidean",
]


def minkowski(u: ArrayLike, v: ArrayLike, p: float) -> float:
    """General Lp distance for ``p >= 1`` (``p = inf`` gives the chessboard)."""
    if p < 1.0:
        raise QueryError(f"Minkowski order must satisfy p >= 1, got {p}")
    a = as_vector(u, name="u")
    b = as_vector(v, a.shape[0], name="v")
    diff = np.abs(a - b)
    if np.isinf(p):
        return float(diff.max(initial=0.0))
    return float(np.power(np.power(diff, p).sum(), 1.0 / p))


def manhattan(u: ArrayLike, v: ArrayLike) -> float:
    """L1 (Manhattan) distance."""
    a = as_vector(u, name="u")
    b = as_vector(v, a.shape[0], name="v")
    return float(np.abs(a - b).sum())


def euclidean(u: ArrayLike, v: ArrayLike) -> float:
    """L2 (Euclidean) distance — the target space of the QMap model."""
    a = as_vector(u, name="u")
    b = as_vector(v, a.shape[0], name="v")
    return float(np.linalg.norm(a - b))


def chessboard(u: ArrayLike, v: ArrayLike) -> float:
    """L-infinity (Chessboard) distance."""
    a = as_vector(u, name="u")
    b = as_vector(v, a.shape[0], name="v")
    return float(np.abs(a - b).max(initial=0.0))


def weighted_euclidean(u: ArrayLike, v: ArrayLike, weights: ArrayLike) -> float:
    """Weighted L2 — what the QFD degenerates to for a diagonal matrix."""
    a = as_vector(u, name="u")
    b = as_vector(v, a.shape[0], name="v")
    w = as_vector(weights, a.shape[0], name="weights")
    if np.any(w < 0.0):
        raise QueryError("weights must be non-negative")
    diff = a - b
    return float(np.sqrt(np.sum(w * diff * diff)))


def euclidean_one_to_many(q: ArrayLike, batch: ArrayLike) -> Vector:
    """Vectorized L2 distances from *q* to every row of *batch*."""
    query = as_vector(q, name="q")
    return l2_one_to_many(query, as_vector_batch(batch, query.shape[0], name="batch"))


class MinkowskiDistance:
    """Callable Lp distance with a fixed order *p*.

    Useful where an access method expects a two-argument distance function.
    """

    def __init__(self, p: float) -> None:
        if p < 1.0:
            raise QueryError(f"Minkowski order must satisfy p >= 1, got {p}")
        self._p = float(p)

    @property
    def p(self) -> float:
        """The Minkowski order."""
        return self._p

    def __call__(self, u: ArrayLike, v: ArrayLike) -> float:
        return minkowski(u, v, self._p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MinkowskiDistance(p={self._p})"


class WeightedEuclidean:
    """Callable weighted L2 distance with fixed strictly-positive weights."""

    def __init__(self, weights: ArrayLike) -> None:
        w = as_vector(weights, name="weights")
        if np.any(w <= 0.0):
            raise QueryError("weights must be strictly positive for a metric")
        self._weights = w
        self._weights.setflags(write=False)

    @property
    def weights(self) -> Vector:
        """The per-dimension weights (read-only)."""
        return self._weights

    def __call__(self, u: ArrayLike, v: ArrayLike) -> float:
        return weighted_euclidean(u, v, self._weights)

    def one_to_many(self, q: ArrayLike, batch: ArrayLike) -> Vector:
        """Vectorized weighted-L2 distances from *q* to each row of *batch*."""
        query = as_vector(q, self._weights.shape[0], name="q")
        rows = as_vector_batch(batch, self._weights.shape[0], name="batch")
        diff = rows - query
        return np.sqrt(np.einsum("ij,j,ij->i", diff, self._weights, diff))
