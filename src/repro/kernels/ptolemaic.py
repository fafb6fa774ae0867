"""Ptolemaic pivot lower bounds (Hetland — *Ptolemaic Indexing*).

The QMap embedding is an exact isometry into L2, so the QFD is not just a
metric but a *Ptolemaic* metric: any four points satisfy Ptolemy's
inequality ``d(a,b) d(c,d) <= d(a,c) d(b,d) + d(a,d) d(b,c)``.  Rearranged
for a query ``q``, candidate ``v`` and a pivot pair ``(p1, p2)`` it yields
the pivot lower bound

    d(q, v) >= |d(q,p1) d(v,p2) - d(q,p2) d(v,p1)| / d(p1, p2)

which is frequently far tighter than the triangle bound
``max_j |d(q,p_j) - d(v,p_j)|`` the classic pivot table uses — the paper's
Table 2 shows pivot filtering under raw QFD wasting most of its budget on
the weak triangle bound, and this module supplies the stronger one.

The functions here are pure array math over the *pre-computed* pivot
distances (the ``m x p`` pivot table, the query's ``p`` pivot distances and
the ``p x p`` pivot-pair matrix); they never evaluate the metric, so the
logical charging discipline of :class:`repro.mam.base.DistancePort` is
untouched.  The vectorized form is arranged so every elementwise
operation (multiply, subtract, abs, divide, max) is performed on exactly
the floats of :func:`ptolemaic_bound_scalar`, giving the same bit-identical
vectorized/scalar guarantee as the Gram kernels in :mod:`repro.kernels.gram`.

Degenerate pivot pairs (``d(p1,p2) <= 0`` — duplicate pivot vectors) would
put a zero in the denominator; :func:`valid_pivot_pairs` excludes them up
front, so the bound gracefully degrades (to ``0.0`` when *no* usable pair
exists) instead of dividing by zero.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "valid_pivot_pairs",
    "ptolemaic_bound_scalar",
    "ptolemaic_bounds",
]

#: Pair-axis block size for the batched form: bounds each temporary to
#: roughly ``_BLOCK_FLOATS`` doubles (512 KB, cache-resident — measured 2x
#: faster than one 32 MB pass at m = 4 000, p = 32) regardless of ``m`` or
#: the number of pivot pairs.
_BLOCK_FLOATS = 65_536


def valid_pivot_pairs(pair_distances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(i, j)`` of the usable pivot pairs (``i < j``).

    A pair is usable when its pivot-pivot distance is strictly positive;
    zero-distance pairs (duplicate pivots) would make the Ptolemaic
    denominator vanish and are dropped here once, at bind time.
    """
    d = np.asarray(pair_distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"pair_distances must be square, got shape {d.shape}")
    ii, jj = np.triu_indices(d.shape[0], k=1)
    keep = d[ii, jj] > 0.0
    return ii[keep], jj[keep]


def ptolemaic_bound_scalar(
    row: np.ndarray,
    query_vector: np.ndarray,
    pair_distances: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
) -> float:
    """Reference scalar evaluation of the max-over-pairs Ptolemaic bound.

    *row* is one object's pivot-distance row ``d(v, p_*)`` and
    *query_vector* the query's ``d(q, p_*)``.  This is the ground truth the
    batched forms must reproduce bit-for-bit (same multiply/subtract/abs/
    divide sequence per pair, and max is exact), mirroring the scalar
    fallback discipline of the Gram kernels.
    """
    ii, jj = pairs
    best = 0.0
    for i, j in zip(ii, jj):
        num = abs(query_vector[i] * row[j] - query_vector[j] * row[i])
        lb = num / pair_distances[i, j]
        if lb > best:
            best = lb
    return best


def ptolemaic_bounds(
    table: np.ndarray,
    query_vector: np.ndarray,
    pair_distances: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Max-over-pivot-pairs Ptolemaic lower bound for every table row.

    Parameters
    ----------
    table:
        The ``(m, p)`` pivot table of object-pivot distances.
    query_vector:
        The query's ``(p,)`` pivot distances.
    pair_distances:
        The ``(p, p)`` pivot-pair distance matrix.
    pairs:
        The usable pairs from :func:`valid_pivot_pairs`.
    out:
        Optional ``(m,)`` accumulator; bounds are max-merged into it
        (used by the ``"best"`` mode to combine with the triangle bound).

    Batched over candidates and pivot pairs in blocks, with each
    elementwise step ordered exactly like :func:`ptolemaic_bound_scalar` —
    only the commutative/exact ``max`` reduction is reordered, so the
    result is bit-identical to the scalar loop.
    """
    ii, jj = pairs
    m = table.shape[0]
    if out is None:
        out = np.zeros(m, dtype=np.float64)
    if ii.size == 0 or m == 0:
        return out
    denom = pair_distances[ii, jj][:, None]
    # One row per pivot: contiguous when the caller holds the table
    # pivot-major (as PivotTable does), a strided view otherwise.
    columns = table.T
    block = max(1, _BLOCK_FLOATS // max(1, m))
    for start in range(0, ii.size, block):
        bi = ii[start : start + block]
        bj = jj[start : start + block]
        # (b, m): |d(q,p_i) d(v,p_j) - d(q,p_j) d(v,p_i)| / d(p_i, p_j)
        lb = query_vector[bi, None] * columns[bj]
        lb -= query_vector[bj, None] * columns[bi]
        np.abs(lb, out=lb)
        lb /= denom[start : start + block]
        np.maximum(out, lb.max(axis=0), out=out)
    return out
