"""Pivot selection techniques (Bustos, Navarro & Chávez — paper reference [10]).

The pivot table of Section 4.2 first selects ``p`` pivots "based on a pivot
selection technique" over a database sample of size ``s``, spending ``c``
distance computations.  Three standard techniques are implemented:

* ``random`` — uniform sample, the zero-cost baseline;
* ``maxmin`` — incremental farthest-first: each new pivot maximizes its
  minimum distance to the pivots chosen so far (outlier pivots);
* ``spread`` — the Bustos et al. efficiency criterion: pick, from random
  candidate sets, the pivot maximizing the mean of the pivot-mapped L∞
  lower bound over sampled object pairs (maximizing the distances in the
  pivot space makes the filter tighter).

All techniques charge their distance evaluations to the supplied
:class:`~repro.mam.base.DistancePort`, so the indexing-cost experiments
(Table 1, Figure 3) account for selection exactly like the paper does.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import QueryError
from .base import DistancePort

__all__ = ["select_pivots", "PIVOT_METHODS"]

PIVOT_METHODS = ("random", "maxmin", "spread")


def _duplicates_row(data: np.ndarray, idx: int, chosen: list[int]) -> bool:
    """Whether row *idx* is byte-equal to an already chosen pivot row.

    Row equality implies zero distance under any metric, so checking the
    raw vectors costs no distance evaluations — crucial for keeping the
    ``random`` technique free of charges.
    """
    row = data[idx]
    return any(np.array_equal(row, data[c]) for c in chosen)


def _distinct_fallback(data: np.ndarray, pivots: list[int]) -> int:
    """First unused index whose row duplicates no chosen pivot.

    Databases with repeated vectors used to let two copies of the same
    vector become two pivots — a silently wasted pivot for the triangle
    bound, and a zero denominator ``d(p1, p2)`` for the Ptolemaic bound.
    Prefer a content-distinct row; only when every unused row coincides
    with a pivot does a duplicate get accepted, honoring the requested
    pivot count (the Ptolemaic kernel drops zero-distance pairs anyway).
    """
    m = data.shape[0]
    for i in range(m):
        if i not in pivots and not _duplicates_row(data, i, pivots):
            return i
    for i in range(m):
        if i not in pivots:
            return i
    raise QueryError("no unused pivot candidates remain")  # unreachable: p <= m


def _random_pivots(data: np.ndarray, p: int, rng: np.random.Generator) -> list[int]:
    draw = [int(i) for i in rng.choice(data.shape[0], size=p, replace=False)]
    pivots: list[int] = []
    for idx in draw:
        if not _duplicates_row(data, idx, pivots):
            pivots.append(idx)
    # Duplicate vectors drawn twice: top up with distinct unused rows so
    # the requested pivot count survives repeated-vector databases.
    while len(pivots) < p:
        pivots.append(_distinct_fallback(data, pivots))
    return pivots


def _maxmin_pivots(
    data: np.ndarray, p: int, port: DistancePort, rng: np.random.Generator
) -> tuple[list[int], list[np.ndarray]]:
    """Farthest-first pivots and each one's distance vector to every row."""
    m = data.shape[0]
    pivots = [int(rng.integers(0, m))]
    columns = [port.many(data[pivots[0]], data)]
    min_dist = columns[0]
    while len(pivots) < p:
        candidate = int(np.argmax(min_dist))
        if candidate in pivots or min_dist[candidate] <= 0.0:
            # Every remaining object is at distance zero from a chosen
            # pivot (repeated vectors, or a degenerate semi-metric);
            # argmax would happily promote a duplicate.  Fall back to a
            # content-distinct unused row when one exists.
            candidate = _distinct_fallback(data, pivots)
        pivots.append(candidate)
        columns.append(port.many(data[candidate], data))
        min_dist = np.minimum(min_dist, columns[-1])
    return pivots, columns


def _spread_pivots(
    data: np.ndarray,
    p: int,
    port: DistancePort,
    rng: np.random.Generator,
    *,
    candidates: int = 8,
    pairs: int = 32,
) -> list[int]:
    m = data.shape[0]
    pair_idx = rng.integers(0, m, size=(pairs, 2))
    pivots: list[int] = []
    # Lower bound contributed so far for each evaluation pair.
    best_lb = np.zeros(pairs, dtype=np.float64)
    for _ in range(p):
        cand_pool = [int(c) for c in rng.choice(m, size=min(candidates, m), replace=False)
                     if c not in pivots and not _duplicates_row(data, int(c), pivots)]
        if not cand_pool:
            cand_pool = [_distinct_fallback(data, pivots)]
        best_candidate, best_gain = cand_pool[0], -1.0
        for cand in cand_pool:
            d_left = port.many(data[cand], data[pair_idx[:, 0]])
            d_right = port.many(data[cand], data[pair_idx[:, 1]])
            lb = np.maximum(best_lb, np.abs(d_left - d_right))
            gain = float(lb.mean())
            if gain > best_gain:
                best_candidate, best_gain, best_lb_candidate = cand, gain, lb
        pivots.append(int(best_candidate))
        best_lb = best_lb_candidate
    return pivots


def select_pivots(
    data: np.ndarray,
    p: int,
    port: DistancePort,
    *,
    method: str = "maxmin",
    sample_size: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Select ``p`` pivot indices from the rows of *data*.

    Parameters
    ----------
    data:
        The ``(m, n)`` database.
    p:
        Number of pivots; must satisfy ``1 <= p <= m``.
    port:
        Distance port charged for every selection-time evaluation.
    method:
        One of :data:`PIVOT_METHODS`.
    sample_size:
        Restrict selection to a random sample of this size (the paper's
        ``s``); ``None`` uses the whole database.
    rng:
        Randomness source; defaults to a fixed seed for reproducibility.
    """
    return _select(data, p, port, method, sample_size, rng)[0]


def select_pivot_columns(
    data: np.ndarray, p: int, port: DistancePort, **selection
) -> tuple[list[int], np.ndarray]:
    """:func:`select_pivots` plus the pivot-major ``p x m`` distance table.

    Whole-database max-min selection has evaluated exactly those vectors:
    they are kept, not recomputed, and the table phase still charges its
    ``p * m`` — the paper prices selection and table separately (4.2.1).
    """
    pivots, columns = _select(data, p, port, **selection)
    if columns is None:
        columns = [port.many(data[j], data) for j in pivots]
    else:
        port.charge(rows=p * data.shape[0])
    return pivots, np.stack(columns)


def _select(
    data: np.ndarray, p: int, port: DistancePort, method: str = "maxmin",
    sample_size: int | None = None, rng: np.random.Generator | None = None,
) -> tuple[list[int], list[np.ndarray] | None]:
    """The pivots, and their columns where selection scanned all of *data*."""
    m = data.shape[0]
    if not 1 <= p <= m:
        raise QueryError(f"p must be in [1, {m}], got {p}")
    if method not in PIVOT_METHODS:
        raise QueryError(f"unknown pivot method {method!r}; choose from {PIVOT_METHODS}")
    rng = np.random.default_rng(0) if rng is None else rng

    if sample_size is not None and sample_size < m:
        if sample_size < p:
            raise QueryError(f"sample_size {sample_size} is smaller than p={p}")
        sample = rng.choice(m, size=sample_size, replace=False)
        subset = data[sample]
    else:
        # Whole-database selection: keep the stored array itself.  A
        # fancy-indexed copy would materialize a memory-mapped database
        # on the heap and, having a fresh identity, miss the port's
        # cached row norms on every selection scan.
        sample = np.arange(m)
        subset = data
    columns = None
    if method == "random":
        local = _random_pivots(subset, p, rng)
    elif method == "maxmin":
        local, columns = _maxmin_pivots(subset, p, port, rng)
    else:
        local = _spread_pivots(subset, p, port, rng)
    return [int(sample[i]) for i in local], columns if subset is data else None
