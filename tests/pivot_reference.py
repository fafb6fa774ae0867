"""One-object-at-a-time LAESA: the reference the staged pivot table replays.

:class:`~repro.mam.pivot_table.PivotTable` bounds every object with a few
pivots, finishes the bound only for the objects that survive, and verifies
candidates in blocks.  This module *is* the algorithm those shortcuts must
reproduce, written the slow way: the full lower bound of every object from
the public ``table`` (one pivot, one pivot pair at a time), one stable sort
by ``(bound, index)``, one distance evaluation per visited object, stop at
the first bound above the current ``k``-th distance — "above" meaning
beyond that distance plus its rounding margin, written out here from the
public ``table`` (:func:`limit`) rather than read from the index.  It
never looks ahead,
so what it counts is what a query may charge; tests compare its answers,
its charges and its filter / refine counts with the library's.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

import numpy as np

from repro.mam.base import PRUNE_SLACK_REL, Neighbor


class Spent(NamedTuple):
    """What one query charges and reports — the ``QueryTrace`` fields."""

    scalar_evaluations: int
    batched_evaluations: int
    filter_checked: int
    filter_hits: int
    candidates: int

    @classmethod
    def of(cls, trace) -> "Spent":
        return cls(*(getattr(trace, name) for name in cls._fields))


def query_vector(table, query) -> np.ndarray:
    """``d(q, p_j)`` for every pivot, through the index's own port."""
    rows = table.database[table.pivot_indices]
    return table.distance.compute_many(np.asarray(query, dtype=np.float64), rows)


def lower_bounds(table, qv: np.ndarray) -> np.ndarray:
    """The operative lower bound of every object, term by term.

    Each term is the float the library computes (subtract / abs for a
    pivot; multiply, subtract, abs, divide for a pivot pair) and ``max``
    is exact, so the bounds are comparable with ``==``.
    """
    stored = table.table  # m x p
    lb = np.zeros(stored.shape[0], dtype=np.float64)
    p = qv.shape[0]
    if table.bound != "ptolemaic":
        for j in range(p):
            lb = np.maximum(lb, np.abs(stored[:, j] - qv[j]))
    if table.bound != "triangle":
        pair = table.pivot_pair_matrix
        for i in range(p):
            for j in range(i + 1, p):
                if pair[i, j] > 0.0:  # duplicate pivots bound nothing
                    term = np.abs(qv[i] * stored[:, j] - qv[j] * stored[:, i]) / pair[i, j]
                    lb = np.maximum(lb, term)
    return lb


def limit(table, qv: np.ndarray, radius: float) -> float:
    """What a bound is compared with: *radius* plus its rounding margin
    ``PRUNE_SLACK_REL (alpha radius + beta)``, the largest ``alpha`` and
    ``beta`` over the terms the bound mode takes — ``1`` and ``2 d(q, p)``
    for a pivot, ``1 + (a + c) / e`` and ``2 a c / e`` for a pivot pair
    (``a``, ``c`` its query distances, ``e`` its own).  Each is the float
    the library computes (adding one is monotone, so it commutes with
    ``max``)."""
    alpha, beta = 1.0, 0.0
    p = qv.shape[0]
    if table.bound != "ptolemaic":
        beta = max(2.0 * float(qv[j]) for j in range(p))
    if table.bound != "triangle":
        pair = table.pivot_pair_matrix
        for i in range(p):
            for j in range(i + 1, p):
                if pair[i, j] > 0.0:
                    a, c, e = float(qv[i]), float(qv[j]), float(pair[i, j])
                    alpha = max(alpha, 1.0 + (a + c) / e)
                    beta = max(beta, 2.0 * a * c / e)
    return radius + PRUNE_SLACK_REL * (alpha * radius + beta)


def _distance(table, query, index: int) -> float:
    rows = table.database[index : index + 1]
    return float(table.distance.compute_many(np.asarray(query, dtype=np.float64), rows)[0])


def reference_knn(table, query, k: int):
    """Best-first kNN; returns ``(neighbors, Spent)``."""
    qv = query_vector(table, query)
    lb = lower_bounds(table, qv)
    m = lb.shape[0]
    k = min(k, m)
    best: list[tuple[float, int]] = []  # max-heap of (-distance, -index)
    refined = 0
    for index in np.lexsort((np.arange(m), lb)).tolist():
        if len(best) == k and lb[index] > limit(table, qv, -best[0][0]):
            break
        dist = _distance(table, query, index)
        refined += 1
        item = (-dist, -index)
        if len(best) < k:
            heapq.heappush(best, item)
        elif item > best[0]:
            heapq.heapreplace(best, item)
    neighbors = sorted(Neighbor(-d, -i) for d, i in best)
    return neighbors, Spent(refined, qv.shape[0], m, refined, refined)


def reference_candidates(table, query, radius: float) -> int:
    """The number ``x`` of objects a range query cannot filter out."""
    qv = query_vector(table, query)
    return int(np.count_nonzero(lower_bounds(table, qv) <= limit(table, qv, radius)))


def reference_range(table, query, radius: float):
    """Filter by the bound, verify the rest; returns ``(neighbors, Spent)``."""
    qv = query_vector(table, query)
    lb = lower_bounds(table, qv)
    out = []
    candidates = np.flatnonzero(lb <= limit(table, qv, radius)).tolist()
    for index in candidates:
        dist = _distance(table, query, index)
        if dist <= radius:
            out.append(Neighbor(dist, index))
    x = len(candidates)
    return sorted(out), Spent(0, qv.shape[0] + x, lb.shape[0], x, x)
