"""M-index (Novak & Batko) — simplified single-level variant.

Paper Section 2.2 lists the M-index among the representative MAMs.  The
structure combines pivot clustering with iDistance-style scalar keys:

* each object is assigned to the *cluster* of its nearest pivot;
* within a cluster, objects are ordered by their distance to the cluster
  pivot (the scalar key), enabling interval scans;
* the full object-to-pivot distance table is kept for LAESA-style
  filtering of interval candidates.

A range query ``(q, r)`` visits, per cluster ``i``, only the key interval
``[d(q, p_i) - r, d(q, p_i) + r]`` (a binary search), then filters the
interval candidates with the pivot-table L∞ lower bound before any exact
distance is paid.  kNN runs the classic iterative strategy: range queries
with a growing radius until the kth neighbor is provably inside.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Callable

import numpy as np

from .._typing import ArrayLike
from ..exceptions import QueryError, StorageError
from ..obs.events import ROOT
from .base import (
    AccessMethod,
    BoundQuery,
    DistancePort,
    Neighbor,
    NodeBatchedSearchMixin,
    grown,
    state_array,
    state_float,
)
from .pivots import select_pivot_columns

if TYPE_CHECKING:
    from ..engine.trace import QueryTrace

__all__ = ["MIndex"]


class MIndex(NodeBatchedSearchMixin, AccessMethod):
    """Single-level M-index over a black-box metric.

    Parameters
    ----------
    database:
        ``(m, n)`` rows to index.
    distance:
        Black-box metric (port or plain callable).
    n_pivots:
        Number of pivots (= clusters).
    pivot_method:
        Pivot selection technique (see :mod:`repro.mam.pivots`).
    rng:
        Randomness for pivot selection.
    growth:
        Radius multiplier of the iterative kNN strategy (> 1).
    """

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        n_pivots: int = 16,
        pivot_method: str = "maxmin",
        rng: np.random.Generator | None = None,
        growth: float = 2.0,
    ) -> None:
        super().__init__(database, distance)
        if growth <= 1.0:
            raise QueryError(f"radius growth factor must exceed 1, got {growth}")
        self._growth = growth
        n_pivots = min(n_pivots, self.size)
        self._pivot_indices, columns = select_pivot_columns(
            self._data, n_pivots, self._port, method=pivot_method, rng=rng
        )
        self._pivot_rows = self._data[self._pivot_indices]
        # (capacity, p): inserts grow it, rows past ``size`` are spare.
        self._table = np.ascontiguousarray(columns.T)
        self._assign_clusters()

    def _assign_clusters(self) -> None:
        owner = np.argmin(self._table, axis=1)  # build / restore: no spare rows yet
        keys = self._table[np.arange(self.size), owner]
        p = len(self._pivot_indices)
        self._cluster_keys: list[np.ndarray] = []
        self._cluster_members: list[np.ndarray] = []
        for cluster in range(p):
            members = np.flatnonzero(owner == cluster)
            order = np.argsort(keys[members], kind="stable")
            self._cluster_members.append(members[order])
            self._cluster_keys.append(keys[members][order])

    def structural_state(self) -> dict[str, np.ndarray]:
        return {
            "pivot_indices": np.asarray(self._pivot_indices, dtype=np.int64),
            "table": self._table[: self.size].copy(),
            "growth": np.float64(self._growth),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        pivot_list = [int(i) for i in state_array(state, "pivot_indices")]
        if not pivot_list:
            raise StorageError("pivot index list must not be empty")
        for i in pivot_list:
            if not 0 <= i < self.size:
                raise StorageError(
                    f"pivot index {i} out of range [0, {self.size})"
                )
        table = state_array(state, "table", dtype=np.float64)
        if table.shape != (self.size, len(pivot_list)):
            raise StorageError(
                f"pivot table shape {table.shape} does not match "
                f"({self.size}, {len(pivot_list)})"
            )
        growth = state_float(state, "growth")
        if growth <= 1.0:
            raise StorageError(
                f"radius growth factor must exceed 1, got {growth}"
            )
        super()._restore_state(state)
        self._growth = growth
        self._pivot_indices = pivot_list
        self._pivot_rows = self._data[pivot_list]
        self._table = table.copy()
        # Cluster assignment and scalar keys derive from the table alone —
        # pure argmin/argsort arithmetic, no distance evaluations.
        self._assign_clusters()

    def _verify_state_probe(self) -> None:
        probe = self._port.pair_uncounted(
            self._data[0], self._data[self._pivot_indices[0]]
        )
        if not np.isclose(probe, self._table[0, 0], rtol=1e-6, atol=1e-9):
            raise StorageError(
                "supplied distance disagrees with the stored pivot table "
                "(wrong metric or wrong matrix?)"
            )

    @property
    def n_pivots(self) -> int:
        """Number of pivots (= clusters)."""
        return len(self._pivot_indices)

    @property
    def pivot_indices(self) -> list[int]:
        """Database indices of the pivots."""
        return list(self._pivot_indices)

    def cluster_sizes(self) -> list[int]:
        """Objects per cluster (diagnostic)."""
        return [int(members.size) for members in self._cluster_members]

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Route the new object to its nearest pivot's cluster."""
        row = self._port.many(vector, self._pivot_rows)
        self._table = grown(self._table, index, 1)
        self._table[index] = row
        cluster = int(np.argmin(row))
        key = float(row[cluster])
        pos = bisect.bisect_left(self._cluster_keys[cluster].tolist(), key)
        self._cluster_keys[cluster] = np.insert(self._cluster_keys[cluster], pos, key)
        self._cluster_members[cluster] = np.insert(
            self._cluster_members[cluster], pos, index
        )

    def _candidates(
        self,
        query_vector: np.ndarray,
        radius: float,
        trace: "QueryTrace",
        parent_tok: int = ROOT,
    ) -> np.ndarray:
        """Interval-scan + pivot-filter candidates for a range query."""
        detailed = trace.events is not None
        out: list[np.ndarray] = []
        for cluster in range(self.n_pivots):
            keys = self._cluster_keys[cluster]
            if keys.size == 0:
                continue
            center = query_vector[cluster]
            lo = np.searchsorted(keys, center - radius, side="left")
            hi = np.searchsorted(keys, center + radius, side="right")
            if lo >= hi:
                # The whole cluster interval misses the query ring.
                if detailed:
                    # Distance from the query's pivot coordinate to the
                    # nearest cluster key — how far the interval missed.
                    gap = float(np.min(np.abs(keys - center)))
                    trace.lb_check(
                        parent_tok, gap, radius, pruned=True, label="cluster-interval"
                    )
                trace.prune(parent_tok, 1, "cluster-interval")
                continue
            tok = trace.visit(parent_tok, f"cluster {cluster}" if detailed else "")
            members = self._cluster_members[cluster][lo:hi]
            # LAESA filter over the full pivot table.
            lb = np.max(np.abs(self._table[members] - query_vector), axis=1)
            survivors = members[lb <= radius]
            trace.filter(int(members.size), int(survivors.size))
            if tok >= 0:
                for val in lb:
                    trace.lb_check(tok, float(val), radius, pruned=val > radius, label="laesa")
            out.append(survivors)
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    def _query_to_pivots(self, bound: BoundQuery) -> np.ndarray:
        """Query-to-pivot distances, arithmetic-identical to the table.

        The interval scan compares these against build-time keys with exact
        ``searchsorted`` arithmetic (a radius-0 query needs bitwise
        equality), so they must come from the same evaluation path that
        built ``self._table`` — ``port.many`` — not the kernel query
        context used for candidate refinement.
        """
        return self._port.many(bound.query, self._pivot_rows, bound.trace)

    def _range_impl(self, bound: BoundQuery, radius: float) -> list[Neighbor]:
        trace = bound.trace
        query_vector = self._query_to_pivots(bound)
        candidates = self._candidates(query_vector, radius, trace)
        result: list[Neighbor] = []
        if candidates.size == 0:
            return result
        trace.refine(int(candidates.size))
        tok = trace.visit(ROOT, "refine", count=0)
        distances = bound.many(self._data[candidates], candidates)
        for idx, dist in zip(candidates, distances):
            trace.verify(tok, int(idx), float(dist))
            if dist <= radius:
                result.append(Neighbor(float(dist), int(idx)))
                trace.result(tok, int(idx), float(dist))
        return result

    def _knn_impl(self, bound: BoundQuery, k: int) -> list[Neighbor]:
        trace = bound.trace
        query_vector = self._query_to_pivots(bound)
        # Initial radius guess: the key gap around the query in its nearest
        # cluster — cheap and usually within one growth step of the answer.
        radius = max(float(query_vector.min(initial=1.0)), 1e-12)
        seen: dict[int, float] = {}
        while True:
            round_tok = ROOT
            if trace.events is not None:
                round_tok = trace.visit(ROOT, f"round r={radius:.4g}", count=0)
            candidates = self._candidates(query_vector, radius, trace, round_tok)
            fresh = [int(i) for i in candidates if int(i) not in seen]
            if fresh:
                trace.refine(len(fresh))
                tok = trace.visit(round_tok, "refine", count=0)
                distances = bound.many(self._data[fresh], fresh)
                for idx, dist in zip(fresh, distances):
                    trace.verify(tok, int(idx), float(dist))
                    seen[idx] = float(dist)
            ranked = sorted((d, i) for i, d in seen.items())
            if len(ranked) >= k and ranked[k - 1][0] <= radius:
                return [Neighbor(d, i) for d, i in ranked[:k]]
            radius *= self._growth
