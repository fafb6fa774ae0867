"""GNAT — Geometric Near-neighbor Access Tree (Brin), paper Section 2.2.

Each node selects ``arity`` split points (farthest-first, like the original
paper) and assigns every remaining object to its closest split point.  For
each ordered pair of split points ``(i, j)`` the node stores the *range*
``[min, max]`` of ``d(p_i, o)`` over the objects of group ``j``.  At query
time, after computing ``d(q, p_i)``, any group ``j`` whose range cannot
intersect ``[d - r, d + r]`` is discarded without touching its objects.

kNN is implemented best-first over nodes with the group lower bounds as
priorities, shrinking the dynamic radius exactly like the M-tree search.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

import numpy as np

from .._typing import ArrayLike
from ..exceptions import QueryError, StorageError
from ..obs.events import ROOT
from .base import (
    PRUNE_SLACK_REL,
    AccessMethod,
    BoundQuery,
    DistancePort,
    Neighbor,
    NodeBatchedSearchMixin,
    _KnnHeap,
    state_array,
    state_int,
)

__all__ = ["GNAT"]


class _GnatNode:
    __slots__ = ("split_indices", "children", "ranges", "bucket")

    def __init__(self) -> None:
        self.split_indices: list[int] = []
        self.children: list["_GnatNode"] = []
        # ranges[i][j] = (lo, hi) of d(split_i, members of child j).
        self.ranges: np.ndarray | None = None
        self.bucket: list[int] | None = None


class GNAT(NodeBatchedSearchMixin, AccessMethod):
    """Geometric near-neighbor access tree.

    Parameters
    ----------
    database:
        ``(m, n)`` rows to index.
    distance:
        Black-box metric (port or plain callable).
    arity:
        Split points per node.
    leaf_size:
        Threshold below which a node keeps a scanned bucket.
    rng:
        Randomness for the first split point.
    """

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        arity: int = 8,
        leaf_size: int = 16,
        rng: np.random.Generator | None = None,
    ) -> None:
        if arity < 2:
            raise QueryError(f"arity must be >= 2, got {arity}")
        if leaf_size < 1:
            raise QueryError(f"leaf_size must be >= 1, got {leaf_size}")
        super().__init__(database, distance)
        self._arity = arity
        self._leaf_size = leaf_size
        self._rng = np.random.default_rng(0) if rng is None else rng
        self._root = self._build(list(range(self.size)))

    def _build(self, indices: list[int]) -> _GnatNode:
        node = _GnatNode()
        if len(indices) <= max(self._leaf_size, self._arity):
            node.bucket = indices
            return node
        splits = self._pick_splits(indices)
        node.split_indices = splits
        rest = [i for i in indices if i not in set(splits)]
        rest_rows = self._data[rest]
        # d_matrix[s] = distances from split s to every remaining object.
        d_matrix = np.array(
            [self._port.many(self._data[s], rest_rows) for s in splits]
        )
        owner = np.argmin(d_matrix, axis=0)
        arity = len(splits)
        groups: list[list[int]] = [[] for _ in range(arity)]
        for pos, obj in enumerate(rest):
            groups[owner[pos]].append(obj)
        # Split points are reported at this node (queries always compute
        # d(q, p_i)), so children hold only their group members and the
        # ranges cover exactly those members.  Empty groups get the empty
        # range [inf, -inf], which no query interval can intersect.
        ranges = np.zeros((arity, arity, 2), dtype=np.float64)
        for j in range(arity):
            member_pos = np.flatnonzero(owner == j)
            for i in range(arity):
                d_members = d_matrix[i][member_pos]
                lo = float(d_members.min(initial=np.inf))
                hi = float(d_members.max(initial=-np.inf))
                ranges[i, j] = (lo, hi)
        node.ranges = ranges
        node.children = [self._build(groups[j]) for j in range(arity)]
        return node

    def _pick_splits(self, indices: list[int]) -> list[int]:
        """Farthest-first split points, as in Brin's construction."""
        arity = min(self._arity, len(indices))
        first = indices[int(self._rng.integers(0, len(indices)))]
        splits = [first]
        rows = self._data[indices]
        min_dist = self._port.many(self._data[first], rows)
        while len(splits) < arity:
            pick = int(np.argmax(min_dist))
            candidate = indices[pick]
            if candidate in splits:
                remaining = [i for i in indices if i not in splits]
                if not remaining:
                    break
                candidate = remaining[0]
            splits.append(candidate)
            min_dist = np.minimum(min_dist, self._port.many(self._data[candidate], rows))
        return splits

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Route the new object to its nearest split point's subtree.

        The ranges ``[min, max] of d(p_i, group_j)`` along the descent path
        are widened to cover the newcomer, so the pruning tests remain
        sound; queries stay exact.
        """
        node = self._root
        while node.bucket is None:
            dists = self._port.many(vector, self._data[node.split_indices])
            owner = int(np.argmin(dists))
            for i in range(len(node.split_indices)):
                lo, hi = node.ranges[i, owner]  # type: ignore[index]
                node.ranges[i, owner] = (  # type: ignore[index]
                    min(lo, float(dists[i])),
                    max(hi, float(dists[i])),
                )
            node = node.children[owner]
        node.bucket.append(index)

    def structural_state(self) -> dict[str, np.ndarray]:
        # Preorder nodes; buckets, split points, child links and the
        # per-node (arity, arity, 2) range tensors are stored CSR-style.
        is_bucket: list[int] = []
        bucket_count: list[int] = []
        bucket_items: list[int] = []
        split_count: list[int] = []
        split_items: list[int] = []
        child_items: list[int] = []
        ranges_parts: list[np.ndarray] = []

        def collect(node: _GnatNode) -> int:
            node_id = len(is_bucket)
            if node.bucket is not None:
                is_bucket.append(1)
                bucket_count.append(len(node.bucket))
                bucket_items.extend(node.bucket)
                split_count.append(0)
                return node_id
            is_bucket.append(0)
            bucket_count.append(0)
            split_count.append(len(node.split_indices))
            split_items.extend(node.split_indices)
            ranges_parts.append(np.asarray(node.ranges, dtype=np.float64).ravel())
            child_slots = [0] * len(node.children)
            slot = len(child_items)
            child_items.extend(child_slots)
            for j, child in enumerate(node.children):
                child_items[slot + j] = collect(child)
            return node_id

        collect(self._root)
        ranges_flat = (
            np.concatenate(ranges_parts)
            if ranges_parts
            else np.empty(0, dtype=np.float64)
        )
        return {
            "node_is_bucket": np.asarray(is_bucket, dtype=np.uint8),
            "bucket_count": np.asarray(bucket_count, dtype=np.int64),
            "bucket_items": np.asarray(bucket_items, dtype=np.int64),
            "split_count": np.asarray(split_count, dtype=np.int64),
            "split_items": np.asarray(split_items, dtype=np.int64),
            "child_items": np.asarray(child_items, dtype=np.int64),
            "ranges_flat": ranges_flat,
            "arity": np.int64(self._arity),
            "leaf_size": np.int64(self._leaf_size),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        is_bucket = state_array(state, "node_is_bucket")
        bucket_count = state_array(state, "bucket_count", dtype=np.int64)
        bucket_items = state_array(state, "bucket_items", dtype=np.int64)
        split_count = state_array(state, "split_count", dtype=np.int64)
        split_items = state_array(state, "split_items", dtype=np.int64)
        child_items = state_array(state, "child_items", dtype=np.int64)
        ranges_flat = state_array(state, "ranges_flat", dtype=np.float64)
        arity = state_int(state, "arity")
        leaf_size = state_int(state, "leaf_size")
        super()._restore_state(state)
        if arity < 2:
            raise StorageError(f"arity must be >= 2, got {arity}")
        if leaf_size < 1:
            raise StorageError(f"leaf_size must be >= 1, got {leaf_size}")
        n = is_bucket.shape[0]
        if n < 1 or bucket_count.shape[0] != n or split_count.shape[0] != n:
            raise StorageError("GNAT snapshot: node arrays disagree")
        covered = sorted(int(i) for i in bucket_items) + sorted(
            int(i) for i in split_items
        )
        if sorted(covered) != list(range(self.size)):
            raise StorageError(
                "GNAT snapshot: split points and buckets do not partition "
                "the database"
            )
        bucket_offsets = np.concatenate(([0], np.cumsum(bucket_count)))
        split_offsets = np.concatenate(([0], np.cumsum(split_count)))
        range_sizes = np.where(is_bucket == 0, split_count * split_count * 2, 0)
        range_offsets = np.concatenate(([0], np.cumsum(range_sizes)))
        if ranges_flat.shape[0] != range_offsets[-1]:
            raise StorageError(
                f"GNAT snapshot: range tensor has {ranges_flat.shape[0]} "
                f"values, expected {int(range_offsets[-1])}"
            )
        if child_items.shape[0] != split_offsets[-1]:
            raise StorageError(
                "GNAT snapshot: child links do not match the split counts"
            )
        nodes: list[_GnatNode] = [_GnatNode() for _ in range(n)]
        child_seen = np.zeros(n, dtype=bool)
        for nid in range(n):
            node = nodes[nid]
            if is_bucket[nid]:
                node.bucket = [
                    int(i)
                    for i in bucket_items[
                        bucket_offsets[nid] : bucket_offsets[nid + 1]
                    ]
                ]
                continue
            a = int(split_count[nid])
            node.split_indices = [
                int(i)
                for i in split_items[split_offsets[nid] : split_offsets[nid + 1]]
            ]
            node.ranges = ranges_flat[
                range_offsets[nid] : range_offsets[nid + 1]
            ].reshape(a, a, 2).copy()
            for child in child_items[split_offsets[nid] : split_offsets[nid + 1]]:
                child = int(child)
                if not nid < child < n or child_seen[child]:
                    raise StorageError(
                        f"GNAT snapshot: invalid child link {child} "
                        f"from node {nid}"
                    )
                child_seen[child] = True
                node.children.append(nodes[child])
        if not child_seen[1:].all():
            raise StorageError("GNAT snapshot: unreachable nodes")
        self._arity = arity
        self._leaf_size = leaf_size
        self._rng = np.random.default_rng(0)
        self._root = nodes[0]

    def _verify_state_probe(self) -> None:
        # ranges[i, j] brackets d(split_i, members of group j): check one
        # stored bracket against a recomputed distance.
        node = self._root
        if node.bucket is not None:
            return
        assert node.ranges is not None
        finite = np.isfinite(node.ranges[0, :, 0])
        if not finite.any():
            return
        j = int(np.argmax(finite))
        child = node.children[j]
        member = (
            child.bucket[0]
            if child.bucket is not None and child.bucket
            else (child.split_indices[0] if child.split_indices else -1)
        )
        if member < 0:
            return
        lo, hi = float(node.ranges[0, j, 0]), float(node.ranges[0, j, 1])
        probe = self._port.pair_uncounted(
            self._data[node.split_indices[0]], self._data[member]
        )
        tol = 1e-6 * (abs(lo) + abs(hi)) + 1e-9
        if not lo - tol <= probe <= hi + tol:
            raise StorageError(
                "supplied distance disagrees with the stored split ranges "
                "(wrong metric or wrong matrix?)"
            )

    def _range_impl(self, bound: BoundQuery, radius: float) -> list[Neighbor]:
        trace = bound.trace
        out: list[Neighbor] = []
        stack: list[tuple[_GnatNode, int]] = [(self._root, ROOT)]
        while stack:
            node, parent_tok = stack.pop()
            if node.bucket is not None:
                tok = trace.visit(parent_tok, "bucket")
                dists = bound.many(self._data[node.bucket], node.bucket)
                for idx, dist in zip(node.bucket, dists):
                    trace.verify(tok, int(idx), float(dist))
                    if dist <= radius:
                        out.append(Neighbor(float(dist), int(idx)))
                        trace.result(tok, int(idx), float(dist))
                continue
            tok = trace.visit(parent_tok, "splits")
            # Every split point is evaluated: splits are themselves
            # potential results, so an all-dead alive vector must not
            # suppress later split reports (stopping early could silently
            # drop a split lying inside the query ball).  One batch,
            # charged as per-split scalar calls, like the kNN loop.
            splits = node.split_indices
            split_dists = bound.many(self._data[splits], splits, charge="calls")
            alive = np.ones(len(node.children), dtype=bool)
            for i, split in enumerate(splits):
                d = float(split_dists[i])
                trace.verify(tok, int(split), d)
                if d <= radius:
                    out.append(Neighbor(d, int(split)))
                    trace.result(tok, int(split), d)
                lows = node.ranges[i, :, 0]  # type: ignore[index]
                highs = node.ranges[i, :, 1]  # type: ignore[index]
                # Ranges are member min/max distances — exactly tight — so
                # the intersection test gets an ulp-scale slack.  Empty
                # groups carry (inf, -inf); keep their slack finite so the
                # comparisons stay inf-arithmetic, not nan.
                span = np.where(np.isfinite(highs), np.abs(lows) + np.abs(highs), 0.0)
                slack = PRUNE_SLACK_REL * (abs(d) + span)
                alive &= (d - radius <= highs + slack) & (d + radius >= lows - slack)
            survivors = np.flatnonzero(alive)
            if tok >= 0:
                # Explain replay of the vectorized intersection: per child,
                # the tightest range lower bound vs the query radius.
                lower = np.zeros(len(node.children), dtype=np.float64)
                for i in range(len(splits)):
                    d = float(split_dists[i])
                    lows = node.ranges[i, :, 0]  # type: ignore[index]
                    highs = node.ranges[i, :, 1]  # type: ignore[index]
                    span = np.where(
                        np.isfinite(highs), np.abs(lows) + np.abs(highs), 0.0
                    )
                    slack = PRUNE_SLACK_REL * (abs(d) + span)
                    lower = np.maximum(lower, np.maximum(lows - d, d - highs) - slack)
                for j in range(len(node.children)):
                    trace.lb_check(
                        tok, max(float(lower[j]), 0.0), radius,
                        pruned=not bool(alive[j]), label="range-intersection",
                    )
            trace.prune(tok, len(node.children) - len(survivors), "range-intersection")
            for j in survivors:
                stack.append((node.children[j], tok))
        return out

    def _knn_impl(self, bound: BoundQuery, k: int) -> list[Neighbor]:
        trace = bound.trace
        heap = _KnnHeap(k)
        counter = itertools.count()
        queue: list[tuple[float, int, _GnatNode, int]] = [
            (0.0, next(counter), self._root, ROOT)
        ]
        while queue:
            dmin, _, node, parent_tok = heapq.heappop(queue)
            if dmin > heap.radius:
                break
            if node.bucket is not None:
                tok = trace.visit(parent_tok, "bucket")
                dists = bound.many(self._data[node.bucket], node.bucket)
                for idx, dist in zip(node.bucket, dists):
                    trace.verify(tok, int(idx), float(dist))
                    heap.offer(float(dist), int(idx))
                continue
            tok = trace.visit(parent_tok, "splits")
            # Unlike the range filter, this loop never stops early (the
            # pruning radius is only read after it), so every split point
            # is evaluated: one batch, charged as per-split scalar calls.
            splits = node.split_indices
            split_dists = bound.many(self._data[splits], splits, charge="calls")
            arity = len(node.children)
            lower = np.zeros(arity, dtype=np.float64)
            for i, split in enumerate(splits):
                d = float(split_dists[i])
                trace.verify(tok, int(split), d)
                heap.offer(d, int(split))
                lows = node.ranges[i, :, 0]  # type: ignore[index]
                highs = node.ranges[i, :, 1]  # type: ignore[index]
                span = np.where(np.isfinite(highs), np.abs(lows) + np.abs(highs), 0.0)
                slack = PRUNE_SLACK_REL * (abs(d) + span)
                lower = np.maximum(lower, np.maximum(lows - d, d - highs) - slack)
            tau = heap.radius
            for j in range(arity):
                child_dmin = max(float(lower[j]), 0.0)
                skip = child_dmin > tau
                trace.lb_check(
                    tok, child_dmin, tau, pruned=skip, label="range-intersection"
                )
                if skip:
                    trace.prune(tok, 1, "range-intersection")
                else:
                    heapq.heappush(
                        queue, (child_dmin, next(counter), node.children[j], tok)
                    )
        return heap.neighbors()
