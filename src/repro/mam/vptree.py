"""The vantage-point tree (Yianilos/Uhlmann) — paper Section 2.2 names the
vp-tree among the representative MAMs able to index the QMap-transformed
space.

Each node picks a *vantage point*, computes the distances from it to the
remaining objects and splits them at the median ``mu``: the inside subtree
holds objects with ``d <= mu``, the outside subtree the rest.  Queries use
the ball-shell geometry to skip whole subtrees:

* inside subtree reachable only if ``d(q, vp) - radius <= mu``;
* outside subtree reachable only if ``d(q, vp) + radius >= mu``.

As everywhere in this library, every distance evaluation is charged to the
:class:`~repro.mam.base.DistancePort`.
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
    AccessMethod,
    BoundQuery,
    DistancePort,
    Neighbor,
    NodeBatchedSearchMixin,
    _KnnHeap,
    prune_slack,
    state_array,
    state_int,
)

__all__ = ["VPTree"]


class _VPNode:
    __slots__ = ("vp_index", "mu", "inside", "outside", "bucket")

    def __init__(self) -> None:
        self.vp_index = -1
        self.mu = 0.0
        self.inside: _VPNode | None = None
        self.outside: _VPNode | None = None
        self.bucket: list[int] | None = None


class VPTree(NodeBatchedSearchMixin, AccessMethod):
    """Vantage-point tree over a black-box metric.

    Parameters
    ----------
    database:
        ``(m, n)`` rows to index.
    distance:
        Black-box metric (port or plain callable).
    leaf_size:
        Node size below which objects are kept in a scanned bucket.
    rng:
        Randomness for vantage-point choice.
    """

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        leaf_size: int = 8,
        rng: np.random.Generator | None = None,
    ) -> None:
        if leaf_size < 1:
            raise QueryError(f"leaf_size must be >= 1, got {leaf_size}")
        super().__init__(database, distance)
        self._leaf_size = leaf_size
        self._rng = np.random.default_rng(0) if rng is None else rng
        self._root = self._build(list(range(self.size)))

    def _build(self, indices: list[int]) -> _VPNode:
        node = _VPNode()
        if len(indices) <= self._leaf_size:
            node.bucket = indices
            return node
        pick = int(self._rng.integers(0, len(indices)))
        node.vp_index = indices[pick]
        rest = indices[:pick] + indices[pick + 1 :]
        dists = self._port.many(self._data[node.vp_index], self._data[rest])
        node.mu = float(np.median(dists))
        inside = [i for i, d in zip(rest, dists) if d <= node.mu]
        outside = [i for i, d in zip(rest, dists) if d > node.mu]
        # A degenerate median (all distances equal) would recurse forever;
        # fall back to a bucket in that case.
        if not inside or not outside:
            node.vp_index = -1
            node.bucket = indices
            return node
        node.inside = self._build(inside)
        node.outside = self._build(outside)
        return node

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Route the new object down the existing ball shells to a bucket.

        Each node's invariant (inside: ``d <= mu``; outside: ``d > mu``)
        is preserved by descending on the vantage-point distance, so
        queries stay exact; repeated inserts merely grow the buckets.
        """
        node = self._root
        while node.bucket is None:
            d_vp = self._port.pair(vector, self._data[node.vp_index])
            node = node.inside if d_vp <= node.mu else node.outside  # type: ignore[assignment]
        node.bucket.append(index)

    def structural_state(self) -> dict[str, np.ndarray]:
        # Preorder node arrays; bucket contents are stored CSR-style
        # (per-node count plus one flat item array).
        is_bucket: list[int] = []
        vp: list[int] = []
        mu: list[float] = []
        inside: list[int] = []
        outside: list[int] = []
        bucket_count: list[int] = []
        bucket_items: list[int] = []

        def collect(node: _VPNode) -> int:
            node_id = len(is_bucket)
            is_bucket.append(1 if node.bucket is not None else 0)
            vp.append(node.vp_index)
            mu.append(node.mu)
            inside.append(-1)
            outside.append(-1)
            if node.bucket is not None:
                bucket_count.append(len(node.bucket))
                bucket_items.extend(node.bucket)
            else:
                bucket_count.append(0)
                inside[node_id] = collect(node.inside)  # type: ignore[arg-type]
                outside[node_id] = collect(node.outside)  # type: ignore[arg-type]
            return node_id

        collect(self._root)
        return {
            "node_is_bucket": np.asarray(is_bucket, dtype=np.uint8),
            "node_vp": np.asarray(vp, dtype=np.int64),
            "node_mu": np.asarray(mu, dtype=np.float64),
            "node_inside": np.asarray(inside, dtype=np.int64),
            "node_outside": np.asarray(outside, dtype=np.int64),
            "bucket_count": np.asarray(bucket_count, dtype=np.int64),
            "bucket_items": np.asarray(bucket_items, dtype=np.int64),
            "leaf_size": np.int64(self._leaf_size),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        is_bucket = state_array(state, "node_is_bucket")
        vp = state_array(state, "node_vp", dtype=np.int64)
        mu = state_array(state, "node_mu", dtype=np.float64)
        inside = state_array(state, "node_inside", dtype=np.int64)
        outside = state_array(state, "node_outside", dtype=np.int64)
        bucket_count = state_array(state, "bucket_count", dtype=np.int64)
        bucket_items = state_array(state, "bucket_items", dtype=np.int64)
        leaf_size = state_int(state, "leaf_size")
        super()._restore_state(state)
        if leaf_size < 1:
            raise StorageError(f"leaf_size must be >= 1, got {leaf_size}")
        n = is_bucket.shape[0]
        if n < 1 or any(
            arr.shape[0] != n for arr in (vp, mu, inside, outside, bucket_count)
        ):
            raise StorageError("vp-tree snapshot: node arrays disagree")
        covered = sorted(
            [int(i) for i in bucket_items]
            + [int(i) for i in vp[is_bucket == 0]]
        )
        if covered != list(range(self.size)):
            raise StorageError(
                "vp-tree snapshot: vantage points and buckets do not "
                "partition the database"
            )
        offsets = np.concatenate(([0], np.cumsum(bucket_count)))
        nodes: list[_VPNode] = []
        child_seen = np.zeros(n, dtype=bool)
        for nid in range(n):
            node = _VPNode()
            node.vp_index = int(vp[nid])
            node.mu = float(mu[nid])
            if is_bucket[nid]:
                node.bucket = [
                    int(i) for i in bucket_items[offsets[nid] : offsets[nid + 1]]
                ]
            nodes.append(node)
        for nid in range(n):
            if is_bucket[nid]:
                continue
            for child in (int(inside[nid]), int(outside[nid])):
                # Preorder: children follow their parent; seen-once rules
                # out shared subtrees and cycles.
                if not nid < child < n or child_seen[child]:
                    raise StorageError(
                        f"vp-tree snapshot: invalid child link {child} "
                        f"from node {nid}"
                    )
                child_seen[child] = True
            nodes[nid].inside = nodes[int(inside[nid])]
            nodes[nid].outside = nodes[int(outside[nid])]
        if not child_seen[1:].all():
            raise StorageError("vp-tree snapshot: unreachable nodes")
        self._leaf_size = leaf_size
        self._rng = np.random.default_rng(0)
        self._root = nodes[0]

    def _verify_state_probe(self) -> None:
        # The inside subtree holds objects with d(vp, o) <= mu — descend
        # the inside spine to a bucket and check its first member.
        node = self._root
        if node.bucket is not None:
            return
        vp_index, mu = node.vp_index, node.mu
        probe_node = node.inside
        while probe_node.bucket is None:  # type: ignore[union-attr]
            probe_node = probe_node.inside  # type: ignore[union-attr]
        bucket = probe_node.bucket  # type: ignore[union-attr]
        member = bucket[0] if bucket else probe_node.vp_index  # type: ignore[union-attr]
        if member < 0:
            return
        probe = self._port.pair_uncounted(
            self._data[vp_index], self._data[member]
        )
        if probe > mu * (1.0 + 1e-9) + 1e-9:
            raise StorageError(
                "supplied distance disagrees with the stored ball shells "
                "(wrong metric or wrong matrix?)"
            )

    def _range_impl(self, bound: BoundQuery, radius: float) -> list[Neighbor]:
        trace = bound.trace
        out: list[Neighbor] = []
        stack: list[tuple[_VPNode, int]] = [(self._root, ROOT)]
        while stack:
            node, parent_tok = stack.pop()
            if node.bucket is not None:
                tok = trace.visit(parent_tok, "bucket")
                dists = bound.many(self._data[node.bucket])
                for idx, dist in zip(node.bucket, dists):
                    trace.verify(tok, int(idx), float(dist))
                    if dist <= radius:
                        out.append(Neighbor(float(dist), int(idx)))
                        trace.result(tok, int(idx), float(dist))
                continue
            tok = trace.visit(parent_tok, "vantage")
            d_vp = bound.one(self._data[node.vp_index])
            trace.verify(tok, node.vp_index, d_vp)
            if d_vp <= radius:
                out.append(Neighbor(float(d_vp), node.vp_index))
                trace.result(tok, node.vp_index, float(d_vp))
            # mu is a member's build-time distance (the median), so the
            # shell tests get an ulp-scale slack against kernel arithmetic.
            slack = prune_slack(d_vp, node.mu)
            for child, label, skip, value in (
                (node.inside, "inside-shell", d_vp - radius - slack > node.mu,
                 d_vp - radius - slack),
                (node.outside, "outside-shell", d_vp + radius + slack < node.mu,
                 d_vp + radius + slack),
            ):
                trace.lb_check(tok, value, node.mu, pruned=skip, label=label)
                if skip:
                    trace.prune(tok, 1, label)
                else:
                    stack.append((child, tok))  # type: ignore[arg-type]
        return out

    def _knn_impl(self, bound: BoundQuery, k: int) -> list[Neighbor]:
        trace = bound.trace
        heap = _KnnHeap(k)
        counter = itertools.count()
        queue: list[tuple[float, int, _VPNode, int]] = [
            (0.0, next(counter), self._root, ROOT)
        ]
        while queue:
            dmin, _, node, parent_tok = heapq.heappop(queue)
            if dmin > heap.radius:
                break
            if node.bucket is not None:
                tok = trace.visit(parent_tok, "bucket")
                dists = bound.many(self._data[node.bucket])
                for idx, dist in zip(node.bucket, dists):
                    trace.verify(tok, int(idx), float(dist))
                    heap.offer(float(dist), int(idx))
                continue
            tok = trace.visit(parent_tok, "vantage")
            d_vp = bound.one(self._data[node.vp_index])
            trace.verify(tok, node.vp_index, d_vp)
            heap.offer(float(d_vp), node.vp_index)
            tau = heap.radius
            slack = prune_slack(d_vp, node.mu)
            for child, label, child_dmin in (
                (node.inside, "inside-shell", max(d_vp - node.mu - slack, 0.0)),
                (node.outside, "outside-shell", max(node.mu - d_vp - slack, 0.0)),
            ):
                skip = child_dmin > tau
                trace.lb_check(tok, child_dmin, tau, pruned=skip, label=label)
                if skip:
                    trace.prune(tok, 1, label)
                else:
                    heapq.heappush(queue, (child_dmin, next(counter), child, tok))
        return heap.neighbors()
