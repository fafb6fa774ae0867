"""SAT — Spatial Approximation Tree (Navarro), paper Section 2.2.

The SAT approximates the Delaunay graph of the metric space: the root's
*neighbor set* ``N(a)`` contains every object closer to ``a`` than to any
earlier neighbor (processed in distance order), the remaining objects hang
under their closest neighbor, and the construction recurses.  Covering
radii are kept per node for ball pruning.

Queries combine two classic prunings:

* **covering radius**: skip child ``b`` when ``d(q, b) > R(b) + r``;
* **hyperplane**: an object assigned to ``b`` is closer to ``b`` than to
  any other member of ``{a} ∪ N(a)``, so skip ``b`` when
  ``d(q, b) > min_{c} d(q, c) + 2r``.

kNN is best-first over nodes with ``dmin = max(d(q, b) - R(b), 0)``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

import numpy as np

from .._typing import ArrayLike
from ..exceptions import StorageError
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

__all__ = ["SATree"]


class _SatNode:
    __slots__ = ("index", "radius", "children")

    def __init__(self, index: int) -> None:
        self.index = index
        self.radius = 0.0  # covering radius over the whole subtree
        self.children: list["_SatNode"] = []


class SATree(NodeBatchedSearchMixin, AccessMethod):
    """Spatial approximation tree over a black-box metric.

    Parameters
    ----------
    database:
        ``(m, n)`` rows to index.
    distance:
        Black-box metric (port or plain callable).
    rng:
        Randomness for the root choice.
    """

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(database, distance)
        rng = np.random.default_rng(0) if rng is None else rng
        root_index = int(rng.integers(0, self.size))
        rest = [i for i in range(self.size) if i != root_index]
        # Hyperplane pruning relies on the static assignment invariant
        # ("every object is closer to its neighbor than to any sibling");
        # dynamic inserts can violate it for pre-existing objects, so the
        # first insert downgrades queries to covering-radius pruning only.
        self._hyperplane_ok = True
        self._root = self._build(root_index, rest)

    def _build(self, center: int, members: list[int]) -> _SatNode:
        node = _SatNode(center)
        if not members:
            return node
        rows = self._data[members]
        d_center = self._port.many(self._data[center], rows)
        node.radius = float(d_center.max(initial=0.0))
        order = np.argsort(d_center, kind="stable")

        neighbors: list[int] = []  # positions into `members`
        neighbor_dist: list[np.ndarray] = []  # d(neighbor, all members)
        for pos in order:
            # Closer to the center than to every neighbor so far: promote.
            if all(n_dists[pos] >= d_center[pos] for n_dists in neighbor_dist):
                neighbors.append(int(pos))
                neighbor_dist.append(self._port.many(rows[pos], rows))
        # Every other member hangs under its closest *final* neighbor (the
        # first on a tie), which is what the hyperplane prune assumes.
        assigned: dict[int, list[int]] = {n_pos: [] for n_pos in neighbors}
        closest = np.argmin(np.stack(neighbor_dist), axis=0)
        for pos in order:
            if int(pos) not in assigned:
                assigned[neighbors[closest[pos]]].append(int(pos))
        for n_pos in neighbors:
            child_members = [members[p] for p in assigned[n_pos]]
            node.children.append(self._build(members[n_pos], child_members))
        return node

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Descend to the closest child at every level, widening covering
        radii on the way, and attach as a new leaf child.

        Covering-radius pruning stays sound (radii are updated along the
        whole path); hyperplane pruning is disabled from now on because a
        dynamically grown neighbor set no longer certifies the static
        assignment invariant (see Navarro & Reyes, dynamic SAT).
        """
        self._hyperplane_ok = False
        node = self._root
        while True:
            d_node = self._port.pair(vector, self._data[node.index])
            node.radius = max(node.radius, d_node)
            if not node.children:
                break
            child_dists = self._port.many(
                vector, self._data[[c.index for c in node.children]]
            )
            best = int(np.argmin(child_dists))
            if child_dists[best] >= d_node:
                node.children.append(_SatNode(index))
                return
            node = node.children[best]
        node.children.append(_SatNode(index))

    def structural_state(self) -> dict[str, np.ndarray]:
        # Preorder; parent links reconstruct the exact child order because
        # children are appended in discovery order on both sides.
        indices: list[int] = []
        radii: list[float] = []
        parents: list[int] = []

        def collect(node: _SatNode, parent_id: int) -> None:
            node_id = len(indices)
            indices.append(node.index)
            radii.append(node.radius)
            parents.append(parent_id)
            for child in node.children:
                collect(child, node_id)

        collect(self._root, -1)
        return {
            "node_index": np.asarray(indices, dtype=np.int64),
            "node_radius": np.asarray(radii, dtype=np.float64),
            "node_parent": np.asarray(parents, dtype=np.int64),
            "hyperplane_ok": np.uint8(1 if self._hyperplane_ok else 0),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        indices = state_array(state, "node_index", dtype=np.int64)
        radii = state_array(state, "node_radius", dtype=np.float64)
        parents = state_array(state, "node_parent", dtype=np.int64)
        hyperplane_ok = state_int(state, "hyperplane_ok")
        super()._restore_state(state)
        n = indices.shape[0]
        if n != self.size or radii.shape[0] != n or parents.shape[0] != n:
            raise StorageError(
                f"SAT snapshot: node arrays do not cover the {self.size} "
                "database objects"
            )
        if not np.array_equal(np.sort(indices), np.arange(self.size)):
            raise StorageError(
                "SAT snapshot: node indices are not a permutation of the database"
            )
        if parents[0] != -1:
            raise StorageError("SAT snapshot: first node must be the root")
        nodes: list[_SatNode] = []
        for nid in range(n):
            node = _SatNode(int(indices[nid]))
            node.radius = float(radii[nid])
            parent = int(parents[nid])
            if nid > 0:
                if not 0 <= parent < nid:
                    raise StorageError(
                        f"SAT snapshot: node {nid} has invalid parent {parent}"
                    )
                nodes[parent].children.append(node)
            nodes.append(node)
        self._hyperplane_ok = bool(hyperplane_ok)
        self._root = nodes[0]

    def _verify_state_probe(self) -> None:
        # Every child lies within its parent's covering radius — an
        # inequality the supplied metric must reproduce.
        if not self._root.children:
            return
        child = self._root.children[0]
        probe = self._port.pair_uncounted(
            self._data[self._root.index], self._data[child.index]
        )
        if probe > self._root.radius * (1.0 + 1e-9) + 1e-9:
            raise StorageError(
                "supplied distance disagrees with the stored covering radii "
                "(wrong metric or wrong matrix?)"
            )

    def _range_impl(self, bound: BoundQuery, radius: float) -> list[Neighbor]:
        trace = bound.trace
        out: list[Neighbor] = []

        def visit(node: _SatNode, d_node: float, parent_tok: int) -> None:
            tok = trace.visit(parent_tok, f"sat:{node.index}")
            trace.verify(tok, node.index, float(d_node))
            if d_node <= radius:
                out.append(Neighbor(float(d_node), node.index))
                trace.result(tok, node.index, float(d_node))
            if not node.children:
                return
            child_indices = [c.index for c in node.children]
            d_children = bound.many(self._data[child_indices])
            # Hyperplane bound uses the node itself and all its children.
            closest = min(float(d_children.min(initial=np.inf)), d_node)
            for child, d_child in zip(node.children, d_children):
                # Covering radii are exactly tight (some member's build
                # distance), so the prune test gets an ulp-scale slack.
                near = d_child - prune_slack(d_child, child.radius)
                skip = near > child.radius + radius
                trace.lb_check(
                    tok, near, child.radius + radius, pruned=skip, label="covering-radius"
                )
                if skip:
                    trace.prune(tok, 1, "covering-radius")
                elif self._hyperplane_ok and d_child > closest + 2.0 * radius:
                    trace.lb_check(
                        tok, float(d_child), closest + 2.0 * radius,
                        pruned=True, label="hyperplane",
                    )
                    trace.prune(tok, 1, "hyperplane")
                else:
                    visit(child, float(d_child), tok)

        visit(
            self._root,
            bound.one(self._data[self._root.index]),
            ROOT,
        )
        return out

    def _knn_impl(self, bound: BoundQuery, k: int) -> list[Neighbor]:
        trace = bound.trace
        heap = _KnnHeap(k)
        counter = itertools.count()
        d_root = bound.one(self._data[self._root.index])
        root_dmin = max(
            d_root - self._root.radius - prune_slack(d_root, self._root.radius), 0.0
        )
        queue: list[tuple[float, int, _SatNode, float, int]] = [
            (root_dmin, next(counter), self._root, d_root, ROOT)
        ]
        while queue:
            dmin, _, node, d_node, parent_tok = heapq.heappop(queue)
            if dmin > heap.radius:
                break
            tok = trace.visit(parent_tok, f"sat:{node.index}")
            trace.verify(tok, node.index, float(d_node))
            heap.offer(float(d_node), node.index)
            if not node.children:
                continue
            child_indices = [c.index for c in node.children]
            d_children = bound.many(self._data[child_indices])
            closest = min(float(d_children.min(initial=np.inf)), float(d_node))
            tau = heap.radius
            for child, d_child in zip(node.children, d_children):
                lower = max(
                    float(d_child)
                    - child.radius
                    - prune_slack(d_child, child.radius),
                    0.0,
                )
                if self._hyperplane_ok:
                    lower = max(lower, (float(d_child) - closest) / 2.0)
                skip = lower > tau
                trace.lb_check(tok, lower, tau, pruned=skip, label="dmin")
                if skip:
                    trace.prune(tok, 1, "dmin")
                else:
                    heapq.heappush(
                        queue, (lower, next(counter), child, float(d_child), tok)
                    )
        return heap.neighbors()

    def height(self) -> int:
        """Length of the longest root-to-leaf path."""

        def depth(node: _SatNode) -> int:
            if not node.children:
                return 1
            return 1 + max(depth(c) for c in node.children)

        return depth(self._root)
