"""R-tree — the representative spatial access method (paper Section 2.1).

SAMs index the *coordinates* of the vectors, independently of the distance
function, by nesting minimum bounding rectangles (MBRs).  This
implementation follows Guttman's original design: dynamic insertion with
least-enlargement descent and quadratic split.  Queries support the
Minkowski family (default L2, the QMap target space) through the standard
MINDIST bound between a point and an MBR.

The paper's point about SAMs — regions are volume-optimized rather than
distance-clustered, so filtering degrades with dimensionality ("curse of
dimensionality") — is demonstrated by bench E_A6, which runs this R-tree
next to the MAMs on the same transformed workload.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

import numpy as np

from .._typing import ArrayLike
from ..engine.trace import current_trace
from ..exceptions import QueryError, StorageError
from ..mam.base import (
    AccessMethod,
    DistancePort,
    Neighbor,
    _KnnHeap,
    state_array,
    state_float,
    state_int,
)
from ._minkowski import minkowski_port, validate_order

__all__ = ["RTree"]


class _RNode:
    __slots__ = ("lower", "upper", "children", "indices", "is_leaf")

    def __init__(self, dim: int, is_leaf: bool) -> None:
        self.lower = np.full(dim, np.inf)
        self.upper = np.full(dim, -np.inf)
        self.children: list["_RNode"] = []
        self.indices: list[int] = []
        self.is_leaf = is_leaf

    def extend_to(self, point: np.ndarray) -> None:
        np.minimum(self.lower, point, out=self.lower)
        np.maximum(self.upper, point, out=self.upper)

    def extend_to_node(self, other: "_RNode") -> None:
        np.minimum(self.lower, other.lower, out=self.lower)
        np.maximum(self.upper, other.upper, out=self.upper)

    def volume_enlargement(self, point: np.ndarray) -> float:
        new_lower = np.minimum(self.lower, point)
        new_upper = np.maximum(self.upper, point)
        # Margin (perimeter) based enlargement is numerically stable in
        # high dimensions where volumes underflow to zero.
        return float(np.sum(new_upper - new_lower) - np.sum(self.upper - self.lower))


def _mindist(query: np.ndarray, lower: np.ndarray, upper: np.ndarray, p: float) -> float:
    """Minkowski distance from a point to the nearest face of an MBR."""
    gap = np.maximum(np.maximum(lower - query, query - upper), 0.0)
    if np.isinf(p):
        return float(gap.max(initial=0.0))
    return float(np.power(np.power(gap, p).sum(), 1.0 / p))


class RTree(AccessMethod):
    """Guttman R-tree with quadratic split, for Minkowski queries.

    Parameters
    ----------
    database:
        ``(m, n)`` rows to index.
    capacity:
        Maximum entries per node (>= 4 recommended).
    p:
        Minkowski order of the query distance (``float('inf')`` for L∞).

    Notes
    -----
    Unlike the MAMs, the R-tree does not take a black-box distance — its
    whole point is that the distance can be chosen *at query time*
    (Section 2.1).  The refinement distances it does compute are charged to
    an internal :class:`~repro.mam.base.DistancePort` so the cost
    experiments can still count them.
    """

    def __init__(
        self,
        database: ArrayLike,
        *,
        capacity: int = 16,
        p: float = 2.0,
        refine_distance: DistancePort | Callable | None = None,
    ) -> None:
        if capacity < 2:
            raise QueryError(f"node capacity must be >= 2, got {capacity}")
        self._p = validate_order(p)
        # An injected refine_distance (e.g. a CountingDistance over the
        # same Lp) lets the experiments charge refinement evaluations to a
        # shared counter; it must agree with the chosen p.
        if refine_distance is None:
            refine_distance = minkowski_port(self._p)
        super().__init__(database, refine_distance)
        self._capacity = capacity
        self._root = _RNode(self.dim, is_leaf=True)
        for i, row in enumerate(self._data):
            self._insert(row, i)

    @property
    def p(self) -> float:
        """Minkowski order of the query distance."""
        return self._p

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def _init_restore(self, database, distance, state) -> None:
        # SAMs pick the distance at query time, so a snapshot restore does
        # not require one: the stored Minkowski order rebuilds the default
        # port.  An injected port (e.g. a counting one) takes precedence.
        p = state_float(state, "p")
        try:
            self._p = validate_order(p)
        except QueryError as exc:
            raise StorageError(str(exc)) from None
        if distance is None:
            distance = minkowski_port(self._p)
        AccessMethod.__init__(self, database, distance)
        self._restore_state(state)

    def _preorder_nodes(self) -> list[_RNode]:
        nodes: list[_RNode] = []

        def collect(node: _RNode) -> None:
            nodes.append(node)
            for child in node.children:
                collect(child)

        collect(self._root)
        return nodes

    def structural_state(self) -> dict[str, np.ndarray]:
        nodes = self._preorder_nodes()
        ids = {id(node): nid for nid, node in enumerate(nodes)}
        n = len(nodes)
        is_leaf = np.zeros(n, dtype=np.uint8)
        lower = np.empty((n, self.dim), dtype=np.float64)
        upper = np.empty((n, self.dim), dtype=np.float64)
        parent = np.full(n, -1, dtype=np.int64)
        leaf_count = np.zeros(n, dtype=np.int64)
        leaf_items: list[int] = []
        for nid, node in enumerate(nodes):
            is_leaf[nid] = 1 if node.is_leaf else 0
            lower[nid] = node.lower
            upper[nid] = node.upper
            leaf_count[nid] = len(node.indices)
            leaf_items.extend(node.indices)
            for child in node.children:
                parent[ids[id(child)]] = nid
        return {
            "node_is_leaf": is_leaf,
            "node_lower": lower,
            "node_upper": upper,
            "node_parent": parent,
            "leaf_count": leaf_count,
            "leaf_items": np.asarray(leaf_items, dtype=np.int64),
            "capacity": np.int64(self._capacity),
            "p": np.float64(self._p),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> list[_RNode]:
        is_leaf = state_array(state, "node_is_leaf")
        lower = state_array(state, "node_lower", dtype=np.float64)
        upper = state_array(state, "node_upper", dtype=np.float64)
        parent = state_array(state, "node_parent", dtype=np.int64)
        leaf_count = state_array(state, "leaf_count", dtype=np.int64)
        leaf_items = state_array(state, "leaf_items", dtype=np.int64)
        capacity = state_int(state, "capacity")
        super()._restore_state(state)
        if capacity < 2:
            raise StorageError(f"node capacity must be >= 2, got {capacity}")
        n = is_leaf.shape[0]
        if n < 1 or lower.shape != (n, self.dim) or upper.shape != (n, self.dim):
            raise StorageError("R-tree snapshot: MBR arrays disagree")
        if parent.shape[0] != n or leaf_count.shape[0] != n:
            raise StorageError("R-tree snapshot: node arrays disagree")
        if parent[0] != -1:
            raise StorageError("R-tree snapshot: first node must be the root")
        if not np.array_equal(np.sort(leaf_items), np.arange(self.size)):
            raise StorageError(
                "R-tree snapshot: leaf entries do not partition the database"
            )
        offsets = np.concatenate(([0], np.cumsum(leaf_count)))
        if offsets[-1] != leaf_items.shape[0]:
            raise StorageError(
                "R-tree snapshot: leaf items do not match the leaf counts"
            )
        nodes: list[_RNode] = []
        for nid in range(n):
            node = _RNode(self.dim, is_leaf=bool(is_leaf[nid]))
            node.lower = lower[nid].copy()
            node.upper = upper[nid].copy()
            if node.is_leaf:
                node.indices = [
                    int(i) for i in leaf_items[offsets[nid] : offsets[nid + 1]]
                ]
            pid = int(parent[nid])
            if nid > 0:
                # Preorder parents precede children; wiring in id order
                # reproduces the original child order.
                if not 0 <= pid < nid or nodes[pid].is_leaf:
                    raise StorageError(
                        f"R-tree snapshot: node {nid} has invalid parent {pid}"
                    )
                nodes[pid].children.append(node)
            nodes.append(node)
        self._capacity = capacity
        self._root = nodes[0]
        return nodes

    def _verify_state_probe(self) -> None:
        # MBRs are exactly tight over their leaf entries — a coordinate
        # check that needs no distance function at all.
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        if not node.indices:
            return
        rows = self._data[node.indices]
        if not (
            np.allclose(node.lower, rows.min(axis=0), rtol=1e-9, atol=1e-12)
            and np.allclose(node.upper, rows.max(axis=0), rtol=1e-9, atol=1e-12)
        ):
            raise StorageError(
                "stored bounding rectangles disagree with the database "
                "(snapshot from a different dataset?)"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _insert(self, point: np.ndarray, index: int) -> None:
        path: list[_RNode] = []
        node = self._root
        while not node.is_leaf:
            path.append(node)
            node = min(
                node.children,
                key=lambda child: (child.volume_enlargement(point),
                                   float(np.sum(child.upper - child.lower))),
            )
        node.indices.append(index)
        node.extend_to(point)
        for ancestor in path:
            ancestor.extend_to(point)
        if len(node.indices) > self._capacity:
            self._split_leaf(node, path)

    def _entry_count(self, node: _RNode) -> int:
        return len(node.indices) if node.is_leaf else len(node.children)

    def _split_leaf(self, node: _RNode, path: list[_RNode]) -> None:
        points = self._data[node.indices]
        group_a, group_b = self._quadratic_partition_points(points)
        node_a = _RNode(self.dim, is_leaf=True)
        node_b = _RNode(self.dim, is_leaf=True)
        for pos in group_a:
            node_a.indices.append(node.indices[pos])
            node_a.extend_to(points[pos])
        for pos in group_b:
            node_b.indices.append(node.indices[pos])
            node_b.extend_to(points[pos])
        self._replace(node, node_a, node_b, path)

    def _split_internal(self, node: _RNode, path: list[_RNode]) -> None:
        centers = np.array([(c.lower + c.upper) / 2.0 for c in node.children])
        group_a, group_b = self._quadratic_partition_points(centers)
        node_a = _RNode(self.dim, is_leaf=False)
        node_b = _RNode(self.dim, is_leaf=False)
        for pos in group_a:
            node_a.children.append(node.children[pos])
            node_a.extend_to_node(node.children[pos])
        for pos in group_b:
            node_b.children.append(node.children[pos])
            node_b.extend_to_node(node.children[pos])
        self._replace(node, node_a, node_b, path)

    def _replace(self, node: _RNode, node_a: _RNode, node_b: _RNode, path: list[_RNode]) -> None:
        if not path:
            new_root = _RNode(self.dim, is_leaf=False)
            new_root.children = [node_a, node_b]
            new_root.extend_to_node(node_a)
            new_root.extend_to_node(node_b)
            self._root = new_root
            return
        parent = path[-1]
        parent.children.remove(node)
        parent.children.extend([node_a, node_b])
        if len(parent.children) > self._capacity:
            self._split_internal(parent, path[:-1])

    def _quadratic_partition_points(self, points: np.ndarray) -> tuple[list[int], list[int]]:
        """Guttman's quadratic PickSeeds + PickNext over point rows."""
        n = points.shape[0]
        # PickSeeds: the pair wasting the most margin if grouped together.
        best_pair, best_waste = (0, 1), -1.0
        for i, j in itertools.combinations(range(n), 2):
            waste = float(np.abs(points[i] - points[j]).sum())
            if waste > best_waste:
                best_pair, best_waste = (i, j), waste
        seed_a, seed_b = best_pair
        group_a, group_b = [seed_a], [seed_b]
        lower_a = points[seed_a].copy()
        upper_a = points[seed_a].copy()
        lower_b = points[seed_b].copy()
        upper_b = points[seed_b].copy()
        min_fill = max(1, n // 3)
        rest = [i for i in range(n) if i not in (seed_a, seed_b)]
        for pos in rest:
            remaining = len(rest) - (len(group_a) + len(group_b) - 2)
            if len(group_a) + remaining <= min_fill:
                target = "a"
            elif len(group_b) + remaining <= min_fill:
                target = "b"
            else:
                enlarge_a = float(
                    np.sum(np.maximum(upper_a, points[pos]) - np.minimum(lower_a, points[pos]))
                    - np.sum(upper_a - lower_a)
                )
                enlarge_b = float(
                    np.sum(np.maximum(upper_b, points[pos]) - np.minimum(lower_b, points[pos]))
                    - np.sum(upper_b - lower_b)
                )
                target = "a" if enlarge_a <= enlarge_b else "b"
            if target == "a":
                group_a.append(pos)
                np.minimum(lower_a, points[pos], out=lower_a)
                np.maximum(upper_a, points[pos], out=upper_a)
            else:
                group_b.append(pos)
                np.minimum(lower_b, points[pos], out=lower_b)
                np.maximum(upper_b, points[pos], out=upper_b)
        return group_a, group_b

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Dynamic insert — the R-tree's native operation (Guttman)."""
        self._insert(vector, index)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        trace = current_trace()
        out: list[Neighbor] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if _mindist(query, node.lower, node.upper, self._p) > radius:
                continue
            if node.is_leaf:
                dists = self._port.many(query, self._data[node.indices], trace)
                for idx, dist in zip(node.indices, dists):
                    if dist <= radius:
                        out.append(Neighbor(float(dist), int(idx)))
            else:
                stack.extend(node.children)
        return out

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        trace = current_trace()
        heap = _KnnHeap(k)
        counter = itertools.count()
        queue: list[tuple[float, int, _RNode]] = [(0.0, next(counter), self._root)]
        while queue:
            dmin, _, node = heapq.heappop(queue)
            if dmin > heap.radius:
                break
            if node.is_leaf:
                dists = self._port.many(query, self._data[node.indices], trace)
                for idx, dist in zip(node.indices, dists):
                    heap.offer(float(dist), int(idx))
            else:
                for child in node.children:
                    child_dmin = _mindist(query, child.lower, child.upper, self._p)
                    if child_dmin <= heap.radius:
                        heapq.heappush(queue, (child_dmin, next(counter), child))
        return heap.neighbors()

    def height(self) -> int:
        """Tree height (1 for a single leaf root)."""
        h, node = 1, self._root
        while not node.is_leaf:
            h += 1
            node = node.children[0]
        return h
