"""Node-at-a-time M-tree search: the reference the block traversal replays.

:class:`~repro.mam.mtree.MTreeSearchMixin` opens and evaluates the nodes
it is about to visit in blocks, then replays the sequential algorithm over
the results.  This module *is* the sequential algorithm, written the slow
way: one node opened per visit (a one-element block through the tree's
own read hook), one kernel call per node, one entry examined at a time
with scalar bound arithmetic.  It never looks ahead, so whatever it counts
is what a query may charge; tests compare its answers, evaluations, node
visits and prunes with the library's.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.mam.base import PRUNE_SLACK_REL, Neighbor

_INF = float("inf")


def _slack(a: float, b: float) -> float:
    return PRUNE_SLACK_REL * (abs(a) + abs(b))


class _Reference:
    """One query's walk; counts what it spends."""

    def __init__(self, tree, query) -> None:
        self.tree = tree
        self.bound = tree.distance.bind_query(np.asarray(query, float))
        self.evals = self.visited = self.pruned = self.opened = 0

    def open(self, ref, d_parent):
        """One node: ``(is_leaf, [(index, child, dist, lower, cover), ...])``.

        The distances are computed for the whole node, as any M-tree does;
        only the entries the walk consumes are counted.
        """
        self.opened += 1
        index, rows, dist_to_parent, radius, [(is_leaf, children, n)] = (
            self.tree._open_block([ref])
        )
        if rows is None:
            rows = np.asarray(self.tree.database)[index]
        dists = self.bound.compute_many(rows).tolist()
        entries = []
        for pos in range(n):
            dtp, cover = float(dist_to_parent[pos]), float(radius[pos])
            lower = (
                -_INF if d_parent is None
                else abs(d_parent - dtp) - cover - _slack(d_parent, dtp)
            )
            child = None if is_leaf else children[pos]
            entries.append((int(index[pos]), child, dists[pos], lower, cover))
        return is_leaf, entries

    def counts(self) -> tuple[int, int, int]:
        return self.evals, self.visited, self.pruned


def reference_knn(tree, query, k: int, epsilon: float = 0.0):
    """Best-first kNN; returns ``(neighbors, (evals, visited, pruned), opened)``."""
    walk = _Reference(tree, query)
    k = min(k, tree.size)
    best: list[tuple[float, int]] = []  # max-heap of (-distance, -index)
    tau = cutoff = _INF
    tick = 1
    queue = [(0.0, 0, None, None)]
    while queue:
        dmin, _, ref, d_parent = heapq.heappop(queue)
        if dmin > cutoff:
            break
        walk.visited += 1
        is_leaf, entries = walk.open(ref, d_parent)
        for index, child, dist, lower, cover in entries:
            if lower > cutoff:
                walk.pruned += not is_leaf
                continue
            walk.evals += 1
            if is_leaf:
                if dist <= tau:
                    item = (-dist, -index)
                    if len(best) < k:
                        heapq.heappush(best, item)
                    elif item > best[0]:
                        heapq.heapreplace(best, item)
                    if len(best) == k:
                        tau = -best[0][0]
                        cutoff = tau / (1.0 + epsilon)
                continue
            key = max(dist - cover - _slack(dist, cover), 0.0)
            if key > cutoff:
                walk.pruned += 1
            else:
                heapq.heappush(queue, (key, tick, child, dist))
                tick += 1
    return sorted(Neighbor(-d, -i) for d, i in best), walk.counts(), walk.opened


def reference_range(tree, query, radius: float):
    """Depth-first range search; same return shape as :func:`reference_knn`."""
    walk = _Reference(tree, query)
    out: list[Neighbor] = []
    stack = [(None, None)]
    while stack:
        ref, d_parent = stack.pop()
        walk.visited += 1
        is_leaf, entries = walk.open(ref, d_parent)
        descend = []
        for index, child, dist, lower, cover in entries:
            if lower > radius:
                walk.pruned += not is_leaf
                continue
            walk.evals += 1
            if is_leaf:
                if dist <= radius:
                    out.append(Neighbor(dist, index))
            elif dist - _slack(dist, cover) > radius + cover:
                walk.pruned += 1
            else:
                descend.append((child, dist))
        stack.extend(reversed(descend))
    return sorted(out), walk.counts(), walk.opened
