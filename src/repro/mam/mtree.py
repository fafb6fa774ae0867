"""The M-tree (Ciaccia, Patella & Zezula — paper reference [13], Section 4.3).

A dynamic, balanced, hierarchical metric index.  Selected objects act as
*routing objects* (local pivots) of ball-shaped regions; the remaining
objects are partitioned among the regions.  Insertion descends like a
B-tree (O(log m) distance computations per object plus splits, hence
O(m log m) to build), and queries traverse only the nodes whose ball
overlaps the query region.

Implemented features:

* dynamic inserts with the classic subtree-choice heuristic (prefer a
  region that needs no enlargement, minimum distance; otherwise minimum
  enlargement),
* node splits with promotion policies ``mM_RAD`` (minimize the larger of
  the two new covering radii — the policy recommended by the original
  paper) and ``random``, both with generalized-hyperplane partitioning,
* distance-to-parent pruning: the stored ``d(o, parent)`` values let both
  query algorithms discard entries *without* computing any distance, the
  key saving counted by the experiments,
* range search and best-first kNN search.

Every distance evaluation — during build and during queries — is charged
to the :class:`~repro.mam.base.DistancePort`, making the index usable for
the paper's cost accounting in both the QFD and the QMap model.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import mmap as _mmap
from typing import Callable

import numpy as np

from .._typing import ArrayLike, as_vector
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
    grown,
    prune_slack,
    state_array,
    state_float,
    state_int,
    state_str,
)

__all__ = ["MTree", "SPLIT_POLICIES"]

SPLIT_POLICIES = ("mM_RAD", "random")

_INF = float("inf")

#: Most nodes one block evaluation opens; a query's blocks double up to it.
_MAX_BLOCK = 16


class _Node:
    """An M-tree node as packed per-entry arrays (one slot per entry).

    The layout both trees share — :class:`MTree` keeps nodes in RAM,
    :class:`~repro.mam.paged_mtree.PagedMTree` deserializes one per page —
    so one search and one write path (:class:`MTreeSearchMixin`) serve both.

    A node grows in place: the arrays it is given are its *slots*, and the
    per-entry fields are views of the filled ones.  The write path makes
    its nodes (:meth:`empty`, :meth:`take`) with room for ``capacity + 1``, so
    an insert is a few scalar stores; a restored, bulk-built or
    page-decoded node arrives exactly full and its first :meth:`append`
    moves it to slots of twice the size.

    Attributes
    ----------
    is_leaf:
        Leaf entries are database objects, internal entries route.
    index:
        ``(n,)`` intp — database index of each entry's (routing) object.
    radius:
        ``(n,)`` float64 covering radii (zero for leaf entries).
    dist_to_parent:
        ``(n,)`` float64 distances to the parent routing object.
    children:
        Per-entry child reference — a :class:`_Node` in RAM, a page id on
        disk; empty for a leaf.
    rows:
        ``(n, dim)`` entry vectors when the node carries its own copy (a
        deserialized page); ``None`` when they are gathered from the
        database as ``data[index]``, which is what keeps a memory-mapped
        store off the heap.
    """

    __slots__ = (
        "is_leaf", "index", "radius", "dist_to_parent", "children", "rows", "_slots",
    )

    def __init__(
        self,
        is_leaf: bool,
        index: np.ndarray,
        radius: np.ndarray,
        dist_to_parent: np.ndarray,
        children: list,
        rows: np.ndarray | None = None,
        fill: int | None = None,
    ) -> None:
        self.is_leaf = is_leaf
        self.children = children
        self._slots = (index, radius, dist_to_parent, rows)
        if fill is None:  # exactly full: the arrays are the fields
            self.index, self.radius, self.dist_to_parent, self.rows = self._slots
        else:
            self._fill(fill)

    def __reduce__(self) -> tuple:
        # A copied view is no view of the copied slots: ship the filled
        # fields and rebuild exactly full.
        fields = (self.index, self.radius, self.dist_to_parent, self.children, self.rows)
        return _Node, (self.is_leaf, *fields)

    def _fill(self, n: int) -> None:
        """Point the fields at the first *n* slots."""
        index, radius, dist_to_parent, rows = self._slots
        self.index = index[:n]
        self.radius = radius[:n]
        self.dist_to_parent = dist_to_parent[:n]
        self.rows = None if rows is None else rows[:n]

    @classmethod
    def empty(cls, is_leaf: bool, room: int, dim: int | None = None) -> "_Node":
        """A node of *room* free slots; given *dim*, one carrying its own rows."""
        rows = None if dim is None else np.empty((room, dim))
        return cls(
            is_leaf, np.empty(room, np.intp), np.empty(room), np.empty(room), [], rows, 0
        )

    def __len__(self) -> int:
        return self.index.shape[0]

    def append(
        self,
        index: int,
        radius: float,
        dist_to_parent: float,
        child: object = None,
        row: np.ndarray | None = None,
    ) -> None:
        """Add one entry at the end, in place (a node without a free slot
        moves to bigger slots first)."""
        n = self.index.shape[0]
        if n == self._slots[0].shape[0]:
            self._slots = tuple(
                None if held is None else grown(held, n, 1) for held in self._slots
            )
        slots = self._slots
        slots[0][n] = index
        slots[1][n] = radius
        slots[2][n] = dist_to_parent
        if slots[3] is not None:
            slots[3][n] = row
        if not self.is_leaf:
            self.children.append(child)
        self._fill(n + 1)

    def remove(self, pos: int) -> None:
        """Drop the entry at *pos*, keeping the others in order."""
        n = self.index.shape[0]
        for held in self._slots:
            if held is not None:
                held[pos : n - 1] = held[pos + 1 : n]
        del self.children[pos]
        self._fill(n - 1)

    def take(self, members: np.ndarray, dist_to_parent: np.ndarray, room: int) -> "_Node":
        """A node of the entries at *members*, with new parent distances,
        in at least *room* slots."""
        taken = members.shape[0]

        def slots(values: np.ndarray) -> np.ndarray:
            return grown(values, taken, room - taken)

        return _Node(
            self.is_leaf,
            slots(self.index[members]),
            slots(self.radius[members]),
            slots(dist_to_parent),
            [self.children[pos] for pos in members.tolist()] if self.children else [],
            None if self.rows is None else slots(self.rows[members]),
            taken,
        )


def parent_bounds(
    dist_to_parent: np.ndarray, radius: np.ndarray, d_parent: "float | np.ndarray"
) -> np.ndarray:
    """Per entry, a lower bound on ``d(q, o)`` for anything under the entry.

    The triangle inequality gives ``|d(q, p) - d(o, p)| - r(o) <= d(q, o)``
    with ``p`` the node's parent routing object — no distance computed.
    Stored bounds are often exactly tight, so the bound is lowered by the
    ulp-scale :func:`~repro.mam.base.prune_slack` of the two distances
    (written out: it runs once per evaluated block).  One vectorized
    expression in the per-entry scalar operation order, so each float is
    what an entry-at-a-time loop computes — with *d_parent* one float for a
    node or one value per entry for a block of nodes.
    """
    slack = PRUNE_SLACK_REL * (np.abs(d_parent) + np.abs(dist_to_parent))
    return np.abs(d_parent - dist_to_parent) - radius - slack


def choose_subtree(dists: list[float], radii: list[float]) -> int:
    """Position of the routing entry an inserted object descends into.

    The classic heuristic: a region that needs no enlargement wins (the
    nearest such), otherwise the one needing the least; ties go to the
    first entry — the ``(enlargement, distance, position)`` order, as a
    scalar loop over the few floats of one node.
    """
    best, best_growth, best_dist = 0, _INF, _INF
    for pos, dist in enumerate(dists):
        cover = radii[pos]
        growth = 0.0 if dist <= cover else dist - cover
        if growth < best_growth or (growth == best_growth and dist < best_dist):
            best, best_growth, best_dist = pos, growth, dist
    return best


@functools.lru_cache(maxsize=64)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Both positions of every unordered pair of *n* entries, in
    ``itertools.combinations`` order (read-only: every split of an
    *n*-entry node shares them)."""
    first, second = np.triu_indices(n, 1)
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def min_max_radius_pair(
    first: np.ndarray, second: np.ndarray, subtree_radii: np.ndarray, pairwise: np.ndarray
) -> int:
    """mM_RAD promotion: which candidate pair ``(first[i], second[i])``
    minimizes the larger of the two covering radii its hyperplane partition
    would produce (the earliest on ties), reading all distances from the
    precomputed *pairwise* matrix."""
    to_first, to_second = pairwise[first], pairwise[second]  # one row per pair
    closer_to_first = to_first <= to_second
    radius1 = np.where(closer_to_first, to_first + subtree_radii, 0.0).max(axis=1)
    radius2 = np.where(closer_to_first, 0.0, to_second + subtree_radii).max(axis=1)
    return int(np.argmin(np.maximum(radius1, radius2)))


def partition(
    node: _Node, pairwise: np.ndarray, first: int, second: int, room: int
) -> tuple[_Node, _Node, float, float]:
    """Generalized-hyperplane split of *node* around two promoted entries.

    Returns the two nodes (entry order kept, ``dist_to_parent`` now the
    distance to the respective promoted object, *room* slots each) and
    their covering radii.  For internal entries the covering radius
    accounts for the subtree radius: ``r = max(d + entry.radius)``.
    """
    d1, d2 = pairwise[first], pairwise[second]
    to_first = d1 <= d2
    to_first[first], to_first[second] = True, False
    group1, group2 = np.flatnonzero(to_first), np.flatnonzero(~to_first)
    node1 = node.take(group1, d1[group1], room)
    node2 = node.take(group2, d2[group2], room)
    radius1 = float((node1.dist_to_parent + node1.radius).max(initial=0.0))
    radius2 = float((node2.dist_to_parent + node2.radius).max(initial=0.0))
    return node1, node2, radius1, radius2


class MTreeSearchMixin(NodeBatchedSearchMixin):
    """The M-tree algorithms over packed nodes — range search, best-first
    kNN, the incremental cursor, insert and split — shared by the in-RAM
    and the paged tree, which differ only in a *node store*.

    Reading: ``_open_block(refs)`` — the packed entries of the nodes behind
    a list of child references, the root for ``None`` — plus
    ``_node_label(ref, is_leaf)`` for EXPLAIN and ``_epsilon``, the kNN
    relative-error relaxation.  Writing: ``_load(ref)`` (a :class:`_Node`
    the write path may edit), ``_write_node(ref, node)`` (store it and
    return the reference it is now reachable by), ``_alloc()`` (a reference
    for a new node) and ``_set_root(ref)`` — identities and no-ops in RAM,
    page (de)serialization on disk.

    Block-at-a-time: when the node due next has not been evaluated, it is
    opened together with the nodes due after it (1, 2, 4, … up to
    ``_MAX_BLOCK``) and one kernel call, one :func:`parent_bounds`
    expression and one dmin expression cover all their entries
    (:meth:`_evaluate`).  That is *physical* work only.  The search itself
    is the sequential algorithm, replayed per visited node over the
    resulting plain Python floats: entry by entry, with the kNN radius in
    a local, so every skip, offer, push and prune — and therefore every
    answer and count — is what a node-at-a-time scan produces.  A node
    evaluated ahead and never visited costs its rows (and, paged, a page
    read) but is neither charged nor counted.

    Accounting sits outside the scan: evaluations, node visits and prunes
    accumulate in locals and reach the query's
    :class:`~repro.engine.trace.QueryTrace` (``bound.trace``) once per
    query.  Only while the record carries the EXPLAIN ``events`` detail
    are a node's evaluations charged before the next node is entered (the
    detail attributes a charge to the node being scanned) and its events
    replayed — behind the ``tok >= 0`` guard.  An insert works the same
    way: the vector is bound once, each level is one uncharged kernel call
    replayed over plain floats, and the descent is charged once.
    """

    #: Most candidate promotion pairs an mM_RAD split scores; beyond it a
    #: random sample of that many is scored instead.  ``None``: no cap.
    _max_promotion_pairs: int | None = None

    _epsilon = 0.0

    def _set_params(
        self, capacity: int, split_policy: str, epsilon: float = 0.0, *, error: type = QueryError
    ) -> None:
        """Validate and adopt the tree parameters; a bad one raises *error*
        (a snapshot's are storage errors, not query errors)."""
        if capacity < 2:
            raise error(f"node capacity must be >= 2, got {capacity}")
        if split_policy not in SPLIT_POLICIES:
            raise error(f"unknown split policy {split_policy!r}; choose from {SPLIT_POLICIES}")
        if epsilon < 0.0:
            raise error(f"epsilon must be non-negative, got {epsilon}")
        self._capacity, self._split_policy, self._epsilon = capacity, split_policy, epsilon

    def _plain_rows(self) -> np.ndarray:
        """The database as a plain ndarray (an alias, never a copy).

        Indexing an ``np.memmap`` goes through a Python-level
        ``__getitem__`` and yields ``np.memmap`` instances carrying an
        attribute dict each; the alias of the same mapping gathers rows
        as ordinary arrays.  The floats are untouched.
        """
        data = self._data
        return data.view(np.ndarray) if isinstance(data, np.memmap) else data

    def _evaluate(self, bound: BoundQuery, heads: list, done: dict) -> None:
        """Open and evaluate the nodes of *heads* — ``(ref, d(query, routing
        object))`` pairs — in one kernel call.

        Leaves in *done*, per ref, ``(is_leaf, children, entries)`` with one
        ``(index, dist, lower, cover, dmin)`` tuple of plain Python numbers
        per entry: its database index, distance, parent-distance lower
        bound, covering radius and the kNN queue key of its subtree.
        """
        refs = [ref for ref, _ in heads]
        index, rows, dist_to_parent, radius, nodes = self._open_block(refs)
        if rows is None:
            rows = self._plain_rows()[index]
        dists = bound.compute_many(rows, index)
        if heads[0][1] is None:  # the root, alone in its block: nothing bounds it
            lower = np.full(dists.shape[0], -_INF)
        else:
            d_parent = np.array([d for _, d in heads]).repeat([n for _, _, n in nodes])
            lower = parent_bounds(dist_to_parent, radius, d_parent)
        dmin = np.maximum(dists - radius - prune_slack(dists, radius), 0.0)
        entries = list(zip(*(a.tolist() for a in (index, dists, lower, radius, dmin))))
        lo = 0
        for ref, (is_leaf, children, n) in zip(refs, nodes):
            done[ref] = (is_leaf, children, entries[lo : lo + n])
            lo += n

    def _range_impl(self, bound: BoundQuery, radius: float) -> list[Neighbor]:
        out: list[Neighbor] = []
        trace = bound.trace
        buf = trace.events
        tok = ROOT
        visited = evals = pruned = 0
        stack: list[tuple[object, float | None, int]] = [(None, None, ROOT)]
        done: dict = {}  # evaluated, not yet visited
        block = 1
        while stack:
            ref, d_parent, parent_tok = stack.pop()
            if ref not in done:
                # The radius is fixed, so everything stacked is visited:
                # evaluate the top of the stack along with this node.
                ahead = [(r, d) for r, d, _ in stack[: -block : -1] if r not in done]
                self._evaluate(bound, [(ref, d_parent), *ahead], done)
                block = min(2 * block, _MAX_BLOCK)
            is_leaf, children, entries = done.pop(ref)
            visited += 1
            if buf is not None:
                tok = buf.enter_node(parent_tok, self._node_label(ref, is_leaf))
            descend = []
            for pos, (index, dist, low, cover, _) in enumerate(entries):
                if low > radius:
                    pruned += not is_leaf
                    continue
                evals += 1
                if is_leaf:
                    if dist <= radius:
                        out.append(Neighbor(dist, index))
                elif dist - prune_slack(dist, cover) > radius + cover:
                    pruned += 1
                else:
                    descend.append((children[pos], dist, tok))
            # Pushed in reverse, so subtrees are visited in entry order.
            stack.extend(reversed(descend))
            if tok >= 0:
                if d_parent is not None:
                    for _, _, low, _, _ in entries:
                        buf.lb_check(
                            tok, low, radius, pruned=low > radius, label="parent-distance"
                        )
                    if not is_leaf:
                        gone = sum(entry[2] > radius for entry in entries)
                        buf.prune(tok, gone, "parent-distance")
                for index, dist, low, cover, _ in entries:
                    if low > radius:
                        continue
                    if is_leaf:
                        buf.candidate_verify(tok, index, dist)
                        if dist <= radius:
                            buf.result_add(tok, index, dist)
                    else:
                        near, reach = dist - prune_slack(dist, cover), radius + cover
                        buf.lb_check(
                            tok, near, reach, pruned=near > reach, label="covering-radius"
                        )
                        if near > reach:
                            buf.prune(tok, 1, "covering-radius")
                self._port.charge(calls=evals, trace=trace)
                evals = 0
        self._port.charge(calls=evals, trace=trace)
        trace.nodes_visited += visited
        trace.nodes_pruned += pruned
        return out

    def _knn_impl(self, bound: BoundQuery, k: int) -> list[Neighbor]:
        heap = _KnnHeap(k)
        # With epsilon > 0 the effective pruning radius shrinks to
        # tau / (1 + epsilon): any skipped object is farther than that, so
        # reported distances stay within (1 + epsilon) of the true answer.
        relax = 1.0 + self._epsilon
        tau = cutoff = _INF  # the heap's radius, and tau / relax
        trace = bound.trace
        buf = trace.events
        tok = ROOT
        visited = evals = pruned = 0
        # Best-first queue of (dmin, tiebreak, node ref, d(query, routing)).
        tick = 1
        queue: list[tuple[float, int, object, float | None, int]] = [
            (0.0, 0, None, None, ROOT)
        ]
        done: dict = {}  # evaluated, not yet visited
        block = 1
        while queue:
            dmin, _, ref, d_parent, parent_tok = heapq.heappop(queue)
            if dmin > cutoff:
                break
            if ref not in done:
                # Evaluate with this node the heads that are visited next
                # unless the radius shrinks or a nearer subtree turns up;
                # they go back on the queue, so the visit order is unmoved.
                ahead = []
                while len(ahead) < block - 1 and queue and queue[0][0] <= cutoff:
                    ahead.append(heapq.heappop(queue))
                for item in ahead:
                    heapq.heappush(queue, item)
                heads = [(item[2], item[3]) for item in ahead if item[2] not in done]
                self._evaluate(bound, [(ref, d_parent), *heads], done)
                block = min(2 * block, _MAX_BLOCK)
            is_leaf, children, entries = done.pop(ref)
            visited += 1
            if buf is not None:
                tok = buf.enter_node(parent_tok, self._node_label(ref, is_leaf))
            # Leaf offers shrink the pruning radius mid-node, so the skip
            # test is sequential; only consumed entries count.
            entered_at = cutoff
            shrunk: dict[int, float] = {}  # entry position -> cutoff after it
            for pos, (index, dist, low, _, key) in enumerate(entries):
                if low > cutoff:
                    pruned += not is_leaf
                    continue
                evals += 1
                if is_leaf:
                    if dist <= tau:
                        tau = heap.offer(dist, index)
                        cutoff = shrunk[pos] = tau / relax
                elif key > cutoff:
                    pruned += 1
                else:
                    heapq.heappush(queue, (key, tick, children[pos], dist, tok))
                    tick += 1
            if tok >= 0:
                if is_leaf:
                    at = entered_at
                    for pos, (index, dist, low, _, _) in enumerate(entries):
                        if d_parent is not None:
                            buf.lb_check(
                                tok, low, at, pruned=low > at, label="parent-distance"
                            )
                        if low <= at:
                            buf.candidate_verify(tok, index, dist)
                            at = shrunk.get(pos, at)
                else:
                    if d_parent is not None:
                        for _, _, low, _, _ in entries:
                            buf.lb_check(
                                tok, low, cutoff, pruned=low > cutoff, label="parent-distance"
                            )
                        gone = sum(entry[2] > cutoff for entry in entries)
                        buf.prune(tok, gone, "parent-distance")
                    for _, _, low, _, key in entries:
                        if low <= cutoff:
                            buf.lb_check(tok, key, cutoff, pruned=key > cutoff, label="dmin")
                            if key > cutoff:
                                buf.prune(tok, 1, "covering-radius")
                self._port.charge(calls=evals, trace=trace)
                evals = 0
        self._port.charge(calls=evals, trace=trace)
        trace.nodes_visited += visited
        trace.nodes_pruned += pruned
        return heap.neighbors()

    # ------------------------------------------------------------------
    # dynamic inserts (one write path over the node store)
    # ------------------------------------------------------------------

    def _entry_rows(self, node: _Node, pos: "int | slice" = slice(None)) -> np.ndarray:
        """The vectors of *node*'s entries (or of the one at *pos*): its own
        copy when it carries one, else gathered from the database."""
        if node.rows is not None:
            return node.rows[pos]
        return self._plain_rows()[node.index[pos]]

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Dynamic insert — the M-tree's native operation (Section 4.3):
        descend, append to the leaf, split overflowing nodes upward.

        The descent is charged once, as the batched rows its per-level
        one-to-many calls amount to.
        """
        bound = self._port.bind_query(vector)
        path: list[tuple[object, int]] = []  # (node ref, chosen routing position)
        ref, node = None, self._load(None)
        descent = 0.0
        evaluated = 0
        while not node.is_leaf:
            dists = bound.compute_many(self._entry_rows(node)).tolist()
            evaluated += len(dists)
            radii = node.radius.tolist()
            pos = choose_subtree(dists, radii)
            descent = dists[pos]
            if descent > radii[pos]:
                node.radius[pos] = descent
                self._write_node(ref, node)
            path.append((ref, pos))
            ref = node.children[pos]
            node = self._load(ref)
        self._port.charge(rows=evaluated)
        node.append(index, 0.0, descent, row=vector)
        if len(node) <= self._capacity:
            self._write_node(ref, node)
        else:
            self._split(ref, node, path)

    def _split(self, ref: object, node: _Node, path: list[tuple[object, int]]) -> None:
        """Split overflowing *node* (stored at *ref*), propagating upward."""
        room = self._capacity + 1
        # One pairwise distance matrix serves both promotion scoring and the
        # final partition — the standard mM_RAD implementation trick that
        # keeps split cost at O(capacity^2) distance computations.
        pairwise = self._port.pairwise(self._entry_rows(node))
        first, second = self._promote(node.radius, pairwise)
        node1, node2, radius1, radius2 = partition(node, pairwise, first, second, room)
        # The first half takes the split node's place, the second a new one.
        child1 = self._write_node(ref, node1)
        child2 = self._write_node(self._alloc(), node2)
        if path:
            parent_ref, pos = path[-1]
            parent = self._load(parent_ref)
            parent.remove(pos)
        else:
            parent_ref = self._alloc()  # a new root, two entries
            parent = _Node.empty(
                False, room, None if node.rows is None else node.rows.shape[1]
            )
        grandparent = None
        if len(path) >= 2:
            above_ref, above_pos = path[-2]
            grandparent = self._port.bind_query(
                self._entry_rows(self._load(above_ref), above_pos)
            )
        # Routing entries keep the promoted object's database index so the
        # kernel layer can look up its cached row norm.
        for promoted, radius, child in ((first, radius1, child1), (second, radius2, child2)):
            row = self._entry_rows(node, promoted)
            to_parent = 0.0 if grandparent is None else grandparent.one(row)
            parent.append(int(node.index[promoted]), radius, to_parent, child, row)
        if len(parent) > self._capacity:
            self._split(parent_ref, parent, path[:-1])
        elif path:
            self._write_node(parent_ref, parent)
        else:
            self._set_root(self._write_node(parent_ref, parent))

    def _promote(self, subtree_radii: np.ndarray, pairwise: np.ndarray) -> tuple[int, int]:
        """Choose the two entries to promote as new routing objects."""
        n = pairwise.shape[0]
        if self._split_policy == "random":
            first, second = self._rng.choice(n, size=2, replace=False)
            return int(first), int(second)
        first, second = _pair_index(n)
        cap = self._max_promotion_pairs
        if cap is not None and first.shape[0] > cap:
            picks = self._rng.choice(first.shape[0], size=cap, replace=False)
            first, second = first[picks], second[picks]
        best = min_max_radius_pair(first, second, subtree_radii, pairwise)
        return int(first[best]), int(second[best])

    def _verify_state_probe(self) -> None:
        # dist_to_parent of a child-node entry is d(entry, parent routing
        # object) — recomputable without touching the counter.  A leaf root
        # has no such pair (bulk-built leaves store medoid distances whose
        # medoid identity is not kept), so it is skipped.
        root = self._load(None)
        if root.is_leaf or not len(root):
            return
        child = self._load(root.children[0])
        if not len(child):
            return
        probe = self._port.pair_uncounted(
            self._entry_rows(child, 0), self._entry_rows(root, 0)
        )
        if not np.isclose(probe, child.dist_to_parent[0], rtol=1e-6, atol=1e-9):
            raise StorageError(
                "supplied distance disagrees with the stored parent distances "
                "(wrong metric or wrong matrix?)"
            )

    # ------------------------------------------------------------------
    # the incremental cursor
    # ------------------------------------------------------------------

    def nearest_iter(self, query: ArrayLike):
        """Lazily yield neighbors in increasing distance order.

        The Hjaltason-Samet incremental algorithm: one priority queue holds
        both unexplored subtrees (keyed by their dmin) and concrete objects
        (keyed by their exact distance); popping an object is proof that no
        unexplored subtree can contain anything closer.  Consuming ``k``
        items costs no more distance evaluations than a kNN for the same
        ``k`` — and the caller does not need to fix ``k`` in advance
        (classic use: distance-ordered cursors in query pipelines).
        """
        q = as_vector(query, self.dim, name="query")
        bound = self._port.bind_query(q, self._data)
        data = self._plain_rows()
        counter = itertools.count()
        # Three item kinds, all keyed by a LOWER BOUND on any object
        # distance reachable through them, so a popped exact object beats
        # everything still queued:
        #   "entry"  — unevaluated node slot; key from the parent-distance
        #              bound, exact distance deferred until popped;
        #   "node"   — subtree whose routing distance is known; key dmin;
        #   "object" — exact distance, ready to yield.
        queue: list[tuple[float, int, str, object, float | None]] = []

        def push_entries(ref: object, d_query_routing: float | None) -> None:
            index, rows, dist_to_parent, radius, nodes = self._open_block([ref])
            is_leaf, children, n = nodes[0]
            if d_query_routing is None:
                keys = [0.0] * n
            else:
                bounds = parent_bounds(dist_to_parent, radius, d_query_routing)
                keys = np.maximum(bounds, 0.0).tolist()
            for pos, (key, entry, cover) in enumerate(zip(keys, index.tolist(), radius.tolist())):
                row = None if rows is None else rows[pos]  # None: gathered when popped
                child = None if is_leaf else children[pos]
                slot = (entry, row, cover, child)
                heapq.heappush(queue, (key, next(counter), "entry", slot, None))

        push_entries(None, None)
        while queue:
            priority, _, kind, payload, stashed = heapq.heappop(queue)
            if kind == "object":
                yield Neighbor(priority, payload)  # type: ignore[arg-type]
            elif kind == "entry":
                index, row, cover, child = payload  # type: ignore[misc]
                dist = bound.one(data[index] if row is None else row, index)
                if child is None:
                    heapq.heappush(queue, (dist, next(counter), "object", index, None))
                else:
                    dmin = max(dist - cover - prune_slack(dist, cover), 0.0)
                    heapq.heappush(queue, (dmin, next(counter), "node", child, dist))
            else:
                push_entries(payload, stashed)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum entries per node."""
        return self._capacity

    @property
    def split_policy(self) -> str:
        """The promotion policy used for node splits."""
        return self._split_policy

    def validate_invariants(self) -> None:
        """Verify covering-radius and dist-to-parent invariants (tests).

        Raises ``AssertionError`` on the first violation: every object in a
        routing entry's subtree must lie within its covering radius, and
        every stored ``dist_to_parent`` must equal the recomputed distance.
        """
        data = self._data

        def walk(ref: object, parent: int | None) -> list[int]:
            """Object indices under the node at *ref*, checked against
            routing object *parent*."""
            node = self._load(ref)
            below: list[int] = []
            for pos, index in enumerate(node.index.tolist()):
                if parent is not None:
                    actual = self._port.raw(self._entry_rows(node, pos), data[parent])
                    stored = node.dist_to_parent[pos]
                    assert np.isclose(actual, stored, atol=1e-8), (
                        f"dist_to_parent mismatch: {actual} != {stored}"
                    )
                if node.is_leaf:
                    below.append(index)
                    continue
                members = walk(node.children[pos], index)
                for member in members:
                    dist = self._port.raw(data[member], data[index])
                    assert dist <= node.radius[pos] + 1e-8, (
                        f"covering radius violated: {dist} > {node.radius[pos]}"
                    )
                below.extend(members)
            return below

        walk(None, None)


class MTree(MTreeSearchMixin, AccessMethod):
    """In-memory M-tree over a black-box metric.

    Parameters
    ----------
    database:
        ``(m, n)`` rows, inserted dynamically one by one (the paper builds
        its M-tree "by dynamic insertions in the same way as B-tree").
    distance:
        Black-box metric (port or plain callable).
    capacity:
        Maximum entries per node (>= 2).
    split_policy:
        ``"mM_RAD"`` (default) or ``"random"``.
    epsilon:
        Relative-error relaxation for kNN queries: with ``epsilon > 0``
        subtrees are pruned whenever they cannot contain an object closer
        than ``tau / (1 + epsilon)``, so every reported distance is within
        a factor ``(1 + epsilon)`` of the true kth distance while visiting
        fewer nodes — the classic approximate best-first trade-off
        (cf. the paper's reference [27]).  ``0`` (default) is exact.
    rng:
        Randomness for the random split policy and promotion sampling.
    """

    #: Nodes hold database *indices*; bulk loads, inserts and queries
    #: gather rows per node / per seed set / per cross chunk, so a
    #: memory-mapped database is never materialized on the heap.
    supports_out_of_core = True

    _max_promotion_pairs = 64

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        capacity: int = 16,
        split_policy: str = "mM_RAD",
        bulk_load: bool = False,
        epsilon: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._set_params(capacity, split_policy, epsilon)
        super().__init__(database, distance)
        self._rng = np.random.default_rng(0) if rng is None else rng
        if bulk_load:
            self._root, _, _ = self._bulk_build(np.arange(self.size, dtype=np.intp))
        else:
            self._root = _Node.empty(True, capacity + 1)
            data = self._plain_rows()
            for i in range(self.size):
                self._register_insert(i, data[i])

    # ------------------------------------------------------------------
    # bulk loading (Ciaccia & Patella style, simplified)
    # ------------------------------------------------------------------

    def _medoid_distances(self, rows: np.ndarray) -> tuple[int, np.ndarray]:
        """Medoid position plus its distances to every row.

        One physical pairwise matrix replaces the per-candidate loop; the
        charge replays the loop's logical pattern exactly — ``n`` rows per
        scored candidate (``n^2``) plus ``n`` for re-evaluating the winner.
        """
        n = rows.shape[0]
        matrix = self._port.pairwise(rows, charge=False)
        medoid = int(np.argmin(matrix.max(axis=1, initial=0.0)))
        self._port.charge(rows=n * n + n)
        return medoid, matrix[medoid]

    def _cluster_owners(self, seed_rows: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Nearest-seed assignment for every object in *indices*.

        The seed-to-object cross matrix is the one place a bulk load
        touches the whole database at once, so it is computed in chunks
        of ``port.block_rows`` candidate rows (the whole set when
        unblocked): each chunk materializes only ``block_rows`` records
        from the store, keeping an out-of-core build's heap bounded.  One
        explicit charge replays the logical cost of the full cross —
        identical to the unchunked call it replaces.
        """
        n = int(indices.shape[0])
        n_seeds = int(seed_rows.shape[0])
        owner = np.empty(n, dtype=np.intp)
        chunk = self._port.block_rows or n
        data = self._plain_rows()
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            block = data[indices[start:stop]]
            dist_matrix = self._port.cross(seed_rows, block, charge=False)
            owner[start:stop] = np.argmin(dist_matrix, axis=0)
        self._port.charge(rows=n_seeds * n)
        return owner

    def _release_source_pages(self) -> None:
        """Advise the OS to evict the database mapping's resident pages.

        Only meaningful for memory-mapped databases: the pages are clean
        and file-backed, so the next access simply re-faults them — no
        data moves, no float changes, only the measured RSS.  Called
        between *top-level* cluster builds so the source residency stays
        near one cluster's slice instead of the whole file.
        """
        mapped = getattr(self._data, "_mmap", None)
        if mapped is not None and hasattr(_mmap, "MADV_DONTNEED"):
            mapped.madvise(_mmap.MADV_DONTNEED)

    def _bulk_build(
        self,
        indices: np.ndarray,
        depth: int = 0,
    ) -> tuple[_Node, float, int]:
        """Recursive bulk build.

        Returns ``(node, covering_radius, routing_index)`` for the built
        subtree; the routing object is a database object, referenced by
        index.  Seeds are sampled, objects are clustered to their nearest
        seed, and subtrees are built per cluster — the classic recipe,
        trading strict height balance (which search correctness never
        needed) for tight clusters from the start.

        *indices* is an intp array into the database; rows are gathered
        from the store per leaf / per seed set / per cross chunk, never
        all at once, so a memory-mapped database is streamed rather than
        materialized.
        """
        n = int(indices.shape[0])
        data = self._plain_rows()
        if n <= self._capacity:
            medoid, dists = self._medoid_distances(data[indices])
            # Copies: a slice of *indices* or a row of the medoid matrix
            # would pin its whole parent array for the tree's lifetime.
            node = _Node(True, np.array(indices, np.intp), np.zeros(n), np.array(dists), [])
            return node, float(dists.max(initial=0.0)), int(indices[medoid])

        n_seeds = min(self._capacity, n)
        seed_positions = self._rng.choice(n, size=n_seeds, replace=False)
        owner = self._cluster_owners(data[indices[seed_positions]], indices)
        # Coincident seeds can dump every object into one cluster — no
        # progress, infinite recursion.  Chunk arbitrarily instead: with
        # (near-)identical objects any partition is equally tight.
        if int(np.bincount(owner, minlength=n_seeds).max()) == n:
            groups = [
                indices[start : start + self._capacity]
                for start in range(0, n, self._capacity)
            ]
        else:
            # Every seed owns at least itself, but a cluster can still
            # collapse when seeds coincide; drop empty groups.
            groups = [
                members
                for group_id in range(n_seeds)
                if (members := indices[np.flatnonzero(owner == group_id)]).size
            ]
        built = []
        for group in groups:
            built.append(self._bulk_build(group, depth + 1))
            if depth == 0:
                self._release_source_pages()
        if len(built) == 1:
            # Degenerate clustering (all seeds equal): the only child is
            # this subtree.
            return built[0]
        index = np.array([routing for _, _, routing in built], np.intp)
        radius = np.array([cover for _, cover, _ in built])
        medoid, dists = self._medoid_distances(data[index])
        node = _Node(False, index, radius, np.array(dists), [child for child, _, _ in built])
        return node, float((dists + radius).max(initial=0.0)), int(index[medoid])

    # ------------------------------------------------------------------
    # the node store: nodes are their own references
    # ------------------------------------------------------------------

    def _load(self, ref: _Node | None) -> _Node:
        return self._root if ref is None else ref

    def _write_node(self, ref: _Node | None, node: _Node) -> _Node:
        return node

    def _alloc(self) -> None:
        return None

    def _set_root(self, ref: _Node) -> None:
        self._root = ref

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def _preorder(self) -> list[_Node]:
        """Every node, parents before children, children in entry order."""
        nodes: list[_Node] = []
        pending = [self._root]
        while pending:
            node = pending.pop()
            nodes.append(node)
            pending.extend(reversed(node.children))
        return nodes

    def structural_state(self) -> dict[str, np.ndarray]:
        # Every entry's vector is self._data[index] (both the dynamic and
        # the bulk build promote actual database objects), so the topology
        # arrays below are the whole tree.
        nodes = self._preorder()
        ids = {id(node): nid for nid, node in enumerate(nodes)}
        entry_child = [
            [ids[id(child)] for child in node.children] or [-1] * len(node)
            for node in nodes
        ]
        return {
            "node_is_leaf": np.asarray([node.is_leaf for node in nodes], dtype=np.uint8),
            "node_entry_count": np.asarray([len(node) for node in nodes], dtype=np.int64),
            "entry_index": np.concatenate([node.index for node in nodes]).astype(np.int64),
            "entry_radius": np.concatenate([node.radius for node in nodes]),
            "entry_dist_to_parent": np.concatenate(
                [node.dist_to_parent for node in nodes]
            ),
            "entry_child": np.asarray(
                list(itertools.chain.from_iterable(entry_child)), dtype=np.int64
            ),
            "capacity": np.int64(self._capacity),
            "split_policy": np.str_(self._split_policy),
            "epsilon": np.float64(self._epsilon),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        is_leaf = state_array(state, "node_is_leaf")
        entry_count = state_array(state, "node_entry_count", dtype=np.int64)
        entry_index = state_array(state, "entry_index", dtype=np.int64)
        entry_radius = state_array(state, "entry_radius", dtype=np.float64)
        entry_dtp = state_array(state, "entry_dist_to_parent", dtype=np.float64)
        entry_child = state_array(state, "entry_child", dtype=np.int64)
        capacity = state_int(state, "capacity")
        split_policy = state_str(state, "split_policy")
        epsilon = state_float(state, "epsilon")
        super()._restore_state(state)

        n_nodes = is_leaf.shape[0]
        if n_nodes < 1 or entry_count.shape[0] != n_nodes:
            raise StorageError("M-tree snapshot: node arrays disagree")
        n_entries = int(entry_count.sum())
        for arr, label in (
            (entry_index, "entry_index"),
            (entry_radius, "entry_radius"),
            (entry_dtp, "entry_dist_to_parent"),
            (entry_child, "entry_child"),
        ):
            if arr.shape[0] != n_entries:
                raise StorageError(
                    f"M-tree snapshot: {label} has {arr.shape[0]} rows, "
                    f"expected {n_entries}"
                )
        self._set_params(capacity, split_policy, epsilon, error=StorageError)
        bad = np.flatnonzero((entry_index < 0) | (entry_index >= self.size))
        if bad.size:
            raise StorageError(
                f"M-tree snapshot: entry index {int(entry_index[bad[0]])} out of "
                f"range [0, {self.size})"
            )

        offsets = np.concatenate(([0], np.cumsum(entry_count))).tolist()
        nodes = [
            _Node(
                bool(is_leaf[nid]),
                entry_index[lo:hi].astype(np.intp),
                entry_radius[lo:hi].copy(),
                entry_dtp[lo:hi].copy(),
                [],
            )
            for nid, (lo, hi) in enumerate(zip(offsets, offsets[1:]))
        ]
        child_seen = np.zeros(n_nodes, dtype=bool)
        for nid, node in enumerate(nodes):
            links = entry_child[offsets[nid] : offsets[nid + 1]]
            if node.is_leaf:
                if (links != -1).any():
                    raise StorageError("M-tree snapshot: leaf entry points at a subtree")
                continue
            for child in links.tolist():
                # Preorder guarantees children come after their parent;
                # the seen-once check rules out shared subtrees/cycles.
                if not nid < child < n_nodes or child_seen[child]:
                    raise StorageError(
                        f"M-tree snapshot: invalid child link {child} from node {nid}"
                    )
                child_seen[child] = True
                node.children.append(nodes[child])
        if not child_seen[1:].all():
            raise StorageError("M-tree snapshot: unreachable nodes")
        self._rng = np.random.default_rng(0)
        self._root = nodes[0]

    # ------------------------------------------------------------------
    # queries (range and kNN: MTreeSearchMixin)
    # ------------------------------------------------------------------

    def _open_block(self, refs: list) -> tuple:
        """The block read hook: entries gathered from the database, so
        ``rows`` is ``None`` and a block is one ``data[index]`` gather."""
        nodes = [self._root if ref is None else ref for ref in refs]
        return (
            np.concatenate([node.index for node in nodes]),
            None,
            np.concatenate([node.dist_to_parent for node in nodes]),
            np.concatenate([node.radius for node in nodes]),
            [(node.is_leaf, node.children, node.index.shape[0]) for node in nodes],
        )

    def _node_label(self, ref: _Node | None, is_leaf: bool) -> str:
        return "leaf" if is_leaf else "internal"

    def height(self) -> int:
        """Tree height (1 for a single leaf root)."""
        h, node = 1, self._root
        while not node.is_leaf:
            h += 1
            node = node.children[0]
        return h

    def node_count(self) -> int:
        """Total number of nodes."""
        return len(self._preorder())
