"""Structured traversal events: the raw material of query EXPLAIN.

The paper prices every query in *distance computations*; a
:class:`~repro.engine.trace.QueryTrace` says how many were spent, but not
*where*.  An :class:`EventBuffer` is the record's optional ``events``
detail that says where: ``explain_query`` attaches one, and every call of
the record's traversal vocabulary then also lands here —

* ``node_enter`` — a tree node's entries are about to be examined;
* ``lb_check`` — a cheap lower-bound test, with the **actual bound and
  threshold values** (cf. the bound-centric analysis of Ptolemaic
  indexing) and whether it pruned;
* ``prune`` — a subtree/cluster discarded without being descended;
* ``candidate_verify`` — an object verified with a real distance;
* ``result_add`` — an object added to the answer set;

plus a charge for every logical distance evaluation the
:class:`~repro.mam.base.DistancePort` counts, attributed to the node
being scanned.

Two guarantees shape the design:

1. **Allocated only for EXPLAIN.**  A record without a buffer runs the
   same traversal code and skips the detail behind one attribute test,
   so query answers and all counts are identical with and without it.
2. **Exact totals under bounding.**  The *event record list* is bounded
   (``max_events``) and optionally stride-sampled (``sample_every``) for
   the high-cardinality kinds, but the per-node and global aggregates —
   including the charged scalar/batched evaluation split — are updated
   unconditionally.  ExplainPlan totals therefore equal the record's
   evaluation counts exactly no matter how small the buffer is.

Layering: this module imports nothing from the rest of the library
(enforced by the TID251 ban on ``repro.obs`` importing mam/models);
:mod:`repro.engine.trace` imports *it*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["EVENT_KINDS", "ROOT", "TraversalEvent", "NodeStats", "EventBuffer"]

#: The event vocabulary, in emission-site order.
EVENT_KINDS = ("node_enter", "lb_check", "prune", "candidate_verify", "result_add")

#: Pseudo-token for "no node": the parent of top-level nodes, the owner of
#: work done before any node is entered (e.g. the pivot table's query-to-
#: pivot distances), and what ``QueryTrace.visit`` returns when the record
#: collects no detail.
ROOT = -1

_NAN = float("nan")


@dataclass(frozen=True)
class TraversalEvent:
    """One recorded traversal event.

    Attributes
    ----------
    seq:
        Global emission order (0-based, shared across kinds).
    kind:
        One of :data:`EVENT_KINDS`.
    node:
        Token of the node this event belongs to — for ``node_enter`` the
        newly entered node itself, otherwise the node whose processing
        emitted it (:data:`ROOT` for pre/post-traversal work).
    parent:
        For ``node_enter``: the parent node's token (:data:`ROOT` for a
        top-level node).  Unused otherwise.
    label:
        Structure-specific annotation (``"leaf"``, ``"internal"``,
        ``"cluster 3"``, a pruning-rule name, ...).
    value:
        The actual lower-bound value (``lb_check``) or the verified
        distance (``candidate_verify`` / ``result_add``); NaN when not
        applicable.
    threshold:
        The value the bound was compared against — query radius plus
        covering radius, the current kNN pruning radius, ... ; NaN when
        not applicable.
    count:
        How many objects/subtrees this event covers (aggregated checks
        and prunes carry counts > 1).
    index:
        Database object index (``candidate_verify`` / ``result_add``),
        -1 otherwise.
    pruned:
        For ``lb_check``: whether the test excluded its target.
    """

    seq: int
    kind: str
    node: int
    parent: int = ROOT
    label: str = ""
    value: float = _NAN
    threshold: float = _NAN
    count: int = 1
    index: int = -1
    pruned: bool = False

    def to_dict(self) -> dict:
        """JSON-able form: NaN fields omitted, numpy scalars coerced.

        Emission sites pass whatever the traversal computed (often numpy
        scalars, whose bool is not JSON serializable), so the coercion to
        builtins happens once here.
        """
        out: dict = {"seq": self.seq, "kind": self.kind, "node": self.node}
        if self.kind == "node_enter":
            out["parent"] = int(self.parent)
        if self.label:
            out["label"] = self.label
        if not math.isnan(self.value):
            out["value"] = float(self.value)
        if not math.isnan(self.threshold):
            out["threshold"] = float(self.threshold)
        if self.count != 1:
            out["count"] = int(self.count)
        if self.index >= 0:
            out["index"] = int(self.index)
        if self.kind == "lb_check":
            out["pruned"] = bool(self.pruned)
        return out


class NodeStats:
    """Exact per-node aggregates (maintained even when records are dropped)."""

    __slots__ = (
        "parent",
        "label",
        "order",
        "charged_calls",
        "charged_rows",
        "lb_checks",
        "pruned",
        "candidates",
        "results",
    )

    def __init__(self, parent: int = ROOT, label: str = "", order: int = 0) -> None:
        self.parent = parent
        self.label = label
        self.order = order
        self.charged_calls = 0
        self.charged_rows = 0
        self.lb_checks = 0
        self.pruned = 0
        self.candidates = 0
        self.results = 0

    @property
    def charged_total(self) -> int:
        """Logical distance computations charged while this node was current."""
        return self.charged_calls + self.charged_rows


class EventBuffer:
    """Bounded, optionally sampled sink for traversal events.

    Parameters
    ----------
    max_events:
        Cap on the number of *recorded* event objects (aggregates keep
        updating past the cap; :attr:`dropped` counts the overflow).
    sample_every:
        Record only every N-th ``lb_check`` / ``candidate_verify`` event
        (the per-object, high-cardinality kinds).  Structural kinds
        (``node_enter``, ``prune``, ``result_add``) are never sampled,
        only capped.  :attr:`sampled_out` counts the skips.

    The per-node registry (:attr:`nodes`) and global totals are exact and
    unbounded: a single query enters at most O(m) nodes, so the memory a
    traversal can pin here is the event list — which is what's capped.
    """

    def __init__(self, *, max_events: int = 10_000, sample_every: int = 1) -> None:
        if max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.max_events = max_events
        self.sample_every = sample_every
        self.events: list[TraversalEvent] = []
        self.dropped = 0
        self.sampled_out = 0
        #: Most recently entered node; charges are attributed to it.
        self.current = ROOT
        #: token -> exact per-node aggregates; ROOT is always present.
        self.nodes: dict[int, NodeStats] = {ROOT: NodeStats(parent=ROOT, label="(query)")}
        # exact global totals
        self.nodes_entered = 0
        self.lb_checks = 0
        #: label -> [checks, pruned]; exact per-bound-kind aggregates,
        #: updated unconditionally like the other totals.  This is what
        #: lets EXPLAIN put triangle and Ptolemaic prune counts side by
        #: side even when the event list is capped or sampled.
        self.lb_labels: dict[str, list[int]] = {}
        self.pruned = 0
        self.candidates_verified = 0
        self.results_added = 0
        self.charged_calls = 0
        self.charged_rows = 0
        self._seq = 0
        self._next_token = 0
        self._stride = 0

    # -- recording ------------------------------------------------------

    def _record(self, event: TraversalEvent) -> None:
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1

    def _take_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def enter_node(self, parent: int = ROOT, label: str = "") -> int:
        """Allocate a token for a newly entered node and record the event."""
        token = self._next_token
        self._next_token += 1
        self.nodes[token] = NodeStats(parent=parent, label=label, order=token)
        self.nodes_entered += 1
        self.current = token
        self._record(
            TraversalEvent(
                seq=self._take_seq(), kind="node_enter", node=token,
                parent=parent, label=label,
            )
        )
        return token

    def lb_check(
        self,
        node: int,
        value: float,
        threshold: float,
        *,
        pruned: bool,
        count: int = 1,
        label: str = "",
    ) -> None:
        """A lower-bound test with its actual bound and threshold values."""
        stats = self.nodes.get(node)
        if stats is None:
            stats = self.nodes[ROOT]
        stats.lb_checks += count
        self.lb_checks += count
        if label:
            agg = self.lb_labels.setdefault(label, [0, 0])
            agg[0] += count
            if pruned:
                agg[1] += count
        self._stride += 1
        if self._stride % self.sample_every:
            self.sampled_out += 1
            return
        self._record(
            TraversalEvent(
                seq=self._take_seq(), kind="lb_check", node=node, label=label,
                value=value, threshold=threshold, count=count, pruned=pruned,
            )
        )

    def prune(self, node: int, count: int = 1, label: str = "") -> None:
        """*count* subtrees/clusters discarded without being descended."""
        if count <= 0:
            return
        stats = self.nodes.get(node)
        if stats is None:
            stats = self.nodes[ROOT]
        stats.pruned += count
        self.pruned += count
        self._record(
            TraversalEvent(
                seq=self._take_seq(), kind="prune", node=node,
                label=label, count=count,
            )
        )

    def candidate_verify(
        self, node: int, index: int, distance: float, count: int = 1
    ) -> None:
        """An object (or a batch of *count*) verified with a real distance."""
        stats = self.nodes.get(node)
        if stats is None:
            stats = self.nodes[ROOT]
        stats.candidates += count
        self.candidates_verified += count
        self._stride += 1
        if self._stride % self.sample_every:
            self.sampled_out += 1
            return
        self._record(
            TraversalEvent(
                seq=self._take_seq(), kind="candidate_verify", node=node,
                value=distance, count=count, index=index,
            )
        )

    def result_add(self, node: int, index: int, distance: float) -> None:
        """An object added to the final answer."""
        stats = self.nodes.get(node)
        if stats is None:
            stats = self.nodes[ROOT]
        stats.results += 1
        self.results_added += 1
        self._record(
            TraversalEvent(
                seq=self._take_seq(), kind="result_add", node=node,
                value=distance, index=index,
            )
        )

    def charge(self, calls: int = 0, rows: int = 0) -> None:
        """Logical distance evaluations charged while :attr:`current` runs.

        Called by ``QueryTrace.charge`` with the very numbers it adds to
        the record — which is what makes the explain totals equal the
        record's (and so the counter's) evaluation counts exactly.
        """
        if not (calls or rows):
            return
        stats = self.nodes.get(self.current)
        if stats is None:
            stats = self.nodes[ROOT]
        stats.charged_calls += calls
        stats.charged_rows += rows
        self.charged_calls += calls
        self.charged_rows += rows

    # -- introspection --------------------------------------------------

    @property
    def charged_total(self) -> int:
        """Total logical distance computations charged (scalar + batched)."""
        return self.charged_calls + self.charged_rows

    def children_of(self, token: int) -> list[int]:
        """Tokens of *token*'s children, in entry order."""
        return sorted(
            (t for t, s in self.nodes.items() if t != ROOT and s.parent == token),
            key=lambda t: self.nodes[t].order,
        )

    def events_for(self, token: int, kinds: "tuple[str, ...] | None" = None) -> list[TraversalEvent]:
        """Recorded events attributed to *token* (optionally by kind)."""
        return [
            ev
            for ev in self.events
            if ev.node == token and (kinds is None or ev.kind in kinds)
        ]
