"""Per-query tracing: the one cost record every layer reads.

The paper's cost model (Sections 4.2 and 5) prices every operation in
*distance computations*.  Each executed query has exactly one
:class:`QueryTrace`: the :class:`~repro.mam.base.DistancePort` charges
its scalar and batched evaluations to it, the traversal reports node
visits, prunes, filter outcomes and refined candidates through the
record's small vocabulary (:meth:`~QueryTrace.visit`,
:meth:`~QueryTrace.lb_check`, :meth:`~QueryTrace.prune`,
:meth:`~QueryTrace.filter`, :meth:`~QueryTrace.refine`,
:meth:`~QueryTrace.verify`, :meth:`~QueryTrace.result`), and — only when
EXPLAIN asked for it — the same calls fill the record's ``events``
detail.  Everything else is a *reader* of the finished record.  When
the query ends, the layer that owns the port folds the record's
evaluation totals into the model's
:class:`~repro.distances.base.CountingDistance` (:func:`fold_into`, one
lock acquisition: ``AccessMethod`` for a single query, the batch engine
for a batch); a thread-safe :class:`TraceCollector` aggregates records
into the quantities of the paper's Tables 1-2; and the registry, the
JSON log and EXPLAIN take their per-query numbers from its fields.

The open record rides the module's single :mod:`contextvars` variable,
so concurrently executing queries (one per worker thread) each write
their own record with plain attribute adds — no lock, nothing shared.
:class:`query_trace` opens a record or joins the one an outer layer
already opened (``explain_query`` → ``BuiltIndex`` → ``AccessMethod``
nest this way); :class:`activate_trace` is the one place a record is
made current and timed.

This module imports only from :mod:`repro.obs` (which imports nothing of
the library), so :mod:`repro.mam` modules can use it without import cycles.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, ClassVar, Iterable

from ..obs.events import ROOT, EventBuffer
from ..obs.instruments import nearest_rank

__all__ = [
    "QueryTrace",
    "TraceSummary",
    "TraceCollector",
    "current_trace",
    "activate_trace",
    "query_trace",
    "fold_into",
]

_ACTIVE_TRACE: contextvars.ContextVar["QueryTrace | None"] = contextvars.ContextVar(
    "repro_active_query_trace", default=None
)


@dataclass
class QueryTrace:
    """Cost record of one executed query.

    Attributes
    ----------
    query_index:
        Position of the query inside its batch.
    kind:
        ``"range"`` or ``"knn"``.
    parameter:
        The radius (range) or ``k`` (kNN).
    scalar_evaluations:
        Distance evaluations made one pair at a time
        (``DistancePort.pair``).
    batched_evaluations:
        Logical evaluations made through vectorized one-to-many calls
        (``DistancePort.many``); each row counts as one computation,
        matching :class:`~repro.distances.base.DistanceStats`.
    filter_checked:
        Objects subjected to a cheap lower-bound test (0 when the
        structure exposes no filter stage).
    filter_hits:
        Objects that survived the lower-bound filter (the paper's ``x``
        candidate count for the pivot table).
    candidates:
        Objects verified with a real distance during refinement.
    results:
        Size of the final answer set.
    seconds:
        Wall-clock time of the query, including any filter work.
    nodes_visited:
        Index nodes whose entries the traversal examined (0 for flat
        structures) — the M-tree node accounting of Ciaccia et al.
    nodes_pruned:
        Subtrees discarded by a cheap lower bound without being
        descended — the per-MAM pruning effectiveness measure.
    events:
        The EXPLAIN detail: an :class:`~repro.obs.events.EventBuffer`
        attached by ``explain_query``, ``None`` otherwise.  A class-level
        default rather than a field, so a plain record carries, pickles
        and exports only its scalar fields.
    """

    query_index: int = 0
    kind: str = "knn"
    parameter: float = 0.0
    scalar_evaluations: int = 0
    batched_evaluations: int = 0
    filter_checked: int = 0
    filter_hits: int = 0
    candidates: int = 0
    results: int = 0
    seconds: float = 0.0
    nodes_visited: int = 0
    nodes_pruned: int = 0
    events: ClassVar["EventBuffer | None"] = None

    @property
    def distance_evaluations(self) -> int:
        """Total logical distance computations (scalar + batched)."""
        return self.scalar_evaluations + self.batched_evaluations

    # -- the traversal vocabulary ---------------------------------------
    # Counting calls are plain attribute adds; the ``events`` detail, when
    # attached, sees the same call.  Node tokens are EXPLAIN's: ROOT (-1)
    # whenever no detail is collected, so ``tok >= 0`` guards work that
    # exists only for EXPLAIN.

    def charge(self, calls: int = 0, rows: int = 0) -> None:
        """Logical distance evaluations (the :class:`DistancePort` hook)."""
        self.scalar_evaluations += calls
        self.batched_evaluations += rows
        if self.events is not None:
            self.events.charge(calls, rows)

    def visit(self, parent: int = ROOT, label: str = "", *, count: int = 1) -> int:
        """Enter an index node (or, with ``count=0``, a phase of a flat
        structure that EXPLAIN groups work under); returns its token."""
        self.nodes_visited += count
        if self.events is None:
            return ROOT
        return self.events.enter_node(parent, label)

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
        """A cheap lower-bound test with its actual values (detail only)."""
        if self.events is not None:
            self.events.lb_check(
                node, value, threshold, pruned=pruned, count=count, label=label
            )

    def prune(self, node: int, count: int = 1, label: str = "") -> None:
        """*count* subtrees discarded by a lower bound without descending."""
        self.nodes_pruned += count
        if self.events is not None:
            self.events.prune(node, count, label)

    def filter(self, checked: int, hits: int) -> None:
        """A filter stage's outcome: *checked* objects tested, *hits* kept."""
        self.filter_checked += checked
        self.filter_hits += hits

    def refine(self, count: int) -> None:
        """*count* filter survivors refined with real distances — the
        ``x`` of the paper's ``p + x`` pivot-table querying cost."""
        self.candidates += count

    def verify(self, node: int, index: int, distance: float, count: int = 1) -> None:
        """An object verified with a real distance (detail only)."""
        if self.events is not None:
            self.events.candidate_verify(node, index, distance, count)

    def result(self, node: int, index: int, distance: float) -> None:
        """An object entering the answer set (detail only)."""
        if self.events is not None:
            self.events.result_add(node, index, distance)


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate of many :class:`QueryTrace` records.

    ``distance_evaluations`` is the same quantity the paper's Tables 1-2
    report per query batch (and :class:`CountingDistance` counts per
    model).  ``seconds`` is the *summed per-query* wall time;
    ``batch_seconds`` is the wall clock measured around the whole batch
    by :class:`~repro.engine.batch.QueryBatch` (0 when the traces were
    aggregated outside the batch engine).  Under the thread/process
    executors the two diverge — per-query times overlap — so
    ``queries_per_second`` derives throughput from ``batch_seconds``
    whenever it was measured, and the old summed-time estimate survives
    as ``serial_queries_per_second``.
    """

    queries: int
    distance_evaluations: int
    scalar_evaluations: int
    batched_evaluations: int
    filter_checked: int
    filter_hits: int
    candidates: int
    results: int
    seconds: float
    batch_seconds: float = 0.0
    nodes_visited: int = 0
    nodes_pruned: int = 0
    #: Nearest-rank percentiles of the per-query wall times (0.0 when no
    #: traces were collected) — tail latency next to the mean throughput.
    p50_seconds: float = 0.0
    p95_seconds: float = 0.0

    @property
    def evaluations_per_query(self) -> float:
        """Mean logical distance computations per query."""
        if self.queries == 0:
            return 0.0
        return self.distance_evaluations / self.queries

    @property
    def queries_per_second(self) -> float:
        """Throughput from the batch wall clock (parallelism-aware).

        Falls back to :attr:`serial_queries_per_second` when no batch
        wall time was measured, so callers that aggregate hand-built
        traces keep getting a sensible number.
        """
        if self.batch_seconds > 0.0:
            return self.queries / self.batch_seconds
        return self.serial_queries_per_second

    @property
    def serial_queries_per_second(self) -> float:
        """Throughput implied by the summed per-query wall time.

        Overstates q/s under parallel executors (per-query times overlap
        wall time); kept for comparing per-query work across executors.
        """
        if self.seconds <= 0.0:
            return 0.0
        return self.queries / self.seconds


class TraceCollector:
    """Thread-safe sink for completed :class:`QueryTrace` records."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._traces: list[QueryTrace] = []
        self._batch_seconds = 0.0

    def add(self, trace: QueryTrace) -> None:
        """Record one finished query (called from worker threads)."""
        with self._lock:
            self._traces.append(trace)

    def extend(self, traces: Iterable[QueryTrace]) -> None:
        """Record many finished queries at once."""
        with self._lock:
            self._traces.extend(traces)

    def add_batch_seconds(self, seconds: float) -> None:
        """Accumulate wall clock measured around a whole executed batch.

        Called once per :meth:`QueryBatch.run`; when several batches feed
        one collector, their wall times add up (they ran back to back).
        """
        with self._lock:
            self._batch_seconds += seconds

    @property
    def batch_seconds(self) -> float:
        """Total batch wall clock recorded so far."""
        with self._lock:
            return self._batch_seconds

    @property
    def traces(self) -> list[QueryTrace]:
        """Snapshot of the collected records, in batch order."""
        with self._lock:
            return sorted(self._traces, key=lambda t: t.query_index)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def clear(self) -> None:
        """Drop all collected records."""
        with self._lock:
            self._traces.clear()

    def summary(self) -> TraceSummary:
        """Aggregate every collected trace into one cost row."""
        with self._lock:
            traces = list(self._traces)
            batch_seconds = self._batch_seconds
        times = sorted(t.seconds for t in traces)
        return TraceSummary(
            queries=len(traces),
            distance_evaluations=sum(t.distance_evaluations for t in traces),
            scalar_evaluations=sum(t.scalar_evaluations for t in traces),
            batched_evaluations=sum(t.batched_evaluations for t in traces),
            filter_checked=sum(t.filter_checked for t in traces),
            filter_hits=sum(t.filter_hits for t in traces),
            candidates=sum(t.candidates for t in traces),
            results=sum(t.results for t in traces),
            seconds=sum(t.seconds for t in traces),
            batch_seconds=batch_seconds,
            nodes_visited=sum(t.nodes_visited for t in traces),
            nodes_pruned=sum(t.nodes_pruned for t in traces),
            p50_seconds=nearest_rank(times, 0.50),
            p95_seconds=nearest_rank(times, 0.95),
        )


def current_trace() -> QueryTrace | None:
    """The record of the query executing in this context, if any."""
    return _ACTIVE_TRACE.get()


class activate_trace:
    """Run the block as (part of) *trace*'s query: current, and timed.

    A record may be activated several times — a vectorized chunk plan
    (the sequential file's) scans for each query first and collects its
    hits later — so the wall time accumulates.  (A plain class rather
    than a generator context manager: this brackets every query.)
    """

    __slots__ = ("_trace", "_token", "_start")

    def __init__(self, trace: QueryTrace) -> None:
        self._trace = trace

    def __enter__(self) -> QueryTrace:
        self._token = _ACTIVE_TRACE.set(self._trace)
        self._start = perf_counter()
        return self._trace

    def __exit__(self, *exc: object) -> None:
        self._trace.seconds += perf_counter() - self._start
        _ACTIVE_TRACE.reset(self._token)


def fold_into(counter: Any, traces: Iterable[QueryTrace]) -> None:
    """Feed finished records' evaluation totals to *counter*, one lock
    acquisition for all of them (``None``: an uncounted distance)."""
    if counter is None:
        return
    calls = rows = 0
    for trace in traces:
        calls += trace.scalar_evaluations
        rows += trace.batched_evaluations
    if calls or rows:
        counter.add_counts(calls=calls, batch_rows=rows)


class query_trace:
    """The cost record of the one query run in the block.

    Joins the record an outer layer opened, if any — the remaining
    arguments are then the outer layer's business.  Otherwise opens one
    (*events* attaches the EXPLAIN detail) and hands it to *collector*
    when the block ends.  Feeding a distance counter is not done here:
    the layer that owns the port does it (:func:`fold_into`).
    """

    __slots__ = ("_make", "_collector", "_scope")

    def __init__(
        self,
        kind: str,
        parameter: float,
        *,
        query_index: int = 0,
        events: "EventBuffer | None" = None,
        collector: "TraceCollector | None" = None,
    ) -> None:
        self._make = (query_index, kind, parameter, events)
        self._collector = collector
        self._scope: activate_trace | None = None

    def __enter__(self) -> QueryTrace:
        trace = _ACTIVE_TRACE.get()
        if trace is not None:
            return trace
        query_index, kind, parameter, events = self._make
        trace = QueryTrace(query_index=query_index, kind=kind, parameter=float(parameter))
        if events is not None:
            trace.events = events
        self._scope = activate_trace(trace)
        return self._scope.__enter__()

    def __exit__(self, *exc: object) -> None:
        scope = self._scope
        if scope is not None:
            scope.__exit__(*exc)
            if self._collector is not None:
                self._collector.add(scope._trace)
