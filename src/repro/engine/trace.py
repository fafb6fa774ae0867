"""Per-query tracing: where do the distance evaluations go?

The paper's cost model (Sections 4.2 and 5) prices every operation in
*distance computations*; :class:`~repro.distances.base.CountingDistance`
already totals them per model.  This module adds the per-query
granularity the batch engine needs: each executed query gets a
:class:`QueryTrace` recording its scalar and batched evaluations (both
observed at the :class:`~repro.mam.base.DistancePort` boundary), its
lower-bound filter outcome, the number of candidates refined with real
distances, and its wall time.  A thread-safe :class:`TraceCollector`
aggregates the records into the same quantities the paper's Tables 1-2
report.

The active trace is tracked with a :mod:`contextvars` variable, so
concurrently executing queries (one per worker thread) each record into
their own trace without locking on the hot path.  Access methods that
know their filter structure (the pivot table's hyper-cube test, the
sequential scan's trivial all-candidates "filter") report it through
:func:`record_filter`; everything else still gets exact evaluation
counts through the port.

This module deliberately imports nothing from the rest of the library so
that :mod:`repro.mam` modules can use the hooks without import cycles.
"""

from __future__ import annotations

import contextvars
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "QueryTrace",
    "TraceSummary",
    "TraceCollector",
    "TracingPort",
    "current_trace",
    "activate_trace",
    "record_filter",
    "record_candidates",
    "record_node_visit",
    "record_pruned",
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

    @property
    def distance_evaluations(self) -> int:
        """Total logical distance computations (scalar + batched)."""
        return self.scalar_evaluations + self.batched_evaluations


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


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted values (0.0 when empty).

    The nearest-rank definition: the smallest value whose rank
    ``ceil(q * n)`` covers fraction *q* of the samples.  A single-element
    batch therefore yields p50 == p95 == that sample.  The rank is clamped
    into ``[1, n]`` so q=0 maps to the minimum and floating-point noise in
    ``q * n`` (e.g. ``1.0 * n`` landing a hair above ``n``) can never index
    past the end.
    """
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    rank = min(max(math.ceil(q * n), 1), n)
    return sorted_values[rank - 1]


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
            p50_seconds=_nearest_rank(times, 0.50),
            p95_seconds=_nearest_rank(times, 0.95),
        )


def current_trace() -> QueryTrace | None:
    """The trace of the query executing in this thread, if any."""
    return _ACTIVE_TRACE.get()


@contextmanager
def activate_trace(trace: QueryTrace | None) -> Iterator[QueryTrace | None]:
    """Make *trace* the active trace for the duration of the block.

    Passing ``None`` is a no-op, so call sites need no branching.
    """
    if trace is None:
        yield None
        return
    token = _ACTIVE_TRACE.set(trace)
    try:
        yield trace
    finally:
        _ACTIVE_TRACE.reset(token)


def record_filter(checked: int, hits: int) -> None:
    """Report a lower-bound filter outcome to the active trace (if any).

    Access methods with an explicit filter stage call this once per
    query: *checked* objects went through the cheap test, *hits*
    survived and became refinement candidates.
    """
    trace = _ACTIVE_TRACE.get()
    if trace is not None:
        trace.filter_checked += checked
        trace.filter_hits += hits


def record_candidates(count: int) -> None:
    """Report refined-candidate count to the active trace (if any).

    Called by access methods when they verify *count* objects with real
    distance evaluations — the ``x`` of the paper's ``p + x`` pivot-table
    querying cost.
    """
    trace = _ACTIVE_TRACE.get()
    if trace is not None:
        trace.candidates += count


def record_node_visit(count: int = 1) -> None:
    """Report that *count* index nodes had their entries examined.

    Tree access methods call this once per node whose entries the
    traversal actually processes; flat structures never call it.
    """
    trace = _ACTIVE_TRACE.get()
    if trace is not None:
        trace.nodes_visited += count


def record_pruned(count: int = 1) -> None:
    """Report that *count* subtrees were discarded by a cheap lower bound.

    Called by tree access methods when a covering-radius / hyperplane /
    ring test excludes a child without descending into it.
    """
    trace = _ACTIVE_TRACE.get()
    if trace is not None:
        trace.nodes_pruned += count


class TracingPort:
    """Decorator around a :class:`~repro.mam.base.DistancePort`.

    Forwards every evaluation to the wrapped port (so model-level
    :class:`CountingDistance` counters keep counting) and charges it to
    the thread's active :class:`QueryTrace` — scalar pairs and batched
    rows separately, matching the split of
    :class:`~repro.distances.base.DistanceStats`.  Filter outcomes and
    refined-candidate counts are reported by the access methods through
    :func:`record_filter` / :func:`record_candidates`.

    Duck-typed rather than subclassing ``DistancePort`` to keep this
    module free of :mod:`repro.mam` imports.
    """

    def __init__(self, inner) -> None:  # noqa: ANN001 - duck-typed DistancePort
        self._inner = inner

    def pair(self, u, v) -> float:  # noqa: ANN001
        trace = _ACTIVE_TRACE.get()
        if trace is not None:
            trace.scalar_evaluations += 1
        return self._inner.pair(u, v)

    def many(self, q, rows):  # noqa: ANN001
        out = self._inner.many(q, rows)
        trace = _ACTIVE_TRACE.get()
        if trace is not None:
            trace.batched_evaluations += int(out.shape[0])
        return out

    def bind_query(self, query, data=None):  # noqa: ANN001
        """Bound queries charge the active trace themselves — just forward."""
        return self._inner.bind_query(query, data)

    def charge(self, *, calls: int = 0, rows: int = 0) -> None:
        return self._inner.charge(calls=calls, rows=rows)

    def pairwise(self, rows, *, charge: bool = True):  # noqa: ANN001
        return self._inner.pairwise(rows, charge=charge)

    def cross(self, rows_a, rows_b, *, charge: bool = True):  # noqa: ANN001
        return self._inner.cross(rows_a, rows_b, charge=charge)

    def attach_database(self, data) -> None:  # noqa: ANN001
        self._inner.attach_database(data)

    def database_grew(self, previous, data) -> None:  # noqa: ANN001
        self._inner.database_grew(previous, data)

    @property
    def kernel(self):  # noqa: ANN001
        return self._inner.kernel

    @property
    def raw(self):  # noqa: ANN001
        return self._inner.raw

    @property
    def inner(self):  # noqa: ANN001
        """The wrapped port (used to unwrap after a traced batch)."""
        return self._inner
