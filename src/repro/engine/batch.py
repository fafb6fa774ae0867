"""The batch query planner: many queries, one execution plan.

A :class:`QueryBatch` bundles homogeneous queries (all-range or all-kNN
with shared parameters), validates them once, and executes them against
any :class:`~repro.mam.base.AccessMethod` through a pluggable
:class:`~repro.engine.executors.BatchExecutor`, one way for all of them:

* the executor splits the batch into contiguous chunks (one for the
  serial executor, so a structure with a vectorized batch hook — the
  sequential file — amortizes its per-scan work across the whole batch);
* every query has its own :class:`~repro.engine.trace.QueryTrace`, made
  here; each chunk — run inline, by a pool thread or by a worker
  process — receives its queries with their records and hands back
  ``(results, records, worker-registry state, error)``;
* the parent folds the returned records' totals into the index's
  distance counter in one step, merges any worker registry state,
  reports the batch once (:func:`repro.obs.report_queries`; an attached
  :class:`~repro.engine.trace.TraceCollector` reads the same records),
  and only then re-raises a chunk's error — so the counter reads the
  same under every executor, also when a query raises.

Results are, by construction, bit-identical to looping the single-query
entry points: chunk hooks reuse the exact per-query search code (or a
reduction that is float-exact), and ordering guarantees are unchanged.
"""

from __future__ import annotations

import functools
import os
import traceback
from contextlib import ExitStack, nullcontext
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from .._typing import ArrayLike, as_vector_batch
from ..exceptions import QueryError
from ..obs import (
    BATCH_OWNER,
    MetricsRegistry,
    TraceContext,
    activate_trace_context,
    current_span,
    current_trace_context,
    get_logger,
    get_registry,
    report_queries,
    span,
    trace_scope,
    use_registry,
)
from .executors import BatchExecutor, resolve_executor
from .trace import QueryTrace, TraceCollector, fold_into

if TYPE_CHECKING:  # imported lazily at runtime to keep the layering acyclic
    from ..mam.base import AccessMethod, Neighbor

__all__ = ["QueryBatch"]


def _method_label(am: "AccessMethod") -> str:
    """Registry name of *am* for metric labels (class name as fallback).

    Uses the same label vocabulary as the model layer
    (``method="mtree"``, not ``method="MTree"``), so the funneled batch
    metrics join with the model's distance counters.  Imported lazily:
    the engine sits below :mod:`repro.models` in the layering.
    """
    try:
        from ..models.base import MAM_REGISTRY, SAM_REGISTRY

        for name, cls in {**MAM_REGISTRY, **SAM_REGISTRY}.items():
            if type(am) is cls:
                return name
    except Exception:
        pass
    return type(am).__name__


def _obs_payload(metrics: bool, method: str) -> "dict | None":
    """What a chunk needs of the parent's observability state.

    The request's :class:`TraceContext`, re-rooted at the open batch span
    so chunk spans parent there rather than at the trace root (pool
    threads and worker processes inherit neither), whether the parent
    registry is live, the method label, and the parent's pid — by which a
    chunk tells whether it landed in a worker process.  ``None`` outside
    any request: the chunk then runs bare.
    """
    context = current_trace_context()
    if context is None:
        return None
    parent = current_span()
    if parent is not None and parent.span_id:
        context = TraceContext(context.trace_id, parent.span_id, parent.parent_span_id)
    return {"context": context, "metrics": metrics, "method": method, "pid": os.getpid()}


class _WorkerTraceback(Exception):
    """The formatted stack of an exception a worker process sent home."""


def _run_chunk(
    task: "tuple[np.ndarray, list[QueryTrace]]",
    *,
    am: "AccessMethod",
    kind: str,
    parameter: float,
    obs: "dict | None",
) -> "tuple[list, list[QueryTrace], dict | None, tuple[Exception, str] | None]":
    """Execute one contiguous chunk: its queries, under their records.

    Returns ``(results, records, registry state, error)``, *error* being
    ``None`` or the exception a query raised with its formatted stack.
    Nothing here touches a distance counter or raises that exception: the
    parent folds, merges, reports and re-raises, once, for every executor.
    The records come back filled as far as the chunk got (in a worker
    process they are copies, which is why they are returned at all).

    In a worker process with metrics on, the chunk runs against a
    **fresh registry** under a ``query/chunk/<kind>`` span, and the
    registry's :meth:`~repro.obs.MetricsRegistry.dump_state` is the third
    slot — this is what makes timelines and ``/metrics`` totals complete
    under ``--executor process``.  In the parent's process the active
    registry is already the right one.
    """
    queries, records = task
    registry = None
    if obs is not None and obs["metrics"] and obs["pid"] != os.getpid():
        registry = MetricsRegistry()
    results: "list[list[Neighbor]]" = []
    error = None
    try:
        with ExitStack() as stack:
            if obs is not None:
                stack.enter_context(activate_trace_context(obs["context"]))
            if registry is not None:
                stack.enter_context(use_registry(registry))
                stack.enter_context(
                    span(f"query/chunk/{kind}", method=obs["method"], queries=len(records))
                )
            if kind == "range":
                results = am._range_search_batch(queries, parameter, records)
            else:
                results = am._knn_search_batch(queries, int(parameter), records)
    except Exception as exc:
        # A traceback does not survive the pickle home from a worker
        # process; its text does, as the cause the parent re-raises from.
        error = (exc, traceback.format_exc())
    return results, records, None if registry is None else registry.dump_state(), error


class QueryBatch:
    """A homogeneous batch of similarity queries plus its execution plan.

    Build one with :meth:`range_queries` or :meth:`knn_queries`, then
    :meth:`run` it against an access method.  The planner owns batch-wide
    validation (dimensionality, radius/k) so the per-query hot path skips
    it, and guarantees results in input-query order.
    """

    def __init__(self, kind: str, queries: ArrayLike, parameter: float) -> None:
        if kind not in ("range", "knn"):
            raise QueryError(f"query kind must be 'range' or 'knn', got {kind!r}")
        self.kind = kind
        self.queries = queries
        self.parameter = parameter

    @classmethod
    def range_queries(cls, queries: ArrayLike, radius: float) -> "QueryBatch":
        """A batch of range queries sharing one *radius*."""
        if radius < 0.0:
            raise QueryError(f"radius must be non-negative, got {radius}")
        return cls("range", queries, float(radius))

    @classmethod
    def knn_queries(cls, queries: ArrayLike, k: int) -> "QueryBatch":
        """A batch of kNN queries sharing one *k*."""
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        return cls("knn", queries, int(k))

    def run(
        self,
        am: "AccessMethod",
        *,
        executor: "str | BatchExecutor | None" = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        collector: TraceCollector | None = None,
    ) -> list[list["Neighbor"]]:
        """Execute the batch, returning one result list per query.

        Parameters
        ----------
        am:
            Any access method.
        executor:
            ``"serial"``, ``"thread"``, ``"process"``, an executor
            instance, or ``None`` (serial, or threads when *workers*
            asks for parallelism).
        workers, chunk_size:
            Forwarded to the executor when it is built from a name.
        collector:
            Attach to receive one :class:`QueryTrace` per query.

        Every query runs under its own record whether or not anyone is
        listening.  When the batch ends — normally or by a raising
        query, whose exception is re-raised here with its own type — the
        records' evaluation totals are folded into *am*'s distance
        counter in one step, so the counter reads the same under every
        executor and with every sink on or off.

        When an observability registry or logger is active (see
        :mod:`repro.obs`), the batch is reported once through
        :func:`~repro.obs.report_queries` and timed by a
        ``query/batch/<kind>`` span (plus, from worker processes, their
        spans and registry state).
        """
        queries = np.asarray(self.queries, dtype=np.float64)
        if queries.size == 0:
            return []
        qs = as_vector_batch(queries, am.dim, name="queries")
        parameter = float(self.parameter)
        if self.kind == "knn":
            parameter = float(min(int(parameter), am.size))
        exec_ = resolve_executor(executor, workers=workers, chunk_size=chunk_size)
        registry = get_registry()
        observing = registry.enabled or get_logger().enabled
        method = _method_label(am) if observing else type(am).__name__
        records = [
            QueryTrace(query_index=j, kind=self.kind, parameter=parameter)
            for j in range(qs.shape[0])
        ]
        tasks = [(qs[a:b], records[a:b]) for a, b in exec_.chunks(qs.shape[0])]
        elapsed, answered = 0.0, False
        # Give the batch a request identity (reusing any outer one), so
        # spans, worker chunks, and log records all share one trace_id.
        with trace_scope() if observing else nullcontext():
            try:
                with span(f"query/batch/{self.kind}", method=method):
                    fn = functools.partial(
                        _run_chunk, am=am, kind=self.kind, parameter=parameter,
                        obs=_obs_payload(registry.enabled, method),
                    )
                    start = perf_counter()
                    try:
                        parts = exec_.map(fn, tasks)
                        records = [record for part in parts for record in part[1]]
                    finally:
                        fold_into(am.distance.counter, records)
                    elapsed = perf_counter() - start
                    errors = []
                    for _, _, state, error in parts:
                        if state is not None:
                            registry.merge_state(state)
                        if error is not None:
                            errors.append(error)
                    if errors:
                        error, stack = errors[0]
                        if error.__traceback__ is None:  # raised in a worker process
                            raise error from _WorkerTraceback(stack)
                        raise error
                answered = True
            finally:
                if observing:
                    model, transforms = BATCH_OWNER.get()
                    report_queries(
                        records, model=model, method=method, kind=self.kind,
                        transforms=transforms, executor=exec_.name, seconds=elapsed,
                        answered=answered,
                    )
        if collector is not None:
            collector.extend(records)
            collector.add_batch_seconds(elapsed)
        return [result for part in parts for result in part[0]]


def run_query_batch(
    am: "AccessMethod", kind: str, queries: ArrayLike, parameter: float, **engine: object
) -> list[list["Neighbor"]]:
    """Functional shorthand used by ``AccessMethod.*_search_batch``;
    *engine* is :meth:`QueryBatch.run`'s keywords."""
    make = QueryBatch.range_queries if kind == "range" else QueryBatch.knn_queries
    return make(queries, parameter).run(am, **engine)
