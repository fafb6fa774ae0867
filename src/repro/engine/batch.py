"""The batch query planner: many queries, one execution plan.

A :class:`QueryBatch` bundles homogeneous queries (all-range or all-kNN
with shared parameters), validates them once, and executes them against
any :class:`~repro.mam.base.AccessMethod` through a pluggable
:class:`~repro.engine.executors.BatchExecutor`:

* queries are split into contiguous chunks so a structure with a
  vectorized batch hook (the sequential file) amortizes its per-scan
  work across the whole chunk;
* the serial executor runs the chunks inline, the thread executor fans
  them out (numpy distance kernels release the GIL), and the process
  executor ships pickled chunks to worker processes for pure-Python
  distances;
* every query runs under its own :class:`~repro.engine.trace.QueryTrace`
  — created here, filled by the chunk that executes it (a worker process
  ships its records back) — and when the batch ends the records' totals
  are folded into the index's distance counter in one step, the same way
  under every executor; an attached
  :class:`~repro.engine.trace.TraceCollector`, the registry and the JSON
  log read the same records.

Results are, by construction, bit-identical to looping the single-query
entry points: chunk hooks reuse the exact per-query search code (or a
reduction that is float-exact), and ordering guarantees are unchanged.
"""

from __future__ import annotations

import functools
import pickle
from contextlib import nullcontext
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from .._typing import ArrayLike, as_vector_batch
from ..exceptions import QueryError
from ..obs import (
    MetricsRegistry,
    TraceContext,
    activate_trace_context,
    current_span,
    current_trace_context,
    get_logger,
    get_registry,
    log_event,
    observe_query_progress,
    record_batch_summary,
    record_traces,
    span,
    trace_scope,
    use_registry,
)
from .executors import (
    BatchExecutor,
    ProcessPoolBatchExecutor,
    SerialExecutor,
    resolve_executor,
)
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


def _chunk_ranges(n: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into at most *n_chunks* contiguous ranges."""
    n_chunks = max(1, min(n, n_chunks))
    size = -(-n // n_chunks)  # ceil
    return [(a, min(a + size, n)) for a in range(0, n, size)]


def _run_chunk(
    bounds: tuple[int, int],
    *,
    am: "AccessMethod",
    kind: str,
    parameter: float,
    queries: np.ndarray,
    traces: "list[QueryTrace] | None" = None,
    obs: "dict | None" = None,
) -> tuple[list[list["Neighbor"]], list[QueryTrace], "dict | None"]:
    """Execute one contiguous chunk of the batch under its queries' records.

    *traces* are the whole batch's records when the chunk runs in the
    caller's process (they are filled in place, so a raising chunk leaves
    its finished queries accounted); a worker process gets ``None`` and
    makes its own, which travel back with the results.  Either way the
    records are returned and nothing here touches a distance counter —
    the parent folds them in, once, for every executor.

    *obs* is the parent's observability payload for a worker process: the
    request's :class:`TraceContext` (so worker spans carry the batch's
    trace_id), whether the parent registry is live, and the method label.
    When metrics are on, the chunk runs against a **fresh worker
    registry** under a ``query/chunk/<kind>`` span, and the registry's
    :meth:`~repro.obs.MetricsRegistry.dump_state` is returned in the third
    tuple slot for the parent to merge — this is what makes timelines and
    ``/metrics`` totals complete under ``--executor process``.
    """
    start, stop = bounds
    if traces is None:
        chunk_traces = [
            QueryTrace(query_index=j, kind=kind, parameter=parameter)
            for j in range(start, stop)
        ]
    else:
        chunk_traces = traces[start:stop]
    context = None if obs is None else obs.get("context")
    registry = MetricsRegistry() if obs is not None and obs.get("metrics") else None

    def execute() -> list[list["Neighbor"]]:
        chunk = queries[start:stop]
        if kind == "range":
            return am._range_search_batch(chunk, parameter, chunk_traces)
        return am._knn_search_batch(chunk, int(parameter), chunk_traces)

    if registry is None:
        return execute(), chunk_traces, None
    with activate_trace_context(context) if context is not None else nullcontext():
        with use_registry(registry):
            with span(f"query/chunk/{kind}", method=obs.get("method", ""), queries=stop - start):
                results = execute()
    return results, chunk_traces, {"state": registry.dump_state()}


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
        listening; with the process executor the workers' records travel
        back with their results.  When the batch ends — normally or by a
        raising query — the records' evaluation totals are folded into
        *am*'s distance counter in one step, so the counter reads the
        same under every executor and with every sink on or off.

        When an observability registry is active (see
        :mod:`repro.obs`), every executed batch is additionally funneled
        into it: the per-query records, a ``repro_batch_seconds``
        observation measured around the whole batch, and a
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
        logger = get_logger()
        observing = registry.enabled or logger.enabled
        method = _method_label(am) if observing else type(am).__name__
        execute = (
            self._run_process
            if isinstance(exec_, ProcessPoolBatchExecutor)
            else self._run_in_process
        )
        traces: list[QueryTrace] = []
        # Give the batch a request identity (reusing any outer one), so
        # spans, worker chunks, and log records all share one trace_id.
        with trace_scope() if observing else nullcontext():
            with span(f"query/batch/{self.kind}", method=method):
                start = perf_counter()
                try:
                    results = execute(am, qs, parameter, exec_, traces, method)
                finally:
                    fold_into(am.distance.counter, traces)
                elapsed = perf_counter() - start
            if collector is not None:
                collector.extend(traces)
                collector.add_batch_seconds(elapsed)
            if registry.enabled:
                record_traces(traces, registry=registry, method=method)
                batch = TraceCollector()
                batch.extend(traces)
                batch.add_batch_seconds(elapsed)
                record_batch_summary(
                    batch.summary(), registry=registry, method=method, kind=self.kind
                )
            if logger.enabled:
                for trace in traces:
                    log_event(
                        "query",
                        method=method,
                        kind=self.kind,
                        parameter=float(self.parameter),
                        query_index=trace.query_index,
                        seconds=trace.seconds,
                        distance_evaluations=trace.distance_evaluations,
                        scalar_evaluations=trace.scalar_evaluations,
                        batched_evaluations=trace.batched_evaluations,
                        candidates=trace.candidates,
                        results=trace.results,
                    )
                log_event(
                    "batch",
                    method=method,
                    kind=self.kind,
                    queries=len(traces),
                    seconds=elapsed,
                    distance_evaluations=sum(t.distance_evaluations for t in traces),
                    executor=exec_.name,
                )
        return results

    # ------------------------------------------------------------------
    # in-process execution (serial / threads)
    # ------------------------------------------------------------------

    def _run_in_process(
        self,
        am: "AccessMethod",
        qs: np.ndarray,
        parameter: float,
        exec_: BatchExecutor,
        traces: list[QueryTrace],
        method: str,
    ) -> list[list["Neighbor"]]:
        n = qs.shape[0]
        traces.extend(
            QueryTrace(query_index=j, kind=self.kind, parameter=parameter) for j in range(n)
        )
        if isinstance(exec_, SerialExecutor):
            ranges = [(0, n)]
        else:
            # A few chunks per worker balances load while keeping the
            # vectorized batch hooks' per-chunk work worthwhile.
            ranges = _chunk_ranges(n, getattr(exec_, "workers", 1) * 4)
        registry = get_registry()

        def chunk_task(ci: int) -> list[list["Neighbor"]]:
            out, chunk_traces, _ = _run_chunk(
                ranges[ci], am=am, kind=self.kind, parameter=parameter,
                queries=qs, traces=traces,
            )
            if registry.enabled:
                # Feed the rolling-rate windows as each chunk lands, so
                # a /metrics scrape mid-batch shows live throughput.
                observe_query_progress(
                    len(out),
                    sum(t.distance_evaluations for t in chunk_traces),
                    method=method,
                    registry=registry,
                )
            return out

        parts = exec_.map_ordered(chunk_task, range(len(ranges)))
        return [result for part in parts for result in part]

    # ------------------------------------------------------------------
    # process-pool execution (chunked, pickled)
    # ------------------------------------------------------------------

    def _run_process(
        self,
        am: "AccessMethod",
        qs: np.ndarray,
        parameter: float,
        exec_: ProcessPoolBatchExecutor,
        traces: list[QueryTrace],
        method: str,
    ) -> list[list["Neighbor"]]:
        registry = get_registry()
        context = current_trace_context()
        obs: dict | None = None
        if registry.enabled or context is not None:
            shipped = context
            parent_span = current_span()
            if context is not None and parent_span is not None and parent_span.span_id:
                # Re-root the shipped context at the open batch span so
                # worker chunk spans parent there, not at the trace root.
                shipped = TraceContext(
                    trace_id=context.trace_id,
                    span_id=parent_span.span_id,
                    parent_span_id=parent_span.parent_span_id,
                )
            obs = {
                "context": shipped,
                "metrics": registry.enabled,
                "method": method,
            }
        fn = functools.partial(
            _run_chunk, am=am, kind=self.kind, parameter=parameter, queries=qs, obs=obs
        )
        try:
            parts = exec_.map_chunks(fn, qs.shape[0])
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise QueryError(
                "the process executor must pickle the index and its distance "
                "function; use module-level distance callables, or the "
                "'thread' executor for unpicklable indexes"
            ) from exc
        results: list[list["Neighbor"]] = []
        for part_results, part_traces, part_obs in parts:
            results.extend(part_results)
            traces.extend(part_traces)
            if registry.enabled:
                if part_obs is not None:
                    registry.merge_state(part_obs["state"])
                observe_query_progress(
                    len(part_results),
                    sum(t.distance_evaluations for t in part_traces),
                    method=method,
                    registry=registry,
                )
        return results


def run_query_batch(
    am: "AccessMethod",
    kind: str,
    queries: ArrayLike,
    parameter: float,
    *,
    executor: "str | BatchExecutor | None" = None,
    workers: int | None = None,
    chunk_size: int | None = None,
    collector: TraceCollector | None = None,
) -> list[list["Neighbor"]]:
    """Functional shorthand used by ``AccessMethod.*_search_batch``."""
    if kind == "range":
        batch = QueryBatch.range_queries(queries, parameter)
    else:
        batch = QueryBatch.knn_queries(queries, int(parameter))
    return batch.run(
        am,
        executor=executor,
        workers=workers,
        chunk_size=chunk_size,
        collector=collector,
    )
