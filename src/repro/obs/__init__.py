"""Unified observability: instruments, spans, and exporters.

The paper argues in *costs* — distance computations, filter hit rates,
I/O — and every layer of this library measures some of them.  This
package is the common model those measurements flow into:

* :mod:`repro.obs.registry` — labeled :class:`Counter` / :class:`Gauge`
  / log-bucketed :class:`Histogram` instruments in a thread-safe
  :class:`MetricsRegistry`, with a process-wide active registry that
  defaults to a no-op :class:`NullRegistry` (observability off = near
  zero overhead, bit-identical distance counts);
* :mod:`repro.obs.spans` — nestable monotonic-clocked :func:`span`
  blocks propagated via contextvars;
* :mod:`repro.obs.instruments` — duck-typed adapters funneling the
  existing sinks (``QueryTrace``, ``CacheStats``, the cholesky cache,
  ``describe_index``) into the registry, and :func:`report_queries`, the
  one routine every finished query, insert and batch is reported by;
* :mod:`repro.obs.export` — JSON-lines, Prometheus text format, and
  aligned-table exporters, plus the benches' ``metrics`` block;
* :mod:`repro.obs.events` — per-query traversal events (node entries,
  lower-bound checks with actual bound values, prunes, candidate
  verifications) in a bounded, optionally sampled buffer: the optional
  ``events`` detail of a query's ``QueryTrace``, allocated only for
  EXPLAIN, keeping exact aggregates even when records are dropped;
* :mod:`repro.obs.explain` — assembles the events of one query into an
  :class:`ExplainPlan` cost tree whose charged totals equal the record's
  evaluation counts exactly, with text/JSON rendering and the Table 2
  cost audit;
* :mod:`repro.obs.context` — request-scoped :class:`TraceContext`
  (trace_id/span_id) carried by every span and log record, propagated
  across thread and process pools (handed to every chunk, pickled for a
  worker process) by the batch engine;
* :mod:`repro.obs.prof` — a zero-dependency sampling profiler, off by
  default, attributing wall-clock samples to the open span stack and
  exporting collapsed-stack text and speedscope JSON;
* :mod:`repro.obs.logging` — a JSON-lines structured logger (one record
  per query/build/plan/error event, trace_id-correlated) behind the same
  null-by-default activation pattern as the registry;
* :mod:`repro.obs.run` — :class:`ObservedRun`, the one context manager
  that validates, installs, deactivates and reports several of the
  sinks above at once (what ``repro query --metrics ... --log-json ...``
  and the benches' ``REPRO_BENCH_SERVE`` / ``REPRO_BENCH_PROFILE`` use).

Layering rule: this package imports **nothing** from the rest of the
library (enforced by a ruff ``flake8-tidy-imports`` ban for
:mod:`repro.mam` / :mod:`repro.models`), so any layer may import it.
Activate collection with::

    from repro.obs import MetricsRegistry, use_registry, to_table
    with use_registry(MetricsRegistry()) as reg:
        ...  # build indexes, run query batches
        print(to_table(reg))
"""

from __future__ import annotations

from .context import (
    TraceContext,
    activate_trace_context,
    current_trace_context,
    new_span_id,
    trace_scope,
)
from .events import EVENT_KINDS, ROOT, EventBuffer, NodeStats, TraversalEvent
from .explain import (
    CostAudit,
    ExplainNode,
    ExplainPlan,
    assemble_plan,
    render_text,
)
from .export import (
    EXPORT_FORMATS,
    ParsedSample,
    PromParseError,
    export,
    parse_prometheus_text,
    snapshot_dict,
    to_jsonl,
    to_prometheus,
    to_table,
    traces_to_jsonl,
)
from .instruments import (
    DISTANCE_EVALUATIONS,
    QUERY_ERRORS,
    BATCH_OWNER,
    TRANSFORMS,
    nearest_rank,
    record_build_costs,
    record_cache_stats,
    record_cholesky_cache,
    record_index_description,
    record_query_error,
    report_queries,
)
from .live import (
    TELEMETRY_SCRAPES,
    WINDOW_EVALUATIONS_PER_SECOND,
    WINDOW_QUERIES_PER_SECOND,
    TelemetryServer,
    WindowedRate,
    observe_query_progress,
    parse_serve_spec,
    sync_rate_gauges,
)
from .memory import (
    PEAK_RSS,
    RssSampler,
    current_rss_bytes,
    peak_rss_bytes,
    peak_rss_source,
    record_memory,
)
from .logging import (
    NULL_LOGGER,
    JsonLinesLogger,
    NullLogger,
    get_logger,
    log_event,
    set_logger,
    use_logger,
)
from .prof import (
    PROFILE_SAMPLES,
    SamplingProfiler,
)
from .registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    HistogramState,
    MetricSample,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from .run import ObservedRun, check_output_path
from .spans import SpanRecord, current_span, open_span_for_thread, span
from .timeline import (
    chrome_trace,
    plan_trace_events,
    span_trace_events,
    write_timeline,
)

__all__ = [
    "EVENT_KINDS",
    "ROOT",
    "EventBuffer",
    "NodeStats",
    "TraversalEvent",
    "CostAudit",
    "ExplainNode",
    "ExplainPlan",
    "assemble_plan",
    "render_text",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramState",
    "MetricSample",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "SpanRecord",
    "span",
    "current_span",
    "open_span_for_thread",
    "TraceContext",
    "current_trace_context",
    "activate_trace_context",
    "trace_scope",
    "new_span_id",
    "JsonLinesLogger",
    "NullLogger",
    "NULL_LOGGER",
    "get_logger",
    "set_logger",
    "use_logger",
    "log_event",
    "PROFILE_SAMPLES",
    "SamplingProfiler",
    "ObservedRun",
    "check_output_path",
    "DISTANCE_EVALUATIONS",
    "QUERY_ERRORS",
    "TRANSFORMS",
    "PEAK_RSS",
    "peak_rss_bytes",
    "peak_rss_source",
    "current_rss_bytes",
    "record_memory",
    "RssSampler",
    "TELEMETRY_SCRAPES",
    "WINDOW_QUERIES_PER_SECOND",
    "WINDOW_EVALUATIONS_PER_SECOND",
    "TelemetryServer",
    "WindowedRate",
    "observe_query_progress",
    "parse_serve_spec",
    "sync_rate_gauges",
    "chrome_trace",
    "span_trace_events",
    "plan_trace_events",
    "write_timeline",
    "ParsedSample",
    "PromParseError",
    "parse_prometheus_text",
    "BATCH_OWNER",
    "nearest_rank",
    "record_build_costs",
    "record_query_error",
    "report_queries",
    "record_cache_stats",
    "record_cholesky_cache",
    "record_index_description",
    "to_jsonl",
    "to_prometheus",
    "to_table",
    "snapshot_dict",
    "traces_to_jsonl",
    "EXPORT_FORMATS",
    "export",
]
