"""Adapters funneling the library's existing telemetry sinks into a registry.

The library already measures everything the paper's tables need — in
four sources: :class:`~repro.engine.trace.QueryTrace` is each query's
cost record (evaluations, filter/candidate outcomes, node visits),
:class:`~repro.distances.base.CountingDistance` is their running total
per model, :class:`~repro.storage.cache.CacheStats` tracks page
hits/faults, and the cholesky cache keeps its own hit/miss pair.  The
adapters here translate each source into the common instrument model
without this package importing any of them: every adapter is duck-typed
against the source's public attributes, so :mod:`repro.obs` stays
import-free of :mod:`repro.mam`, :mod:`repro.models`,
:mod:`repro.engine` and :mod:`repro.storage`.

Everything a finished query (or insert, or batch) reports goes through
one routine, :func:`report_queries`, fed the finished records — the
cumulative evaluation counter included, so no sink polls the
``CountingDistance``.

Metric names follow Prometheus conventions (``*_total`` for counters);
``docs/api_guide.md`` maps them onto the paper's Table 1/2 columns.
"""

from __future__ import annotations

import contextvars
import math
from typing import Any, Mapping, Sequence

from .live import observe_query_progress
from .logging import get_logger, log_event
from .registry import MetricsRegistry, get_registry

__all__ = [
    "DISTANCE_EVALUATIONS",
    "QUERY_ERRORS",
    "TRANSFORMS",
    "BATCH_OWNER",
    "nearest_rank",
    "record_build_costs",
    "record_query_error",
    "report_queries",
    "record_cache_stats",
    "record_cholesky_cache",
    "record_index_description",
]

#: Counter of logical distance evaluations, split like
#: :class:`~repro.distances.base.DistanceStats` (``kind="scalar"|"batched"``).
DISTANCE_EVALUATIONS = "repro_distance_evaluations_total"

#: Counter of vector transformations into the Euclidean space (QMap only).
TRANSFORMS = "repro_transforms_total"

#: Counter of queries that raised, labeled by method/model/kind/error.
QUERY_ERRORS = "repro_query_errors_total"


def _registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    return registry if registry is not None else get_registry()


# ----------------------------------------------------------------------
# CountingDistance
# ----------------------------------------------------------------------

def _charge_costs(
    reg: MetricsRegistry, calls: int, rows: int, transforms: int, **labels: str
) -> None:
    """Grow the cumulative evaluation / transform counters (model, method, phase)."""
    counter = reg.counter(
        DISTANCE_EVALUATIONS, "logical distance computations (the paper's cost unit)"
    )
    if calls:
        counter.inc(calls, kind="scalar", **labels)
    if rows:
        counter.inc(rows, kind="batched", **labels)
    if transforms:
        reg.counter(TRANSFORMS, "vector transformations into the Euclidean space").inc(
            transforms, **labels
        )


def record_build_costs(
    stats: Any,
    *,
    registry: MetricsRegistry | None = None,
    model: str = "",
    method: str = "",
    transforms: int = 0,
) -> None:
    """Charge a finished build (``phase="build"``) to the registry.

    *stats* needs ``calls`` and ``batch_rows`` attributes — the model
    counter's snapshot, read immediately before the model zeroes it for
    the query phase, which :func:`report_queries` accounts.
    """
    reg = _registry(registry)
    if reg.enabled:
        _charge_costs(
            reg, stats.calls, stats.batch_rows, transforms,
            model=model, method=method, phase="build",
        )


def record_query_error(
    error: BaseException,
    *,
    registry: MetricsRegistry | None = None,
    model: str = "",
    method: str = "",
    kind: str = "",
) -> None:
    """Account one failed query: error counter plus structured log record.

    Increments :data:`QUERY_ERRORS` (when a registry is active) and
    emits a ``query_error`` record through the active JSON-lines logger
    (when one is active) carrying the current ``trace_id`` — so a query
    that raised inside a worker process still leaves a correlated
    metric and log trail instead of only a bare exception.
    """
    reg = _registry(registry)
    error_type = type(error).__name__
    if reg.enabled:
        reg.counter(QUERY_ERRORS, "queries that raised an exception").inc(
            1, model=model, method=method, kind=kind, error=error_type
        )
    log_event(
        "query_error",
        model=model or None,
        method=method or None,
        kind=kind or None,
        error=error_type,
        message=str(error),
    )


# ----------------------------------------------------------------------
# QueryTrace: the one query-end report
# ----------------------------------------------------------------------

#: ``(model label, query transforms)`` of the model-layer call the current
#: batch runs for: ``BuiltIndex`` sets it around the call, the engine that
#: reports the batch reads it — ``AccessMethod.*_search_batch`` between
#: them takes no such arguments.
BATCH_OWNER: contextvars.ContextVar[tuple[str, int]] = contextvars.ContextVar(
    "repro_obs_batch_owner", default=("", 0)
)

#: Per-query counters fed from the like-named :class:`QueryTrace` fields.
_QUERY_COUNTERS = (
    ("repro_query_filter_checked_total", "objects lower-bound tested", "filter_checked"),
    ("repro_query_filter_hits_total", "objects surviving the filter", "filter_hits"),
    ("repro_query_candidates_total", "objects refined with real distances", "candidates"),
    ("repro_query_results_total", "answer-set sizes", "results"),
    ("repro_query_nodes_visited_total", "index nodes visited", "nodes_visited"),
    ("repro_query_subtrees_pruned_total", "subtrees discarded by a lower bound", "nodes_pruned"),
)


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted values (0.0 when empty).

    The smallest value whose rank ``ceil(q * n)`` covers fraction *q* of
    the samples, so a single sample is its own p50 and p95.  The rank is
    clamped into ``[1, n]``: q=0 maps to the minimum, and floating-point
    noise in ``q * n`` can never index past the end.
    """
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    return sorted_values[min(max(math.ceil(q * n), 1), n) - 1]


def report_queries(
    records: Sequence[Any],
    *,
    model: str = "",
    method: str = "",
    kind: str = "",
    transforms: int = 0,
    executor: str | None = None,
    seconds: float = 0.0,
    answered: bool = True,
) -> None:
    """Report finished cost records to the registry and the JSON log.

    The one query-end report: every single query, insert and batch
    reaches it exactly once, with its :class:`QueryTrace` *records*
    (duck-typed), and nothing else writes the series and log records
    below.  A batch passes its *executor*'s name and the wall *seconds*
    measured around it.

    Always: the cumulative :data:`DISTANCE_EVALUATIONS` /
    :data:`TRANSFORMS` counters (``phase="query"``) grow by the records'
    own totals and *transforms* — so they track the model's
    ``CountingDistance`` exactly, whichever registry is active when.

    Only when the records' queries were *answered* (not for an insert,
    not when the call raised): ``repro_queries_total``, the filter /
    candidate / result / node counters and the ``repro_query_seconds`` /
    ``repro_query_distance_evaluations`` histograms per record, the
    rolling rate windows, one ``"query"`` log record per record — and,
    for a batch, ``repro_batch_seconds``, the throughput and latency
    gauges and one ``"batch"`` log record.
    """
    reg = get_registry()
    logging = answered and get_logger().enabled
    if not (reg.enabled or logging):
        return
    calls = sum(r.scalar_evaluations for r in records)
    rows = sum(r.batched_evaluations for r in records)
    if reg.enabled and answered:
        labels = {"method": method, "kind": kind}
        reg.counter("repro_queries_total", "executed queries").inc(len(records), **labels)
        for name, help_text, attr in _QUERY_COUNTERS:
            value = sum(getattr(r, attr) for r in records)
            if value:
                reg.counter(name, help_text).inc(value, **labels)
        wall = reg.histogram("repro_query_seconds", "wall seconds per query")
        evaluations = reg.histogram(
            "repro_query_distance_evaluations", "distance evaluations per query"
        )
        for r in records:
            wall.observe(float(r.seconds), **labels)
            evaluations.observe(float(r.distance_evaluations), **labels)
        observe_query_progress(len(records), calls + rows, method=method, registry=reg)
        if executor is not None:
            if seconds > 0.0:
                reg.histogram(
                    "repro_batch_seconds", "wall seconds per executed query batch"
                ).observe(seconds, **labels)
                reg.gauge(
                    "repro_batch_queries_per_second", "throughput of the last batch"
                ).set(len(records) / seconds, **labels)
            latency = reg.gauge("repro_batch_query_seconds", "per-query wall-time percentiles")
            times = sorted(r.seconds for r in records)
            for quantile, q in (("p50", 0.50), ("p95", 0.95)):
                value = nearest_rank(times, q)
                if value > 0.0:
                    latency.set(value, quantile=quantile, **labels)
    if reg.enabled:
        _charge_costs(reg, calls, rows, transforms, model=model, method=method, phase="query")
    if logging:
        for r in records:
            log_event(
                "query",
                model=model or None,
                method=method,
                kind=kind,
                parameter=r.parameter,
                query_index=r.query_index,
                seconds=r.seconds,
                distance_evaluations=r.distance_evaluations,
                scalar_evaluations=r.scalar_evaluations,
                batched_evaluations=r.batched_evaluations,
                candidates=r.candidates,
                results=r.results,
            )
        if executor is not None:
            log_event(
                "batch",
                model=model or None,
                method=method,
                kind=kind,
                queries=len(records),
                seconds=seconds,
                distance_evaluations=calls + rows,
                executor=executor,
            )


# ----------------------------------------------------------------------
# LRUPageCache / CacheStats
# ----------------------------------------------------------------------

def record_cache_stats(
    stats: Any,
    *,
    registry: MetricsRegistry | None = None,
    cache: str = "page",
) -> None:
    """Mirror a :class:`CacheStats` snapshot into gauges.

    Gauges (not counters) because the source owns the cumulative state —
    the registry simply reflects its current reading, including the
    single pre-derived ``combined_rate``.
    """
    reg = _registry(registry)
    if not reg.enabled:
        return
    accesses = reg.gauge(
        "repro_page_cache_accesses", "page cache accesses by op and outcome"
    )
    accesses.set(stats.hits, cache=cache, op="read", outcome="hit")
    accesses.set(stats.faults, cache=cache, op="read", outcome="fault")
    accesses.set(stats.write_hits, cache=cache, op="write", outcome="hit")
    accesses.set(stats.write_faults, cache=cache, op="write", outcome="fault")
    reg.gauge(
        "repro_page_cache_hit_ratio", "combined read+write cache hit fraction"
    ).set(stats.combined_rate, cache=cache)


# ----------------------------------------------------------------------
# cached_cholesky
# ----------------------------------------------------------------------

def record_cholesky_cache(
    info: Mapping[str, int],
    *,
    registry: MetricsRegistry | None = None,
) -> None:
    """Mirror a :func:`cholesky_cache_info` snapshot into gauges."""
    reg = _registry(registry)
    if not reg.enabled:
        return
    gauge = reg.gauge(
        "repro_cholesky_cache", "content-addressed Cholesky factor cache"
    )
    for stat in ("entries", "hits", "misses"):
        gauge.set(int(info.get(stat, 0)), stat=stat)


# ----------------------------------------------------------------------
# describe_index
# ----------------------------------------------------------------------

def record_index_description(
    description: Any,
    *,
    registry: MetricsRegistry | None = None,
    model: str = "",
    method: str = "",
) -> None:
    """Gauge the structural shape of a built index.

    *description* is duck-typed against
    :class:`~repro.mam.stats.IndexDescription`: ``structure``, ``size``,
    ``nodes``, ``height`` and the ``extra`` dict (fill factors, fanout,
    covering-radius quantiles, ...) all become labeled gauges.
    """
    reg = _registry(registry)
    if not reg.enabled:
        return
    labels = {"model": model, "method": method, "structure": str(description.structure)}
    reg.gauge("repro_index_size", "indexed objects").set(description.size, **labels)
    reg.gauge("repro_index_nodes", "internal+leaf node count").set(
        description.nodes, **labels
    )
    reg.gauge("repro_index_height", "levels root to deepest leaf").set(
        description.height, **labels
    )
    extra = reg.gauge("repro_index_stat", "structure-specific diagnostics")
    for stat, value in dict(getattr(description, "extra", {}) or {}).items():
        extra.set(float(value), stat=stat, **labels)
