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

Metric names follow Prometheus conventions (``*_total`` for counters);
``docs/api_guide.md`` maps them onto the paper's Table 1/2 columns.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from .logging import log_event
from .registry import MetricsRegistry, get_registry

__all__ = [
    "DISTANCE_EVALUATIONS",
    "QUERY_ERRORS",
    "TRANSFORMS",
    "DistanceInstrument",
    "record_distance_stats",
    "record_query_error",
    "record_trace",
    "record_traces",
    "record_batch_summary",
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

def record_distance_stats(
    stats: Any,
    *,
    registry: MetricsRegistry | None = None,
    model: str = "",
    method: str = "",
    phase: str = "query",
) -> None:
    """Charge one :class:`DistanceStats`-shaped snapshot to the registry.

    *stats* needs ``calls`` and ``batch_rows`` attributes.  Use this for
    one-shot snapshots that will not be read again (e.g. build-phase
    totals, recorded immediately before the model resets its counter);
    for a live counter polled repeatedly, use :class:`DistanceInstrument`.
    """
    reg = _registry(registry)
    if not reg.enabled:
        return
    counter = reg.counter(
        DISTANCE_EVALUATIONS, "logical distance computations (the paper's cost unit)"
    )
    if stats.calls:
        counter.inc(stats.calls, kind="scalar", model=model, method=method, phase=phase)
    if stats.batch_rows:
        counter.inc(
            stats.batch_rows, kind="batched", model=model, method=method, phase=phase
        )


class DistanceInstrument:
    """Incremental mirror of a :class:`CountingDistance` into a registry.

    ``sync()`` reads the source's ``stats`` snapshot and charges only the
    *delta* since the last sync, so the registry's
    :data:`DISTANCE_EVALUATIONS` counter equals the source counter
    exactly at every sync point — the invariant the acceptance tests pin.
    Baselines are kept per registry (by identity), so swapping the active
    registry mid-run never double-charges.  ``rebase()`` realigns the
    baseline after the source counter is reset.
    """

    def __init__(self, source: Any, *, model: str = "", method: str = "") -> None:
        self._source = source
        self._model = model
        self._method = method
        self._baselines: dict[int, tuple[int, int]] = {}

    def sync(self, registry: MetricsRegistry | None = None) -> None:
        """Charge evaluations made since the previous sync (or rebase).

        The delta feeds the cumulative counter only; anything reported
        *per query* comes from that query's own ``QueryTrace``.
        """
        reg = _registry(registry)
        if not reg.enabled:
            return
        stats = self._source.stats
        calls, rows = int(stats.calls), int(stats.batch_rows)
        base_calls, base_rows = self._baselines.get(id(reg), (0, 0))
        if calls < base_calls or rows < base_rows:
            # The source counter was reset behind our back; realign so the
            # post-reset evaluations are charged from zero.
            base_calls, base_rows = 0, 0
        delta_calls, delta_rows = calls - base_calls, rows - base_rows
        self._baselines[id(reg)] = (calls, rows)
        counter = reg.counter(
            DISTANCE_EVALUATIONS,
            "logical distance computations (the paper's cost unit)",
        )
        labels = {"model": self._model, "method": self._method, "phase": "query"}
        if delta_calls:
            counter.inc(delta_calls, kind="scalar", **labels)
        if delta_rows:
            counter.inc(delta_rows, kind="batched", **labels)

    def rebase(self) -> None:
        """Re-anchor all baselines at the source's current snapshot."""
        stats = self._source.stats
        for key in self._baselines:
            self._baselines[key] = (int(stats.calls), int(stats.batch_rows))


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
# QueryTrace / TraceSummary
# ----------------------------------------------------------------------

def record_trace(
    trace: Any,
    *,
    registry: MetricsRegistry | None = None,
    method: str = "",
) -> None:
    """Funnel one finished :class:`QueryTrace` into the registry.

    Counts queries, filter outcomes, refined candidates, result sizes and
    the per-MAM node accounting (nodes visited / subtrees pruned by a
    lower bound), and observes the per-query wall-time and
    evaluations-per-query distributions.
    """
    reg = _registry(registry)
    if not reg.enabled:
        return
    kind = str(getattr(trace, "kind", ""))
    labels = {"method": method, "kind": kind}
    reg.counter("repro_queries_total", "executed queries").inc(1, **labels)
    for name, help_text, attr in (
        ("repro_query_filter_checked_total", "objects lower-bound tested", "filter_checked"),
        ("repro_query_filter_hits_total", "objects surviving the filter", "filter_hits"),
        ("repro_query_candidates_total", "objects refined with real distances", "candidates"),
        ("repro_query_results_total", "answer-set sizes", "results"),
        ("repro_query_nodes_visited_total", "index nodes visited", "nodes_visited"),
        (
            "repro_query_subtrees_pruned_total",
            "subtrees discarded by a lower bound",
            "nodes_pruned",
        ),
    ):
        value = int(getattr(trace, attr, 0))
        if value:
            reg.counter(name, help_text).inc(value, **labels)
    reg.histogram("repro_query_seconds", "wall seconds per query").observe(
        float(getattr(trace, "seconds", 0.0)), **labels
    )
    reg.histogram(
        "repro_query_distance_evaluations", "distance evaluations per query"
    ).observe(float(getattr(trace, "distance_evaluations", 0)), **labels)


def record_traces(
    traces: Iterable[Any],
    *,
    registry: MetricsRegistry | None = None,
    method: str = "",
) -> None:
    """Funnel many finished traces (one batch) into the registry."""
    reg = _registry(registry)
    if not reg.enabled:
        return
    for trace in traces:
        record_trace(trace, registry=reg, method=method)


def record_batch_summary(
    summary: Any,
    *,
    registry: MetricsRegistry | None = None,
    method: str = "",
    kind: str = "",
) -> None:
    """Record batch-level throughput facts from a :class:`TraceSummary`."""
    reg = _registry(registry)
    if not reg.enabled:
        return
    batch_seconds = float(getattr(summary, "batch_seconds", 0.0))
    if batch_seconds > 0.0:
        reg.histogram(
            "repro_batch_seconds", "wall seconds per executed query batch"
        ).observe(batch_seconds, method=method, kind=kind)
        reg.gauge(
            "repro_batch_queries_per_second", "throughput of the last batch"
        ).set(getattr(summary, "queries", 0) / batch_seconds, method=method, kind=kind)
    latency = reg.gauge(
        "repro_batch_query_seconds", "per-query wall-time percentiles"
    )
    for quantile in ("p50", "p95"):
        value = float(getattr(summary, f"{quantile}_seconds", 0.0))
        if value > 0.0:
            latency.set(value, method=method, kind=kind, quantile=quantile)


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
