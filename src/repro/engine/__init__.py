"""Batch query engine: planners, executors, and per-query tracing.

The paper's headline numbers are *throughput* numbers — distance
evaluations per query (Tables 1-2) and wall time per query (Figures 5-9).
This package is the substrate for measuring and scaling both:

* :mod:`repro.engine.trace` — the per-query :class:`QueryTrace` cost
  record every layer writes or reads, and the thread-safe
  :class:`TraceCollector` that aggregates records into the paper's cost
  model;
* :mod:`repro.engine.executors` — serial / thread-pool / chunked
  process-pool execution backends behind one strategy interface;
* :mod:`repro.engine.batch` — the :class:`QueryBatch` planner that
  validates a batch once, chunks it, and runs it through any executor
  with bit-identical results to the single-query entry points.

Import layering: :mod:`repro.mam.base` (below this package) imports only
:mod:`repro.engine.trace`, which needs only :mod:`repro.obs.events`; the
planner and executors, which import :mod:`repro.mam`, are loaded lazily
via PEP 562 so the package can sit both above and beside the access
methods without cycles.
"""

from __future__ import annotations

from typing import Any

from .trace import (
    QueryTrace,
    TraceCollector,
    TraceSummary,
    activate_trace,
    current_trace,
    query_trace,
)

__all__ = [
    "QueryTrace",
    "TraceCollector",
    "TraceSummary",
    "activate_trace",
    "current_trace",
    "query_trace",
    "QueryBatch",
    "run_query_batch",
    "BatchExecutor",
    "SerialExecutor",
    "ThreadPoolBatchExecutor",
    "ProcessPoolBatchExecutor",
    "EXECUTOR_REGISTRY",
    "resolve_executor",
]

_LAZY_BATCH = {"QueryBatch", "run_query_batch"}
_LAZY_EXECUTORS = {
    "BatchExecutor",
    "SerialExecutor",
    "ThreadPoolBatchExecutor",
    "ProcessPoolBatchExecutor",
    "EXECUTOR_REGISTRY",
    "resolve_executor",
}


def __getattr__(name: str) -> Any:
    if name in _LAZY_BATCH:
        from . import batch

        return getattr(batch, name)
    if name in _LAZY_EXECUTORS:
        from . import executors

        return getattr(executors, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
