"""Experiment runner: build/query cost measurement for both models.

Every figure bench boils down to the same loop — build an index in the QFD
model and in the QMap model over a growing database, run a query batch,
record seconds and distance evaluations, report the speedup.  This module
is that loop, factored once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..datasets.workloads import Workload
from ..exceptions import QueryError
from ..models import BuiltIndex, IndexCosts, QFDModel, QMapModel

__all__ = ["QueryMeasurement", "ModelComparison", "measure_queries", "compare_models", "sweep_sizes"]


@dataclass(frozen=True)
class QueryMeasurement:
    """Averaged query costs over a batch."""

    queries: int
    total: IndexCosts

    @property
    def seconds_per_query(self) -> float:
        """Mean wall seconds per query."""
        return self.total.seconds / self.queries

    @property
    def evaluations_per_query(self) -> float:
        """Mean distance evaluations per query."""
        return self.total.distance_computations / self.queries


def measure_queries(
    index: BuiltIndex,
    queries: np.ndarray,
    *,
    mode: str = "knn",
    k: int = 1,
    radius: float = 0.1,
) -> QueryMeasurement:
    """Run a query batch against *index*, returning averaged costs.

    ``mode`` is ``"knn"`` (paper Figures 5-9) or ``"range"``.
    """
    if mode not in ("knn", "range"):
        raise QueryError(f"mode must be 'knn' or 'range', got {mode!r}")
    if queries.shape[0] == 0:
        raise QueryError("need at least one query")
    index.reset_query_costs()
    start = time.perf_counter()
    for q in queries:
        if mode == "knn":
            index.knn_search(q, k)
        else:
            index.range_search(q, radius)
    elapsed = time.perf_counter() - start
    return QueryMeasurement(
        queries=queries.shape[0], total=index.query_costs(seconds=elapsed)
    )


@dataclass(frozen=True)
class ModelComparison:
    """One experiment cell: QFD model vs QMap model on the same task."""

    method: str
    database_size: int
    dim: int
    qfd_build: IndexCosts
    qmap_build: IndexCosts
    qfd_query: QueryMeasurement
    qmap_query: QueryMeasurement

    @property
    def indexing_speedup(self) -> float:
        """QFD-over-QMap build-time ratio (>1 means QMap wins)."""
        if self.qmap_build.seconds <= 0.0:
            return float("inf")
        return self.qfd_build.seconds / self.qmap_build.seconds

    @property
    def querying_speedup(self) -> float:
        """QFD-over-QMap per-query time ratio (>1 means QMap wins)."""
        if self.qmap_query.seconds_per_query <= 0.0:
            return float("inf")
        return self.qfd_query.seconds_per_query / self.qmap_query.seconds_per_query


def compare_models(
    workload: Workload,
    method: str,
    *,
    method_kwargs: dict[str, Any] | None = None,
    mode: str = "knn",
    k: int = 1,
    radius: float = 0.1,
) -> ModelComparison:
    """Build and query the same MAM in both models on one workload."""
    kwargs = dict(method_kwargs or {})
    qfd_model = QFDModel(workload.matrix)
    qmap_model = QMapModel(workload.matrix)
    qfd_index = qfd_model.build_index(method, workload.database, **kwargs)
    qmap_index = qmap_model.build_index(method, workload.database, **kwargs)
    # One untimed pass over the timed queries, so the rows each query
    # reaches are already mapped or projected; the next call resets costs.
    for index in (qfd_index, qmap_index):
        measure_queries(index, workload.queries, mode=mode, k=k, radius=radius)
    qfd_query = measure_queries(qfd_index, workload.queries, mode=mode, k=k, radius=radius)
    qmap_query = measure_queries(qmap_index, workload.queries, mode=mode, k=k, radius=radius)
    return ModelComparison(
        method=method,
        database_size=workload.size,
        dim=workload.dim,
        qfd_build=qfd_index.build_costs,
        qmap_build=qmap_index.build_costs,
        qfd_query=qfd_query,
        qmap_query=qmap_query,
    )


def sweep_sizes(
    workload: Workload,
    method: str,
    sizes: list[int],
    *,
    method_kwargs: dict[str, Any] | None = None,
    mode: str = "knn",
    k: int = 1,
    radius: float = 0.1,
) -> list[ModelComparison]:
    """The paper's growing-database sweep (x-axes of Figures 2-7)."""
    out = []
    for m in sizes:
        out.append(
            compare_models(
                workload.prefix(m),
                method,
                method_kwargs=method_kwargs,
                mode=mode,
                k=k,
                radius=radius,
            )
        )
    return out
