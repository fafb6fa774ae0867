"""Materialize and execute planner-chosen physical plans.

:mod:`repro.planner` deliberately knows nothing about models, access
methods, or observability — it ranks abstract plan nodes read from
snapshot headers.  This module is the other half: given a
:class:`~repro.planner.PlanChoice` and the actual workload (QFD matrix,
database, queries), it

* turns the chosen node into something that can answer queries — a
  :class:`~repro.models.base.BuiltIndex` for scans and probes, a
  :class:`~repro.lowerbound.FilterRefineScan` for the Section 2.3.1
  pipelines — wrapped in a :class:`PlanExecution` with uniform batch
  entry points and cost accounting;
* measures per-alternative *actual* costs for the EXPLAIN "considered
  plans" header, in Table 2's arithmetic unit.

Import direction: this module imports the planner, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..exceptions import QueryError, StorageError
from ..obs import log_event
from ..lowerbound import FilterRefineScan, FilterRefineStats, SVDReduction, average_color_bound
from ..planner import (
    DirectScan,
    ExecutorChoice,
    FilterRefine,
    IndexCatalog,
    IndexProbe,
    PlanChoice,
    Planner,
    PlanNode,
    QuerySpec,
)
from .base import BuiltIndex, IndexCosts
from .lifecycle import load_built_index
from .qfd_model import QFDModel
from .qmap_model import QMapModel

__all__ = [
    "PlanExecution",
    "materialize_plan",
    "plan_query_batch",
    "PlannedBatch",
    "alternative_actual_flops",
]


@dataclass
class PlanExecution:
    """A materialized plan: ready to answer queries, with cost accounting.

    Exactly one of ``index`` (scans, probes) and ``scan`` (filter-and-
    refine) is set.  ``run_batch`` answers a whole query batch through
    ``executor`` (serial unless the caller named another);
    ``query_costs``/``actual_flops`` report what it actually cost, in the
    counters' unit and in Table 2's arithmetic unit respectively.
    """

    plan: PlanNode
    executor: ExecutorChoice
    index: "BuiltIndex | None" = None
    scan: "FilterRefineScan | None" = None
    stats: "list[FilterRefineStats]" = field(default_factory=list)
    queries_run: int = 0

    @property
    def name(self) -> str:
        return self.plan.name

    @property
    def model_name(self) -> str:
        if self.index is not None:
            return self.index.model_name
        return "qfd"  # filter-and-refine refines with the raw QFD

    def run_batch(
        self,
        queries: np.ndarray,
        *,
        k: "int | None" = None,
        radius: "float | None" = None,
    ) -> "list[list[Any]]":
        """Answer every query; pass exactly one of ``k=`` / ``radius=``."""
        if (k is None) == (radius is None):
            raise QueryError("run_batch needs exactly one of k= or radius=")
        rows = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        self.queries_run += rows.shape[0]
        if self.index is not None:
            if k is not None:
                return self.index.knn_search_batch(rows, int(k), executor=self.executor)
            return self.index.range_search_batch(
                rows, float(radius), executor=self.executor
            )
        assert self.scan is not None
        out = []
        for row in rows:  # serial by design: the scan's stats are shared state
            if k is not None:
                out.append(self.scan.knn_search(row, int(k)))
            else:
                out.append(self.scan.range_search(row, float(radius)))
            if self.scan.last_stats is not None:
                self.stats.append(self.scan.last_stats)
        return out

    def query_costs(self, seconds: float = 0.0) -> IndexCosts:
        """Distance evaluations / transforms spent answering queries so far.

        For filter-and-refine plans the evaluations are the exact QFD
        refinements (the filter's lower bounds are O(k) arithmetic, not
        distance evaluations — same accounting as bench E_A1).
        """
        if self.index is not None:
            return self.index.query_costs(seconds)
        return IndexCosts(
            distance_computations=sum(s.candidates for s in self.stats),
            transforms=0,
            seconds=seconds,
        )

    def actual_flops(self) -> float:
        """Observed arithmetic, in Table 2's unit, so far.

        Scans/probes convert the distance counters through
        :func:`repro.bench.complexity.measured_flops`; the pivot table
        additionally pays its ``m * p`` filter arithmetic per query (the
        term the zero-drift Table 2 audit accounts for).  Filter-and-
        refine plans price their recorded stats: per query one O(n*k)
        query reduction, ``m`` O(k) lower bounds and ``candidates`` exact
        O(n^2) refinements.
        """
        from ..bench.complexity import measured_flops

        if self.index is not None:
            am = self.index.access_method
            flops = measured_flops(
                self.index.query_costs(), self.index.model_name, am.dim
            )
            if self.index.method_name == "pivot-table":
                flops += float(self.queries_run) * am.size * am.n_pivots
            return flops
        assert self.scan is not None
        bound = self.scan.bound
        n = bound.source_dim
        rank = bound.k
        m = self.scan.size
        total = 0.0
        for s in self.stats:
            total += n * rank + m * rank + s.candidates * float(n) * n
        return total


def _filter_refine_bound(node: FilterRefine, matrix: np.ndarray):
    if node.lower_bound == "svd":
        return SVDReduction(matrix, int(node.rank))
    dim = int(np.asarray(matrix).shape[0])
    bins = round(dim ** (1.0 / 3.0))
    if bins**3 != dim:
        raise QueryError(
            f"avg_color filter needs a color-cube dimensionality, got n={dim}"
        )
    from ..color import lab_bin_prototypes

    return average_color_bound(matrix, lab_bin_prototypes(bins))


def materialize_plan(
    node: PlanNode,
    matrix: np.ndarray,
    database: np.ndarray,
    *,
    executor: "ExecutorChoice | None" = None,
    batch_size: int = 1,
) -> PlanExecution:
    """Turn an abstract plan node into a runnable :class:`PlanExecution`.

    * :class:`DirectScan` builds a fresh sequential index under the
      node's model (the QMap variant pays its database transform here);
    * :class:`IndexProbe` restores the cataloged snapshot with
      :func:`load_built_index` (zero evaluations) and verifies the
      archived QFD matrix matches the workload's;
    * :class:`FilterRefine` wires the contractive bound and the
      sequential filter-and-refine scanner.

    The plan runs serially unless *executor* names another engine
    executor; *batch_size* no longer bears on that and is accepted only
    for callers that still pass it.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    choice = executor if executor is not None else ExecutorChoice(name="serial")
    if isinstance(node, DirectScan):
        model = QFDModel(matrix) if node.model == "qfd" else QMapModel(matrix)
        index = model.build_index("sequential", database)
        return PlanExecution(plan=node, executor=choice, index=index)
    if isinstance(node, IndexProbe):
        index = load_built_index(node.entry.path)
        archived = index._source_matrix
        if archived is None or not np.allclose(
            np.asarray(archived, dtype=np.float64), matrix, rtol=1e-9, atol=1e-12
        ):
            raise StorageError(
                f"{node.entry.path}: snapshot's QFD matrix disagrees with the "
                "planned workload's; the probe would answer a different query"
            )
        expected = np.atleast_2d(np.asarray(database)).shape
        if (index.access_method.size, index.access_method.dim) != expected:
            raise StorageError(
                f"{node.entry.path}: snapshot indexes "
                f"{index.access_method.size} x {index.access_method.dim} "
                f"rows, workload has {expected[0]} x {expected[1]}"
            )
        return PlanExecution(plan=node, executor=choice, index=index)
    if isinstance(node, FilterRefine):
        bound = _filter_refine_bound(node, matrix)
        scan = FilterRefineScan(database, bound)
        return PlanExecution(plan=node, executor=choice, scan=scan)
    raise QueryError(f"cannot materialize unknown plan node {node!r}")


@dataclass(frozen=True)
class PlannedBatch:
    """A planning run's full context: spec, choice, and materialized plan."""

    spec: QuerySpec
    choice: PlanChoice
    execution: PlanExecution
    catalog: IndexCatalog

    @property
    def plan_name(self) -> str:
        return self.choice.chosen.name


def plan_query_batch(
    matrix: np.ndarray,
    database: np.ndarray,
    queries: np.ndarray,
    *,
    k: "int | None" = None,
    radius: "float | None" = None,
    index_dir: "str | None" = None,
    force: "str | None" = None,
    executor: "ExecutorChoice | None" = None,
) -> PlannedBatch:
    """Plan one query batch end to end and materialize the chosen plan.

    Builds the :class:`QuerySpec` from the workload shape, scans
    *index_dir* into a catalog (empty catalog when ``None``), picks by
    the planner's rule — or the *force*-named plan — and materializes
    it, ready for :meth:`PlanExecution.run_batch`.  An explicit
    *executor* replaces the serial default (the CLI's ``--executor``).
    """
    if (k is None) == (radius is None):
        raise QueryError("plan_query_batch needs exactly one of k= or radius=")
    data = np.atleast_2d(np.asarray(database, dtype=np.float64))
    rows = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    spec = QuerySpec(
        kind="knn" if k is not None else "range",
        param=float(k if k is not None else radius),
        batch_size=rows.shape[0],
        m=data.shape[0],
        dim=data.shape[1],
    )
    catalog = IndexCatalog.scan(index_dir) if index_dir is not None else IndexCatalog()
    choice = Planner(catalog=catalog).plan(spec, force=force)
    executor = executor if executor is not None else ExecutorChoice(name="serial")
    log_event(
        "plan",
        kind=spec.kind,
        parameter=spec.param,
        batch_size=spec.batch_size,
        plan=choice.chosen.name,
        executor=executor.name,
        reason=choice.reason,
        considered=len(choice.considered),
        forced=force,
    )
    execution = materialize_plan(choice.chosen.plan, matrix, data, executor=executor)
    return PlannedBatch(spec=spec, choice=choice, execution=execution, catalog=catalog)


def alternative_actual_flops(
    choice: PlanChoice,
    matrix: np.ndarray,
    database: np.ndarray,
    query: np.ndarray,
    *,
    k: "int | None" = None,
    radius: "float | None" = None,
) -> "dict[str, float]":
    """Measure every considered alternative's *actual* per-query cost.

    Runs one probe query through each alternative (materializing it
    first) and returns ``{plan name: observed flops}`` in Table 2's
    unit — the numbers the EXPLAIN "considered plans" header shows.
    Alternatives that fail to materialize (e.g. a snapshot deleted
    between planning and explain) are simply absent from the result.
    """
    actuals: dict[str, float] = {}
    for candidate in choice.considered:
        try:
            execution = materialize_plan(candidate.plan, matrix, database)
        except (QueryError, StorageError):
            continue
        if execution.index is not None:
            execution.index.reset_query_costs()
        execution.run_batch(np.atleast_2d(query), k=k, radius=radius)
        actuals[candidate.name] = execution.actual_flops()
    return actuals
