"""The cost-based planner: enumerate alternatives, price, pick argmin.

Given a :class:`QuerySpec` (range vs kNN, parameter, batch size, database
shape, optional distance histogram) and an :class:`~repro.planner.
catalog.IndexCatalog` of built snapshots, :class:`Planner` enumerates
every physical alternative — both direct scans, one probe per compatible
snapshot, and the filter-and-refine pipelines — prices each through the
:class:`~repro.planner.cost.CostModel`, and returns a :class:`PlanChoice`
that records *every* considered alternative with its predicted cost, not
just the winner.  Ties break on the plan name, so planning is
deterministic for a fixed catalog.

The choice is advisory: executing a plan is the job of
:mod:`repro.models.planning`, which keeps this package import-clean of
the model/index layers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import QueryError
from .catalog import IndexCatalog
from .cost import CostModel, DistanceHistogram, PredictedCost
from .plans import DirectScan, ExecutorChoice, FilterRefine, IndexProbe, PlanNode

__all__ = ["QuerySpec", "ConsideredPlan", "PlanChoice", "Planner"]


@dataclass(frozen=True)
class QuerySpec:
    """One query workload, as the planner sees it.

    Attributes
    ----------
    kind, param:
        ``"knn"`` with ``k``, or ``"range"`` with the radius.
    batch_size:
        Queries in the batch; setup costs amortize over it.
    m, dim:
        Database size and vector dimensionality.
    histogram:
        Optional empirical distance distribution for range-selectivity
        estimates (kNN selectivity is ``k/m`` and needs no sample).
    """

    kind: str
    param: float
    batch_size: int
    m: int
    dim: int
    histogram: "DistanceHistogram | None" = None

    def __post_init__(self) -> None:
        if self.kind not in ("knn", "range"):
            raise QueryError(f"unknown query kind {self.kind!r}")
        if self.kind == "knn" and int(self.param) < 1:
            raise QueryError(f"k must be >= 1, got {self.param}")
        if self.kind == "range" and float(self.param) < 0.0:
            raise QueryError(f"radius must be non-negative, got {self.param}")


@dataclass(frozen=True)
class ConsideredPlan:
    """One priced alternative inside a :class:`PlanChoice`."""

    plan: PlanNode
    cost: PredictedCost
    total_flops: float
    executor: ExecutorChoice
    chosen: bool = False

    @property
    def name(self) -> str:
        return self.plan.name


@dataclass(frozen=True)
class PlanChoice:
    """The planner's decision, with its full deliberation attached.

    ``considered`` holds every alternative sorted by ascending predicted
    total cost; ``chosen`` is the winner (the cheapest, unless a plan was
    forced by name).  ``predicted_cost`` is the chosen plan's total for
    the whole batch — the number the EXPLAIN header compares against the
    actually observed cost.
    """

    spec: QuerySpec
    considered: "tuple[ConsideredPlan, ...]"
    chosen: ConsideredPlan

    @property
    def predicted_cost(self) -> float:
        return self.chosen.total_flops

    def alternative(self, name: str) -> ConsideredPlan:
        """Look up a considered alternative by plan name."""
        for candidate in self.considered:
            if candidate.name == name:
                return candidate
        known = [candidate.name for candidate in self.considered]
        raise QueryError(f"no plan named {name!r}; considered: {known}")

    def render(
        self,
        *,
        actual_flops: "dict[str, float] | None" = None,
        per_query: bool = False,
    ) -> str:
        """The "considered plans" header: predicted (vs actual) per plan.

        *actual_flops* maps plan names to observed arithmetic costs (from
        the EXPLAIN event buffers); alternatives without a measurement
        show a ``-``.  With *per_query* the predicted column shows the
        per-query rate instead of the batch total — the right comparison
        when the actuals come from explaining a single query.
        """
        what = (
            f"range(r={self.spec.param:g})"
            if self.spec.kind == "range"
            else f"knn(k={int(self.spec.param)})"
        )
        unit = "flops/query" if per_query else "flops"
        lines = [
            f"considered plans for {what}  "
            f"(batch={self.spec.batch_size}, m={self.spec.m}, "
            f"n={self.spec.dim}):"
        ]
        width = max(len(candidate.name) for candidate in self.considered)
        for candidate in self.considered:
            marker = "*" if candidate.chosen else " "
            predicted = (
                candidate.cost.per_query_flops if per_query else candidate.total_flops
            )
            line = (
                f"  {marker} {candidate.name:<{width}}  "
                f"predicted={predicted:.4g} {unit}"
            )
            if candidate.cost.setup_flops and not per_query:
                line += f" (setup {candidate.cost.setup_flops:.3g})"
            if actual_flops is not None:
                actual = actual_flops.get(candidate.name)
                line += (
                    f"  actual={actual:.4g}"
                    if actual is not None
                    else "  actual=-"
                )
            line += f"  [{candidate.executor.describe()}]"
            if candidate.chosen:
                line += "  (chosen)"
            lines.append(line)
        return "\n".join(lines)


class Planner:
    """Enumerates and prices physical plans for query specs.

    Parameters
    ----------
    catalog:
        Discovered index snapshots (``None`` means no probes — the
        planner still offers both scans and the filter pipelines).
    cost_model:
        The pricing model (a default, uncalibrated one if omitted).
    """

    def __init__(
        self,
        catalog: "IndexCatalog | None" = None,
        cost_model: "CostModel | None" = None,
    ) -> None:
        self._catalog = catalog if catalog is not None else IndexCatalog()
        self._cost_model = cost_model if cost_model is not None else CostModel()

    @property
    def catalog(self) -> IndexCatalog:
        return self._catalog

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    def alternatives(self, spec: QuerySpec) -> "list[PlanNode]":
        """Every physical alternative for *spec*.

        Always at least three: both direct scans and the SVD
        filter-and-refine pipeline; the average-color pipeline when the
        dimensionality is a color-histogram cube (``bins^3``); one probe
        per dimension-compatible catalog snapshot.
        """
        rank = max(1, int(spec.dim) // 4)
        nodes: list[PlanNode] = [
            DirectScan(model="qfd"),
            DirectScan(model="qmap"),
            FilterRefine(lower_bound="svd", rank=rank),
        ]
        bins = round(float(spec.dim) ** (1.0 / 3.0))
        if bins >= 2 and bins**3 == int(spec.dim):
            nodes.append(FilterRefine(lower_bound="avg_color", rank=3))
        for entry in self._catalog.compatible(int(spec.dim)):
            if entry.size != int(spec.m):
                continue
            nodes.append(IndexProbe(entry=entry))
        return nodes

    def plan(self, spec: QuerySpec, *, force: "str | None" = None) -> PlanChoice:
        """Price every alternative and pick the argmin (or *force* by name).

        The returned :class:`PlanChoice` lists all alternatives sorted by
        predicted total cost; a forced plan is marked chosen even when it
        is not the cheapest, so ``--plan <name>`` keeps the comparison
        visible.
        """
        priced: list[ConsideredPlan] = []
        for node in self.alternatives(spec):
            cost = node.predicted_cost(spec, self._cost_model)
            priced.append(
                ConsideredPlan(
                    plan=node,
                    cost=cost,
                    total_flops=cost.total(spec.batch_size),
                    executor=ExecutorChoice(name="serial"),
                )
            )
        priced.sort(key=lambda candidate: (candidate.total_flops, candidate.name))
        if force is not None:
            names = [candidate.name for candidate in priced]
            if force not in names:
                raise QueryError(
                    f"no plan named {force!r} for this workload; "
                    f"available: {names}"
                )
            chosen_pos = names.index(force)
        else:
            chosen_pos = 0
        final = tuple(
            ConsideredPlan(
                plan=candidate.plan,
                cost=candidate.cost,
                total_flops=candidate.total_flops,
                executor=candidate.executor,
                chosen=pos == chosen_pos,
            )
            for pos, candidate in enumerate(priced)
        )
        return PlanChoice(spec=spec, considered=final, chosen=final[chosen_pos])
