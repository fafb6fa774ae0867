"""Cost-based query planning over the paper's Table 2 model.

The planner answers the question the paper leaves to the reader: *given*
that the same logical query costs wildly different amounts depending on
the model (QFD vs QMap), the access method, and the execution strategy,
which physical path should a query batch actually take?

Four pieces, each import-clean of the index/model/observability layers
(the materializing runner lives in :mod:`repro.models.planning`):

* :mod:`~repro.planner.catalog` — discover built indexes from snapshot
  headers, never loading vectors;
* :mod:`~repro.planner.cost` — price plans with the Table 2 closed
  forms;
* :mod:`~repro.planner.plans` — the physical plan nodes (direct scan,
  index probe, filter-and-refine);
* :mod:`~repro.planner.planner` — enumerate, price, argmin, and record
  every considered alternative in a :class:`PlanChoice`.
"""

from .catalog import CatalogEntry, IndexCatalog
from .cost import (
    DEFAULT_FILTER_LOOSENESS,
    DEFAULT_RANGE_SELECTIVITY,
    DEFAULT_VISIT_FRACTION,
    CostModel,
    DistanceHistogram,
    PredictedCost,
)
from .planner import ConsideredPlan, PlanChoice, Planner, QuerySpec
from .plans import (
    DirectScan,
    ExecutorChoice,
    FilterRefine,
    IndexProbe,
    PlanNode,
)

__all__ = [
    "CatalogEntry",
    "IndexCatalog",
    "CostModel",
    "DistanceHistogram",
    "PredictedCost",
    "DEFAULT_FILTER_LOOSENESS",
    "DEFAULT_RANGE_SELECTIVITY",
    "DEFAULT_VISIT_FRACTION",
    "PlanNode",
    "DirectScan",
    "IndexProbe",
    "FilterRefine",
    "ExecutorChoice",
    "Planner",
    "QuerySpec",
    "PlanChoice",
    "ConsideredPlan",
]
