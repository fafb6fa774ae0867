"""Rule-based query planning over catalogued snapshots.

The planner answers the question the paper leaves to the reader: *given*
that the same logical query costs wildly different amounts depending on
the model (QFD vs QMap), the access method, and the execution strategy,
which physical path should a query batch actually take?  The paper's
answer (Table 2, §3.3) is a precedence, not a price list: QMap always,
and an index before the scan.

Three pieces, each import-clean of the index/model/observability layers
(the materializing runner lives in :mod:`repro.models.planning`):

* :mod:`~repro.planner.catalog` — discover built indexes from snapshot
  headers, never loading vectors;
* :mod:`~repro.planner.plans` — the physical plan nodes (direct scan,
  index probe, filter-and-refine);
* :mod:`~repro.planner.planner` — enumerate every alternative, pick one
  by the rule, and record them all in a :class:`PlanChoice`.
"""

from .catalog import CatalogEntry, IndexCatalog
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
