"""Physical plan nodes: how one logical query batch can actually run.

Three node families, mirroring the paper's three ways of answering the
same QFD query exactly:

* :class:`DirectScan` — a sequential scan under the QFD or QMap model
  (Table 2, first row): zero setup, the baseline;
* :class:`IndexProbe` — restore a built index from a catalog snapshot
  and traverse it (Table 2, pivot-table / M-tree rows);
* :class:`FilterRefine` — the Section 2.3.1 lower-bound pipeline: a
  cheap contractive filter (rank-k SVD reduction or the generalized
  QBIC average-color projection) over a sequential scan, with exact QFD
  refinement of the survivors.

No node proposes an executor: on every ledger cell the thread and
process pools lose to the serial engine (ROADMAP item 5), so a plan runs
serially unless the caller names an executor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import CatalogEntry

__all__ = [
    "ExecutorChoice",
    "PlanNode",
    "DirectScan",
    "IndexProbe",
    "FilterRefine",
]


@dataclass(frozen=True)
class ExecutorChoice:
    """A caller-chosen executor: accepted by ``resolve_executor``.

    Duck-typed by its ``name``/``workers``/``chunk_size`` attributes —
    the engine needs no import of the planner to honor it.
    """

    name: str
    workers: "int | None" = None
    chunk_size: "int | None" = None

    def describe(self) -> str:
        if self.workers:
            return f"{self.name}({self.workers})"
        return self.name


class PlanNode:
    """One physical alternative for a query batch."""

    @property
    def name(self) -> str:
        """Stable identifier, also accepted by ``--plan <name>``."""
        raise NotImplementedError


@dataclass(frozen=True)
class DirectScan(PlanNode):
    """Sequential scan under one model — Table 2's baseline row."""

    model: str = "qmap"

    @property
    def name(self) -> str:
        return f"scan[{self.model}]"


@dataclass(frozen=True)
class IndexProbe(PlanNode):
    """Restore a cataloged snapshot and traverse the index.

    ``stem`` is set only when another snapshot of the catalog carries the
    same label; it then joins the name (``probe[pivot-table,qmap@p16]``)
    so that every probe stays reachable by ``--plan <name>``.
    """

    entry: CatalogEntry
    stem: "str | None" = None

    @property
    def method(self) -> str:
        return self.entry.method

    @property
    def model(self) -> str:
        return self.entry.model

    @property
    def bound(self) -> "str | None":
        return self.entry.bound

    @property
    def name(self) -> str:
        tag = f"@{self.stem}" if self.stem else ""
        return f"probe[{self.entry.label}{tag}]"


@dataclass(frozen=True)
class FilterRefine(PlanNode):
    """Lower-bound filter over a scan, exact QFD refinement (S 2.3.1)."""

    lower_bound: str = "svd"
    rank: int = 16

    def __post_init__(self) -> None:
        if self.lower_bound not in ("svd", "avg_color"):
            raise ValueError(
                f"unknown lower bound {self.lower_bound!r}; "
                "choose 'svd' or 'avg_color'"
            )

    @property
    def name(self) -> str:
        return f"filter-refine[{self.lower_bound},k={int(self.rank)}]"
