"""The planner: enumerate every alternative, pick one by a fixed rule.

Given a :class:`QuerySpec` (range vs kNN, parameter, batch size, database
shape) and an :class:`~repro.planner.catalog.IndexCatalog` of built
snapshots, :class:`Planner` enumerates every physical alternative — both
direct scans, one probe per compatible snapshot, and the
filter-and-refine pipelines — and returns a :class:`PlanChoice` that
records *every* alternative, not just the one it picked.

``--plan auto`` is a precedence rule over QMap plans, the paper's
argument (Table 2, §3.3) that QMap always wins and an index beats the
scan:

1. the catalogued QMap pivot table with the most pivots, a float64
   (heap) snapshot before a float32 (mmap) one;
2. else the catalogued QMap M-tree, in-memory before paged;
3. else ``scan[qmap]``.

Auto never picks a QFD-model plan or a filter-and-refine pipeline; those
stay enumerated and reachable by name (``force=``), so the paper's
§2.3.1 and Table 2 comparisons still run.  Equal-rank snapshots keep the
catalog's path order, so planning is deterministic for a fixed catalog.

The choice is advisory: executing a plan is the job of
:mod:`repro.models.planning`, which keeps this package import-clean of
the model/index layers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import QueryError
from .catalog import IndexCatalog
from .plans import DirectScan, FilterRefine, IndexProbe, PlanNode

__all__ = ["QuerySpec", "ConsideredPlan", "PlanChoice", "Planner"]

#: Rank of the plans auto never picks: listed after the rule's, forceable by name.
_FORCE_ONLY = (3,)


@dataclass(frozen=True)
class QuerySpec:
    """One query workload, as the planner sees it.

    Attributes
    ----------
    kind, param:
        ``"knn"`` with ``k``, or ``"range"`` with the radius.
    batch_size:
        Queries in the batch.
    m, dim:
        Database size and vector dimensionality.
    """

    kind: str
    param: float
    batch_size: int
    m: int
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in ("knn", "range"):
            raise QueryError(f"unknown query kind {self.kind!r}")
        if self.kind == "knn" and int(self.param) < 1:
            raise QueryError(f"k must be >= 1, got {self.param}")
        if self.kind == "range" and float(self.param) < 0.0:
            raise QueryError(f"radius must be non-negative, got {self.param}")


@dataclass(frozen=True)
class ConsideredPlan:
    """One alternative inside a :class:`PlanChoice`."""

    plan: PlanNode
    chosen: bool = False

    @property
    def name(self) -> str:
        return self.plan.name


@dataclass(frozen=True)
class PlanChoice:
    """The planner's decision, with every alternative attached.

    ``considered`` lists the rule's candidates in precedence order, then
    the plans only reachable by name; ``chosen`` is the rule's pick (or
    the forced plan) and ``reason`` says why it was picked.
    """

    spec: QuerySpec
    considered: "tuple[ConsideredPlan, ...]"
    chosen: ConsideredPlan
    reason: str

    def alternative(self, name: str) -> ConsideredPlan:
        """Look up a considered alternative by plan name."""
        for candidate in self.considered:
            if candidate.name == name:
                return candidate
        known = [candidate.name for candidate in self.considered]
        raise QueryError(f"no plan named {name!r}; considered: {known}")

    def render(self, *, actual_flops: "dict[str, float] | None" = None) -> str:
        """The "considered plans" header: every plan, the chosen one's reason.

        *actual_flops* maps plan names to the observed arithmetic of one
        query (EXPLAIN); alternatives without a measurement show a ``-``.
        """
        what = (
            f"range(r={self.spec.param:g})"
            if self.spec.kind == "range"
            else f"knn(k={int(self.spec.param)})"
        )
        lines = [
            f"considered plans for {what}  "
            f"(batch={self.spec.batch_size}, m={self.spec.m}, "
            f"n={self.spec.dim}):"
        ]
        width = max(len(candidate.name) for candidate in self.considered)
        for candidate in self.considered:
            marker = "*" if candidate.chosen else " "
            line = f"  {marker} {candidate.name:<{width}}"
            if actual_flops is not None:
                actual = actual_flops.get(candidate.name)
                line += (
                    f"  actual={actual:.4g} flops/query"
                    if actual is not None
                    else "  actual=-"
                )
            if candidate.chosen:
                line += f"  (chosen) {self.reason}"
            lines.append(line.rstrip())
        return "\n".join(lines)


def _rank(node: PlanNode) -> tuple:
    """The rule's precedence for *node*: lower wins, ``_FORCE_ONLY`` never."""
    if isinstance(node, IndexProbe) and node.model == "qmap":
        entry = node.entry
        if entry.method == "pivot-table":
            return (0, -(entry.n_pivots or 0), entry.store == "mmap")
        if entry.method in ("mtree", "paged-mtree"):
            return (1, entry.method == "paged-mtree")
    if isinstance(node, DirectScan) and node.model == "qmap":
        return (2,)
    return _FORCE_ONLY


def _reason(node: PlanNode) -> str:
    """Why the rule picked *node* (the first-ranked alternative)."""
    if isinstance(node, IndexProbe) and node.method == "pivot-table":
        entry = node.entry
        return (
            "rule 1: the QMap pivot table with the most pivots "
            f"(p={entry.n_pivots or 0}, {entry.store})"
        )
    if isinstance(node, IndexProbe):
        kind = "paged" if node.method == "paged-mtree" else "in-memory"
        return f"rule 2: no QMap pivot table; the {kind} QMap M-tree"
    return "rule 3: no QMap pivot table or M-tree"


class Planner:
    """Enumerates physical plans for query specs and picks one by rule.

    Parameters
    ----------
    catalog:
        Discovered index snapshots (``None`` means no probes — the
        planner still offers both scans and the filter pipelines).
    """

    def __init__(self, catalog: "IndexCatalog | None" = None) -> None:
        self._catalog = catalog if catalog is not None else IndexCatalog()

    @property
    def catalog(self) -> IndexCatalog:
        return self._catalog

    def alternatives(self, spec: QuerySpec) -> "list[PlanNode]":
        """Every physical alternative for *spec*.

        One probe per dimension- and size-compatible catalog snapshot
        (a label two snapshots share gets each one's file stem), both
        direct scans, the SVD filter-and-refine pipeline, and the
        average-color pipeline when the dimensionality is a
        color-histogram cube (``bins^3``).
        """
        entries = [
            entry
            for entry in self._catalog.compatible(int(spec.dim))
            if entry.size == int(spec.m)
        ]
        labels = Counter(entry.label for entry in entries)
        nodes: list[PlanNode] = [
            IndexProbe(
                entry=entry,
                stem=Path(entry.path).stem if labels[entry.label] > 1 else None,
            )
            for entry in entries
        ]
        nodes += [
            DirectScan(model="qmap"),
            DirectScan(model="qfd"),
            FilterRefine(lower_bound="svd", rank=max(1, int(spec.dim) // 4)),
        ]
        bins = round(float(spec.dim) ** (1.0 / 3.0))
        if bins >= 2 and bins**3 == int(spec.dim):
            nodes.append(FilterRefine(lower_bound="avg_color", rank=3))
        return nodes

    def plan(self, spec: QuerySpec, *, force: "str | None" = None) -> PlanChoice:
        """Pick by the rule (or *force* a plan by name).

        The returned :class:`PlanChoice` lists every alternative; a forced
        plan is marked chosen wherever the rule ranks it, so
        ``--plan <name>`` keeps the comparison visible.
        """
        nodes = sorted(self.alternatives(spec), key=_rank)
        if force is None:
            chosen_pos, reason = 0, _reason(nodes[0])
        else:
            names = [node.name for node in nodes]
            if force not in names:
                raise QueryError(
                    f"no plan named {force!r} for this workload; "
                    f"available: {names}"
                )
            chosen_pos, reason = names.index(force), "forced by name"
        considered = tuple(
            ConsideredPlan(plan=node, chosen=pos == chosen_pos)
            for pos, node in enumerate(nodes)
        )
        return PlanChoice(
            spec=spec,
            considered=considered,
            chosen=considered[chosen_pos],
            reason=reason,
        )
