"""Unit tests for the rule-based planner (`repro.planner`).

Pinned invariants:

1. layering — importing ``repro.planner`` never pulls in the execution or
   observability layers (``repro.models`` / ``repro.mam`` / ``repro.obs``);
   the planner ranks plans from snapshot headers only;
2. the rule — auto picks the QMap pivot table with the most pivots (heap
   before mmap), else the QMap M-tree (in-memory before paged), else the
   QMap scan, and never a QFD-model or filter-and-refine plan;
3. planning — every alternative stays visible in the
   :class:`PlanChoice` under a unique name, and ``force=`` picks by name
   without hiding the comparison.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.exceptions import QueryError
from repro.planner import (
    CatalogEntry,
    ExecutorChoice,
    FilterRefine,
    IndexCatalog,
    Planner,
    QuerySpec,
)


def _entry(method: str = "pivot-table", model: str = "qmap", *, size: int = 400,
           dim: int = 64, n_pivots: "int | None" = 16,
           bound: "str | None" = "triangle", dtype: str = "float64",
           stem: "str | None" = None) -> CatalogEntry:
    """A synthetic catalog entry (no file behind it — ranking needs none)."""
    return CatalogEntry(
        path=f"/nowhere/{stem or f'{method}_{model}'}.npz",
        method=method,
        model=model,
        bound=bound,
        size=size,
        dim=dim,
        dtype=dtype,
        format_version=1,
        method_version=1,
        n_pivots=n_pivots,
        build_distance_computations=0,
        build_transforms=0,
        build_seconds=0.0,
    )


def _spec(*, kind: str = "knn", param: float = 10, batch: int = 10,
          m: int = 400, dim: int = 64) -> QuerySpec:
    return QuerySpec(kind=kind, param=param, batch_size=batch, m=m, dim=dim)


class TestLayering:
    def test_planner_sources_import_no_execution_layer(self) -> None:
        """The contract ruff's TID251 gate enforces, checked structurally.

        Every import in ``src/repro/planner`` must stay below the
        model/index/observability layers — the planner ranks plans from
        snapshot headers only.  (Importing the package
        at runtime can't show this: ``repro/__init__`` re-exports the
        whole library.)
        """
        banned = ("models", "mam", "sam", "obs", "engine")
        import repro.planner

        package_dir = Path(repro.planner.__file__).parent
        offenders = []

        def layer_of(module: str, relative: bool) -> "str | None":
            parts = module.split(".") if module else []
            if relative:  # `from ..bench import ...` resolves against repro
                return parts[0] if parts else None
            if parts and parts[0] == "repro":
                return parts[1] if len(parts) > 1 else None
            return None

        for source in sorted(package_dir.glob("*.py")):
            tree = ast.parse(source.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    targets = [(alias.name, False) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    targets = [(node.module or "", node.level > 0)]
                else:
                    continue
                for module, relative in targets:
                    if layer_of(module, relative) in banned:
                        offenders.append(f"{source.name}: {module}")
        assert not offenders, offenders


class TestQuerySpec:
    def test_validation(self) -> None:
        with pytest.raises(QueryError):
            _spec(kind="nearest")
        with pytest.raises(QueryError):
            _spec(kind="knn", param=0)
        with pytest.raises(QueryError):
            _spec(kind="range", param=-1.0)


class TestPlanner:
    def test_at_least_three_alternatives_with_empty_catalog(self) -> None:
        choice = Planner().plan(_spec(dim=20))
        names = [candidate.name for candidate in choice.considered]
        assert len(names) >= 3
        assert "scan[qfd]" in names and "scan[qmap]" in names
        assert any(name.startswith("filter-refine[svd") for name in names)
        # dim=20 is no color cube: the avg_color pipeline is not offered.
        assert not any("avg_color" in name for name in names)

    def test_avg_color_offered_for_histogram_cubes(self) -> None:
        names = [c.name for c in Planner().plan(_spec(dim=64)).considered]
        assert "filter-refine[avg_color,k=3]" in names

    def test_probes_require_matching_shape(self) -> None:
        catalog = IndexCatalog(
            entries=(
                _entry("pivot-table", "qmap", size=400, dim=64),
                _entry("mtree", "qmap", size=999, dim=64),  # wrong m
                _entry("mtree", "qmap", size=400, dim=512),  # wrong dim
            )
        )
        names = [c.name for c in Planner(catalog).plan(_spec(m=400, dim=64)).considered]
        assert "probe[pivot-table,qmap]" in names
        assert not any("mtree" in name for name in names)

    def test_rule_pick_is_first_and_chosen(self) -> None:
        catalog = IndexCatalog(entries=(_entry("pivot-table", "qmap"),))
        choice = Planner(catalog).plan(_spec())
        assert choice.considered[0].chosen
        assert choice.chosen is choice.considered[0]
        assert choice.chosen.name == "probe[pivot-table,qmap]"
        assert sum(c.chosen for c in choice.considered) == 1

    def test_force_picks_by_name_and_keeps_comparison(self) -> None:
        choice = Planner().plan(_spec(), force="scan[qfd]")
        assert choice.chosen.name == "scan[qfd]"
        assert choice.reason == "forced by name"
        # The raw-QFD scan is never the rule's pick...
        assert choice.considered[0].name != "scan[qfd]"
        # ...and exactly one alternative is marked chosen.
        assert sum(c.chosen for c in choice.considered) == 1
        with pytest.raises(QueryError, match="no plan named"):
            Planner().plan(_spec(), force="scan[nope]")

    def test_alternative_lookup(self) -> None:
        choice = Planner().plan(_spec())
        assert choice.alternative("scan[qfd]").name == "scan[qfd]"
        with pytest.raises(QueryError):
            choice.alternative("probe[unicorn,qmap]")

    def test_render_shows_reason_and_actuals(self) -> None:
        choice = Planner().plan(_spec())
        text = choice.render()
        assert "considered plans for knn(k=10)" in text
        chosen_line = text.splitlines()[1]
        assert chosen_line.split()[:3] == ["*", "scan[qmap]", "(chosen)"]
        assert chosen_line.endswith(f"(chosen) {choice.reason}")
        assert text.endswith("filter-refine[avg_color,k=3]")  # no trailing blanks
        assert "scan[qfd]" in text and "actual=" not in text
        assert "predicted" not in text
        explained = choice.render(actual_flops={"scan[qfd]": 123.0})
        assert "actual=123 flops/query" in explained and "actual=-" in explained

    def test_colliding_labels_get_the_file_stem(self) -> None:
        """Two snapshots with one label used to share one plan name, and
        ``force=`` could reach only the first of them."""
        catalog = IndexCatalog(
            entries=(
                _entry("pivot-table", n_pivots=4, stem="p4"),
                _entry("pivot-table", n_pivots=16, stem="p16"),
                _entry("mtree"),
            )
        )
        names = [c.name for c in Planner(catalog).plan(_spec()).considered]
        assert len(names) == len(set(names))
        assert "probe[pivot-table,qmap@p4]" in names
        assert "probe[pivot-table,qmap@p16]" in names
        assert "probe[mtree,qmap]" in names  # unique labels stay as they are
        for name in ("probe[pivot-table,qmap@p4]", "probe[pivot-table,qmap@p16]"):
            forced = Planner(catalog).plan(_spec(), force=name)
            assert forced.chosen.name == name
        p4 = Planner(catalog).plan(_spec(), force="probe[pivot-table,qmap@p4]")
        assert p4.chosen.plan.entry.n_pivots == 4


def _pick(*entries: CatalogEntry, dim: int = 64) -> str:
    return Planner(IndexCatalog(entries=entries)).plan(_spec(dim=dim)).chosen.name


class TestRule:
    """The precedence ``--plan auto`` applies, one catalog per row."""

    @pytest.mark.parametrize(
        "entries,expected",
        [
            # most pivots wins, whatever the catalog order
            (
                (_entry(n_pivots=4, stem="a"), _entry(n_pivots=16, stem="b")),
                "probe[pivot-table,qmap@b]",
            ),
            (
                (_entry(n_pivots=16, stem="a"), _entry(n_pivots=4, stem="b")),
                "probe[pivot-table,qmap@a]",
            ),
            # heap beats mmap at equal pivots, even listed second
            (
                (
                    _entry(dtype="float32", stem="a"),
                    _entry(dtype="float64", stem="b"),
                ),
                "probe[pivot-table,qmap@b]",
            ),
            # ...but more pivots beat the store
            (
                (
                    _entry(n_pivots=32, dtype="float32", stem="a"),
                    _entry(n_pivots=16, stem="b"),
                ),
                "probe[pivot-table,qmap@a]",
            ),
            # a pivot table beats an M-tree
            ((_entry("mtree"), _entry("pivot-table")), "probe[pivot-table,qmap]"),
            # M-tree beats paged M-tree
            ((_entry("paged-mtree"), _entry("mtree")), "probe[mtree,qmap]"),
            ((_entry("paged-mtree"),), "probe[paged-mtree,qmap]"),
            # no catalog gives the QMap scan
            ((), "scan[qmap]"),
            # a QFD-only catalog gives the QMap scan
            (
                (_entry("pivot-table", "qfd"), _entry("mtree", "qfd")),
                "scan[qmap]",
            ),
            # other QMap methods are never picked
            (
                (_entry("gnat"), _entry("sequential"), _entry("mindex")),
                "scan[qmap]",
            ),
            # a pivot table of another workload shape is not on offer
            ((_entry(size=999), _entry("mtree")), "probe[mtree,qmap]"),
        ],
        ids=[
            "most-pivots-second", "most-pivots-first", "heap-over-mmap",
            "pivots-over-store", "pivot-table-over-mtree", "mtree-over-paged",
            "paged-mtree", "no-catalog", "qfd-only", "other-qmap-methods",
            "other-shape",
        ],
    )
    def test_precedence(self, entries, expected) -> None:
        assert _pick(*entries) == expected

    def test_never_a_qfd_or_filter_plan(self) -> None:
        choice = Planner().plan(_spec(dim=64))
        names = [c.name for c in choice.considered]
        assert "filter-refine[avg_color,k=3]" in names and "scan[qfd]" in names
        assert choice.chosen.name == "scan[qmap]"

    def test_reasons_name_the_rule(self) -> None:
        def reason(*entries: CatalogEntry) -> str:
            return Planner(IndexCatalog(entries=entries)).plan(_spec()).reason

        assert reason(_entry(n_pivots=16, dtype="float32")) == (
            "rule 1: the QMap pivot table with the most pivots (p=16, mmap)"
        )
        assert reason(_entry("paged-mtree")) == (
            "rule 2: no QMap pivot table; the paged QMap M-tree"
        )
        assert reason() == "rule 3: no QMap pivot table or M-tree"


class TestExecutorHints:
    def test_executor_choice_describe(self) -> None:
        assert ExecutorChoice(name="thread", workers=4).describe() == "thread(4)"
        assert ExecutorChoice(name="serial").describe() == "serial"

    def test_filter_refine_rejects_unknown_bound(self) -> None:
        with pytest.raises(ValueError):
            FilterRefine(lower_bound="magic")
