"""Unit tests for the cost-based planner (`repro.planner`).

Pinned invariants:

1. layering — importing ``repro.planner`` never pulls in the execution or
   observability layers (``repro.models`` / ``repro.mam`` / ``repro.obs``);
   the planner prices plans from headers and closed forms only;
2. pricing — plan costs are the Table 2 closed forms, monotone in the
   database size, with setup amortized over the batch;
3. planning — the argmin is deterministic, every alternative stays
   visible in the :class:`PlanChoice`, and ``force=`` picks by name
   without hiding the comparison.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.complexity import theoretical_querying_flops
from repro.exceptions import QueryError
from repro.planner import (
    DEFAULT_RANGE_SELECTIVITY,
    CatalogEntry,
    CostModel,
    DirectScan,
    DistanceHistogram,
    ExecutorChoice,
    FilterRefine,
    IndexCatalog,
    IndexProbe,
    Planner,
    PredictedCost,
    QuerySpec,
)


def _entry(method: str = "pivot-table", model: str = "qmap", *, size: int = 400,
           dim: int = 64, n_pivots: "int | None" = 16,
           bound: "str | None" = "triangle") -> CatalogEntry:
    """A synthetic catalog entry (no file behind it — pricing needs none)."""
    return CatalogEntry(
        path=f"/nowhere/{method}_{model}.npz",
        method=method,
        model=model,
        bound=bound,
        size=size,
        dim=dim,
        dtype="float64",
        format_version=1,
        method_version=1,
        n_pivots=n_pivots,
        build_distance_computations=0,
        build_transforms=0,
        build_seconds=0.0,
    )


def _spec(*, kind: str = "knn", param: float = 10, batch: int = 10,
          m: int = 400, dim: int = 64, histogram=None) -> QuerySpec:
    return QuerySpec(
        kind=kind, param=param, batch_size=batch, m=m, dim=dim, histogram=histogram
    )


class TestLayering:
    def test_planner_sources_import_no_execution_layer(self) -> None:
        """The contract ruff's TID251 gate enforces, checked structurally.

        Every import in ``src/repro/planner`` must stay below the
        model/index/observability layers — the planner prices plans from
        snapshot headers and closed forms only.  (Importing the package
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


class TestDistanceHistogram:
    def test_selectivity_and_radius_roundtrip(self) -> None:
        hist = DistanceHistogram.from_sample(np.arange(1, 101, dtype=float))
        assert hist.selectivity(10.0) == pytest.approx(0.10)
        assert hist.selectivity(0.0) == 0.0
        assert hist.selectivity(1_000.0) == 1.0
        assert hist.radius_at(0.10) == pytest.approx(10.0)

    def test_rejects_empty_and_drops_nonfinite(self) -> None:
        with pytest.raises(ValueError):
            DistanceHistogram.from_sample([])
        hist = DistanceHistogram.from_sample([1.0, np.nan, 2.0, np.inf])
        assert hist.sample.tolist() == [1.0, 2.0]


class TestQuerySpec:
    def test_validation(self) -> None:
        with pytest.raises(QueryError):
            _spec(kind="nearest")
        with pytest.raises(QueryError):
            _spec(kind="knn", param=0)
        with pytest.raises(QueryError):
            _spec(kind="range", param=-1.0)


class TestCostModel:
    def test_scan_cost_is_table2(self) -> None:
        spec = _spec(m=400, dim=64)
        qfd = CostModel().scan_cost(spec, "qfd")
        qmap = CostModel().scan_cost(spec, "qmap")
        assert qfd.per_query_flops == theoretical_querying_flops(
            "sequential", "qfd", m=400, n=64
        )
        assert qfd.setup_flops == 0.0
        assert qmap.per_query_flops == theoretical_querying_flops(
            "sequential", "qmap", m=400, n=64
        )
        # The QMap scan pays the Table 1 database transform up front.
        assert qmap.setup_flops == 400 * 64 * 64

    def test_setup_amortizes_over_batch(self) -> None:
        cost = PredictedCost(setup_flops=1000.0, per_query_flops=10.0)
        assert cost.total(1) == 1010.0
        assert cost.total(100) == 2000.0
        assert cost.total(0) == 1010.0  # never fewer than one query

    def test_range_selectivity_uses_histogram(self) -> None:
        hist = DistanceHistogram.from_sample(np.linspace(0.0, 1.0, 100))
        with_hist = CostModel().result_fraction(
            _spec(kind="range", param=0.5, histogram=hist)
        )
        without = CostModel().result_fraction(_spec(kind="range", param=0.5))
        assert with_hist == pytest.approx(hist.selectivity(0.5))
        assert without == DEFAULT_RANGE_SELECTIVITY

    @given(
        m_small=st.integers(min_value=20, max_value=2_000),
        growth=st.integers(min_value=1, max_value=2_000),
        dim=st.sampled_from([16, 64, 512]),
        model=st.sampled_from(["qfd", "qmap"]),
        method=st.sampled_from(["sequential", "pivot-table"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_predicted_cost_monotone_in_database_size(
        self, m_small: int, growth: int, dim: int, model: str, method: str
    ) -> None:
        """Bigger databases never get cheaper — for scans and pivot tables."""
        cost_model = CostModel()
        totals = []
        for m in (m_small, m_small + growth):
            spec = _spec(m=m, dim=dim)
            if method == "sequential":
                cost = cost_model.scan_cost(spec, model)
            else:
                cost = cost_model.probe_cost(
                    spec, _entry("pivot-table", model, size=m, dim=dim)
                )
            totals.append(cost.total(spec.batch_size))
        assert totals[1] >= totals[0]

    def test_pivot_probe_prices_the_closed_form(self) -> None:
        spec = _spec(m=400, dim=64, param=10)
        cost_model = CostModel()
        cost = cost_model.probe_cost(spec, _entry("pivot-table", "qmap"))
        x = int(round(cost_model.filter_candidates(spec)))
        assert cost.per_query_flops == theoretical_querying_flops(
            "pivot-table", "qmap", m=400, n=64, p=16, x=x
        )
        assert cost.setup_flops == 0.0  # snapshots restore without evaluations


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

    def test_argmin_is_first_and_chosen(self) -> None:
        catalog = IndexCatalog(entries=(_entry("pivot-table", "qmap"),))
        choice = Planner(catalog).plan(_spec())
        totals = [c.total_flops for c in choice.considered]
        assert totals == sorted(totals)
        assert choice.considered[0].chosen
        assert choice.chosen is choice.considered[0]
        assert choice.predicted_cost == totals[0]

    def test_force_picks_by_name_and_keeps_comparison(self) -> None:
        choice = Planner().plan(_spec(), force="scan[qfd]")
        assert choice.chosen.name == "scan[qfd]"
        # The raw-QFD scan is never the argmin at this shape...
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

    def test_render_shows_predictions_and_actuals(self) -> None:
        choice = Planner().plan(_spec())
        text = choice.render()
        assert "considered plans for knn(k=10)" in text
        assert "(chosen)" in text and "scan[qfd]" in text
        per_query = choice.render(
            per_query=True, actual_flops={"scan[qfd]": 123.0}
        )
        assert "flops/query" in per_query
        assert "actual=123" in per_query and "actual=-" in per_query


class TestExecutorHints:
    def test_executor_choice_describe(self) -> None:
        assert ExecutorChoice(name="thread", workers=4).describe() == "thread(4)"
        assert ExecutorChoice(name="serial").describe() == "serial"

    def test_filter_refine_rejects_unknown_bound(self) -> None:
        with pytest.raises(ValueError):
            FilterRefine(lower_bound="magic")
