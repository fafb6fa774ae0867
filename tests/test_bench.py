"""Tests for repro.bench — harness plumbing and complexity closed forms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    compare_models,
    format_table,
    measure_queries,
    measured_flops,
    speedup,
    sweep_sizes,
    theoretical_indexing_flops,
    theoretical_querying_flops,
)
from repro.datasets import histogram_workload
from repro.exceptions import QueryError
from repro.models import IndexCosts, QMapModel


@pytest.fixture(scope="module")
def workload():
    return histogram_workload(200, 4, bins_per_channel=2, seed=23)


class TestReporting:
    def test_format_table(self) -> None:
        out = format_table(["a", "b"], [[1, 2.5], [3, 4.0]], title="T")
        assert "T" in out
        assert "a" in out and "b" in out
        assert "2.5" in out

    def test_speedup(self) -> None:
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        assert speedup(1.0, 0.0) == float("inf")
        assert speedup(0.0, 0.0) == 1.0

    def test_format_large_and_small_floats(self) -> None:
        out = format_table(["x"], [[123456.0], [0.00001]])
        assert "e+" in out or "e-" in out


class TestMeasureQueries:
    def test_knn_mode(self, workload) -> None:
        index = QMapModel(workload.matrix).build_index("sequential", workload.database)
        result = measure_queries(index, workload.queries, mode="knn", k=3)
        assert result.queries == 4
        assert result.evaluations_per_query == workload.size
        assert result.seconds_per_query > 0.0

    def test_range_mode(self, workload) -> None:
        index = QMapModel(workload.matrix).build_index("sequential", workload.database)
        result = measure_queries(index, workload.queries, mode="range", radius=0.1)
        assert result.total.distance_computations == 4 * workload.size

    def test_rejects_bad_mode(self, workload) -> None:
        index = QMapModel(workload.matrix).build_index("sequential", workload.database)
        with pytest.raises(QueryError):
            measure_queries(index, workload.queries, mode="nearest")

    def test_rejects_empty_queries(self, workload) -> None:
        index = QMapModel(workload.matrix).build_index("sequential", workload.database)
        with pytest.raises(QueryError):
            measure_queries(index, np.empty((0, workload.dim)))


class TestCompareAndSweep:
    def test_compare_models(self, workload) -> None:
        cmp = compare_models(workload, "pivot-table", method_kwargs={"n_pivots": 8}, k=1)
        assert cmp.method == "pivot-table"
        assert cmp.database_size == workload.size
        # Same number of distance evaluations in both models.
        assert (
            cmp.qfd_query.total.distance_computations
            == cmp.qmap_query.total.distance_computations
        )
        assert cmp.indexing_speedup > 0.0
        assert cmp.querying_speedup > 0.0

    def test_sweep_sizes(self, workload) -> None:
        results = sweep_sizes(workload, "sequential", [50, 100, 200], k=1)
        assert [r.database_size for r in results] == [50, 100, 200]
        evals = [r.qfd_query.evaluations_per_query for r in results]
        assert evals == [50, 100, 200]  # scan always touches everything


class TestComplexity:
    def test_measured_flops_qfd(self) -> None:
        costs = IndexCosts(distance_computations=10, transforms=0)
        assert measured_flops(costs, "qfd", 8) == 10 * 64

    def test_measured_flops_qmap(self) -> None:
        costs = IndexCosts(distance_computations=10, transforms=3)
        assert measured_flops(costs, "qmap", 8) == 10 * 8 + 3 * 64

    def test_measured_flops_rejects_unknown_model(self) -> None:
        with pytest.raises(QueryError):
            measured_flops(IndexCosts(1, 0), "hybrid", 4)

    def test_table1_sequential_qfd_beats_qmap(self) -> None:
        """The single row of Table 1 where QFD wins."""
        qfd = theoretical_indexing_flops("sequential", "qfd", m=1000, n=64)
        qmap = theoretical_indexing_flops("sequential", "qmap", m=1000, n=64)
        assert qfd < qmap

    @pytest.mark.parametrize("method", ["pivot-table", "mtree"])
    def test_table1_qmap_beats_qfd_elsewhere(self, method) -> None:
        kwargs = {"m": 10_000, "n": 64}
        if method == "pivot-table":
            kwargs.update(p=32, selection_cost=5000)
        qfd = theoretical_indexing_flops(method, "qfd", **kwargs)
        qmap = theoretical_indexing_flops(method, "qmap", **kwargs)
        assert qmap < qfd

    @pytest.mark.parametrize("method", ["sequential", "pivot-table", "mtree"])
    def test_table2_qmap_always_wins(self, method) -> None:
        kwargs = {"m": 10_000, "n": 64}
        if method == "pivot-table":
            kwargs.update(p=32, x=500)
        if method == "mtree":
            kwargs.update(x=500)
        qfd = theoretical_querying_flops(method, "qfd", **kwargs)
        qmap = theoretical_querying_flops(method, "qmap", **kwargs)
        assert qmap < qfd

    def test_unknown_method_rejected(self) -> None:
        with pytest.raises(QueryError):
            theoretical_indexing_flops("rtree", "qfd", m=10, n=4)
        with pytest.raises(QueryError):
            theoretical_querying_flops("rtree", "qfd", m=10, n=4)


class TestWriteReport:
    def test_writes_the_report_and_nothing_else(self, tmp_path) -> None:
        import json
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
        try:
            from _common import write_report
        finally:
            sys.path.pop(0)

        report = {"benchmark": "x", "results": [{"evaluations": 3}]}
        target = tmp_path / "BENCH_x.json"
        assert write_report(report, target) == target
        assert sorted(tmp_path.iterdir()) == [target]
        assert json.loads(target.read_text(encoding="utf-8")) == report
