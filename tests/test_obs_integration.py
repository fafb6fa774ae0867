"""Observability acceptance tests: the registry never lies, never perturbs.

Two invariants pin the whole subsystem:

1. **Exactness** — with a live registry, the
   ``repro_distance_evaluations_total`` counter equals the model's own
   :class:`CountingDistance` snapshot exactly, for every registered access
   method under both models (property-tested over random workloads).
2. **Non-interference** — with the null registry (the default), the same
   build/query flow charges bit-identical distance counts, which is what
   keeps ``tests/fixtures/count_baseline.json`` valid.

And a third that follows from the single per-query cost record: every
number reported *per query* is that query's own, also when other threads
query the same index at the same moment.
"""

from __future__ import annotations

import io
import json
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import random_spd_matrix
from repro.engine import TraceCollector
from repro.models import QFDModel, QMapModel, explain_query
from repro.models.base import MAM_REGISTRY, SAM_REGISTRY
from repro.obs import (
    NULL_REGISTRY,
    JsonLinesLogger,
    MetricsRegistry,
    get_registry,
    to_prometheus,
    use_logger,
    use_registry,
)
from repro.obs.instruments import DISTANCE_EVALUATIONS

from .helpers import run_together

#: Small-workload construction arguments per method.
METHOD_KWARGS: dict[str, dict[str, int]] = {
    "pivot-table": {"n_pivots": 4},
    "mindex": {"n_pivots": 4},
    "mtree": {"capacity": 8},
    "paged-mtree": {"capacity": 8},
    "vptree": {"leaf_size": 4},
    "gnat": {"arity": 3, "leaf_size": 4},
    "rtree": {"capacity": 8},
    "xtree": {"capacity": 8},
    "vafile": {"bits": 4},
}

#: Every (model, method) pair the library supports: the QFD model covers
#: the MAMs, the QMap model additionally covers the SAMs.
ALL_PAIRS = [("qfd", m) for m in MAM_REGISTRY] + [
    ("qmap", m) for m in (*MAM_REGISTRY, *SAM_REGISTRY)
]

DIM = 6


def _workload(seed: int, m: int = 50, n_queries: int = 4):
    rng = np.random.default_rng(seed)
    matrix = random_spd_matrix(DIM, rng=rng, condition=6.0)
    data = rng.uniform(0.0, 1.0, size=(m, DIM))
    queries = rng.uniform(0.0, 1.0, size=(n_queries, DIM))
    return matrix, data, queries


def _build(model_name: str, method: str, matrix, data):
    model = (QMapModel if model_name == "qmap" else QFDModel)(matrix)
    return model.build_index(method, data, **METHOD_KWARGS.get(method, {}))


def _registry_evaluations(reg: MetricsRegistry, model: str, method: str) -> int:
    counter = reg.counter(DISTANCE_EVALUATIONS)
    labels = {"model": model, "method": method, "phase": "query"}
    return int(
        counter.value(kind="scalar", **labels)
        + counter.value(kind="batched", **labels)
    )


class TestRegistryEqualsCountingDistance:
    """Invariant 1: registry counters == CountingDistance, exactly."""

    @pytest.mark.parametrize("model_name,method", ALL_PAIRS)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8))
    @settings(max_examples=5, deadline=None)
    def test_query_counters_match_exactly(self, model_name, method, seed, k) -> None:
        matrix, data, queries = _workload(seed)
        built = _build(model_name, method, matrix, data)
        reg = MetricsRegistry()
        with use_registry(reg):
            built.reset_query_costs()
            for q in queries:
                built.knn_search(q, k)
                built.range_search(q, 0.5)
        counted = built.query_costs().distance_computations
        mirrored = _registry_evaluations(reg, model_name, method)
        assert mirrored == counted, (
            f"{model_name}/{method}: registry mirrors {mirrored} evaluations, "
            f"CountingDistance says {counted}"
        )

    def test_batch_queries_match_exactly(self) -> None:
        matrix, data, queries = _workload(7, m=120, n_queries=10)
        for model_name in ("qfd", "qmap"):
            built = _build(model_name, "pivot-table", matrix, data)
            reg = MetricsRegistry()
            with use_registry(reg):
                built.reset_query_costs()
                built.knn_search_batch(queries, 5, executor="thread", workers=4)
            counted = built.query_costs().distance_computations
            assert _registry_evaluations(reg, model_name, "pivot-table") == counted

    def test_reset_query_costs_realigns_the_mirror(self) -> None:
        matrix, data, queries = _workload(3)
        built = _build("qfd", "mtree", matrix, data)
        reg = MetricsRegistry()
        with use_registry(reg):
            built.reset_query_costs()
            built.knn_search(queries[0], 3)
            first = _registry_evaluations(reg, "qfd", "mtree")
            built.reset_query_costs()
            built.knn_search(queries[1], 3)
        # The counter is cumulative across resets; the second query's share
        # must equal the model counter reading after its own reset.
        total = _registry_evaluations(reg, "qfd", "mtree")
        assert total - first == built.query_costs().distance_computations


class TestNullRegistryNonInterference:
    """Invariant 2: observability off => nothing changes, nothing recorded."""

    def test_default_registry_is_null(self) -> None:
        assert get_registry() is NULL_REGISTRY

    @pytest.mark.parametrize("model_name,method", ALL_PAIRS)
    def test_counts_identical_with_and_without_registry(
        self, model_name, method
    ) -> None:
        matrix, data, queries = _workload(11)

        def run(active: MetricsRegistry | None) -> tuple[int, list]:
            built = _build(model_name, method, matrix, data)
            build_evals = built.build_costs.distance_computations
            results = []
            if active is None:
                for q in queries:
                    results.append(built.knn_search(q, 3))
                    results.append(built.range_search(q, 0.5))
            else:
                with use_registry(active):
                    for q in queries:
                        results.append(built.knn_search(q, 3))
                        results.append(built.range_search(q, 0.5))
            answers = [
                [(n.index, n.distance) for n in result] for result in results
            ]
            return build_evals, [
                built.query_costs().distance_computations,
                answers,
            ]

        bare = run(None)
        observed = run(MetricsRegistry())
        assert bare == observed, (
            f"{model_name}/{method}: a live registry perturbed the distance "
            f"counts or answers — the count-baseline fixture would drift"
        )

    def test_default_logger_is_null(self) -> None:
        from repro.obs import NullLogger, get_logger

        assert isinstance(get_logger(), NullLogger)
        assert not get_logger().enabled

    def test_counts_identical_with_and_without_logger(self) -> None:
        """A live JSON-lines logger must not move a single counter."""
        import io

        from repro.obs import JsonLinesLogger, use_logger

        matrix, data, queries = _workload(13)

        def run(logged: bool) -> tuple[int, list]:
            built = _build("qmap", "vptree", matrix, data)
            results = []

            def query_all() -> None:
                for q in queries:
                    results.append(built.knn_search(q, 3))
                    results.append(built.range_search(q, 0.5))

            if logged:
                with use_logger(JsonLinesLogger(io.StringIO())):
                    query_all()
            else:
                query_all()
            answers = [
                [(n.index, n.distance) for n in result] for result in results
            ]
            return built.build_costs.distance_computations, [
                built.query_costs().distance_computations,
                answers,
            ]

        assert run(False) == run(True)

    def test_counts_identical_with_and_without_profiler(self) -> None:
        """A running sampler observes; it never participates."""
        from repro.obs import SamplingProfiler

        matrix, data, queries = _workload(13)

        def run(profiled: bool) -> tuple[int, list]:
            built = _build("qfd", "mtree", matrix, data)
            results = []

            def query_all() -> None:
                for q in queries:
                    results.append(built.knn_search(q, 3))
                    results.append(built.range_search(q, 0.5))

            if profiled:
                with SamplingProfiler(hz=1000):
                    query_all()
            else:
                query_all()
            answers = [
                [(n.index, n.distance) for n in result] for result in results
            ]
            return built.build_costs.distance_computations, [
                built.query_costs().distance_computations,
                answers,
            ]

        assert run(False) == run(True)


class TestPerQueryNumbersUnderConcurrency:
    """Per-query numbers come from the query's own record.

    Regression: ``BuiltIndex`` and ``explain_query`` used to read a delta
    off the shared cumulative counter, so with N threads on one index a
    ``"query"`` log record (and the ``repro_query_distance_evaluations``
    histogram, and an EXPLAIN plan) absorbed the other threads'
    evaluations — logged totals several times the true cost.
    """

    THREADS = 4

    @pytest.fixture(scope="class")
    def index(self):
        rng = np.random.default_rng(23)
        matrix = random_spd_matrix(8, rng=rng, condition=6.0)
        built = QMapModel(matrix).build_index(
            "pivot-table", rng.uniform(0.0, 1.0, size=(500, 8)), n_pivots=6
        )
        return built, rng.uniform(0.0, 1.0, size=(10, 8))

    def _serial_costs(self, built, queries) -> list[tuple[int, int]]:
        costs = []
        for q in queries:
            before = built._counter.stats
            built.knn_search(q, 10)
            after = built._counter.stats
            costs.append((after.calls - before.calls, after.batch_rows - before.batch_rows))
        return costs

    def test_logged_and_observed_evaluations_are_each_querys_own(self, index) -> None:
        built, queries = index
        serial = self._serial_costs(built, queries)
        built.reset_query_costs()
        registry, stream = MetricsRegistry(), io.StringIO()

        def loop() -> None:
            for q in queries:
                built.knn_search(q, 10)

        with JsonLinesLogger(stream) as logger, use_registry(registry), use_logger(logger):
            run_together(*[loop] * self.THREADS)
        logged = [
            (rec["scalar_evaluations"], rec["batched_evaluations"], rec["distance_evaluations"])
            for rec in map(json.loads, stream.getvalue().splitlines())
            if rec["event"] == "query"
        ]
        assert sorted(logged) == sorted(
            (calls, rows, calls + rows) for calls, rows in serial * self.THREADS
        )
        total = built.query_costs().distance_computations
        assert sum(rec[2] for rec in logged) == total
        assert total == self.THREADS * sum(calls + rows for calls, rows in serial)
        [observed] = [
            sample.histogram
            for sample in registry.snapshot()
            if sample.name == "repro_query_distance_evaluations"
        ]
        assert (observed.count, observed.total) == (len(logged), float(total))

    def test_explain_totals_are_the_explained_querys_own(self, index) -> None:
        built, queries = index
        want = explain_query(built, queries[0], k=10).to_dict()["totals"]
        plans: list[dict] = []
        stop = threading.Event()

        def explain() -> None:
            try:
                for _ in range(20):
                    plans.append(explain_query(built, queries[0], k=10).to_dict()["totals"])
            finally:
                stop.set()

        def hammer() -> None:
            while not stop.is_set():
                for q in queries:
                    built.knn_search(q, 10)

        run_together(explain, hammer)
        assert len(plans) == 20 and all(plan == want for plan in plans)
        assert want["totals_match"]


class TestBatchThroughputMetrics:
    def test_batch_seconds_and_qps(self) -> None:
        matrix, data, queries = _workload(5, m=80, n_queries=8)
        built = _build("qmap", "pivot-table", matrix, data)
        reg = MetricsRegistry()
        collector = TraceCollector()
        with use_registry(reg):
            built.knn_search_batch(queries, 3, collector=collector)
        summary = collector.summary()
        assert summary.batch_seconds > 0.0
        assert summary.queries_per_second == pytest.approx(
            summary.queries / summary.batch_seconds
        )
        assert summary.serial_queries_per_second == pytest.approx(
            summary.queries / summary.seconds
        )
        # Batch wall-clock can never exceed the summed per-query time by
        # less than zero — and with one worker they bracket each other.
        assert reg.counter("repro_queries_total").value(
            method="pivot-table", kind="knn"
        ) == len(queries)
        assert (
            reg.gauge("repro_batch_queries_per_second").value(
                method="pivot-table", kind="knn"
            )
            > 0.0
        )

    def test_serial_fallback_when_no_batch_clock(self) -> None:
        collector = TraceCollector()
        summary = collector.summary()
        assert summary.batch_seconds == 0.0
        assert summary.queries_per_second == summary.serial_queries_per_second


_PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\n]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\n]*\")*\})?"
    r" (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$"
)


class TestPrometheusExport:
    def test_every_line_is_valid_exposition_format(self) -> None:
        matrix, data, queries = _workload(9)
        reg = MetricsRegistry()
        with use_registry(reg):
            built = _build("qmap", "mtree", matrix, data)
            for q in queries:
                built.knn_search(q, 3)
        text = to_prometheus(reg)
        assert text.endswith("\n")
        seen_types = 0
        for line in text.splitlines():
            if line.startswith("# TYPE"):
                seen_types += 1
                continue
            if line.startswith("#"):
                continue
            assert _PROM_LINE.match(line), f"malformed exposition line: {line!r}"
        assert seen_types >= 3  # build spans, distance counter, index gauges

    def test_help_text_is_escaped(self) -> None:
        # Regression test: a raw newline in a HELP string would start a
        # bogus exposition line and break scrapes; backslashes must be
        # doubled per the exposition format.
        reg = MetricsRegistry()
        reg.counter(
            "repro_test_total", "first line\nsecond line with a \\ backslash"
        ).inc(1)
        text = to_prometheus(reg)
        (help_line,) = [ln for ln in text.splitlines() if ln.startswith("# HELP")]
        assert help_line == (
            "# HELP repro_test_total first line\\nsecond line with a \\\\ backslash"
        )
        # The whole exposition still parses line by line.
        for line in text.splitlines():
            if not line.startswith("#"):
                assert _PROM_LINE.match(line), f"malformed exposition line: {line!r}"

    def test_histograms_are_cumulative(self) -> None:
        reg = MetricsRegistry()
        h = reg.histogram("repro_test_seconds", bounds=[1.0, 2.0])
        h.observe(0.5)
        h.observe(1.5)
        h.observe(99.0)
        text = to_prometheus(reg)
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if "_bucket" in line
        ]
        assert buckets == sorted(buckets), "bucket counts must be cumulative"
        assert buckets[-1] == 3
        assert 'le="+Inf"' in text
