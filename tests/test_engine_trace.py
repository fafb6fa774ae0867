"""Per-query tracing — traces must reproduce the paper's cost model.

The central claims verified here:

* the pivot table's traced kNN cost is exactly ``p + x`` — the ``p``
  query-pivot distances plus the ``x`` refined candidates (paper
  Section 4.2.1's querying complexity);
* summed over a batch, traces agree *exactly* with the
  :class:`CountingDistance` wrapper the models already use, so the two
  cost accounts can never drift apart;
* the contextvars plumbing attributes evaluations to the right query
  even when queries run concurrently in worker threads — including two
  traced batches at once on one index, which shares nothing per query.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.datasets import histogram_workload
from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.engine import (
    QueryTrace,
    TraceCollector,
    activate_trace,
    current_trace,
    query_trace,
)
from repro.engine.trace import fold_into
from repro.mam import DistancePort, PivotTable, SequentialFile

from .helpers import run_together

N_PIVOTS = 8


@pytest.fixture(scope="module")
def workload():
    return histogram_workload(180, 5, bins_per_channel=4, seed=53)


def _counting_port() -> tuple[DistancePort, CountingDistance]:
    counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
    return DistancePort(counter), counter


class TestPivotTableCostModel:
    def test_knn_costs_exactly_p_plus_x(self, workload) -> None:
        """Paper Section 4.2.1: a pivot-table query pays p pivot
        distances plus one real distance per non-filtered candidate."""
        am = PivotTable(
            workload.database, euclidean, n_pivots=N_PIVOTS,
            rng=np.random.default_rng(3),
        )
        collector = TraceCollector()
        am.knn_search_batch(workload.queries, 10, collector=collector)
        for trace in collector.traces:
            assert trace.batched_evaluations == N_PIVOTS  # the p term
            assert trace.scalar_evaluations == trace.candidates  # the x term
            assert trace.distance_evaluations == N_PIVOTS + trace.candidates

    def test_range_filter_counts(self, workload) -> None:
        am = PivotTable(
            workload.database, euclidean, n_pivots=N_PIVOTS,
            rng=np.random.default_rng(3),
        )
        radius = am.knn_search(workload.queries[0], 6)[-1].distance
        collector = TraceCollector()
        results = am.range_search_batch(workload.queries, radius, collector=collector)
        for trace, result in zip(collector.traces, results):
            assert trace.filter_checked == am.size
            assert trace.filter_hits == trace.candidates
            # Refinement is one batched many() over the candidates.
            assert trace.batched_evaluations == N_PIVOTS + trace.candidates
            assert trace.results == len(result)
            # Filtering is sound: every answer survived the filter.
            assert trace.filter_hits >= len(result)


class TestTracesAgreeWithCounters:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_batch_totals_match_counting_distance(self, workload, executor) -> None:
        port, counter = _counting_port()
        am = PivotTable(
            workload.database, port, n_pivots=N_PIVOTS, rng=np.random.default_rng(7)
        )
        counter.reset()
        collector = TraceCollector()
        am.knn_search_batch(
            workload.queries, 8, executor=executor, workers=3, collector=collector
        )
        summary = collector.summary()
        assert summary.queries == workload.queries.shape[0]
        assert summary.distance_evaluations == counter.count
        assert summary.scalar_evaluations == counter.stats.calls
        assert summary.batched_evaluations == counter.stats.batch_rows

    def test_sequential_scan_costs_m_per_query(self, workload) -> None:
        port, counter = _counting_port()
        am = SequentialFile(workload.database, port)
        counter.reset()
        collector = TraceCollector()
        am.knn_search_batch(workload.queries, 4, collector=collector)
        for trace in collector.traces:
            assert trace.distance_evaluations == am.size
            assert trace.candidates == am.size
        assert collector.summary().distance_evaluations == counter.count

    def test_batch_leaves_port_untouched(self, workload) -> None:
        am = SequentialFile(workload.database, euclidean)
        port_before = am.distance
        am.knn_search_batch(
            workload.queries, 3, executor="thread", workers=2, collector=TraceCollector()
        )
        assert am.distance is port_before


#: Every count a summary carries; its remaining fields are wall times.
_COUNT_FIELDS = [
    f.name for f in dataclasses.fields(TraceCollector().summary()) if "seconds" not in f.name
]


class TestConcurrentTracedBatches:
    """Two traced batches at once on one index see their own costs only.

    Regression: tracing used to swap a wrapper onto the shared index
    (``am._port = TracingPort(...)``); two concurrent batches nested their
    wrappers, each trace was charged twice, and one wrapper usually stayed
    installed for good.
    """

    def test_each_collector_equals_the_serial_one(self) -> None:
        work = histogram_workload(600, 40, bins_per_channel=2, seed=7)
        port, counter = _counting_port()
        am = PivotTable(work.database, port, n_pivots=N_PIVOTS, rng=np.random.default_rng(3))
        serial = TraceCollector()
        am.knn_search_batch(work.queries, 10, collector=serial)
        want = [getattr(serial.summary(), name) for name in _COUNT_FIELDS]
        counter.reset()

        collectors = [TraceCollector(), TraceCollector()]
        finished: list[TraceCollector] = []
        seen_ports: list[object] = []

        def batches(collector: TraceCollector) -> None:
            try:
                for _ in range(3):
                    am.knn_search_batch(work.queries, 10, collector=collector)
            finally:
                finished.append(collector)

        def watch() -> None:
            while len(finished) < len(collectors):
                seen_ports.append(am.distance)

        run_together(*[lambda c=c: batches(c) for c in collectors], watch)
        assert seen_ports and all(p is port for p in seen_ports)
        assert am.distance is port
        for collector in collectors:
            summary = collector.summary()
            got = [getattr(summary, name) for name in _COUNT_FIELDS]
            assert got == [3 * value for value in want]
        assert counter.count == 6 * serial.summary().distance_evaluations


class TestTracePlumbing:
    def test_activate_restores_previous(self) -> None:
        outer, inner = QueryTrace(query_index=0), QueryTrace(query_index=1)
        with activate_trace(outer):
            with activate_trace(inner):
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is None

    def test_activate_accumulates_wall_time(self) -> None:
        trace = QueryTrace()
        with activate_trace(trace):
            pass
        first = trace.seconds
        with activate_trace(trace):
            pass
        assert trace.seconds > first > 0.0

    def test_query_trace_opens_then_joins(self) -> None:
        collector = TraceCollector()
        with query_trace("knn", 3, query_index=4, collector=collector) as outer:
            assert current_trace() is outer
            with query_trace("range", 0.5, collector=collector) as inner:
                assert inner is outer  # the outermost layer's record is reused
        assert current_trace() is None
        assert [(t.query_index, t.kind, t.parameter) for t in collector.traces] == [
            (4, "knn", 3.0)
        ]

    def test_port_charges_the_open_record_not_the_counter(self) -> None:
        port, counter = _counting_port()
        u, rows = np.zeros(4), np.ones((3, 4))
        with query_trace("knn", 1) as trace:
            port.pair(u, rows[0])
            port.many(u, rows, trace)  # an explicit record spares the lookup
            port.charge(calls=2)
        assert (trace.scalar_evaluations, trace.batched_evaluations) == (3, 3)
        assert counter.count == 0  # nothing shared was touched while it ran
        fold_into(counter, (trace,))
        assert (counter.stats.calls, counter.stats.batch_rows) == (3, 3)

    def test_port_without_an_open_record_charges_the_counter(self) -> None:
        port, counter = _counting_port()
        u, rows = np.zeros(4), np.ones((3, 4))
        port.pair(u, rows[0])
        port.many(u, rows)
        assert (counter.stats.calls, counter.stats.batch_rows) == (1, 3)

    def test_a_raising_query_is_still_accounted(self, workload) -> None:
        port, counter = _counting_port()
        am = SequentialFile(workload.database, port)
        counter.reset()

        def boom(result):
            raise RuntimeError("after the scan")

        am._knn_search, search = (lambda q, k: boom(search(q, k))), am._knn_search
        with pytest.raises(RuntimeError):
            am.knn_search(workload.queries[0], 3)
        assert counter.count == am.size

    def test_collector_orders_and_summarizes(self) -> None:
        collector = TraceCollector()
        collector.add(QueryTrace(query_index=2, scalar_evaluations=5, seconds=0.5))
        collector.extend(
            [
                QueryTrace(query_index=0, batched_evaluations=10, seconds=0.25),
                QueryTrace(query_index=1, scalar_evaluations=1, seconds=0.25),
            ]
        )
        assert [t.query_index for t in collector.traces] == [0, 1, 2]
        summary = collector.summary()
        assert summary.queries == 3
        assert summary.distance_evaluations == 16
        assert summary.evaluations_per_query == pytest.approx(16 / 3)
        assert summary.queries_per_second == pytest.approx(3.0)
        collector.clear()
        assert len(collector) == 0
        empty = collector.summary()
        assert empty.evaluations_per_query == 0.0
        assert empty.queries_per_second == 0.0
        assert empty.p50_seconds == 0.0 and empty.p95_seconds == 0.0

    def test_summary_latency_percentiles_are_nearest_rank(self) -> None:
        collector = TraceCollector()
        # 20 queries at 10ms..200ms: nearest-rank p50 is the 10th sorted
        # value (100ms), p95 the 19th (190ms) — never interpolated.
        collector.extend(
            QueryTrace(query_index=i, seconds=(i + 1) * 0.010) for i in range(20)
        )
        summary = collector.summary()
        assert summary.p50_seconds == pytest.approx(0.100)
        assert summary.p95_seconds == pytest.approx(0.190)

    def test_single_trace_percentiles_collapse_to_its_time(self) -> None:
        collector = TraceCollector()
        collector.add(QueryTrace(query_index=0, seconds=0.042))
        summary = collector.summary()
        assert summary.p50_seconds == pytest.approx(0.042)
        assert summary.p95_seconds == pytest.approx(0.042)


class TestNearestRankEdgeCases:
    """Exact-value pins for the nearest-rank percentile helper.

    Regression: ``ceil(q * n)`` used to be taken unclamped, so q=0 indexed
    rank 0 and float noise in ``q * n`` could index past the end; these pin
    the corrected rank = min(max(ceil(q n), 1), n) on the sizes that
    exercised the bugs (n = 1, 2, 20).
    """

    def _rank(self, values: list[float], q: float) -> float:
        from repro.obs import nearest_rank

        return nearest_rank(sorted(values), q)

    def test_empty_is_zero(self) -> None:
        assert self._rank([], 0.5) == 0.0
        assert self._rank([], 0.95) == 0.0

    def test_n1_every_quantile_is_the_sample(self) -> None:
        for q in (0.0, 0.5, 0.95, 1.0):
            assert self._rank([0.7], q) == 0.7

    def test_n2_exact_values(self) -> None:
        values = [1.0, 2.0]
        # ceil(0.5 * 2) = 1 -> first; ceil(0.95 * 2) = ceil(1.9) = 2 -> second.
        assert self._rank(values, 0.5) == 1.0
        assert self._rank(values, 0.95) == 2.0
        assert self._rank(values, 0.0) == 1.0  # clamped up to rank 1
        assert self._rank(values, 1.0) == 2.0

    def test_n20_exact_values(self) -> None:
        values = [float(i + 1) for i in range(20)]
        # ceil(0.5 * 20) = 10; ceil(0.95 * 20) = 19 -- not interpolated,
        # not the max: the 19th of 20 sorted values.
        assert self._rank(values, 0.5) == 10.0
        assert self._rank(values, 0.95) == 19.0
        assert self._rank(values, 1.0) == 20.0

    def test_q_one_never_indexes_past_the_end(self) -> None:
        # 1.0 * n can land a hair above n in floating point for some n;
        # the clamp makes q=1.0 safe for every size.
        for n in range(1, 50):
            values = [float(i) for i in range(n)]
            assert self._rank(values, 1.0) == float(n - 1)
