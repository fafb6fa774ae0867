"""Batch engine correctness — results bit-identical to single queries.

The batch planner's contract (and the reason it can serve the paper's
experiments at all): for every access method and every executor, the
batched answer to a query is *exactly* the list the single-query API
returns — same floats, same order.  The vectorized fast paths (sequential
file, pivot table) are designed around rounding-free reductions so the
comparison here is ``==``, not approx.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.datasets import histogram_workload
from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.engine import (
    ProcessPoolBatchExecutor,
    QueryBatch,
    SerialExecutor,
    ThreadPoolBatchExecutor,
    TraceCollector,
    resolve_executor,
)
from repro.exceptions import DimensionMismatchError, QueryError
from repro.mam import AccessMethod, PivotTable, SequentialFile
from repro.models import MAM_REGISTRY, SAM_REGISTRY
from repro.models.base import instantiate

from .test_dynamic_inserts import METHOD_KWARGS


@pytest.fixture(scope="module")
def workload():
    return histogram_workload(220, 6, bins_per_channel=4, seed=91)


def _build(method: str, workload) -> AccessMethod:
    counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
    return instantiate(method, workload.database, counter, METHOD_KWARGS[method])


def _radius_for(am: AccessMethod, query: np.ndarray) -> float:
    """A radius that catches a handful of objects (workload-scaled)."""
    return am.knn_search(query, 8)[-1].distance


@pytest.mark.parametrize("method", sorted(MAM_REGISTRY) + sorted(SAM_REGISTRY))
class TestBatchBitIdentity:
    def test_knn_serial_and_thread(self, method, workload) -> None:
        am = _build(method, workload)
        expected = [am.knn_search(q, 7) for q in workload.queries]
        for executor in ("serial", "thread"):
            got = am.knn_search_batch(workload.queries, 7, executor=executor, workers=3)
            assert got == expected, f"{method} knn batch diverged under {executor}"

    def test_range_serial_and_thread(self, method, workload) -> None:
        am = _build(method, workload)
        radius = _radius_for(am, workload.queries[0])
        expected = [am.range_search(q, radius) for q in workload.queries]
        for executor in ("serial", "thread"):
            got = am.range_search_batch(
                workload.queries, radius, executor=executor, workers=3
            )
            assert got == expected, f"{method} range batch diverged under {executor}"

    def test_traces_one_per_query(self, method, workload) -> None:
        am = _build(method, workload)
        collector = TraceCollector()
        results = am.knn_search_batch(workload.queries, 5, collector=collector)
        traces = collector.traces
        assert [t.query_index for t in traces] == list(range(len(results)))
        assert [t.results for t in traces] == [len(r) for r in results]
        assert all(t.kind == "knn" and t.parameter == 5 for t in traces)


class TestProcessExecutor:
    """The chunked process pool; kept small — workers are real processes."""

    def test_results_match_serial(self, workload) -> None:
        am = PivotTable(
            workload.database, euclidean, n_pivots=6, rng=np.random.default_rng(0)
        )
        expected = am.knn_search_batch(workload.queries, 5, executor="serial")
        got = am.knn_search_batch(
            workload.queries, 5, executor="process", workers=2
        )
        assert got == expected

    def test_traces_come_back_from_children(self, workload) -> None:
        am = SequentialFile(workload.database, euclidean)
        collector = TraceCollector()
        am.knn_search_batch(
            workload.queries, 3, executor="process", workers=2, collector=collector
        )
        traces = collector.traces
        assert [t.query_index for t in traces] == list(range(len(workload.queries)))
        assert all(t.distance_evaluations == am.size for t in traces)

    def test_unpicklable_distance_raises_query_error(self, workload) -> None:
        am = SequentialFile(workload.database, lambda u, v: float(np.abs(u - v).sum()))
        with pytest.raises(QueryError, match="thread"):
            am.knn_search_batch(workload.queries, 3, executor="process", workers=2)


#: First coordinate marking the one query vector :func:`_poisoned_l1`
#: rejects (histogram coordinates never exceed 1).
_POISON = 7.0


def _poisoned_l1(u: np.ndarray, v: np.ndarray) -> float:
    """A module-level (picklable) user distance with a bug on one query."""
    if u[0] == _POISON or v[0] == _POISON:
        raise TypeError("unsupported operand type(s) for -: 'str' and 'float'")
    return float(np.abs(u - v).sum())


def _poisoned_last(workload) -> np.ndarray:
    queries = workload.queries.copy()
    queries[-1, 0] = _POISON
    return queries


class TestRaisingQuery:
    """A query that raises: its own exception, the same counter everywhere."""

    @pytest.mark.parametrize("chunk_size", [None, 100], ids=["pool", "one-inline-chunk"])
    def test_type_error_in_a_query_is_not_a_pickling_error(self, workload, chunk_size) -> None:
        """The process path used to translate *any* TypeError/AttributeError
        — a worker's, or the inline single chunk's — into "must pickle"."""
        am = SequentialFile(workload.database, _poisoned_l1)
        with pytest.raises(TypeError, match="unsupported operand") as raised:
            am.knn_search_batch(
                _poisoned_last(workload), 3,
                executor="process", workers=2, chunk_size=chunk_size,
            )
        if chunk_size is None:  # the worker's stack came home as the cause
            assert "_poisoned_l1" in str(raised.value.__cause__)

    def test_counter_and_exception_are_the_same_under_every_executor(self, workload) -> None:
        """Serial and thread chunks used to leave their finished queries
        folded into the counter, the process executor nothing."""
        queries = _poisoned_last(workload)
        n = len(queries)
        engines = {
            "serial": {"executor": "serial"},
            "thread/1": {"executor": "thread", "workers": 2, "chunk_size": n},
            "thread/n": {"executor": "thread", "workers": 2, "chunk_size": 2},
            "process/1": {"executor": "process", "workers": 2, "chunk_size": n},
            "process/n": {"executor": "process", "workers": 2, "chunk_size": 2},
        }
        totals = {}
        for label, engine in engines.items():
            counter = CountingDistance(_poisoned_l1)
            am = PivotTable(
                workload.database, counter, n_pivots=6, rng=np.random.default_rng(0)
            )
            counter.reset()
            with pytest.raises(TypeError, match="unsupported operand"):
                am.knn_search_batch(queries, 3, **engine)
            totals[label] = counter.count
        assert totals["serial"] > 0
        assert set(totals.values()) == {totals["serial"]}, totals


class TestChunking:
    @pytest.mark.parametrize("chunk_size", [1, 2, 6])
    def test_thread_executor_honours_chunk_size(self, workload, chunk_size) -> None:
        """It used to be dropped for threads (always ``4 * workers`` chunks)."""
        am = PivotTable(
            workload.database, euclidean, n_pivots=6, rng=np.random.default_rng(0)
        )
        n = len(workload.queries)
        assert n == 6
        serial = TraceCollector()
        expected = am.knn_search_batch(workload.queries, 5, executor="serial", collector=serial)
        run_chunk, sizes = am._knn_search_batch, []

        def counting_chunk(queries, k, traces):
            sizes.append(len(traces))
            return run_chunk(queries, k, traces)

        am._knn_search_batch = counting_chunk
        threaded = TraceCollector()
        got = am.knn_search_batch(
            workload.queries, 5,
            executor="thread", workers=2, chunk_size=chunk_size, collector=threaded,
        )
        assert got == expected
        assert sizes == [chunk_size] * (n // chunk_size)

        def untimed(collector):
            return [dataclasses.replace(t, seconds=0.0) for t in collector.traces]

        assert untimed(threaded) == untimed(serial)

    def test_default_splits(self) -> None:
        assert SerialExecutor().chunks(10) == [(0, 10)]
        assert len(ThreadPoolBatchExecutor(2).chunks(64)) == 8
        assert ProcessPoolBatchExecutor(2).chunks(9) == [(0, 5), (5, 9)]


class TestQueryBatchValidation:
    def test_negative_radius_rejected(self) -> None:
        with pytest.raises(QueryError):
            QueryBatch.range_queries(np.ones((2, 4)), -0.5)

    def test_k_below_one_rejected(self) -> None:
        with pytest.raises(QueryError):
            QueryBatch.knn_queries(np.ones((2, 4)), 0)

    def test_wrong_dim_batch_rejected(self, workload) -> None:
        am = SequentialFile(workload.database, euclidean)
        with pytest.raises(DimensionMismatchError):
            am.knn_search_batch(np.ones((3, am.dim + 1)), 2)

    def test_unknown_executor_rejected(self, workload) -> None:
        am = SequentialFile(workload.database, euclidean)
        with pytest.raises(QueryError, match="executor"):
            am.knn_search_batch(workload.queries, 2, executor="gpu")

    def test_empty_batch_returns_empty(self, workload) -> None:
        am = SequentialFile(workload.database, euclidean)
        assert am.knn_search_batch(np.empty((0, am.dim)), 3) == []

    def test_k_clamped_to_size(self, workload) -> None:
        am = SequentialFile(workload.database[:5], euclidean)
        results = am.knn_search_batch(workload.queries, 50)
        assert all(len(r) == 5 for r in results)


class TestExecutorResolution:
    def test_default_is_serial(self) -> None:
        assert isinstance(resolve_executor(None), SerialExecutor)

    def test_workers_imply_threads(self) -> None:
        exec_ = resolve_executor(None, workers=4)
        assert isinstance(exec_, ThreadPoolBatchExecutor)
        assert exec_.workers == 4

    def test_names_resolve(self) -> None:
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread", workers=2), ThreadPoolBatchExecutor)
        assert isinstance(
            resolve_executor("process", workers=2, chunk_size=8),
            ProcessPoolBatchExecutor,
        )

    def test_instance_passes_through(self) -> None:
        exec_ = ThreadPoolBatchExecutor(workers=2)
        assert resolve_executor(exec_) is exec_

    def test_planner_choice_resolves_duck_typed(self) -> None:
        """Any object with a string ``name`` works — no planner import."""
        from repro.planner import ExecutorChoice

        choice = ExecutorChoice(name="thread", workers=3, chunk_size=4)
        exec_ = resolve_executor(choice)
        assert isinstance(exec_, ThreadPoolBatchExecutor)
        assert exec_.workers == 3
        # Explicit arguments override the choice's own fields.
        assert resolve_executor(choice, workers=5).workers == 5
        assert isinstance(
            resolve_executor(ExecutorChoice(name="serial")), SerialExecutor
        )

    def test_nameless_object_is_rejected(self) -> None:
        with pytest.raises(QueryError):
            resolve_executor(object())

    def test_non_positive_workers_and_chunk_size_rejected_for_every_spelling(self) -> None:
        """``resolve_executor(None, workers=0)`` used to mean serial, quietly."""
        from repro.planner import ExecutorChoice

        specs = [
            None, "serial", "thread", "process",
            ThreadPoolBatchExecutor(2), ExecutorChoice(name="thread"),
        ]
        for spec in specs:
            with pytest.raises(QueryError, match="workers"):
                resolve_executor(spec, workers=0)
            with pytest.raises(QueryError, match="chunk_size"):
                resolve_executor(spec, chunk_size=0)
        with pytest.raises(QueryError, match="workers"):
            resolve_executor(ExecutorChoice(name="process", workers=0))
