"""Process-executor observability merge: exact counters, complete timelines.

The acceptance contract for cross-process trace propagation (the part of
the request-correlation work that is easy to get silently wrong):

* ``--executor process`` batches charge the parent registry's
  ``repro_distance_evaluations_total{phase=query}`` **exactly** — the
  worker records folded in on join equal the per-query trace counts
  summed, for every (model, method) pair, with answers bit-identical to
  serial;
* the model's own counter (``query_costs()``) reads the same under the
  serial, thread and process executors whatever sinks are on — the
  paper's cost figure must not depend on observability;
* worker-side ``query/chunk/*`` spans come back carrying the batch's
  ``trace_id`` and the batch span's id as their parent, and render as
  separate worker-process lanes in the Chrome trace export;
* a query that raises is charged to ``repro_query_errors_total``, closes
  its span with ``status="error"``, and leaves a correlated
  ``query_error`` log record.
"""

from __future__ import annotations

import io
import json
import os

import numpy as np
import pytest

from repro.core import random_spd_matrix
from repro.engine import TraceCollector
from repro.models import QFDModel, QMapModel
from repro.models.base import MAM_REGISTRY, SAM_REGISTRY
from repro.obs import (
    JsonLinesLogger,
    MetricsRegistry,
    chrome_trace,
    use_logger,
    use_registry,
)
from repro.obs.instruments import DISTANCE_EVALUATIONS, QUERY_ERRORS

# Same conventions as tests/test_obs_integration.py (tests are not a
# package, so the helpers are mirrored here rather than imported).
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

ALL_PAIRS = [("qfd", m) for m in MAM_REGISTRY] + [
    ("qmap", m) for m in (*MAM_REGISTRY, *SAM_REGISTRY)
]

#: Disk-backed stores hold open file handles and cannot be pickled into
#: worker processes — the engine refuses them with QueryError (verified
#: below), so the merge contract applies to every *process-capable* pair.
UNPICKLABLE_METHODS = {"disk-sequential", "paged-mtree"}
PROCESS_PAIRS = [
    (model, method)
    for model, method in ALL_PAIRS
    if method not in UNPICKLABLE_METHODS
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

#: Six queries, chunks of two, two workers: the engine must pool (three
#: chunks across two processes) rather than degrade to the inline path.
N_QUERIES = 6
CHUNK = 2
WORKERS = 2


def _run_process_batch(model_name, method, *, seed=31, k=3):
    matrix, data, queries = _workload(seed, m=40, n_queries=N_QUERIES)
    built = _build(model_name, method, matrix, data)

    serial = built.knn_search_batch(queries, k, executor="serial")

    built = _build(model_name, method, matrix, data)
    built.reset_query_costs()
    reg = MetricsRegistry()
    collector = TraceCollector()
    with use_registry(reg):
        pooled = built.knn_search_batch(
            queries,
            k,
            executor="process",
            workers=WORKERS,
            chunk_size=CHUNK,
            collector=collector,
        )
    return built, reg, collector, serial, pooled


class TestExactCounterMerge:
    """Worker registry deltas fold into the parent without loss or double-count."""

    @pytest.mark.parametrize("model_name,method", PROCESS_PAIRS)
    def test_merge_is_exact_for_every_pair(self, model_name, method) -> None:
        built, reg, collector, serial, pooled = _run_process_batch(model_name, method)

        assert pooled == serial, f"{model_name}/{method}: process != serial answers"

        trace_total = sum(t.distance_evaluations for t in collector.traces)
        counted = built.query_costs().distance_computations
        mirrored = _registry_evaluations(reg, model_name, method)
        assert counted == trace_total, (
            f"{model_name}/{method}: CountingDistance has {counted}, "
            f"summed worker traces say {trace_total}"
        )
        assert mirrored == trace_total, (
            f"{model_name}/{method}: registry mirrors {mirrored}, "
            f"summed worker traces say {trace_total}"
        )

    @pytest.mark.parametrize("sinks", ["off", "collector", "registry+logger"])
    @pytest.mark.parametrize("chunk_size", [CHUNK, None], ids=["pooled", "default-chunks"])
    def test_query_costs_identical_under_every_executor(self, sinks, chunk_size) -> None:
        """Regression: with every sink off, a pooled process batch used to
        leave ``query_costs()`` at 0 — the workers' evaluations were merged
        back only when a registry was active."""
        matrix, data, queries = _workload(31, m=40, n_queries=N_QUERIES)
        built = _build("qmap", "pivot-table", matrix, data)
        costs = {}
        for executor in ("serial", "thread", "process"):
            built.reset_query_costs()
            engine = {"executor": executor, "workers": WORKERS}
            if executor == "process":
                engine["chunk_size"] = chunk_size
            if sinks == "collector":
                engine["collector"] = TraceCollector()
            if sinks == "registry+logger":
                with JsonLinesLogger(io.StringIO()) as logger:
                    with use_registry(MetricsRegistry()), use_logger(logger):
                        built.knn_search_batch(queries, 3, **engine)
            else:
                built.knn_search_batch(queries, 3, **engine)
            costs[executor] = built.query_costs().distance_computations
        assert costs["serial"] > 0
        assert costs == dict.fromkeys(costs, costs["serial"])

    @pytest.mark.parametrize("sinks_on", [False, True], ids=["sinks-off", "registry"])
    def test_inline_single_chunk_is_not_double_charged(self, sinks_on) -> None:
        # One chunk (or one worker) runs inline on the parent's own index.
        matrix, data, queries = _workload(31, m=40, n_queries=N_QUERIES)
        built = _build("qmap", "pivot-table", matrix, data)
        built.knn_search_batch(queries, 3, executor="serial")
        want = built.query_costs().distance_computations
        for engine in ({"workers": 1}, {"workers": WORKERS, "chunk_size": N_QUERIES}):
            built.reset_query_costs()
            with use_registry(MetricsRegistry() if sinks_on else None):
                built.knn_search_batch(queries, 3, executor="process", **engine)
            assert built.query_costs().distance_computations == want

    @pytest.mark.parametrize("method", sorted(UNPICKLABLE_METHODS))
    def test_disk_backed_methods_are_refused_not_miscounted(self, method) -> None:
        from repro.exceptions import QueryError

        matrix, data, queries = _workload(5, m=30, n_queries=N_QUERIES)
        built = _build("qmap", method, matrix, data)
        with pytest.raises(QueryError, match="pickle"):
            built.knn_search_batch(
                queries, 3, executor="process", workers=WORKERS, chunk_size=CHUNK
            )

    def test_chunk_spans_come_back_with_worker_pids(self) -> None:
        _, reg, _, _, _ = _run_process_batch("qmap", "sequential")
        chunks = [r for r in reg.spans if r.name == "query/chunk/knn"]
        assert len(chunks) == -(-N_QUERIES // CHUNK)  # one span per chunk
        worker_pids = {r.pid for r in chunks}
        assert worker_pids and os.getpid() not in worker_pids
        # span_seconds landed for the merged worker spans too (chunk
        # spans are labeled with their method and per-chunk query count).
        hist = reg.histogram("repro_span_seconds", "")
        state = hist.state(
            span="query/chunk/knn",
            status="ok",
            method="sequential",
            queries=str(CHUNK),
        )
        assert state.count == len(chunks)


class TestCrossProcessTraceIds:
    """Worker spans join the parent's trace, not a fresh one."""

    def test_chunk_spans_link_to_the_batch_span(self) -> None:
        _, reg, _, _, _ = _run_process_batch("qfd", "pivot-table")
        (batch,) = [r for r in reg.spans if r.name == "query/batch/knn"]
        chunks = [r for r in reg.spans if r.name == "query/chunk/knn"]
        assert batch.trace_id
        assert {r.trace_id for r in chunks} == {batch.trace_id}
        assert {r.parent_span_id for r in chunks} == {batch.span_id}

    def test_timeline_export_has_worker_lanes(self) -> None:
        _, reg, _, _, _ = _run_process_batch("qmap", "mtree")
        doc = chrome_trace(spans=reg.spans)
        events = doc["traceEvents"]
        json.dumps(doc)  # must be a valid trace document as-is

        (batch,) = [r for r in reg.spans if r.name == "query/batch/knn"]
        slices = [e for e in events if e.get("ph") == "X"]
        chunk_slices = [e for e in slices if e["name"] == "query/chunk/knn"]
        assert chunk_slices
        # Every chunk slice sits on a worker-process lane with a named
        # metadata row, and carries the batch's trace ids in its args.
        lane_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        for sl in chunk_slices:
            assert sl["pid"] in lane_names
            assert lane_names[sl["pid"]].startswith("repro worker process ")
            assert sl["args"]["trace_id"] == batch.trace_id
            assert sl["args"]["parent_span_id"] == batch.span_id


class TestQueryErrorAccounting:
    """A raising query leaves a counter, an error span, and a log record."""

    def _broken_index(self):
        matrix, data, _ = _workload(7, m=30, n_queries=1)
        built = _build("qmap", "sequential", matrix, data)

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic query failure")

        built._am.knn_search = boom
        built._am.knn_search_batch = boom
        return built

    def test_single_query_error_counter_and_span_status(self) -> None:
        built = self._broken_index()
        reg = MetricsRegistry()
        with use_registry(reg):
            with pytest.raises(RuntimeError, match="synthetic"):
                built.knn_search([0.5] * 6, 3)
        value = reg.counter(QUERY_ERRORS).value(
            model="qmap", method="sequential", kind="knn", error="RuntimeError"
        )
        assert value == 1

    def test_batch_error_marks_the_span(self) -> None:
        matrix, data, queries = _workload(11, m=30, n_queries=3)
        built = _build("qmap", "sequential", matrix, data)
        built._am.knn_search_batch = self._broken_index()._am.knn_search_batch
        reg = MetricsRegistry()
        with use_registry(reg):
            with pytest.raises(RuntimeError):
                built.knn_search_batch(queries, 2)
        assert reg.counter(QUERY_ERRORS).value(
            model="qmap", method="sequential", kind="knn", error="RuntimeError"
        ) == 1

    def test_error_log_record_is_trace_correlated(self) -> None:
        built = self._broken_index()
        stream = io.StringIO()
        reg = MetricsRegistry()
        with use_registry(reg), use_logger(JsonLinesLogger(stream)):
            with pytest.raises(RuntimeError):
                built.knn_search([0.5] * 6, 3)
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        (error_record,) = [r for r in records if r["event"] == "query_error"]
        assert error_record["error"] == "RuntimeError"
        assert error_record["message"] == "synthetic query failure"
        assert error_record["model"] == "qmap"
        assert error_record["method"] == "sequential"
        assert error_record["trace_id"]
