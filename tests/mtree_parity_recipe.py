"""Shared recipe for the M-tree traversal parity matrix.

The array-at-a-time node scan changes *how* ``MTree`` and ``PagedMTree``
walk their nodes, never *what* they answer or charge.  This recipe drives
both trees under both models through every query operation, observability
sink and index state the library offers and records what each sink saw:

* trees ``mtree`` / ``paged-mtree`` x models QFD / QMap;
* states: fresh build, after interleaved query/insert steps, after a
  snapshot round-trip, and over a memory-mapped float32 store;
* operations: kNN, range, and for the in-RAM tree ``epsilon > 0`` kNN and
  a ``nearest_iter`` prefix;
* sinks: none (``CountingDistance`` split), ``TraceCollector``
  (``QueryTrace`` fields), a record with the EXPLAIN ``EventBuffer``
  attached (per-node charged totals and aggregates) and registry + JSON
  logger (exported values).

``tests/fixtures/mtree_parity.json`` was generated from the commit *before*
the array scan (per-entry loops); :mod:`tests.test_mtree_parity` replays
the recipe and asserts exact equality.  Answers are not stored — they are
checked against the sequential scan on every replay.  EXPLAIN nodes are
listed in visit order for kNN; for range queries they are sorted, because
the shared scan visits a range query's subtrees in the in-RAM tree's
preorder on both trees (the paged tree used to pop them in reverse).

Regenerate (only from a tree whose counts are the intended baseline)::

    PYTHONPATH=src python tests/mtree_parity_recipe.py
"""

from __future__ import annotations

import io
import json
import tempfile
from itertools import islice
from pathlib import Path

from repro.datasets import histogram_workload
from repro.engine.trace import TraceCollector, query_trace
from repro.models import QFDModel, QMapModel, load_built_index
from repro.obs import JsonLinesLogger, MetricsRegistry, use_logger, use_registry
from repro.obs.events import ROOT, EventBuffer

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "mtree_parity.json"

TREES: dict[str, dict] = {
    "mtree": {"capacity": 6},
    "paged-mtree": {"capacity": 6, "cache_pages": 4},
}
MODELS = {"qfd": QFDModel, "qmap": QMapModel}
STATES = ("fresh", "inserted", "restored", "mmap32")

M = 140          # objects indexed by the fresh / restored / mmap32 states
M_BEFORE = 110   # "inserted" builds on this many and inserts the rest
N_QUERIES = 3
K = 6
EPSILON = 0.5
RADIUS_RANK = 8  # range radius = this query's 8th-nearest distance
BLOCK_ROWS = 13
BINS = 2         # 8-d histograms: low enough that kNN prunes subtrees too


def parity_workload():
    """The fixed histogram workload every cell of the matrix shares."""
    return histogram_workload(M, N_QUERIES, bins_per_channel=BINS, seed=2011)


def build_state(model, method: str, state: str, workload, tmp: Path, **extra):
    """One index of the matrix in the requested *state*."""
    kwargs = dict(TREES[method], **extra)
    if state == "mmap32":
        return model.build_index(
            method, workload.database, store="mmap", block_rows=BLOCK_ROWS, **kwargs
        )
    if state == "inserted":
        built = model.build_index(method, workload.database[:M_BEFORE], **kwargs)
        for step, row in enumerate(workload.database[M_BEFORE:]):
            built.knn_search(workload.queries[step % N_QUERIES], K)
            built.insert(row)
        return built
    built = model.build_index(method, workload.database, **kwargs)
    if state == "restored":
        path = built.save(tmp / f"{model.name}-{method}-{len(extra)}")
        built = load_built_index(path)
    return built


def _split(built, run) -> tuple[list[int], object]:
    """``[scalar calls, batched rows]`` charged by *run*, and its answer."""
    before = built._counter.stats
    answer = run()
    after = built._counter.stats
    return [after.calls - before.calls, after.batch_rows - before.batch_rows], answer


def _explain(built, run) -> tuple[dict, object]:
    buffer = EventBuffer()
    with query_trace("", 0.0, events=buffer):
        answer = run()
    return explain_record(buffer), answer


def explain_record(buffer: EventBuffer) -> dict:
    """Per-node charged totals and aggregates of one EXPLAIN detail."""
    nodes = [
        [
            stats.label.split(":")[0],
            stats.charged_calls,
            stats.charged_rows,
            stats.lb_checks,
            stats.pruned,
            stats.candidates,
            stats.results,
        ]
        for token, stats in sorted(buffer.nodes.items())
        if token != ROOT
    ]
    root = buffer.nodes[ROOT]
    return {
        "root_charged": [root.charged_calls, root.charged_rows],
        "nodes": nodes,
        "lb_labels": {label: list(v) for label, v in sorted(buffer.lb_labels.items())},
        "totals": [
            buffer.nodes_entered,
            buffer.lb_checks,
            buffer.pruned,
            buffer.candidates_verified,
            buffer.results_added,
            buffer.charged_calls,
            buffer.charged_rows,
        ],
    }


def _trace_fields(trace) -> list:
    return [
        trace.kind,
        trace.scalar_evaluations,
        trace.batched_evaluations,
        trace.filter_checked,
        trace.filter_hits,
        trace.candidates,
        trace.results,
        trace.nodes_visited,
        trace.nodes_pruned,
    ]


def _exported(built, run) -> tuple[dict, object]:
    """What the registry and the JSON logger report for one model call."""
    built.reset_query_costs()  # the registry sync is a delta from here
    registry = MetricsRegistry()
    stream = io.StringIO()
    with JsonLinesLogger(stream) as logger, use_registry(registry), use_logger(logger):
        answer = run()
    evaluations = sorted(
        [sample.labels["kind"], sample.value]
        for sample in registry.snapshot()
        if sample.name == "repro_distance_evaluations_total"
        and sample.labels.get("phase") == "query"
        and sample.value
    )
    logged = [
        [rec["kind"], rec["scalar_evaluations"], rec["batched_evaluations"], rec["results"]]
        for rec in map(json.loads, stream.getvalue().splitlines())
        if rec.get("event") == "query"
    ]
    return {"registry": evaluations, "logged": logged}, answer


def observe_operation(built, call, batch_call, check) -> dict:
    """Run one operation under each sink; *check* validates every answer.

    *call(pos)* answers query number *pos*; *batch_call(collector)* answers
    all of them through the batch engine, feeding a :class:`TraceCollector`.
    """
    out: dict = {"counts": [], "explain": [], "exported": [], "traces": []}
    for pos in range(N_QUERIES):
        for sink, observe in (("counts", _split), ("explain", _explain), ("exported", _exported)):
            record, answer = observe(built, lambda: call(pos))
            check(pos, answer)
            out[sink].append(record)
    if batch_call is not None:
        collector = TraceCollector()
        for pos, answer in enumerate(batch_call(collector)):
            check(pos, answer)
        out["traces"] = [_trace_fields(t) for t in collector.traces]
    return out


def observe_cell(model, method: str, state: str, workload, radii, tmp: Path, checks) -> dict:
    """Every operation of one (model, tree, state) cell under every sink."""
    queries = workload.queries
    built = build_state(model, method, state, workload, tmp)
    cell = {
        "knn": observe_operation(
            built,
            lambda pos: built.knn_search(queries[pos], K),
            lambda c: built.knn_search_batch(queries, K, collector=c),
            checks(built, "knn"),
        ),
        "range": observe_operation(
            built,
            lambda pos: built.range_search(queries[pos], radii[pos]),
            None,
            checks(built, "range"),
        ),
    }
    for plan in cell["range"]["explain"]:
        plan["nodes"].sort()
    # A batch takes one radius, so the collector pass uses the first.
    collector = TraceCollector()
    built.range_search_batch(queries, radii[0], collector=collector)
    cell["range"]["traces"] = [_trace_fields(t) for t in collector.traces]
    if method == "mtree":
        tree = built.access_method
        cell["nearest_iter"] = observe_operation(
            built,
            lambda pos: list(islice(tree.nearest_iter(built._map_query(queries[pos])), K)),
            None,
            checks(built, "nearest_iter"),
        )
        relaxed = build_state(model, method, state, workload, tmp, epsilon=EPSILON)
        cell["knn_epsilon"] = observe_operation(
            relaxed,
            lambda pos: relaxed.knn_search(queries[pos], K),
            lambda c: relaxed.knn_search_batch(queries, K, collector=c),
            checks(relaxed, "knn_epsilon"),
        )
    close = getattr(built.access_method, "close", None)
    if close is not None:
        close()
    return cell


def parity_radii(workload) -> list[float]:
    """Per query, the radius just past its ``RADIUS_RANK``-th neighbor."""
    scan = QFDModel(workload.matrix).build_index("sequential", workload.database)
    return [
        scan.knn_search(q, RADIUS_RANK)[-1].distance * (1.0 + 1e-9)
        for q in workload.queries
    ]


def compute_parity(checks=None) -> dict:
    """Every cell of the matrix.

    *checks(built, op)* returns the ``check(pos, answer)`` callable for one
    index and operation (the test compares with the sequential scan); the
    default checks nothing, which is how the fixture is generated.
    """
    if checks is None:
        checks = lambda built, op: (lambda pos, answer: None)  # noqa: E731
    workload = parity_workload()
    radii = parity_radii(workload)
    out: dict = {"m": M, "k": K, "radii": radii, "cells": {}}
    with tempfile.TemporaryDirectory() as tmp_name:
        for model_name, model_cls in MODELS.items():
            model = model_cls(workload.matrix)
            for method in TREES:
                for state in STATES:
                    out["cells"][f"{model_name}/{method}/{state}"] = observe_cell(
                        model, method, state, workload, radii, Path(tmp_name), checks
                    )
    return out


def main() -> None:
    parity = compute_parity()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(parity, separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
