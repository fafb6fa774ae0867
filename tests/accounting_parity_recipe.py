"""Shared recipe for the all-method accounting parity matrix.

:mod:`tests.mtree_parity_recipe` pins what every sink sees for the M-tree
family; this recipe does the same for *every* registry method, so that a
change to the accounting path (who counts an evaluation, and when) cannot
move a number anywhere:

* methods: every ``MAM_REGISTRY`` / ``SAM_REGISTRY`` entry, the pivot table
  additionally under ``bound="ptolemaic"`` and ``"best"`` (the EXPLAIN
  side-by-side of triangle vs Ptolemaic prune counts must keep both rows);
* models QFD / QMap (SAMs index only the QMap space);
* query kinds kNN / range;
* execution: single query, serial batch, thread batch (2 workers);
* sinks: none (``CountingDistance`` split), a per-query ``QueryTrace``
  (every field but ``seconds``), EXPLAIN (per-node charged totals, global
  totals, ``lb_labels``), and registry + JSON logger (exported values).

``tests/fixtures/accounting_parity.json`` was generated from the commit
*before* ``QueryTrace`` became the single per-query cost record (four
mechanisms: counter wrapper, ``TracingPort``, ``EventBuffer`` ContextVar,
registry delta); :mod:`tests.test_accounting_parity` replays the recipe
and asserts exact equality.  Answers are not stored — every replayed
answer is checked against the sequential scan.

Regenerate (only from a tree whose counts are the intended baseline)::

    PYTHONPATH=src python tests/accounting_parity_recipe.py
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from repro.datasets import histogram_workload
from repro.engine.trace import TraceCollector, query_trace
from repro.models import MAM_REGISTRY, SAM_REGISTRY, QFDModel, QMapModel, explain_query
from repro.obs import JsonLinesLogger, MetricsRegistry, use_logger, use_registry

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "accounting_parity.json"

#: Build arguments small enough that every structure has several levels
#: (or several pages) over ``M`` objects.
METHODS: dict[str, tuple[str, dict]] = {
    "sequential": ("sequential", {}),
    "disk-sequential": ("disk-sequential", {"page_size": 512, "cache_pages": 4}),
    "pivot-table": ("pivot-table", {"n_pivots": 6}),
    "pivot-table/ptolemaic": ("pivot-table", {"n_pivots": 6, "bound": "ptolemaic"}),
    "pivot-table/best": ("pivot-table", {"n_pivots": 6, "bound": "best"}),
    "mtree": ("mtree", {"capacity": 6}),
    "paged-mtree": ("paged-mtree", {"capacity": 6, "cache_pages": 4}),
    "mindex": ("mindex", {"n_pivots": 6}),
    "sat": ("sat", {}),
    "vptree": ("vptree", {"leaf_size": 4}),
    "gnat": ("gnat", {"arity": 4, "leaf_size": 6}),
    "rtree": ("rtree", {"capacity": 6}),
    "xtree": ("xtree", {"capacity": 6}),
    "vafile": ("vafile", {"bits": 3}),
}
MODELS = {"qfd": QFDModel, "qmap": QMapModel}

M = 300
N_QUERIES = 3
K = 6
RADIUS_RANK = 8  # range radius = this query's 8th-nearest distance
BINS = 2         # 8-d histograms: low enough that every tree prunes

#: Registry instruments whose values are counts (never wall time).
_COUNT_METRICS = (
    "repro_distance_evaluations_total",
    "repro_queries_total",
    "repro_query_filter_checked_total",
    "repro_query_filter_hits_total",
    "repro_query_candidates_total",
    "repro_query_results_total",
    "repro_query_nodes_visited_total",
    "repro_query_subtrees_pruned_total",
)


def parity_workload():
    """The fixed histogram workload every cell of the matrix shares."""
    return histogram_workload(M, N_QUERIES, bins_per_channel=BINS, seed=2011)


def parity_radii(workload) -> list[float]:
    """Per query, the radius just past its ``RADIUS_RANK``-th neighbor."""
    scan = QFDModel(workload.matrix).build_index("sequential", workload.database)
    return [
        scan.knn_search(q, RADIUS_RANK)[-1].distance * (1.0 + 1e-9)
        for q in workload.queries
    ]


def _split(built, run) -> tuple[list[int], object]:
    """``[scalar calls, batched rows]`` the model counter gained over *run*."""
    before = built._counter.stats
    answer = run()
    after = built._counter.stats
    return [after.calls - before.calls, after.batch_rows - before.batch_rows], answer


def _trace_fields(trace) -> list:
    return [
        trace.kind,
        trace.parameter,
        trace.scalar_evaluations,
        trace.batched_evaluations,
        trace.filter_checked,
        trace.filter_hits,
        trace.candidates,
        trace.results,
        trace.nodes_visited,
        trace.nodes_pruned,
    ]


def _single_trace(built, kind: str, parameter: float, run) -> tuple[list, object]:
    """The ``QueryTrace`` of one model-level query."""
    with query_trace(kind, parameter) as trace:
        answer = run()
    return _trace_fields(trace), answer


def _flatten(node: dict) -> list[list]:
    """EXPLAIN tree nodes in token (= visit) order, labels without indices."""
    rows = [
        [
            node["label"].split(":")[0].split("@")[0].split(" r=")[0],
            node.get("charged_calls", 0),
            node.get("charged_rows", 0),
            node.get("lb_checks", 0),
            node.get("pruned", 0),
            node.get("candidates", 0),
            node.get("results", 0),
        ]
    ]
    for child in node.get("children", ()):
        rows.extend(_flatten(child))
    return rows


def _explain(built, query, **what) -> tuple[dict, object]:
    plan = explain_query(built, query, **what)
    tree = plan.to_dict()
    record = {
        "nodes": _flatten(tree["tree"]),
        "totals": tree["totals"],
        "lb_labels": tree["lb_by_label"],
        "events": len(tree["events"]),
    }
    return record, plan.answer


def _exported(built, run) -> tuple[dict, object]:
    """What the registry and the JSON logger report for one model call."""
    built.reset_query_costs()  # the registry sync is a delta from here
    registry = MetricsRegistry()
    stream = io.StringIO()
    with JsonLinesLogger(stream) as logger, use_registry(registry), use_logger(logger):
        answer = run()
    counts = []
    for sample in registry.snapshot():
        labels = sample.labels
        if sample.name in _COUNT_METRICS and sample.value:
            if labels.get("phase", "query") != "query":
                continue
            counts.append([sample.name, labels.get("kind", ""), sample.value])
        elif sample.name == "repro_query_distance_evaluations":
            state = sample.histogram
            counts.append([sample.name, labels.get("kind", ""), state.count, state.total])
    logged = []
    for rec in map(json.loads, stream.getvalue().splitlines()):
        if rec.get("event") == "query":
            logged.append(
                [
                    rec["kind"],
                    rec.get("query_index"),
                    rec["distance_evaluations"],
                    rec["scalar_evaluations"],
                    rec["batched_evaluations"],
                    rec.get("candidates"),
                    rec["results"],
                ]
            )
        elif rec.get("event") == "batch":
            logged.append(["batch", rec["queries"], rec["distance_evaluations"], rec["executor"]])
    return {"registry": sorted(counts), "logged": logged}, answer


def observe_kind(built, kind: str, parameters: list[float], queries, check) -> dict:
    """One query kind of one index under every execution mode and sink."""

    def single(pos: int):
        if kind == "knn":
            return built.knn_search(queries[pos], int(parameters[pos]))
        return built.range_search(queries[pos], parameters[pos])

    def batch(**engine):
        # A batch shares one parameter, so the range batches use the first.
        if kind == "knn":
            return built.knn_search_batch(queries, int(parameters[0]), **engine)
        return built.range_search_batch(queries, parameters[0], **engine)

    out: dict = {"counts": [], "traces": [], "explain": [], "exported": []}
    for pos in range(len(queries)):
        record, answer = _split(built, lambda: single(pos))
        check(pos, parameters[pos], answer)
        out["counts"].append(record)
        record, answer = _single_trace(built, kind, parameters[pos], lambda: single(pos))
        check(pos, parameters[pos], answer)
        out["traces"].append(record)
        what = {"k": int(parameters[pos])} if kind == "knn" else {"radius": parameters[pos]}
        record, answer = _explain(built, queries[pos], **what)
        out["explain"].append(record)
        record, answer = _exported(built, lambda: single(pos))
        check(pos, parameters[pos], answer)
        out["exported"].append(record)
    for name, engine in (
        ("serial", {"executor": "serial"}),
        ("thread", {"executor": "thread", "workers": 2}),
    ):
        collector = TraceCollector()
        counts, answers = _split(built, lambda: batch(collector=collector, **engine))
        for pos, answer in enumerate(answers):
            check(pos, parameters[0], answer)
        exported, _ = _exported(built, lambda: batch(**engine))
        out[f"batch_{name}"] = {
            "counts": counts,
            "traces": [_trace_fields(t) for t in collector.traces],
            "exported": exported,
        }
    return out


def observe_cell(model, key: str, workload, radii, checks) -> dict:
    """Both query kinds of one (model, method) cell."""
    method, kwargs = METHODS[key]
    built = model.build_index(method, workload.database, **kwargs)
    queries = workload.queries
    cell = {
        "knn": observe_kind(built, "knn", [float(K)] * len(queries), queries, checks(built, "knn")),
        "range": observe_kind(built, "range", list(radii), queries, checks(built, "range")),
    }
    close = getattr(built.access_method, "close", None)
    if close is not None:
        close()
    return cell


def compute_parity(checks=None) -> dict:
    """Every cell of the matrix.

    *checks(built, kind)* returns the ``check(pos, parameter, answer)``
    callable for one index and query kind (the test compares with the
    sequential scan); the default checks nothing, which is how the fixture
    is generated.
    """
    if checks is None:
        checks = lambda built, kind: (lambda pos, parameter, answer: None)  # noqa: E731
    assert {name for name, _ in METHODS.values()} == set(MAM_REGISTRY) | set(SAM_REGISTRY)
    workload = parity_workload()
    radii = parity_radii(workload)
    out: dict = {"m": M, "k": K, "radii": radii, "cells": {}}
    for model_name, model_cls in MODELS.items():
        model = model_cls(workload.matrix)
        for key, (method, _) in METHODS.items():
            if method in SAM_REGISTRY and model_name == "qfd":
                continue  # a SAM cannot index the raw QFD space
            out["cells"][f"{model_name}/{key}"] = observe_cell(
                model, key, workload, radii, checks
            )
    return out


def main() -> None:
    parity = compute_parity()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(parity, separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
