"""Shared recipe for the pivot-table filter-and-refine parity matrix.

The array-at-a-time refinement changes *how* :class:`repro.mam.PivotTable`
computes its bounds and verifies its candidates (pivot-major table, one
bound kernel, block-evaluated kNN refinement), never *what* it answers,
charges or reports.  This recipe drives the pivot table through

* bounds ``triangle`` / ``ptolemaic`` / ``best`` x models QFD / QMap;
* states: fresh build, after interleaved query/insert steps, after a
  snapshot round-trip, and over a memory-mapped float32 store;
* operations: kNN with ``k`` = 1, 10 and ``k >= m``, and a range query;
* modes: single queries (sinks off, then under the EXPLAIN detail), the
  batch engine's serial executor and its thread executor (two workers
  sharing the one index);

and records each query's neighbor indices and distances, every count field
of its :class:`~repro.engine.trace.QueryTrace` in every mode, the
``CountingDistance`` scalar/batched split, EXPLAIN's per-node totals and
per-label bound checks, and a sha256 over what the index's snapshot
archive decodes to.

``tests/fixtures/pivot_parity.json`` was generated from the commit *before*
the rewrite (per-candidate ``DistancePort.pair`` loop, ``m x s`` bound
matrix); :mod:`tests.test_pivot_parity` replays the recipe and asserts
equality — exact for indices, counts, EXPLAIN and the hash, 1e-9 for
distances (one answer is stored per query: while recording, the batch
modes are asserted to agree with the single query within that tolerance).

Regenerate (only from a tree whose counts are the intended baseline)::

    PYTHONPATH=src python -m tests.pivot_parity_recipe
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.datasets import histogram_workload
from repro.engine.trace import TraceCollector, query_trace
from repro.models import QFDModel, QMapModel, load_built_index
from repro.obs.events import EventBuffer
from repro.persistence import read_snapshot, save_index

from .mtree_parity_recipe import _split, _trace_fields, explain_record

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "pivot_parity.json"

BOUNDS = ("triangle", "ptolemaic", "best")
MODELS = {"qfd": QFDModel, "qmap": QMapModel}
STATES = ("fresh", "inserted", "restored", "mmap32")
BATCH_MODES = {
    "serial": {"executor": "serial"},
    "thread": {"executor": "thread", "workers": 2, "chunk_size": 2},
}

M = 120          # objects indexed by the fresh / restored / mmap32 states
M_BEFORE = 90    # "inserted" builds on this many and inserts the rest
N_PIVOTS = 6
N_QUERIES = 4    # three held-out queries plus one stored object (a self-query)
KS = {"knn1": 1, "knn10": 10, "knn_all": M + 5}
RADIUS_RANK = 8  # range radius = the largest 8th-nearest distance of any query
BINS = 4         # 64-d histograms: the bounds prune, but loosely enough to refine in blocks
DISTANCE_TOL = 1e-9


def parity_workload():
    """The fixed histogram workload every cell of the matrix shares."""
    return histogram_workload(M, N_QUERIES - 1, bins_per_channel=BINS, seed=2011)


def parity_queries(workload) -> np.ndarray:
    return np.vstack([workload.queries, workload.database[5]])


def parity_radius(workload) -> float:
    """The radius just past every query's ``RADIUS_RANK``-th neighbor."""
    scan = QFDModel(workload.matrix).build_index("sequential", workload.database)
    return max(
        scan.knn_search(q, RADIUS_RANK)[-1].distance for q in parity_queries(workload)
    ) * (1.0 + 1e-9)


def build_state(model, bound: str, state: str, workload, queries, tmp: Path):
    """One pivot table of the matrix in the requested *state*."""
    kwargs = {"n_pivots": N_PIVOTS, "bound": bound}
    if state == "mmap32":
        return model.build_index("pivot-table", workload.database, store="mmap", **kwargs)
    if state == "inserted":
        built = model.build_index("pivot-table", workload.database[:M_BEFORE], **kwargs)
        for step, row in enumerate(workload.database[M_BEFORE:]):
            built.knn_search(queries[step % N_QUERIES], 3)
            built.insert(row)
        return built
    built = model.build_index("pivot-table", workload.database, **kwargs)
    if state == "restored":
        built = load_built_index(built.save(tmp / f"{model.name}-{bound}"))
    return built


def snapshot_sha256(built, tmp: Path) -> str:
    """sha256 over the decoded snapshot: every entry's key, dtype, shape, bytes.

    The decoded arrays, not the zip members, so the pin holds whatever
    member codec or zip timestamps the archive was written with.
    """
    snapshot = read_snapshot(save_index(built.access_method, tmp / "hashed"))
    entries = {
        "method": np.str_(snapshot.method),
        "method_version": np.int64(snapshot.method_version),
        "database": snapshot.database,
        **{f"state__{key}": value for key, value in snapshot.state.items()},
        **{f"meta__{key}": value for key, value in snapshot.meta.items()},
    }
    digest = hashlib.sha256()
    for key in sorted(entries):
        value = np.asarray(entries[key])
        digest.update(f"{key}|{value.dtype.str}|{value.shape}".encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def _answer(neighbors) -> list:
    return [[n.index for n in neighbors], [n.distance for n in neighbors]]


def _agree(answer: list, reference: list) -> bool:
    return answer[0] == reference[0] and bool(
        np.allclose(answer[1], reference[1], rtol=0.0, atol=DISTANCE_TOL)
    )


def observe_operation(built, queries, kind: str, parameter, check) -> dict:
    """One operation over every query in every mode.

    *check(pos, neighbors)* validates each answer of each mode (the test
    compares with the sequential scan).
    """
    single = built.knn_search if kind == "knn" else built.range_search
    batch = built.knn_search_batch if kind == "knn" else built.range_search_batch
    out: dict = {"answers": [], "counts": [], "single": [], "explain": [], "explain_trace": []}
    for pos, query in enumerate(queries):
        with query_trace(kind, parameter) as trace:
            counts, neighbors = _split(built, lambda: single(query, parameter))
        check(pos, neighbors)
        out["answers"].append(_answer(neighbors))
        out["counts"].append(counts)
        out["single"].append(_trace_fields(trace))
        buffer = EventBuffer()
        with query_trace(kind, parameter, events=buffer) as trace:
            explained = single(query, parameter)
        check(pos, explained)
        assert _agree(_answer(explained), out["answers"][pos]), "EXPLAIN changed the answer"
        out["explain"].append(explain_record(buffer))
        out["explain_trace"].append(_trace_fields(trace))
    for mode, options in BATCH_MODES.items():
        collector = TraceCollector()
        for pos, neighbors in enumerate(batch(queries, parameter, collector=collector, **options)):
            check(pos, neighbors)
            assert _agree(_answer(neighbors), out["answers"][pos]), f"{mode} batch q{pos}"
        out[mode] = [_trace_fields(t) for t in sorted(collector.traces, key=lambda t: t.query_index)]
    return out


def compute_parity(checks=None) -> dict:
    """Every cell of the matrix.

    *checks(built, kind, parameter)* returns the ``check(pos, neighbors)``
    callable for one index and operation; the default checks nothing, which
    is how the fixture is generated.
    """
    if checks is None:
        checks = lambda built, kind, parameter: (lambda pos, neighbors: None)  # noqa: E731
    workload = parity_workload()
    queries = parity_queries(workload)
    radius = parity_radius(workload)
    out: dict = {"m": M, "radius": radius, "cells": {}}
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        for model_name, model_cls in MODELS.items():
            model = model_cls(workload.matrix)
            for bound in BOUNDS:
                for state in STATES:
                    built = build_state(model, bound, state, workload, queries, tmp)
                    cell = {"sha256": snapshot_sha256(built, tmp)}
                    for op, k in KS.items():
                        cell[op] = observe_operation(built, queries, "knn", k, checks(built, "knn", k))
                    cell["range"] = observe_operation(
                        built, queries, "range", radius, checks(built, "range", radius)
                    )
                    out["cells"][f"{model_name}/{bound}/{state}"] = cell
    return out


def main() -> None:
    parity = compute_parity()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(parity, separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
