"""The array-at-a-time pivot table answers and charges what the loop did.

``tests/fixtures/pivot_parity.json`` holds, for every cell of the matrix in
:mod:`tests.pivot_parity_recipe`, what each mode and sink saw on the commit
*before* the pivot-major table and the block-evaluated refinement.
Replaying the recipe must reproduce it — indices, counts, EXPLAIN totals and
the snapshot hash exactly, distances within 1e-9 — with every answer equal
to the sequential scan's.  The other classes pin what block-evaluated
refinement can get wrong (the unconditional first ``k``, ties at the
``k``-th bound, the ``r0`` survivors) and that refinement really is
array-at-a-time.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.mam import PivotTable, SequentialFile
from repro.mam.base import Neighbor
from repro.models import QFDModel, QMapModel, explain_query

from .helpers import assert_same_neighbors
from .pivot_parity_recipe import (
    BOUNDS,
    DISTANCE_TOL,
    FIXTURE_PATH,
    MODELS,
    compute_parity,
    parity_queries,
    parity_workload,
)


class TestParityMatrix:
    def test_every_cell_matches_the_recorded_baseline(self) -> None:
        stored = json.loads(FIXTURE_PATH.read_text())
        workload = parity_workload()
        queries = parity_queries(workload)
        scans: dict = {}

        def scan_for(built):
            # The mmap32 state indexes rows rounded through float32; its
            # reference scan must read the same rounded store.
            rows = built.access_method.database
            rounded = rows.dtype == np.float32
            key = (built.model_name, rounded)
            if key not in scans:
                store = {"store": "mmap"} if rounded else {}
                scans[key] = MODELS[built.model_name](workload.matrix).build_index(
                    "sequential", workload.database, **store
                )
            return scans[key], (1e-7 if rounded else 1e-8)

        def checks(built, kind, parameter):
            scan, tol = scan_for(built)
            search = scan.knn_search if kind == "knn" else scan.range_search

            def check(pos: int, neighbors) -> None:
                label = f"{built.model_name} {kind}({parameter}) q{pos}"
                assert_same_neighbors(
                    neighbors, search(queries[pos], parameter), tol=tol, label=label
                )

            return check

        fresh = json.loads(json.dumps(compute_parity(checks)))
        assert fresh["radius"] == stored["radius"]
        assert set(fresh["cells"]) == set(stored["cells"])
        for key, want in stored["cells"].items():
            got = fresh["cells"][key]
            assert got["sha256"] == want["sha256"], f"{key}: snapshot bytes drifted"
            for op in (name for name in want if name != "sha256"):
                for (idx, dist), (want_idx, want_dist) in zip(
                    got[op].pop("answers"), want[op].pop("answers")
                ):
                    assert idx == want_idx, f"{key} {op}: neighbors drifted"
                    assert np.allclose(dist, want_dist, rtol=0.0, atol=DISTANCE_TOL), f"{key} {op}"
                for sink, recorded in want[op].items():
                    assert got[op][sink] == recorded, f"{key} {op}: {sink} drifted"
                # Sinks on and off are one loop: EXPLAIN sees the same record.
                assert got[op]["explain_trace"] == got[op]["single"], f"{key} {op}"


def _table(data, pivots, bound):
    distance = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
    return PivotTable(data, distance, pivots=pivots, bound=bound)


def _scan(data):
    return SequentialFile(data, CountingDistance(euclidean, one_to_many=euclidean_one_to_many))


class TestBlockedRefinementExactness:
    """Cases where filtering the first ``k`` by their own radius, or cutting
    the order at ``r0`` carelessly, loses or reorders an answer."""

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_nearly_all_objects_are_pivots(self, bound) -> None:
        # m=8, p=7: a pivot's own bound is its distance up to an ulp, so the
        # first object must be evaluated whatever radius it then produces.
        rng = np.random.default_rng(8)
        data = rng.uniform(0.0, 1.0, size=(8, 5))
        table, scan = _table(data, list(range(7)), bound), _scan(data)
        for q in np.vstack([rng.uniform(0.0, 1.0, size=(20, 5)), data]):
            for k in (1, 2, 8):
                assert_same_neighbors(table.knn_search(q, k), scan.knn_search(q, k), label=f"k={k}")

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_duplicate_rows_tie_at_the_kth_bound(self, bound) -> None:
        rng = np.random.default_rng(9)
        base = rng.uniform(0.0, 1.0, size=(30, 4))
        data = np.repeat(base, 4, axis=0)[rng.permutation(120)]
        distinct = [int(np.flatnonzero((data == row).all(axis=1))[0]) for row in base[:5]]
        table = _table(data, distinct, bound)
        for q in np.vstack([rng.uniform(0.0, 1.0, size=(6, 4)), data[:6]]):
            # The (distance, index) order itself, not the scan's answer: the
            # scan's argpartition keeps an arbitrary subset of tied rows.
            distances = euclidean_one_to_many(q, data)
            order = np.lexsort((np.arange(120), distances))
            # k = 1..6 cuts through a group of four equal bounds (and equal
            # distances): the smaller indices win.
            for k in (1, 2, 3, 4, 5, 6, 120):
                expected = [Neighbor(float(distances[i]), int(i)) for i in order[:k]]
                assert_same_neighbors(table.knn_search(q, k), expected, tol=1e-12, label=f"k={k}")
            assert [n.index for n in table.range_search(q, 0.0)] == [
                int(i) for i in order if distances[i] == 0.0
            ]

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_query_equal_to_a_pivot(self, bound) -> None:
        rng = np.random.default_rng(10)
        data = rng.uniform(0.0, 1.0, size=(200, 6))
        pivots = [3, 50, 120, 199]
        table, scan = _table(data, pivots, bound), _scan(data)
        for piv in pivots:
            for k in (1, 10, 200):
                assert_same_neighbors(
                    table.knn_search(data[piv], k), scan.knn_search(data[piv], k), label=f"k={k}"
                )
            assert table.knn_search(data[piv], 1)[0].index == piv
            assert [n.index for n in table.range_search(data[piv], 0.0)] == [piv]

    @pytest.mark.parametrize("model_cls", [QFDModel, QMapModel])
    def test_explain_ends_on_the_first_object_not_evaluated(self, model_cls) -> None:
        # Per query: one stop test per refined object plus the pruned one
        # that ends the loop — also when it lies beyond the r0 survivors.
        workload = parity_workload()
        built = model_cls(workload.matrix).build_index(
            "pivot-table", workload.database, n_pivots=6, bound="best"
        )
        for q in parity_queries(workload):
            plan = explain_query(built, q, k=10)
            refined = plan.charged_total - 6
            assert 10 <= refined < built.access_method.size
            for label in ("pivot-linf", "pivot-ptolemaic", "pivot-best"):
                assert plan.lb_labels[label][0] == refined + 1
            assert plan.lb_labels["pivot-best"][1] == 1


class TestRefinementIsArrayAtATime:
    def test_knn_makes_no_scalar_call_and_logarithmically_many_batches(self) -> None:
        m, k = 2000, 10
        rng = np.random.default_rng(11)
        data = rng.uniform(0.0, 1.0, size=(m, 16))
        physical = {"scalar": 0, "batches": 0}

        def scalar(u, v):
            physical["scalar"] += 1
            return euclidean(u, v)

        def batched(q, rows):
            physical["batches"] += 1
            return euclidean_one_to_many(q, rows)

        counter = CountingDistance(scalar, one_to_many=batched)
        table = PivotTable(data, counter, n_pivots=8)
        scan = _scan(data)
        for q in rng.uniform(0.0, 1.0, size=(5, 16)):
            physical.update(scalar=0, batches=0)
            counter.reset()
            answer = table.knn_search(q, k)
            assert_same_neighbors(answer, scan.knn_search(q, k))
            assert physical["scalar"] == 0
            # the pivot distances, the first k, then doubling blocks
            assert physical["batches"] <= 2 + math.ceil(math.log2(m / k))
            # ...while the charge is still the sequential loop's
            assert counter.stats.batch_rows == 8
            assert k <= counter.stats.calls < m
