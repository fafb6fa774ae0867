"""The array-at-a-time M-tree scan answers and charges what the loops did.

``tests/fixtures/mtree_parity.json`` holds, for every cell of the matrix in
:mod:`tests.mtree_parity_recipe`, what each sink saw on the commit *before*
the per-entry loops were replaced by one shared array scan.  Replaying the
recipe must reproduce it exactly, with every answer equal to the sequential
scan's.  The other class pins the edges the matrix cannot: exact ties and
self-queries at the ``prune_slack`` boundary.  (The O(1) accounting of a
query with all sinks off is guarded for every method at once in
:mod:`tests.test_accounting_parity`.)
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.distances import euclidean
from repro.mam import MTree, PagedMTree, SequentialFile
from repro.models import QFDModel, QMapModel

from .helpers import assert_same_neighbors
from .mtree_parity_recipe import (
    EPSILON,
    FIXTURE_PATH,
    K,
    MODELS,
    compute_parity,
    parity_radii,
    parity_workload,
)


class TestParityMatrix:
    def test_every_cell_matches_the_recorded_baseline(self) -> None:
        stored = json.loads(FIXTURE_PATH.read_text())
        workload = parity_workload()
        radii = parity_radii(workload)
        assert radii == stored["radii"]
        scans: dict = {}

        def scan_for(built):
            # The mmap32 state indexes rows rounded through float32 (the
            # paged tree copies them back to a float64 heap array); its
            # reference scan must read the same rounded store.
            rows = built.access_method.database
            rounded = bool(np.array_equal(rows, rows.astype(np.float32)))
            key = (built.model_name, rounded)
            if key not in scans:
                store = {"store": "mmap"} if rounded else {}
                scans[key] = MODELS[built.model_name](workload.matrix).build_index(
                    "sequential", workload.database, **store
                )
            return scans[key], (1e-7 if rounded else 1e-8)

        def checks(built, op):
            scan, tol = scan_for(built)

            def check(pos: int, answer) -> None:
                q = workload.queries[pos]
                if op == "range":
                    expected = scan.range_search(q, radii[pos])
                else:
                    expected = scan.knn_search(q, K)
                label = f"{built.model_name}/{built.method_name} {op} q{pos}"
                if op == "knn_epsilon":
                    assert len(answer) == K, label
                    for got, exact in zip(answer, expected):
                        assert got.distance <= (1.0 + EPSILON) * exact.distance + tol, label
                else:
                    assert_same_neighbors(answer, expected, tol=tol, label=label)

            return check

        fresh = json.loads(json.dumps(compute_parity(checks)))
        assert set(fresh["cells"]) == set(stored["cells"])
        for key, want in stored["cells"].items():
            for op, sinks in want.items():
                for sink, recorded in sinks.items():
                    assert fresh["cells"][key][op][sink] == recorded, f"{key} {op}: {sink} drifted"


def _trees(data, distance, **kwargs):
    yield MTree(data, distance, capacity=4, **kwargs)
    yield PagedMTree(data, distance, capacity=4, cache_pages=4, **kwargs)


class TestTiesAndSelfQueries:
    """Stored bounds are exactly tight for duplicates and self-queries: the
    parent-distance bound of a duplicate equals the radius to the ulp, and
    only the ``prune_slack`` keeps its subtree."""

    @pytest.fixture(scope="class")
    def tied(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(0.0, 1.0, size=(40, 6))
        # Every object four times, shuffled: each leaf is full of exact ties.
        data = np.repeat(base, 4, axis=0)[rng.permutation(160)]
        matrix = np.eye(6) + 0.3 * np.ones((6, 6))
        return data, matrix

    @pytest.mark.parametrize("model_cls", [QFDModel, QMapModel])
    @pytest.mark.parametrize("method", ["mtree", "paged-mtree"])
    def test_self_query_finds_every_duplicate(self, tied, model_cls, method) -> None:
        data, matrix = tied
        model = model_cls(matrix)
        index = model.build_index(method, data, capacity=4)
        scan = model.build_index("sequential", data)
        for q in data[:12]:
            nearest = index.knn_search(q, 4)
            assert_same_neighbors(nearest, scan.knn_search(q, 4), label="self kNN")
            assert all(n.distance <= 1e-7 for n in nearest)
            # k cuts through the next group of four duplicates.  Which two
            # of them are reported may differ from the scan's under the QFD
            # kernel (a one- to three-row call is a matrix-vector product,
            # whose floats differ from a larger call's: ROADMAP item 2(b)),
            # but they are the same object.
            for got, want in zip(index.knn_search(q, 6), scan.knn_search(q, 6)):
                assert np.array_equal(data[got.index], data[want.index])
                assert got.distance == pytest.approx(want.distance, abs=1e-8)
            assert_same_neighbors(
                index.range_search(q, 0.0), scan.range_search(q, 0.0), label="zero range"
            )

    def test_nearest_iter_yields_whole_tie_groups(self, tied) -> None:
        data, _ = tied
        tree = MTree(data, euclidean, capacity=4)
        scan = SequentialFile(data, euclidean)
        for q in data[:5]:
            # Two groups of four duplicates; within a group the cursor's
            # order is its queue's, so compare the groups as sets.
            prefix = [n for n, _ in zip(tree.nearest_iter(q), range(8))]
            expected = scan.knn_search(q, 8)
            assert [n.distance for n in prefix] == [n.distance for n in expected]
            assert {n.index for n in prefix} == {n.index for n in expected}

    def test_radius_exactly_at_a_reported_distance(self, tied) -> None:
        data, _ = tied
        for tree in _trees(data, euclidean):
            for q in data[:6]:
                # The radius *is* the distance the tree reports for the
                # twelfth neighbor (the scan's can differ in the last ulp:
                # another batch shape): that object and its duplicates lie
                # exactly on the boundary and must be in, not pruned.
                nearest = tree.knn_search(q, 12)
                inside = tree.range_search(q, nearest[-1].distance)
                assert inside == nearest, f"{type(tree).__name__} boundary range"
