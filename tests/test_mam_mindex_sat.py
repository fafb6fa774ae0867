"""Tests for repro.mam.mindex and repro.mam.sat."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import clustered_histograms
from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.exceptions import QueryError
from repro.mam import MIndex, SATree, SequentialFile

from .helpers import SpyPort, assert_same_neighbors


@pytest.fixture(scope="module")
def data():
    return clustered_histograms(400, 4, themes=8, rng=np.random.default_rng(101))


@pytest.fixture(scope="module")
def scan(data):
    return SequentialFile(data, euclidean)


class TestMIndex:
    def test_exact_knn(self, data, scan) -> None:
        index = MIndex(data, euclidean, n_pivots=12)
        for q in data[:4]:
            assert_same_neighbors(index.knn_search(q, 9), scan.knn_search(q, 9))

    def test_exact_range(self, data, scan) -> None:
        index = MIndex(data, euclidean, n_pivots=12)
        q = data[123]
        nn = scan.knn_search(q, 25)
        for radius in (0.0, (nn[5].distance + nn[6].distance) / 2.0, nn[-1].distance * 1.01):
            assert_same_neighbors(index.range_search(q, radius), scan.range_search(q, radius))

    def test_clusters_partition_database(self, data) -> None:
        index = MIndex(data, euclidean, n_pivots=10)
        assert sum(index.cluster_sizes()) == len(data)
        assert len(index.cluster_sizes()) == index.n_pivots

    def test_cluster_keys_sorted(self, data) -> None:
        index = MIndex(data, euclidean, n_pivots=10)
        for keys in index._cluster_keys:
            assert np.all(np.diff(keys) >= 0.0)

    def test_prunes_on_clustered_data(self, data) -> None:
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        index = MIndex(data, counter, n_pivots=16)
        counter.reset()
        index.knn_search(data[0], 5)
        assert counter.count < 0.7 * len(data)

    def test_insert(self, data, scan) -> None:
        index = MIndex(data[:300], euclidean, n_pivots=10)
        for row in data[300:350]:
            index.insert(row)
        partial_scan = SequentialFile(data[:350], euclidean)
        q = data[360]
        assert_same_neighbors(index.knn_search(q, 7), partial_scan.knn_search(q, 7))

    def test_insert_keeps_keys_sorted(self, data) -> None:
        index = MIndex(data[:100], euclidean, n_pivots=6)
        for row in data[100:140]:
            index.insert(row)
        for keys in index._cluster_keys:
            assert np.all(np.diff(keys) >= 0.0)

    def test_rejects_bad_growth(self, data) -> None:
        with pytest.raises(QueryError):
            MIndex(data, euclidean, growth=1.0)

    def test_pivot_count_clamped(self) -> None:
        small = clustered_histograms(5, 2, rng=np.random.default_rng(2))
        index = MIndex(small, euclidean, n_pivots=50)
        assert index.n_pivots == 5

    def test_knn_more_than_size(self, data) -> None:
        index = MIndex(data[:10], euclidean, n_pivots=3)
        assert len(index.knn_search(data[0], 99)) == 10

    def test_query_far_outside_database(self, data, scan) -> None:
        """The iterative radius growth must converge even when the query
        is nowhere near the data."""
        index = MIndex(data, euclidean, n_pivots=8)
        q = np.full(data.shape[1], 5.0)
        assert_same_neighbors(index.knn_search(q, 3), scan.knn_search(q, 3))


class TestSATree:
    def test_exact_knn(self, data, scan) -> None:
        tree = SATree(data, euclidean)
        for q in data[:4]:
            assert_same_neighbors(tree.knn_search(q, 9), scan.knn_search(q, 9))

    def test_exact_range(self, data, scan) -> None:
        tree = SATree(data, euclidean)
        q = data[55]
        nn = scan.knn_search(q, 25)
        for radius in (0.0, (nn[5].distance + nn[6].distance) / 2.0, nn[-1].distance * 1.01):
            assert_same_neighbors(tree.range_search(q, radius), scan.range_search(q, radius))

    def test_prunes_on_clustered_data(self, data) -> None:
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        tree = SATree(data, counter)
        counter.reset()
        tree.knn_search(data[0], 5)
        assert counter.count < 0.9 * len(data)

    def test_single_object(self) -> None:
        tree = SATree(np.ones((1, 3)), euclidean)
        assert tree.knn_search(np.zeros(3), 1)[0].index == 0

    def test_all_identical(self) -> None:
        same = np.tile(np.full(3, 0.5), (25, 1))
        tree = SATree(same, euclidean)
        assert len(tree.knn_search(same[0], 7)) == 7

    def test_insert_disables_hyperplane_but_stays_exact(self, data) -> None:
        tree = SATree(data[:300], euclidean)
        assert tree._hyperplane_ok
        for row in data[300:340]:
            tree.insert(row)
        assert not tree._hyperplane_ok
        partial_scan = SequentialFile(data[:340], euclidean)
        for q in data[350:353]:
            assert_same_neighbors(tree.knn_search(q, 8), partial_scan.knn_search(q, 8))

    def test_height(self, data) -> None:
        tree = SATree(data, euclidean)
        assert 2 <= tree.height() <= len(data)

    def test_deterministic_given_rng(self, data) -> None:
        t1 = SATree(data[:100], euclidean, rng=np.random.default_rng(4))
        t2 = SATree(data[:100], euclidean, rng=np.random.default_rng(4))
        q = data[200]
        assert t1.knn_search(q, 6) == t2.knn_search(q, 6)


class TestMIndexTable:
    """The object-to-pivot table: evaluated once at build, grown in place."""

    def test_default_build_evaluates_each_pivot_once(self, data) -> None:
        from repro.mam import select_pivots
        from repro.mam.base import DistancePort

        m, p = len(data), 12
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        spy = SpyPort(counter)
        index = MIndex(data, spy, n_pivots=p, rng=np.random.default_rng(3))
        assert spy.sizes.count(m) == p  # 2 p before the selection vectors were kept
        assert counter.stats.batch_rows == 2 * p * m and counter.stats.calls == 0
        # The two loops this build used to run, inline.
        ref = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        port = DistancePort(ref)
        pivots = select_pivots(data, p, port, method="maxmin", rng=np.random.default_rng(3))
        table = np.column_stack([port.many(data[j], data) for j in pivots])
        assert index.pivot_indices == pivots
        assert np.array_equal(index.structural_state()["table"], table)
        assert counter.stats == ref.stats

    def test_random_pivots_build_unchanged(self, data) -> None:
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        index = MIndex(
            data, counter, n_pivots=9, pivot_method="random", rng=np.random.default_rng(8)
        )
        assert counter.stats.batch_rows == 9 * len(data)
        want = np.column_stack([euclidean_one_to_many(data[j], data) for j in index.pivot_indices])
        assert index.structural_state()["table"].tobytes() == want.tobytes()

    def test_inserts_grow_the_table_geometrically(self, monkeypatch) -> None:
        """500 inserts used to ``np.vstack`` (reallocate) the table 500 times."""
        import repro.mam.mindex as mindex_module

        rows = clustered_histograms(600, 4, themes=8, rng=np.random.default_rng(12))
        reallocations = []

        def counting_grown(buffer, used, extra, axis=0):
            out = mindex_module_grown(buffer, used, extra, axis)
            if out is not buffer:
                reallocations.append(out.shape[0])
            return out

        mindex_module_grown = mindex_module.grown
        monkeypatch.setattr(mindex_module, "grown", counting_grown)
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        index = MIndex(rows[:100], counter, n_pivots=8, rng=np.random.default_rng(2))
        for row in rows[100:]:
            index.insert(row)
        assert index.size == 600
        assert len(reallocations) <= 3  # 100 -> 200 -> 400 -> 800
        state = index.structural_state()
        assert state["table"].shape == (600, 8) and state["table"].flags.c_contiguous
        want = np.stack([euclidean_one_to_many(r, rows[index.pivot_indices]) for r in rows])
        assert state["table"].tobytes() == want.tobytes()
        rebuilt = MIndex.from_state(rows, counter, state)
        q = rows[77] * 0.5 + rows[301] * 0.5
        assert_same_neighbors(index.knn_search(q, 9), rebuilt.knn_search(q, 9))
        assert_same_neighbors(
            index.knn_search(q, 9), SequentialFile(rows, euclidean).knn_search(q, 9)
        )
