"""Tests for repro.mam.base — ports, neighbors, the kNN heap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.exceptions import EmptyIndexError, QueryError
from repro.mam import SequentialFile
from repro.mam.base import DistancePort, Neighbor, _KnnHeap, grown, neighbors_from_distances


class TestNeighbor:
    def test_ordering_by_distance_then_index(self) -> None:
        a = Neighbor(1.0, 5)
        b = Neighbor(1.0, 3)
        c = Neighbor(0.5, 9)
        assert sorted([a, b, c]) == [c, b, a]

    def test_equality(self) -> None:
        assert Neighbor(1.0, 2) == Neighbor(1.0, 2)


class TestDistancePort:
    def test_pair(self) -> None:
        port = DistancePort(euclidean)
        assert port.pair(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_many_with_vectorized_form(self) -> None:
        port = DistancePort(euclidean, one_to_many=euclidean_one_to_many)
        out = port.many(np.zeros(2), np.ones((4, 2)))
        assert out.shape == (4,)

    def test_many_fallback_loop(self) -> None:
        port = DistancePort(euclidean)
        batch = np.arange(6.0).reshape(3, 2)
        expected = [euclidean(np.zeros(2), row) for row in batch]
        assert np.allclose(port.many(np.zeros(2), batch), expected)

    def test_many_empty(self) -> None:
        port = DistancePort(euclidean)
        assert port.many(np.zeros(2), np.empty((0, 2))).shape == (0,)

    def test_picks_up_counting_distance_batch_method(self) -> None:
        cd = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        port = DistancePort(cd)
        port.many(np.zeros(2), np.ones((5, 2)))
        assert cd.count == 5


    @pytest.mark.parametrize("one_to_many", [None, euclidean_one_to_many])
    def test_compute_many_is_many_without_the_charge(self, one_to_many) -> None:
        cd = CountingDistance(euclidean, one_to_many=one_to_many)
        port = DistancePort(cd)
        rows = np.arange(10.0).reshape(5, 2)
        computed = port.compute_many(np.zeros(2), rows)
        assert cd.count == 0
        assert np.array_equal(computed, port.many(np.zeros(2), rows))
        assert cd.count == 5
        assert port.compute_many(np.zeros(2), np.empty((0, 2))).shape == (0,)

    def test_grown_along_the_column_axis(self) -> None:
        buffer = np.arange(6.0).reshape(2, 3)
        assert grown(buffer, 2, 1, axis=1) is buffer  # room for one more column
        bigger = grown(buffer, 3, 1, axis=1)
        assert bigger.shape == (2, 6)  # doubled, not grown by one
        assert np.array_equal(bigger[:, :3], buffer)


class TestNeighborsFromDistances:
    def test_sorted_output(self) -> None:
        out = neighbors_from_distances([3.0, 1.0, 2.0])
        assert [n.index for n in out] == [1, 2, 0]

    def test_explicit_indices(self) -> None:
        out = neighbors_from_distances([3.0, 1.0], [10, 20])
        assert out[0] == Neighbor(1.0, 20)


class TestKnnHeap:
    def test_keeps_k_smallest(self) -> None:
        heap = _KnnHeap(2)
        for d, i in [(5.0, 0), (1.0, 1), (3.0, 2), (0.5, 3)]:
            heap.offer(d, i)
        result = heap.neighbors()
        assert [n.index for n in result] == [3, 1]

    def test_radius_infinite_until_full(self) -> None:
        heap = _KnnHeap(3)
        heap.offer(1.0, 0)
        assert heap.radius == float("inf")
        heap.offer(2.0, 1)
        heap.offer(3.0, 2)
        assert heap.radius == 3.0

    def test_tie_break_prefers_smaller_index(self) -> None:
        heap = _KnnHeap(1)
        heap.offer(1.0, 7)
        heap.offer(1.0, 2)
        assert heap.neighbors() == [Neighbor(1.0, 2)]

    def test_tie_break_order_independent(self) -> None:
        heap = _KnnHeap(1)
        heap.offer(1.0, 2)
        heap.offer(1.0, 7)
        assert heap.neighbors() == [Neighbor(1.0, 2)]

    def test_rejects_bad_k(self) -> None:
        with pytest.raises(QueryError):
            _KnnHeap(0)


class TestAccessMethodValidation:
    def test_empty_database_rejected(self) -> None:
        with pytest.raises(EmptyIndexError):
            SequentialFile(np.empty((0, 4)), euclidean)

    def test_negative_radius_rejected(self, rng: np.random.Generator) -> None:
        seq = SequentialFile(rng.random((5, 3)), euclidean)
        with pytest.raises(QueryError):
            seq.range_search(np.zeros(3), -0.1)

    def test_bad_k_rejected(self, rng: np.random.Generator) -> None:
        seq = SequentialFile(rng.random((5, 3)), euclidean)
        with pytest.raises(QueryError):
            seq.knn_search(np.zeros(3), 0)

    def test_k_clamped_to_database_size(self, rng: np.random.Generator) -> None:
        seq = SequentialFile(rng.random((5, 3)), euclidean)
        assert len(seq.knn_search(np.zeros(3), 100)) == 5

    def test_query_dimension_checked(self, rng: np.random.Generator) -> None:
        from repro.exceptions import DimensionMismatchError

        seq = SequentialFile(rng.random((5, 3)), euclidean)
        with pytest.raises(DimensionMismatchError):
            seq.knn_search(np.zeros(4), 1)

    def test_properties(self, rng: np.random.Generator) -> None:
        seq = SequentialFile(rng.random((5, 3)), euclidean)
        assert seq.size == 5 and seq.dim == 3
        assert seq.database.shape == (5, 3)


class TestScanTieOrder:
    """The scan is the reference every index is compared with, so rows tied
    at the k-th distance must be cut by ``(distance, index)``, like
    everywhere else — not by whichever of them a partition left in front."""

    def test_duplicates_straddling_the_kth_place(self, rng: np.random.Generator) -> None:
        data = rng.random((300, 5)) + 2.0
        group = [3, 41, 42, 97, 150, 151, 288, 299]
        data[group] = 0.25  # eight identical rows, the nearest by far
        data[7] = 0.26      # and one strictly nearer object in front of them
        seq = SequentialFile(data, CountingDistance(euclidean, one_to_many=euclidean_one_to_many))
        q = np.full(5, 0.27)
        for k in range(1, 12):
            got = seq.knn_search(q, k)
            assert [n.index for n in got[:9]] == ([7] + group)[:k]
            assert got == sorted(got)
            assert got == seq.knn_search_batch(q[None, :], k)[0]
        assert seq.distance.counter.count == 2 * 11 * 300  # still one row per object
