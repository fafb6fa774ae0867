"""Tests for repro.sam — R-tree and VA-file specifics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import clustered_histograms
from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.exceptions import QueryError
from repro.mam import SequentialFile
from repro.mam.base import DistancePort
from repro.sam import RTree, VAFile

from .helpers import assert_same_neighbors


@pytest.fixture(scope="module")
def data():
    return clustered_histograms(300, 4, themes=6, rng=np.random.default_rng(61))


@pytest.fixture(scope="module")
def scan(data):
    return SequentialFile(data, euclidean)


class TestRTree:
    def test_exact_knn(self, data, scan) -> None:
        tree = RTree(data, capacity=12)
        for q in data[:4]:
            assert_same_neighbors(tree.knn_search(q, 7), scan.knn_search(q, 7))

    def test_exact_range(self, data, scan) -> None:
        tree = RTree(data, capacity=12)
        q = data[50]
        for radius in (0.0, 0.05, 0.3):
            assert_same_neighbors(tree.range_search(q, radius), scan.range_search(q, radius))

    def test_l1_queries(self, data) -> None:
        from repro.distances import manhattan

        tree = RTree(data, capacity=12, p=1.0)
        scan_l1 = SequentialFile(data, manhattan)
        q = data[7]
        assert_same_neighbors(tree.knn_search(q, 5), scan_l1.knn_search(q, 5), tol=1e-7)

    def test_linf_queries(self, data) -> None:
        from repro.distances import chessboard

        tree = RTree(data, capacity=12, p=float("inf"))
        scan_inf = SequentialFile(data, chessboard)
        q = data[9]
        assert_same_neighbors(tree.knn_search(q, 5), scan_inf.knn_search(q, 5), tol=1e-7)

    def test_rejects_bad_params(self, data) -> None:
        with pytest.raises(QueryError):
            RTree(data, capacity=1)
        with pytest.raises(QueryError):
            RTree(data, p=0.5)

    def test_height(self, data) -> None:
        tree = RTree(data, capacity=8)
        assert tree.height() >= 2

    def test_injected_counter(self, data) -> None:
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        tree = RTree(data, capacity=12, refine_distance=DistancePort(counter))
        counter.reset()
        tree.knn_search(data[0], 3)
        assert counter.count > 0

    def test_single_point(self) -> None:
        tree = RTree(np.ones((1, 3)))
        assert tree.knn_search(np.zeros(3), 1)[0].index == 0

    def test_duplicate_points(self) -> None:
        rows = np.tile(np.full(3, 0.5), (30, 1))
        tree = RTree(rows, capacity=4)
        assert len(tree.knn_search(rows[0], 10)) == 10


class TestVAFile:
    def test_exact_knn(self, data, scan) -> None:
        va = VAFile(data, bits=4)
        for q in data[:4]:
            assert_same_neighbors(va.knn_search(q, 7), scan.knn_search(q, 7))

    def test_exact_range(self, data, scan) -> None:
        va = VAFile(data, bits=4)
        q = data[11]
        for radius in (0.0, 0.05, 0.3):
            assert_same_neighbors(va.range_search(q, radius), scan.range_search(q, radius))

    def test_exact_with_few_bits(self, data, scan) -> None:
        va = VAFile(data, bits=1)
        q = data[4]
        assert_same_neighbors(va.knn_search(q, 5), scan.knn_search(q, 5))

    def test_more_bits_fewer_candidates(self, data) -> None:
        q = data[0]
        ratios = [VAFile(data, bits=b).candidate_ratio(q, 5) for b in (1, 3, 6)]
        assert ratios[2] <= ratios[0]

    def test_candidate_ratio_bounds(self, data) -> None:
        va = VAFile(data, bits=4)
        ratio = va.candidate_ratio(data[0], 5)
        assert 0.0 < ratio <= 1.0

    def test_candidate_ratio_rejects_bad_k(self, data) -> None:
        va = VAFile(data, bits=4)
        with pytest.raises(QueryError):
            va.candidate_ratio(data[0], 0)

    def test_approximation_is_compact(self, data) -> None:
        va = VAFile(data, bits=4)
        raw_bytes = data.size * data.itemsize
        assert va.approximation_bytes < raw_bytes

    def test_rejects_bad_bits(self, data) -> None:
        with pytest.raises(QueryError):
            VAFile(data, bits=0)
        with pytest.raises(QueryError):
            VAFile(data, bits=17)

    def test_refinement_charges_counter(self, data) -> None:
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        va = VAFile(data, bits=4, refine_distance=DistancePort(counter))
        counter.reset()
        va.knn_search(data[0], 3)
        assert 0 < counter.count < len(data)

    def test_identical_points(self) -> None:
        rows = np.tile(np.full(3, 0.5), (20, 1))
        va = VAFile(rows, bits=2)
        assert len(va.knn_search(rows[0], 6)) == 6


def test_a_vafile_restore_allocates_no_full_size_temporaries(tmp_path, monkeypatch) -> None:
    """Memory guard: a restore's allocation peak stays within 1.3x of what
    it keeps.  Copying the restored approximations and gathering the cell
    walls through an int64 copy of them and its ``+ 1`` read 1.69x here;
    adopting them and gathering in blocks of rows reads 1.08x.  One codec
    thread keeps the reader's blocks in flight the same on any host."""
    import gc
    import tracemalloc

    from repro.datasets import histogram_workload
    from repro.models import QMapModel, load_built_index
    from repro.persistence import format as snapshot_format

    monkeypatch.setattr(snapshot_format, "_POOL_SIZE", 1)
    workload = histogram_workload(8000, 1, bins_per_channel=4, seed=2011)
    built = QMapModel(workload.matrix).build_index("vafile", workload.database, bits=4)
    path = built.save(tmp_path / "vafile")
    del built, workload
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        restored = load_built_index(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained, peak = retained - baseline, peak - baseline
    va = restored.access_method
    walls = va._cell_lower.nbytes + va._cell_upper.nbytes
    assert walls > 0.6 * retained  # the cell walls dominate what a restore keeps
    assert peak <= 1.3 * retained, f"restore peaked at {peak / retained:.2f}x what it keeps"
