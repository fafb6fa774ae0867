"""Tests for repro.mam.paged_mtree — the disk-resident M-tree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import clustered_histograms
from repro.distances import euclidean
from repro.exceptions import PageError
from repro.mam import PagedMTree, SequentialFile
from repro.mam.mtree import _Node

from .helpers import assert_same_neighbors


@pytest.fixture(scope="module")
def data():
    return clustered_histograms(400, 4, themes=8, rng=np.random.default_rng(171))


@pytest.fixture(scope="module")
def scan(data):
    return SequentialFile(data, euclidean)


@pytest.fixture(scope="module")
def paged(data):
    return PagedMTree(data, euclidean, capacity=8, cache_pages=16)


class TestQueries:
    def test_exact_knn(self, data, paged, scan) -> None:
        for q in data[:4]:
            assert_same_neighbors(paged.knn_search(q, 9), scan.knn_search(q, 9))

    def test_exact_range(self, data, paged, scan) -> None:
        q = data[77]
        nn = scan.knn_search(q, 25)
        radius = (nn[-2].distance + nn[-1].distance) / 2.0
        assert_same_neighbors(paged.range_search(q, radius), scan.range_search(q, radius))

    def test_matches_in_memory_mtree(self, data) -> None:
        from repro.mam import MTree

        memory = MTree(data, euclidean, capacity=8, rng=np.random.default_rng(2))
        disk = PagedMTree(
            data, euclidean, capacity=8, cache_pages=16, rng=np.random.default_rng(2)
        )
        q = data[3]
        assert memory.knn_search(q, 10) == disk.knn_search(q, 10)


class TestPaging:
    def test_pages_allocated(self, paged) -> None:
        assert paged.node_pages() > len(paged.database) // paged.capacity // 2

    def test_small_cache_faults_large_cache_hits(self, data) -> None:
        tiny = PagedMTree(data, euclidean, capacity=8, cache_pages=1)
        big = PagedMTree(data, euclidean, capacity=8, cache_pages=1024)
        q = data[0]
        big.knn_search(q, 5)  # warm
        big.cache.stats.reset()
        big.knn_search(q, 5)
        assert big.cache.stats.faults == 0  # everything resident

        tiny.knn_search(q, 5)
        tiny.cache.stats.reset()
        tiny.knn_search(q, 5)
        assert tiny.cache.stats.faults > 0  # thrashes

    def test_file_backed(self, data, tmp_path) -> None:
        path = tmp_path / "mtree.pages"
        with PagedMTree(data[:100], euclidean, capacity=8, path=str(path)) as tree:
            hits = tree.knn_search(data[0], 3)
            assert len(hits) == 3
        assert path.exists() and path.stat().st_size > 0

    def test_oversized_node_rejected(self, data) -> None:
        tree = PagedMTree(data[:50], euclidean, capacity=4)
        with pytest.raises(PageError):
            tree._write_node(
                0,
                _Node(
                    True,
                    np.arange(10),
                    np.zeros(10),
                    np.zeros(10),
                    [],
                    np.zeros((10, data.shape[1])),
                ),
            )


class TestInserts:
    def test_insert_with_page_splits(self, data) -> None:
        tree = PagedMTree(data[:300], euclidean, capacity=6, cache_pages=16)
        pages_before = tree.node_pages()
        for row in data[300:]:
            tree.insert(row)
        assert tree.node_pages() > pages_before  # splits allocated pages
        full_scan = SequentialFile(data, euclidean)
        for q in data[:3]:
            assert_same_neighbors(tree.knn_search(q, 8), full_scan.knn_search(q, 8))

    def test_root_split_from_tiny_tree(self, data) -> None:
        tree = PagedMTree(data[:3], euclidean, capacity=2)
        for row in data[3:40]:
            tree.insert(row)
        scan40 = SequentialFile(data[:40], euclidean)
        q = data[100]
        assert_same_neighbors(tree.knn_search(q, 6), scan40.knn_search(q, 6))

    def test_inserted_object_findable(self, data) -> None:
        tree = PagedMTree(data[:100], euclidean, capacity=8)
        idx = tree.insert(data[200])
        top = tree.knn_search(data[200], 1)[0]
        assert top.index == idx and top.distance == pytest.approx(0.0, abs=1e-12)
