"""Tests for repro.mam.paged_mtree — the disk-resident M-tree."""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

from repro.datasets import clustered_histograms
from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.engine.trace import query_trace
from repro.exceptions import PageError, StorageError
from repro.mam import MTree, PagedMTree, SequentialFile
from repro.mam.mtree import _Node
from repro.mam.paged_mtree import _HEADER

from .helpers import assert_same_neighbors, run_together
from .mtree_reference import reference_knn


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


class TestSplitPolicy:
    """The policy used to reach only the in-memory build: page splits always
    scored every pair with mM_RAD, and a snapshot forgot the policy."""

    def test_random_policy_splits_pages_and_survives_a_snapshot(self, data) -> None:
        rng = np.random.default_rng(7)
        tree = PagedMTree(data[:200], euclidean, capacity=4, split_policy="random", rng=rng)
        assert tree.split_policy == "random"
        drawn, pages = rng.bit_generator.state, tree.node_pages()
        for row in data[200:260]:
            tree.insert(row)
        assert tree.node_pages() > pages  # pages split ...
        assert rng.bit_generator.state != drawn  # ... and drew from the tree's generator
        tree.validate_invariants()

        state = tree.structural_state()
        assert str(state["split_policy"]) == "random"
        restored = PagedMTree.from_state(tree.database, euclidean, state)
        assert restored.split_policy == "random"
        drawn = restored._rng.bit_generator.state
        for row in data[260:300]:
            restored.insert(row)
        assert restored._rng.bit_generator.state != drawn
        scan = SequentialFile(data[:300], euclidean)
        assert_same_neighbors(restored.knn_search(data[310], 7), scan.knn_search(data[310], 7))

    def test_default_policy_snapshot_carries_no_key(self, data) -> None:
        tree = PagedMTree(data[:120], euclidean, capacity=4)
        state = tree.structural_state()
        assert sorted(state) == ["cache_pages", "capacity", "pages", "root_page"]
        assert PagedMTree.from_state(tree.database, euclidean, state).split_policy == "mM_RAD"
        with pytest.raises(StorageError, match="unknown split policy"):
            PagedMTree.from_state(
                tree.database, euclidean, {**state, "split_policy": np.str_("linear")}
            )


class TestCursor:
    """``nearest_iter`` is the mixin's: the paged tree gets the incremental
    cursor, at the in-RAM tree's answers and charged evaluations."""

    def test_prefix_equals_knn_and_the_in_ram_cursor(self, data) -> None:
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        memory = MTree(data, counter, capacity=6, rng=np.random.default_rng(2))
        disk = PagedMTree(
            data, counter, capacity=6, cache_pages=4, rng=np.random.default_rng(2)
        )
        for q in data[:6] + 1e-3:
            for k in (1, 9, 40):
                seen = []
                for tree in (memory, disk):
                    counter.reset()
                    prefix = list(islice(tree.nearest_iter(q), k))
                    seen.append((prefix, counter.stats.calls, counter.stats.batch_rows))
                    # The cursor evaluates entry by entry (the scalar form), the
                    # kNN search in blocks: the same objects to the last ulp.
                    assert_same_neighbors(prefix, tree.knn_search(q, k), tol=1e-12)
                assert seen[0] == seen[1] and seen[0][1] >= k

    def test_cursor_runs_to_the_end_in_order(self, data) -> None:
        tree = PagedMTree(data[:90], euclidean, capacity=4, cache_pages=2)
        everything = list(tree.nearest_iter(data[95]))
        assert sorted(n.index for n in everything) == list(range(90))
        assert everything == sorted(everything, key=lambda n: n.distance)


def _traced_knn(tree, q, k):
    with query_trace("", 0.0) as trace:
        answer = tree.knn_search(q, k)
    return answer, (trace.distance_evaluations, trace.nodes_visited, trace.nodes_pruned)


class TestBlockReads:
    """The search opens pages in blocks: a page read ahead is a real read
    (the cache counts it) but not a visit (the query does not)."""

    def test_page_reads_stay_within_one_block_of_the_visits(self) -> None:
        rows = clustered_histograms(2000, 16, themes=12, rng=np.random.default_rng(5))
        tree = PagedMTree(rows, euclidean, capacity=16, cache_pages=8)
        ahead = 0
        for q in rows[:8] + 1e-3:
            before = tree.cache.stats.accesses
            answer, (evals, visited, pruned) = _traced_knn(tree, q, 10)
            reads = tree.cache.stats.accesses - before
            expected, counts, opened = reference_knn(tree, q, 10)
            assert (answer, (evals, visited, pruned)) == (expected, counts)
            assert opened == visited <= reads <= visited + 15
            ahead += reads - visited
        assert ahead > 0  # the bound above is not vacuous: blocks do read ahead

    def test_two_threads_share_one_tree(self, data) -> None:
        tree = PagedMTree(data, euclidean, capacity=6, cache_pages=3)
        queries = data[:40] + 1e-3
        serial = [_traced_knn(tree, q, 7) for q in queries]
        seen: dict[str, list] = {}

        def worker(name: str, order) -> None:
            seen[name] = [(pos, _traced_knn(tree, queries[pos], 7)) for pos in order]

        run_together(
            lambda: worker("up", range(40)),
            lambda: worker("down", reversed(range(40))),
            lambda: worker("odd", range(1, 40, 2)),
        )
        assert sorted(seen) == ["down", "odd", "up"]
        for answers in seen.values():
            for pos, outcome in answers:
                assert outcome == serial[pos]


class TestOneDecoder:
    """``_load`` (the write path's node) is built by the search's decoder."""

    def test_load_agrees_with_the_block_hook_and_is_writable(self, paged) -> None:
        children = paged._load(paged._root_page).children
        index, rows, dist_to_parent, radius, nodes = paged._open_block(children[:3])
        lo = 0
        for page_id, (is_leaf, kids, n) in zip(children, nodes):
            node = paged._load(page_id)
            assert (node.is_leaf, node.children, len(node)) == (is_leaf, kids, n)
            for mine, block in (
                (node.index, index), (node.rows, rows),
                (node.dist_to_parent, dist_to_parent), (node.radius, radius),
            ):
                assert np.array_equal(mine, block[lo : lo + n])
                assert mine.flags.writeable and mine.flags.aligned and mine.base is None
            assert node.index.dtype == np.intp
            lo += n
        assert lo == len(index)

    def test_rewriting_a_loaded_node_reproduces_its_page(self, paged) -> None:
        for page_id in range(paged.node_pages()):
            image = paged._file.read_page(page_id)
            paged._write_node(page_id, paged._load(page_id))
            assert paged._file.read_page(page_id) == image

    def test_corrupt_entry_count_is_refused_everywhere(self, data) -> None:
        tree = PagedMTree(data[:120], euclidean, capacity=4, cache_pages=2)
        root = tree._load(tree._root_page)
        victim = root.children[1]
        page = bytearray(tree._file.read_page(victim))
        page[: _HEADER.size] = _HEADER.pack(1, 99)
        tree._cache.write_page(victim, bytes(page))
        with pytest.raises(PageError, match=f"page {victim} claims 99 entries"):
            tree._load(victim)
        with pytest.raises(PageError, match="corrupt node page"):
            tree.range_search(data[0], 10.0)  # visits every page
        with pytest.raises(PageError, match="corrupt node page"):
            tree.knn_search(data[0], 120)
