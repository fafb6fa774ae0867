"""Tests for repro.mam.mtree — structure invariants and behaviour."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.datasets import clustered_histograms, histogram_workload
from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.engine.trace import query_trace
from repro.exceptions import QueryError
from repro.mam import MTree, PagedMTree, SequentialFile
from repro.mam.base import BoundQuery, DistancePort
from repro.models import QFDModel, QMapModel

from .helpers import assert_same_neighbors
from .mtree_reference import reference_knn, reference_range


@pytest.fixture(scope="module")
def data():
    return clustered_histograms(400, 4, themes=8, rng=np.random.default_rng(21))


class TestConstruction:
    def test_rejects_capacity_below_two(self, data) -> None:
        with pytest.raises(QueryError):
            MTree(data, euclidean, capacity=1)

    def test_rejects_unknown_split_policy(self, data) -> None:
        with pytest.raises(QueryError):
            MTree(data, euclidean, split_policy="linear")

    def test_single_object_tree(self) -> None:
        tree = MTree(np.ones((1, 4)), euclidean)
        assert tree.height() == 1
        assert tree.knn_search(np.zeros(4), 1)[0].index == 0

    def test_height_grows_logarithmically(self, data) -> None:
        tree = MTree(data, euclidean, capacity=8)
        # 400 objects, capacity 8 -> height around log_4..8(400); sanity bounds.
        assert 2 <= tree.height() <= 8

    def test_invariants_mm_rad(self, data) -> None:
        tree = MTree(data[:200], euclidean, capacity=6, split_policy="mM_RAD")
        tree.validate_invariants()

    def test_invariants_random_split(self, data) -> None:
        tree = MTree(data[:200], euclidean, capacity=6, split_policy="random")
        tree.validate_invariants()

    def test_node_count_positive(self, data) -> None:
        tree = MTree(data[:100], euclidean, capacity=4)
        assert tree.node_count() >= 100 // 4

    def test_capacity_two_works(self, data) -> None:
        tree = MTree(data[:50], euclidean, capacity=2)
        tree.validate_invariants()
        scan = SequentialFile(data[:50], euclidean)
        q = data[60]
        assert_same_neighbors(tree.knn_search(q, 3), scan.knn_search(q, 3))


class TestQueryBehaviour:
    def test_random_split_still_exact(self, data) -> None:
        port = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        tree = MTree(data, port, capacity=8, split_policy="random")
        scan = SequentialFile(data, euclidean)
        for q in data[:3]:
            assert_same_neighbors(tree.knn_search(q, 10), scan.knn_search(q, 10))

    def test_knn_prunes_on_clustered_data(self, data) -> None:
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        tree = MTree(data, counter, capacity=16)
        counter.reset()
        tree.knn_search(data[0], 5)
        # Far fewer evaluations than the 400-object scan.
        assert counter.count < 0.6 * len(data)

    def test_range_with_zero_radius(self, data) -> None:
        tree = MTree(data[:100], euclidean, capacity=8)
        hits = tree.range_search(data[5], 0.0)
        assert any(n.index == 5 for n in hits)
        assert all(n.distance == 0.0 for n in hits)

    def test_range_radius_covering_everything(self, data) -> None:
        tree = MTree(data[:80], euclidean, capacity=8)
        hits = tree.range_search(data[0], 1e6)
        assert len(hits) == 80

    def test_knn_more_than_size(self, data) -> None:
        tree = MTree(data[:10], euclidean, capacity=4)
        assert len(tree.knn_search(data[0], 50)) == 10

    def test_build_cost_scales_m_log_m(self) -> None:
        """Distance evaluations per insert should grow slowly (log-ish),
        not linearly, as the database doubles (Section 4.3.1)."""
        rng = np.random.default_rng(33)
        big = clustered_histograms(1600, 4, themes=8, rng=rng)
        costs = []
        for m in (400, 1600):
            counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
            MTree(big[:m], counter, capacity=16)
            costs.append(counter.count / m)
        # Quadrupling m must not quadruple the per-object cost; allow 2.5x
        # slack for split amortization noise.
        assert costs[1] < costs[0] * 2.5

    def test_deterministic_given_seed(self, data) -> None:
        t1 = MTree(data[:100], euclidean, capacity=8, rng=np.random.default_rng(5))
        t2 = MTree(data[:100], euclidean, capacity=8, rng=np.random.default_rng(5))
        q = data[200]
        assert t1.knn_search(q, 7) == t2.knn_search(q, 7)

    def test_properties(self, data) -> None:
        tree = MTree(data[:50], euclidean, capacity=9, split_policy="random")
        assert tree.capacity == 9
        assert tree.split_policy == "random"


TREES = {
    "mtree": lambda rows, **kw: MTree(rows, euclidean, **kw),
    "paged-mtree": lambda rows, **kw: PagedMTree(rows, euclidean, cache_pages=4, **kw),
}


def check_block_search(tree, scan, q, *, k=None, radius=None, epsilon=0.0, tol=0.0):
    """One query through the block traversal: it answers what the scan
    answers and spends what the node-at-a-time reference spends."""
    with query_trace("", 0.0) as trace:
        got = tree.knn_search(q, k) if radius is None else tree.range_search(q, radius)
    if radius is None:
        expected, counts, _ = reference_knn(tree, q, k, epsilon)
    else:
        expected, counts, _ = reference_range(tree, q, radius)
    assert_same_neighbors(got, expected, tol=tol, label="vs reference")
    assert (trace.distance_evaluations, trace.nodes_visited, trace.nodes_pruned) == counts
    assert trace.batched_evaluations == 0  # charged as the per-entry calls they replace
    if scan is not None:
        truth = scan.knn_search(q, k) if radius is None else scan.range_search(q, radius)
        assert_same_neighbors(got, truth, tol=max(tol, 1e-8), label="vs scan")
    return got, trace


@pytest.mark.parametrize("method", sorted(TREES))
class TestBlockTraversal:
    """Evaluating the frontier in blocks changes no answer and no count."""

    def test_root_is_a_leaf(self, data, method) -> None:
        tree = TREES[method](data[:6], capacity=8)
        scan = SequentialFile(data[:6], euclidean)
        _, trace = check_block_search(tree, scan, data[50], k=3)
        assert (trace.nodes_visited, trace.distance_evaluations) == (1, 6)
        check_block_search(tree, scan, data[50], radius=0.3)

    def test_k_from_one_to_beyond_the_database(self, data, method) -> None:
        tree = TREES[method](data[:90], capacity=5)
        scan = SequentialFile(data[:90], euclidean)
        for k in (1, 10, 90, 500):
            got, _ = check_block_search(tree, scan, data[120], k=k)
            assert len(got) == min(k, 90)

    def test_query_equal_to_a_routing_object(self, data, method) -> None:
        tree = TREES[method](data[:300], capacity=6)
        scan = SequentialFile(data[:300], euclidean)
        routing, *_ = tree._open_block([None])
        assert len(routing) >= 2  # the root routes
        for index in routing.tolist()[:3]:
            got, _ = check_block_search(tree, scan, data[index], k=5)
            assert (got[0].index, got[0].distance) == (index, 0.0)
            check_block_search(tree, scan, data[index], radius=0.0)

    def test_duplicates_tied_at_the_cutoff(self, data, method) -> None:
        rows = data[:200].copy()
        rows[150:156] = rows[10]  # with row 10, seven identical objects
        tree = TREES[method](rows, capacity=4)
        scan = SequentialFile(rows, euclidean)
        q = rows[10] + 1e-3
        for k in (1, 4, 7, 9):
            got, _ = check_block_search(tree, scan, q, k=k)
            # Ties are broken by index, by the tree and by the scan alike.
            assert [n.index for n in got[:7]] == [10, 150, 151, 152, 153, 154, 155][:k]
        # A radius that *is* the tied distance (the tree's: the scan's may
        # differ in the last ulp) keeps the whole group, on the boundary.
        nearest = tree.knn_search(q, 7)
        got, _ = check_block_search(tree, None, q, radius=nearest[0].distance)
        assert got == nearest

    def test_insert_then_query(self, data, method) -> None:
        tree = TREES[method](data[:150], capacity=5)
        for step, row in enumerate(data[150:230]):
            tree.insert(row)
            if step % 16 == 0:
                scan = SequentialFile(data[: 151 + step], euclidean)
                check_block_search(tree, scan, data[300 + step], k=7)
                check_block_search(tree, scan, row, radius=0.25)

    @pytest.mark.parametrize("model_cls", [QFDModel, QMapModel])
    @pytest.mark.parametrize("store", ["heap", "mmap32"])
    def test_models_and_memory_mapped_float32(self, method, model_cls, store) -> None:
        w = histogram_workload(260, 4, bins_per_channel=2, seed=77)
        model = model_cls(w.matrix)
        extra = {"store": "mmap"} if store == "mmap32" else {}
        kwargs = {"capacity": 6, **({"cache_pages": 4} if method == "paged-mtree" else {})}
        built = model.build_index(method, w.database, **kwargs, **extra)
        scan = model.build_index("sequential", w.database, **extra).access_method
        tree = built.access_method
        # The QFD's Gram kernel is a matrix-vector product, whose last ulp
        # may depend on the batch it is part of; L2 is per-row arithmetic.
        tol = 1e-9 if model_cls is QFDModel else 0.0
        for query in w.queries:
            q = built._map_query(query)
            got, _ = check_block_search(tree, scan, q, k=8, tol=tol)
            check_block_search(tree, scan, q, radius=got[-1].distance * (1 + 1e-9), tol=tol)


class TestBlockTraversalInRam:
    def test_epsilon_relaxation_replays_too(self, data) -> None:
        exact = SequentialFile(data, euclidean)
        tree = MTree(data, euclidean, capacity=6, epsilon=0.5)
        for q in data[200:206] + 1e-3:
            got, _ = check_block_search(tree, None, q, k=6, epsilon=0.5)
            truth = exact.knn_search(q, 6)
            assert all(g.distance <= 1.5 * t.distance + 1e-12 for g, t in zip(got, truth))

    def test_kernel_calls_stay_far_below_one_per_node(self, monkeypatch) -> None:
        """10-NN on 2 000 objects: the node-at-a-time scan made one
        one-to-many call per visited node; blocks of up to 16 make a few."""
        rows = clustered_histograms(2000, 16, themes=12, rng=np.random.default_rng(5))
        tree = MTree(rows, euclidean, capacity=16)
        calls: list[int] = []
        compute_many = BoundQuery.compute_many

        def counting(self, rows):
            calls.append(rows.shape[0])
            return compute_many(self, rows)

        monkeypatch.setattr(BoundQuery, "compute_many", counting)
        for q in rows[:5] + 1e-3:
            del calls[:]
            with query_trace("", 0.0) as trace:
                tree.knn_search(q, 10)
            assert trace.nodes_visited >= 12
            assert len(calls) <= 2 + -(-trace.nodes_visited // 4), (calls, trace.nodes_visited)
            assert max(calls) <= 16 * 17  # the out-of-core bound on one gather
            assert sum(calls) >= trace.distance_evaluations  # speculation is physical only


class TestWritePath:
    """One insert/split serves both trees: the vector is bound once, a level
    is one uncharged kernel call, the descent one charge."""

    @pytest.fixture(scope="class")
    def rows(self):
        return clustered_histograms(2100, 16, themes=12, rng=np.random.default_rng(9))

    @pytest.mark.parametrize("cls", [MTree, PagedMTree])
    def test_an_insert_charges_its_descent_once(self, rows, cls, monkeypatch) -> None:
        """The per-level ``port.many`` used to charge (and look the open
        record up) once per level, ``height - 1`` times per insert."""
        tree = cls(rows[:1600], CountingDistance(euclidean, one_to_many=euclidean_one_to_many))

        def height() -> int:
            levels, node = 1, tree._load(None)
            while not node.is_leaf:
                levels, node = levels + 1, tree._load(node.children[0])
            return levels

        assert height() >= 3
        charges: list[tuple[int, int]] = []
        kernel_calls: list[int] = []
        charge, compute_many = DistancePort.charge, BoundQuery.compute_many

        def counting_charge(self, *, calls=0, rows=0, trace=None):
            charges.append((calls, rows))
            return charge(self, calls=calls, rows=rows, trace=trace)

        def counting_compute_many(self, rows):
            kernel_calls.append(rows.shape[0])
            return compute_many(self, rows)

        monkeypatch.setattr(DistancePort, "charge", counting_charge)
        monkeypatch.setattr(BoundQuery, "compute_many", counting_compute_many)
        nodes = tree.node_pages if cls is PagedMTree else tree.node_count
        plain = split = 0
        for row in rows[1600:1900]:
            del charges[:], kernel_calls[:]
            before, levels = nodes(), height()
            tree.insert(row)
            added = nodes() - before
            # The descent: rows only, what its one-to-many calls amount to.
            assert charges[0] == (0, sum(kernel_calls)) and len(kernel_calls) == levels - 1
            if added:
                split += 1  # + per split: the pairwise matrix, two parent distances
                assert 2 <= len(charges) <= 1 + 3 * added
            else:
                plain += 1
                assert len(charges) == 1
        assert plain > 200 and split > 5

    @pytest.mark.parametrize("cls", [MTree, PagedMTree])
    def test_invariants_hold_after_interleaved_inserts(self, rows, cls) -> None:
        tree = cls(rows[:1600], euclidean, capacity=16)
        for step, row in enumerate(rows[1600:]):
            tree.insert(row)
            if step % 50 == 0:
                tree.knn_search(rows[step] + 1e-3, 5)
        assert tree.size == 2100
        tree.validate_invariants()
        scan = SequentialFile(rows, euclidean)
        for q in rows[:4] + 1e-3:
            assert_same_neighbors(tree.knn_search(q, 10), scan.knn_search(q, 10))

    def test_a_copied_tree_keeps_growing_in_place(self, rows) -> None:
        """A node's fields are views of its slots; a pickled or deep-copied
        node must alias its own arrays again, or an enlarged radius is lost
        at the node's next append."""
        tree = MTree(rows[:600], euclidean, capacity=8)
        for row in rows[600:700]:
            tree.insert(row)
        twin = pickle.loads(pickle.dumps(tree))
        clone = copy.deepcopy(tree)
        for each in (twin, clone):
            for node in each._preorder():
                fields = (node.index, node.radius, node.dist_to_parent)
                assert all(np.shares_memory(f, held) for f, held in zip(fields, node._slots))
        for row in rows[700:1000]:
            for each in (tree, twin, clone):
                each.insert(row)
        for each in (twin, clone):
            each.validate_invariants()
            state, want = each.structural_state(), tree.structural_state()
            assert all(np.array_equal(state[key], want[key]) for key in want)


class TestRoutingRows:
    """An in-memory tree's internal nodes keep their routing rows — what the
    insert descent evaluates without a gather — bit for bit ``data[index]``;
    leaves, and every node over a memory-mapped store, keep none."""

    @pytest.fixture(scope="class")
    def rows(self):
        return clustered_histograms(1500, 16, themes=10, rng=np.random.default_rng(17))

    @staticmethod
    def assert_routing_rows(tree: MTree) -> int:
        internal = 0
        for node in tree._preorder():
            if node.is_leaf:
                assert node.rows is None
                continue
            internal += 1
            assert node.rows is not None and node.rows.dtype == np.float64
            assert np.array_equal(node.rows, tree.database[node.index])
            assert np.shares_memory(node.rows, node._slots[3])
        return internal

    def test_every_build_and_restore_keeps_them(self, rows) -> None:
        inserted = MTree(rows[:1000], euclidean, capacity=6)
        bulk = MTree(rows[:1000], euclidean, capacity=6, bulk_load=True)
        restored = MTree.from_state(rows[:1000], euclidean, inserted.structural_state())
        for tree in (inserted, bulk, restored):
            assert self.assert_routing_rows(tree) > 10
            for row in rows[1000:1300]:
                tree.insert(row)
            self.assert_routing_rows(tree)
            twin = pickle.loads(pickle.dumps(tree))
            self.assert_routing_rows(twin)
            for row in rows[1300:]:
                twin.insert(row)
            self.assert_routing_rows(twin)
            twin.validate_invariants()
        # The restored tree grew exactly as the one it was restored from.
        want = inserted.structural_state()
        got = restored.structural_state()
        assert all(np.array_equal(got[key], want[key]) for key in want)

    @pytest.mark.parametrize("bulk_load", [False, True])
    def test_a_memory_mapped_store_keeps_none(self, rows, tmp_path, bulk_load) -> None:
        path = tmp_path / "rows.bin"
        rows.astype(np.float32).tofile(path)
        mapped = np.memmap(path, dtype=np.float32, mode="r", shape=rows.shape)
        tree = MTree(mapped, euclidean, capacity=6, bulk_load=bulk_load)
        restored = MTree.from_state(mapped, euclidean, tree.structural_state())
        for each in (tree, restored):
            assert isinstance(each.database, np.memmap)
            assert each.height() >= 3
            assert all(node.rows is None for node in each._preorder())
        heap = MTree(
            rows.astype(np.float32).astype(np.float64), euclidean, capacity=6,
            bulk_load=bulk_load,
        )
        state, want = tree.structural_state(), heap.structural_state()
        assert all(np.array_equal(state[key], want[key]) for key in want)
