"""Property-based tests (hypothesis) for the access methods.

Random databases, random queries, random parameters — every index must
always agree with the sequential scan (DESIGN.md invariant 4), and the two
models must always agree with each other (invariant 5).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import random_spd_matrix
from repro.distances import euclidean
from repro.mam import GNAT, MIndex, MTree, PagedMTree, PivotTable, SATree, SequentialFile, VPTree
from repro.models import QFDModel, QMapModel
from repro.sam import RTree, VAFile, XTree

from .helpers import same_neighbors


def _database(seed: int, m: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # A mix of clustered mass and a few outliers stresses the split logic.
    centers = rng.uniform(-1.0, 1.0, size=(3, dim))
    labels = rng.integers(0, 3, size=m)
    data = centers[labels] + rng.normal(0.0, 0.2, size=(m, dim))
    data[:: max(m // 5, 1)] += rng.uniform(-3.0, 3.0, size=dim)
    return data


class TestIndexesAgreeWithScan:
    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(5, 120),
        dim=st.integers(1, 6),
        k=st.integers(1, 10),
        capacity=st.integers(2, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_mtree_knn(self, seed, m, dim, k, capacity) -> None:
        data = _database(seed, m, dim)
        rng = np.random.default_rng(seed + 1)
        q = rng.uniform(-2.0, 2.0, size=dim)
        scan = SequentialFile(data, euclidean)
        tree = MTree(data, euclidean, capacity=capacity, rng=rng)
        assert same_neighbors(tree.knn_search(q, k), scan.knn_search(q, k))

    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(5, 120),
        dim=st.integers(1, 6),
        p=st.integers(1, 12),
        radius=st.floats(0.0, 3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_pivot_table_range(self, seed, m, dim, p, radius) -> None:
        data = _database(seed, m, dim)
        rng = np.random.default_rng(seed + 1)
        q = rng.uniform(-2.0, 2.0, size=dim)
        scan = SequentialFile(data, euclidean)
        pt = PivotTable(data, euclidean, n_pivots=min(p, m), rng=rng)
        assert same_neighbors(pt.range_search(q, radius), scan.range_search(q, radius))

    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(5, 120),
        dim=st.integers(1, 6),
        k=st.integers(1, 8),
        leaf=st.integers(1, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_vptree_knn(self, seed, m, dim, k, leaf) -> None:
        data = _database(seed, m, dim)
        rng = np.random.default_rng(seed + 1)
        q = rng.uniform(-2.0, 2.0, size=dim)
        scan = SequentialFile(data, euclidean)
        tree = VPTree(data, euclidean, leaf_size=leaf, rng=rng)
        assert same_neighbors(tree.knn_search(q, k), scan.knn_search(q, k))

    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(5, 120),
        dim=st.integers(1, 6),
        k=st.integers(1, 8),
        arity=st.integers(2, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_gnat_knn(self, seed, m, dim, k, arity) -> None:
        data = _database(seed, m, dim)
        rng = np.random.default_rng(seed + 1)
        q = rng.uniform(-2.0, 2.0, size=dim)
        scan = SequentialFile(data, euclidean)
        tree = GNAT(data, euclidean, arity=arity, leaf_size=arity + 2, rng=rng)
        assert same_neighbors(tree.knn_search(q, k), scan.knn_search(q, k))

    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(5, 120),
        dim=st.integers(1, 6),
        k=st.integers(1, 8),
        capacity=st.integers(2, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_rtree_knn(self, seed, m, dim, k, capacity) -> None:
        data = _database(seed, m, dim)
        q = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, size=dim)
        scan = SequentialFile(data, euclidean)
        tree = RTree(data, capacity=capacity)
        assert same_neighbors(tree.knn_search(q, k), scan.knn_search(q, k), tol=1e-7)

    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(5, 120),
        dim=st.integers(1, 6),
        k=st.integers(1, 8),
        bits=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_vafile_knn(self, seed, m, dim, k, bits) -> None:
        data = _database(seed, m, dim)
        q = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, size=dim)
        scan = SequentialFile(data, euclidean)
        va = VAFile(data, bits=bits)
        assert same_neighbors(va.knn_search(q, k), scan.knn_search(q, k), tol=1e-7)

    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(5, 100),
        dim=st.integers(1, 6),
        k=st.integers(1, 8),
        p=st.integers(1, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_mindex_knn(self, seed, m, dim, k, p) -> None:
        data = _database(seed, m, dim)
        rng = np.random.default_rng(seed + 1)
        q = rng.uniform(-2.0, 2.0, size=dim)
        scan = SequentialFile(data, euclidean)
        index = MIndex(data, euclidean, n_pivots=min(p, m), rng=rng)
        assert same_neighbors(index.knn_search(q, k), scan.knn_search(q, k))

    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(5, 100),
        dim=st.integers(1, 6),
        k=st.integers(1, 8),
    )
    @example(seed=502, m=90, dim=4, k=1)  # its nearest object's closest neighbor is promoted late
    @settings(max_examples=25, deadline=None)
    def test_sat_knn(self, seed, m, dim, k) -> None:
        data = _database(seed, m, dim)
        rng = np.random.default_rng(seed + 1)
        q = rng.uniform(-2.0, 2.0, size=dim)
        scan = SequentialFile(data, euclidean)
        tree = SATree(data, euclidean, rng=rng)
        assert same_neighbors(tree.knn_search(q, k), scan.knn_search(q, k))

    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(5, 80),
        dim=st.integers(1, 6),
        k=st.integers(1, 8),
        capacity=st.integers(2, 8),
    )
    @settings(max_examples=20, deadline=None)
    def test_paged_mtree_knn(self, seed, m, dim, k, capacity) -> None:
        data = _database(seed, m, dim)
        rng = np.random.default_rng(seed + 1)
        q = rng.uniform(-2.0, 2.0, size=dim)
        scan = SequentialFile(data, euclidean)
        tree = PagedMTree(data, euclidean, capacity=capacity, cache_pages=2, rng=rng)
        try:
            assert same_neighbors(tree.knn_search(q, k), scan.knn_search(q, k))
        finally:
            tree.close()

    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(5, 100),
        dim=st.integers(1, 6),
        k=st.integers(1, 8),
        capacity=st.integers(2, 10),
        max_overlap=st.floats(0.0, 1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_xtree_knn(self, seed, m, dim, k, capacity, max_overlap) -> None:
        data = _database(seed, m, dim)
        q = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, size=dim)
        scan = SequentialFile(data, euclidean)
        tree = XTree(data, capacity=capacity, max_overlap=max_overlap)
        assert same_neighbors(tree.knn_search(q, k), scan.knn_search(q, k), tol=1e-7)

    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(6, 60),
        dim=st.integers(1, 5),
        n_inserts=st.integers(1, 15),
        k=st.integers(1, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_inserts_preserve_exactness(self, seed, m, dim, n_inserts, k) -> None:
        """Random structure + random inserts must stay scan-exact."""
        data = _database(seed, m + n_inserts, dim)
        rng = np.random.default_rng(seed + 1)
        q = rng.uniform(-2.0, 2.0, size=dim)
        scan = SequentialFile(data, euclidean)
        tree = MTree(data[:m], euclidean, capacity=4, rng=rng)
        for row in data[m:]:
            tree.insert(row)
        assert same_neighbors(tree.knn_search(q, k), scan.knn_search(q, k))


class TestModelsAgree:
    @given(
        seed=st.integers(0, 1_000),
        m=st.integers(5, 60),
        dim=st.integers(2, 6),
        k=st.integers(1, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_qfd_vs_qmap_mtree(self, seed, m, dim, k) -> None:
        data = _database(seed, m, dim)
        matrix = random_spd_matrix(dim, rng=np.random.default_rng(seed), condition=20.0)
        q = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, size=dim)
        i1 = QFDModel(matrix).build_index(
            "mtree", data, capacity=4, rng=np.random.default_rng(9)
        )
        i2 = QMapModel(matrix).build_index(
            "mtree", data, capacity=4, rng=np.random.default_rng(9)
        )
        assert same_neighbors(i1.knn_search(q, k), i2.knn_search(q, k), tol=1e-6)
