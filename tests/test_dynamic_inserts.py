"""Dynamic insert support across all access methods.

The paper's Section 6 claim: the QMap model supports "similarity searching
in dynamically changing databases without any distortion".  These tests
grow every index object by object and assert that queries remain exactly
correct after each batch of inserts, in both models.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.datasets import histogram_workload
from repro.distances import euclidean, euclidean_one_to_many
from repro.mam import GNAT, MTree, PivotTable, SequentialFile, VPTree
from repro.mam.base import DistancePort
from repro.models import MAM_REGISTRY, SAM_REGISTRY, QFDModel, QMapModel
from repro.sam import RTree, VAFile

from .helpers import assert_same_neighbors

METHOD_KWARGS = {
    "sequential": {},
    "disk-sequential": {"cache_pages": 8},
    "pivot-table": {"n_pivots": 8},
    "mtree": {"capacity": 6},
    "paged-mtree": {"capacity": 6, "cache_pages": 4},
    "vptree": {"leaf_size": 4},
    "gnat": {"arity": 4, "leaf_size": 8},
    "mindex": {"n_pivots": 6},
    "sat": {},
    "rtree": {"capacity": 6},
    "xtree": {"capacity": 6, "max_overlap": 0.75},
    "vafile": {"bits": 4},
}


@pytest.fixture(scope="module")
def workload():
    return histogram_workload(260, 4, bins_per_channel=4, seed=37)


@pytest.mark.parametrize("method", sorted(MAM_REGISTRY) + sorted(SAM_REGISTRY))
class TestInsertKeepsQueriesExact:
    def test_grow_then_query(self, method, workload) -> None:
        """Build on 200 objects, insert 60 more, compare against a scan
        built over the full 260."""
        model = QMapModel(workload.matrix)
        index = model.build_index(method, workload.database[:200], **METHOD_KWARGS[method])
        for row in workload.database[200:]:
            index.insert(row)
        reference = model.build_index("sequential", workload.database)
        for q in workload.queries:
            assert_same_neighbors(
                index.knn_search(q, 10),
                reference.knn_search(q, 10),
                tol=1e-7,
                label=f"{method} after inserts",
            )

    def test_insert_returns_sequential_indices(self, method, workload) -> None:
        model = QMapModel(workload.matrix)
        index = model.build_index(method, workload.database[:50], **METHOD_KWARGS[method])
        got = [index.insert(row) for row in workload.database[50:55]]
        assert got == [50, 51, 52, 53, 54]

    def test_inserted_object_is_findable(self, method, workload) -> None:
        model = QMapModel(workload.matrix)
        index = model.build_index(method, workload.database[:50], **METHOD_KWARGS[method])
        new_idx = index.insert(workload.queries[0])
        top = index.knn_search(workload.queries[0], 1)[0]
        assert top.index == new_idx
        assert top.distance == pytest.approx(0.0, abs=1e-9)


class TestInsertDetails:
    def test_qfd_model_insert(self, workload) -> None:
        model = QFDModel(workload.matrix)
        index = model.build_index("mtree", workload.database[:100], capacity=6)
        index.insert(workload.database[100])
        top = index.knn_search(workload.database[100], 1)[0]
        assert top.distance == pytest.approx(0.0, abs=1e-9)

    def test_qmap_insert_counts_transform(self, workload) -> None:
        model = QMapModel(workload.matrix)
        index = model.build_index("sequential", workload.database[:10])
        index.reset_query_costs()
        index.insert(workload.database[10])
        assert index.query_costs().transforms == 1

    def test_mtree_invariants_after_inserts(self, workload) -> None:
        tree = MTree(workload.database[:100], euclidean, capacity=5)
        for row in workload.database[100:160]:
            tree.insert(row)
        tree.validate_invariants()

    def test_mtree_insert_cost_logarithmic(self, workload) -> None:
        from repro.distances import CountingDistance, euclidean_one_to_many

        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        tree = MTree(workload.database[:200], counter, capacity=8)
        counter.reset()
        tree.insert(workload.database[200])
        # One root-to-leaf descent: far below a full scan.
        assert counter.count < 100

    def test_pivot_table_grows(self, workload) -> None:
        pt = PivotTable(workload.database[:50], euclidean, n_pivots=6)
        pt.insert(workload.database[50])
        assert pt.table.shape == (51, 6)
        assert pt.size == 51

    def test_pivot_table_insert_does_not_copy_the_table(self) -> None:
        """An insert writes ``p`` floats into a geometrically grown buffer;
        it used to ``vstack`` the whole ``m x p`` table per object."""
        rng = np.random.default_rng(7)
        data = rng.uniform(0.0, 1.0, size=(4200, 4))
        port = DistancePort(euclidean, one_to_many=euclidean_one_to_many)
        pt = PivotTable(data[:4000], port, n_pivots=128)
        table_bytes = pt.table.nbytes
        allocated = 0
        tracemalloc.start()
        try:
            for row in data[4000:]:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                pt.insert(row)
                allocated += tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # One doubling of the table (plus the small row store's), not 200 copies.
        assert allocated < 3 * table_bytes
        rebuilt = PivotTable(data, port, pivots=pt.pivot_indices)
        assert np.array_equal(pt.table, rebuilt.table)
        query = rng.uniform(0.0, 1.0, size=4)
        assert pt.knn_search(query, 10) == rebuilt.knn_search(query, 10)
        assert pt.range_search(query, 0.2) == rebuilt.range_search(query, 0.2)

    def test_vafile_insert_out_of_grid_range(self, workload) -> None:
        """A vector outside the build-time data range clamps into the
        outer cells and must still be retrievable exactly."""
        va = VAFile(workload.database[:100], bits=3)
        weird = np.full(workload.dim, 0.9)  # way above any histogram mass
        idx = va.insert(weird)
        top = va.knn_search(weird, 1)[0]
        assert top.index == idx and top.distance == pytest.approx(0.0, abs=1e-12)

    def test_disk_sequential_persists_inserts(self, workload) -> None:
        from repro.mam import DiskSequentialFile

        disk = DiskSequentialFile(workload.database[:20], euclidean, cache_pages=2)
        disk.insert(workload.database[20])
        assert len(disk.store) == 21

    def test_vptree_gnat_rtree_grow(self, workload) -> None:
        for cls, kwargs in [
            (VPTree, {"leaf_size": 4}),
            (GNAT, {"arity": 4, "leaf_size": 8}),
        ]:
            index = cls(workload.database[:60], euclidean, **kwargs)
            index.insert(workload.database[60])
            assert index.size == 61
        rt = RTree(workload.database[:60], capacity=6)
        rt.insert(workload.database[60])
        assert rt.size == 61

    def test_dimension_checked(self, workload) -> None:
        from repro.exceptions import DimensionMismatchError

        seq = SequentialFile(workload.database[:5], euclidean)
        with pytest.raises(DimensionMismatchError):
            seq.insert(np.ones(3))


@pytest.mark.parametrize("method", sorted(MAM_REGISTRY) + sorted(SAM_REGISTRY))
class TestInsertAtomicity:
    """Regression: a failing structure hook used to leave the appended
    row behind, so ``size`` grew and scans returned a phantom object the
    index never registered."""

    def test_failed_hook_rolls_back(self, method, workload, monkeypatch) -> None:
        model = QMapModel(workload.matrix)
        index = model.build_index(method, workload.database[:60], **METHOD_KWARGS[method])
        am = index.access_method
        size_before = am.size
        data_before = am.database.copy()
        answer_before = index.knn_search(workload.queries[0], 5)

        def explode(self, idx, vector):
            raise RuntimeError("simulated structure failure")

        monkeypatch.setattr(type(am), "_register_insert", explode)
        with pytest.raises(RuntimeError):
            index.insert(workload.database[60])
        monkeypatch.undo()

        assert am.size == size_before
        np.testing.assert_array_equal(am.database, data_before)
        assert index.knn_search(workload.queries[0], 5) == answer_before
        # The structure is still usable: a clean insert goes through.
        assert index.insert(workload.database[60]) == size_before

    def test_all_registry_methods_support_inserts(self, method, workload) -> None:
        model = QMapModel(workload.matrix)
        index = model.build_index(method, workload.database[:30], **METHOD_KWARGS[method])
        assert index.access_method.supports_inserts


class TestInsertSupportGate:
    def test_hookless_subclass_raises_cleanly(self, workload) -> None:
        """A structure without the insert hook must refuse *before*
        touching the stored database."""
        from repro.exceptions import IndexStateError
        from repro.mam.base import AccessMethod

        class FrozenIndex(AccessMethod):
            def _range_search(self, query, radius):
                return []

            def _knn_search(self, query, k):
                return []

        frozen = FrozenIndex(workload.database[:10], euclidean)
        assert not frozen.supports_inserts
        with pytest.raises(IndexStateError):
            frozen.insert(workload.database[10])
        assert frozen.size == 10


class TestInsertStorage:
    """Rows live in one geometrically grown buffer: an insert does not
    copy the database."""

    def test_inserts_share_one_buffer_instead_of_pinning_copies(self) -> None:
        """Regression: each insert ``vstack``-ed a fresh copy of the whole
        database and the tree kept a view of it, so every inserted object
        pinned one full copy (300 inserts into 2.5 MB held 750 MB)."""
        import tracemalloc

        rng = np.random.default_rng(3)
        data = rng.uniform(0.0, 1.0, size=(4000, 32))  # 1 MB
        caller_copy = data.copy()
        tree = MTree(data, euclidean, capacity=8)
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        rows = rng.uniform(0.0, 1.0, size=(50, 32))
        for row in rows:
            tree.insert(row)
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # One doubled buffer (2 MB) plus node arrays; the leak held 50 MB.
        assert after - before < 3 * data.nbytes
        assert tree.database.base is tree._row_buffer
        assert tree._row_buffer.shape[0] <= 2 * tree.size
        np.testing.assert_array_equal(tree.database[:4000], caller_copy)
        np.testing.assert_array_equal(tree.database[4000:], rows)
        # The array the index was built over is never written.
        np.testing.assert_array_equal(data, caller_copy)
        tree.validate_invariants()

    def test_restored_tree_takes_inserts_and_bulk_helpers(self, workload) -> None:
        """Regression: ``MTree._entry_rows`` was set only in ``__init__`` —
        missing after ``from_state`` and stale after any insert."""
        data = workload.database
        built = MTree(data[:150], euclidean, capacity=6, bulk_load=True)
        tree = MTree.from_state(data[:150], euclidean, built.structural_state())
        for row in data[150:200]:
            tree.insert(row)
        tree.validate_invariants()
        members = np.arange(tree.size, dtype=np.intp)
        owner = tree._cluster_owners(data[:3], members)
        expected = np.argmin(
            np.linalg.norm(data[None, :200] - data[:3, None], axis=2), axis=0
        )
        np.testing.assert_array_equal(owner, expected)
        scan = SequentialFile(data[:200], euclidean)
        for q in workload.queries:
            assert_same_neighbors(tree.knn_search(q, 8), scan.knn_search(q, 8))
            assert_same_neighbors(tree.range_search(q, 0.2), scan.range_search(q, 0.2))


NORM_FREE_CELLS = [
    (model, method, METHOD_KWARGS[method])
    for model in ("qfd", "qmap")
    for method in sorted(MAM_REGISTRY) + (sorted(SAM_REGISTRY) if model == "qmap" else [])
] + [(model, "mtree", {"capacity": 6, "bulk_load": True}) for model in ("qfd", "qmap")]


@pytest.mark.parametrize(
    "model_name, method, kwargs",
    NORM_FREE_CELLS,
    ids=[f"{m}-{meth}{'-bulk' if 'bulk_load' in kw else ''}" for m, meth, kw in NORM_FREE_CELLS],
)
def test_no_evaluation_reads_row_norms(model_name, method, kwargs, workload, monkeypatch, tmp_path) -> None:
    """Every QFD evaluation is the difference form and every L2 query
    context difference-based, so no build, bulk load, insert, split, query
    or restore computes the per-row ``vAv^T`` (``vv^T``) term."""
    from repro.kernels.kernels import L2Kernel, QFDKernel
    from repro.models import load_built_index

    def forbidden(self, rows):
        raise AssertionError(f"{type(self).__name__}.row_norms computed")

    monkeypatch.setattr(QFDKernel, "row_norms", forbidden)
    monkeypatch.setattr(L2Kernel, "row_norms", forbidden)
    model = (QFDModel if model_name == "qfd" else QMapModel)(workload.matrix)
    built = model.build_index(method, workload.database[:200], **kwargs)
    q = workload.queries[0]
    radius = built.knn_search(q, 5)[-1].distance
    for row in workload.database[200:240]:  # capacity-6 trees split along the way
        built.insert(row)
    restored = load_built_index(built.save(tmp_path / "index"))
    for index in (built, restored):
        assert len(index.knn_search(q, 5)) == 5
        assert len(index.range_search(q, radius)) >= 1
