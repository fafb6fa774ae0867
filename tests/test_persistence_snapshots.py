"""Tests for the index snapshot layer: codecs, format, model lifecycle.

Every registered MAM and SAM must round-trip ``save_index``/``load_index``
bit-identically — same kNN and range answers — and the restore must cost
**zero** distance evaluations (verified through ``CountingDistance``).
On top sit the model-level entry points (``BuiltIndex.save``,
``QFDModel.load_index``, ``QMapModel.load_index``, ``load_built_index``)
and the backward-compatible pivot-table shims.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QMap
from repro.core.qfd import QuadraticFormDistance
from repro.distances import CountingDistance
from repro.exceptions import StorageError
from repro.mam.base import DistancePort
from repro.models import (
    MAM_REGISTRY,
    SAM_REGISTRY,
    BuiltIndex,
    IndexCosts,
    QFDModel,
    QMapModel,
    load_built_index,
)
from repro.models.base import instantiate
from repro.persistence import (
    CODEC_REGISTRY,
    FORMAT_VERSION,
    SNAPSHOT_KIND,
    IndexSnapshot,
    codec_for,
    codec_for_class,
    load_index,
    normalize_npz_path,
    read_snapshot,
    registered_methods,
    save_index,
    save_qmap,
    write_snapshot,
)
from repro.sam.rtree import RTree
from repro.sam.xtree import XTree

from .helpers import npy_bytes, rewrite_archive, same_neighbors

#: Small construction arguments so trees actually split at m=40.
METHOD_KWARGS: dict[str, dict[str, int]] = {
    "pivot-table": {"n_pivots": 4},
    "mindex": {"n_pivots": 4},
    "mtree": {"capacity": 4},
    "paged-mtree": {"capacity": 4, "cache_pages": 8},
    "vptree": {"leaf_size": 4},
    "gnat": {"arity": 3, "leaf_size": 4},
    "rtree": {"capacity": 4},
    "xtree": {"capacity": 4},
    "vafile": {"bits": 3},
    "disk-sequential": {"page_size": 512},
}

ALL_METHODS = sorted(MAM_REGISTRY) + sorted(SAM_REGISTRY)


@pytest.fixture(scope="module")
def matrix() -> np.ndarray:
    dim = 6
    idx = np.arange(dim)
    a = np.exp(-0.4 * np.abs(np.subtract.outer(idx, idx)))
    return (a + a.T) / 2


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    return np.random.default_rng(42).random((40, 6))


@pytest.fixture(scope="module")
def queries() -> np.ndarray:
    return np.random.default_rng(43).random((4, 6))


def _counter(matrix: np.ndarray) -> CountingDistance:
    qfd = QuadraticFormDistance(matrix)
    return CountingDistance(qfd, one_to_many=qfd.one_to_many)


def _build(method: str, data: np.ndarray, counter: CountingDistance):
    return instantiate(method, data, counter, dict(METHOD_KWARGS.get(method, {})))


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_bit_identical_and_zero_evals(
        self, method, matrix, data, queries, tmp_path
    ) -> None:
        counter = _counter(matrix)
        index = _build(method, data, counter)
        path = save_index(index, tmp_path / f"{method}.npz")

        fresh = _counter(matrix)
        distance = DistancePort(fresh) if method in SAM_REGISTRY else fresh
        restored = load_index(path, distance)
        assert fresh.count == 0, f"{method}: restore paid {fresh.count} evaluations"

        for q in queries:
            got = restored.knn_search(q, 5)
            want = index.knn_search(q, 5)
            assert [(n.index, n.distance) for n in got] == [
                (n.index, n.distance) for n in want
            ], method
            got_r = restored.range_search(q, 0.4)
            want_r = index.range_search(q, 0.4)
            assert [(n.index, n.distance) for n in got_r] == [
                (n.index, n.distance) for n in want_r
            ], method

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_matches_fresh_rebuild(self, method, matrix, data, queries, tmp_path) -> None:
        # Restoring must answer exactly like rebuilding from scratch with
        # the same (deterministic) construction parameters.
        counter = _counter(matrix)
        index = _build(method, data, counter)
        path = save_index(index, tmp_path / method)

        rebuilt = _build(method, data, _counter(matrix))
        fresh = _counter(matrix)
        restored = load_index(
            path, DistancePort(fresh) if method in SAM_REGISTRY else fresh
        )
        for q in queries:
            assert same_neighbors(
                restored.knn_search(q, 5), rebuilt.knn_search(q, 5)
            ), method

    def test_dynamic_insert_after_restore(self, matrix, data, tmp_path) -> None:
        counter = _counter(matrix)
        tree = _build("mtree", data, counter)
        path = save_index(tree, tmp_path / "grow")
        restored = load_index(path, _counter(matrix))
        new = np.random.default_rng(9).random(6)
        idx_a = tree.insert(new)
        idx_b = restored.insert(new)
        assert idx_a == idx_b == data.shape[0]
        q = np.random.default_rng(10).random(6)
        assert same_neighbors(restored.knn_search(q, 5), tree.knn_search(q, 5))


class TestSuffixNormalization:
    def test_normalize_adds_suffix_once(self, tmp_path) -> None:
        bare = tmp_path / "snap"
        assert normalize_npz_path(bare) == str(bare) + ".npz"
        assert normalize_npz_path(str(bare) + ".npz") == str(bare) + ".npz"

    def test_save_and_load_without_suffix(self, matrix, data, tmp_path) -> None:
        # Regression: np.savez appends ".npz" on write but np.load does
        # not on read, so suffix-less paths used to save fine and then
        # fail to load.  Both spellings must now address the same file.
        index = _build("pivot-table", data, _counter(matrix))
        returned = save_index(index, tmp_path / "noext")
        assert returned.endswith(".npz")
        assert (tmp_path / "noext.npz").exists()
        for spelling in (tmp_path / "noext", tmp_path / "noext.npz"):
            restored = load_index(spelling, _counter(matrix))
            assert restored.size == index.size

    def test_artifact_helpers_normalize_too(self, matrix, tmp_path) -> None:
        from repro.persistence import load_qmap

        save_qmap(QMap(matrix), tmp_path / "map")
        loaded = load_qmap(tmp_path / "map")
        assert np.allclose(loaded.qfd.matrix, matrix)


class TestFormatIntegrity:
    def test_wrong_kind_rejected(self, matrix, tmp_path) -> None:
        save_qmap(QMap(matrix), tmp_path / "map")
        with pytest.raises(StorageError, match="holds a 'qmap' artifact"):
            read_snapshot(tmp_path / "map")

    def test_future_version_rejected(self, matrix, data, tmp_path) -> None:
        index = _build("sequential", data, _counter(matrix))
        snapshot = IndexSnapshot(
            method="sequential",
            method_version=1,
            database=data,
            state=index.structural_state(),
        )
        path = write_snapshot(snapshot, tmp_path / "v1")
        rewrite_archive(
            path,
            lambda members: members.update(
                {"format_version.npy": npy_bytes(np.int64(FORMAT_VERSION + 1))}
            ),
        )
        with pytest.raises(StorageError, match="snapshot format version"):
            read_snapshot(path)

    def test_unknown_top_level_key_rejected(self, matrix, data, tmp_path) -> None:
        index = _build("sequential", data, _counter(matrix))
        path = save_index(index, tmp_path / "extra")
        rewrite_archive(
            path, lambda members: members.update({"rogue.npy": npy_bytes(np.int64(1))})
        )
        with pytest.raises(StorageError, match="rogue"):
            read_snapshot(path)

    def test_missing_state_key_rejected(self, matrix, data, tmp_path) -> None:
        index = _build("pivot-table", data, _counter(matrix))
        snapshot = read_snapshot(save_index(index, tmp_path / "trim"))
        snapshot.state.pop("table")
        with pytest.raises(StorageError, match="missing 'table'"):
            load_index(snapshot, _counter(matrix))

    def test_leftover_state_key_rejected(self, matrix, data, tmp_path) -> None:
        index = _build("sequential", data, _counter(matrix))
        snapshot = read_snapshot(save_index(index, tmp_path / "left"))
        snapshot.state["surplus"] = np.int64(7)
        with pytest.raises(StorageError, match="unexpected snapshot state keys"):
            load_index(snapshot, _counter(matrix))

    def test_object_arrays_rejected_at_write(self, data) -> None:
        snapshot = IndexSnapshot(
            method="sequential",
            method_version=1,
            database=data,
            state={"bad": np.array([object()])},
        )
        with pytest.raises(StorageError, match="object"):
            write_snapshot(snapshot, "/tmp/never-written")

    def test_verify_probe_catches_wrong_distance(self, matrix, data, tmp_path) -> None:
        index = _build("pivot-table", data, _counter(matrix))
        path = save_index(index, tmp_path / "probe")
        wrong = _counter(np.eye(6) * 9.0)
        with pytest.raises(StorageError, match="disagrees"):
            load_index(path, wrong)
        # verify=False skips the probe (caller takes responsibility).
        restored = load_index(path, wrong, verify=False)
        assert restored.size == data.shape[0]

    def test_mam_restore_requires_distance(self, matrix, data, tmp_path) -> None:
        index = _build("mtree", data, _counter(matrix))
        path = save_index(index, tmp_path / "nodist")
        with pytest.raises(StorageError, match="needs the distance"):
            load_index(path)

    def test_sam_restore_needs_no_distance(self, data, tmp_path) -> None:
        # A SAM built with its default (Euclidean) refinement port restores
        # without a supplied distance: the stored Minkowski order rebuilds
        # the same port.
        from repro.sam.vafile import VAFile

        index = VAFile(data, bits=3)
        path = save_index(index, tmp_path / "sam")
        restored = load_index(path)
        q = data[0]
        assert same_neighbors(restored.knn_search(q, 3), index.knn_search(q, 3))


class TestCodecRegistry:
    def test_every_registry_method_has_a_codec(self) -> None:
        assert set(registered_methods()) == set(MAM_REGISTRY) | set(SAM_REGISTRY)

    def test_unknown_method_rejected(self) -> None:
        with pytest.raises(StorageError, match="no snapshot codec"):
            codec_for("btree")

    def test_codec_for_class_is_exact(self) -> None:
        # XTree subclasses RTree; class lookup must not confuse them.
        assert codec_for_class(XTree).method == "xtree"
        assert codec_for_class(RTree).method == "rtree"

    def test_sam_flag(self) -> None:
        assert codec_for("rtree").is_sam
        assert not codec_for("mtree").is_sam

    def test_registry_is_consistent(self) -> None:
        for method, codec in CODEC_REGISTRY.items():
            assert codec.method == method
            assert codec.version >= 1


class TestModelLifecycle:
    def test_qfd_model_round_trip(self, matrix, data, queries, tmp_path) -> None:
        model = QFDModel(matrix)
        built = model.build_index("mtree", data, capacity=4)
        path = built.save(tmp_path / "qfd_mtree")
        loaded = model.load_index(path)
        assert loaded.build_costs.distance_computations == 0
        assert loaded.method_name == "mtree"
        for q in queries:
            assert same_neighbors(loaded.knn_search(q, 5), built.knn_search(q, 5))

    def test_qmap_model_round_trip_with_sam(self, matrix, data, queries, tmp_path) -> None:
        model = QMapModel(matrix)
        built = model.build_index("rtree", data, capacity=4)
        path = built.save(tmp_path / "qmap_rtree")
        loaded = model.load_index(path)
        assert loaded.build_costs.distance_computations == 0
        assert loaded.build_costs.transforms == 0
        for q in queries:
            assert same_neighbors(loaded.knn_search(q, 5), built.knn_search(q, 5))

    def test_load_built_index_dispatches_on_model(
        self, matrix, data, queries, tmp_path
    ) -> None:
        for model in (QFDModel(matrix), QMapModel(matrix)):
            built = model.build_index("pivot-table", data, n_pivots=4)
            path = built.save(tmp_path / f"auto_{model.name}")
            loaded = load_built_index(path)
            assert loaded.model_name == model.name
            assert loaded.build_costs.distance_computations == 0
            for q in queries:
                assert same_neighbors(loaded.knn_search(q, 3), built.knn_search(q, 3))

    def test_model_marker_mismatch(self, matrix, data, tmp_path) -> None:
        path = QFDModel(matrix).build_index("sequential", data).save(tmp_path / "m")
        with pytest.raises(StorageError, match="saved by the 'qfd' model"):
            QMapModel(matrix).load_index(path)

    def test_matrix_mismatch(self, matrix, data, tmp_path) -> None:
        path = QFDModel(matrix).build_index("sequential", data).save(tmp_path / "x")
        with pytest.raises(StorageError, match="matrix disagrees"):
            QFDModel(np.eye(6)).load_index(path)

    def test_plain_snapshot_has_no_model(self, matrix, data, tmp_path) -> None:
        index = _build("sequential", data, _counter(matrix))
        path = save_index(index, tmp_path / "bare")
        with pytest.raises(StorageError, match="no QFD matrix"):
            load_built_index(path)

    def test_hand_wired_index_refuses_save(self, matrix, data, tmp_path) -> None:
        counter = _counter(matrix)
        built = BuiltIndex(
            _build("sequential", data, counter),
            counter,
            model_name="qfd",
            build_costs=IndexCosts(0, 0),
        )
        with pytest.raises(StorageError, match="not built through a model pipeline"):
            built.save(tmp_path / "nope")

    def test_save_records_build_costs(self, matrix, data, tmp_path) -> None:
        built = QFDModel(matrix).build_index("pivot-table", data, n_pivots=4)
        path = built.save(tmp_path / "costs")
        snapshot = read_snapshot(path)
        assert int(snapshot.meta["build_distance_computations"]) == (
            built.build_costs.distance_computations
        )
        assert str(snapshot.meta["model"]) == "qfd"


class TestSnapshotKindConstant:
    def test_markers(self, matrix, data, tmp_path) -> None:
        index = _build("sequential", data, _counter(matrix))
        path = save_index(index, tmp_path / "markers")
        with np.load(path) as archive:
            assert str(archive["kind"]) == SNAPSHOT_KIND
            assert int(archive["format_version"]) == FORMAT_VERSION
            assert str(archive["method"]) == "sequential"
