"""Tests for repro.persistence — npz round-trips and corruption detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QMap
from repro.datasets import histogram_workload
from repro.distances import euclidean
from repro.exceptions import StorageError
from repro.mam import PivotTable, SequentialFile
from repro.persistence import (
    load_index,
    load_qmap,
    load_transformed_database,
    load_workload,
    save_index,
    save_qmap,
    save_transformed_database,
    save_workload,
)

from .helpers import assert_same_neighbors


class TestQMapRoundtrip:
    def test_roundtrip(self, spd_16, tmp_path) -> None:
        qmap = QMap(spd_16)
        path = tmp_path / "qmap.npz"
        save_qmap(qmap, path)
        loaded = load_qmap(path)
        assert np.allclose(loaded.qfd.matrix, qmap.qfd.matrix)
        assert np.allclose(loaded.matrix, qmap.matrix)

    def test_corrupted_factor_detected(self, spd_16, tmp_path) -> None:
        qmap = QMap(spd_16)
        path = tmp_path / "qmap.npz"
        bad = qmap.matrix.copy()
        bad[0, 0] += 0.5
        np.savez_compressed(path, kind="qmap", matrix=qmap.qfd.matrix, cholesky=bad)
        with pytest.raises(StorageError, match="does not match"):
            load_qmap(path)

    def test_wrong_kind_detected(self, spd_16, tmp_path) -> None:
        path = tmp_path / "other.npz"
        np.savez_compressed(path, kind="workload", matrix=spd_16)
        with pytest.raises(StorageError, match="expected 'qmap'"):
            load_qmap(path)


class TestWorkloadRoundtrip:
    def test_roundtrip(self, tmp_path) -> None:
        workload = histogram_workload(30, 3, bins_per_channel=2, seed=3)
        path = tmp_path / "workload.npz"
        save_workload(workload, path)
        loaded = load_workload(path)
        assert np.array_equal(loaded.database, workload.database)
        assert np.array_equal(loaded.queries, workload.queries)
        assert np.array_equal(loaded.matrix, workload.matrix)
        assert loaded.name == workload.name
        assert loaded.matrix_repair.shift == workload.matrix_repair.shift


class TestTransformedDatabaseRoundtrip:
    def test_roundtrip(self, spd_16, rng, tmp_path) -> None:
        qmap = QMap(spd_16)
        database = rng.random((40, 16))
        path = tmp_path / "db.npz"
        save_transformed_database(qmap, database, path)
        loaded_qmap, loaded_db, loaded_mapped = load_transformed_database(path)
        assert np.allclose(loaded_db, database)
        assert np.allclose(loaded_mapped, qmap.transform_batch(database))
        assert np.allclose(loaded_qmap.matrix, qmap.matrix)

    def test_tampered_mapping_detected(self, spd_16, rng, tmp_path) -> None:
        qmap = QMap(spd_16)
        database = rng.random((10, 16))
        mapped = qmap.transform_batch(database)
        mapped[3] += 0.01
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            kind="transformed-database",
            matrix=spd_16,
            database=database,
            mapped=mapped,
        )
        with pytest.raises(StorageError, match="disagrees"):
            load_transformed_database(path, verify_rows=10)

    def test_shape_mismatch_detected(self, spd_16, rng, tmp_path) -> None:
        path = tmp_path / "bad2.npz"
        np.savez_compressed(
            path,
            kind="transformed-database",
            matrix=spd_16,
            database=rng.random((5, 16)),
            mapped=rng.random((4, 16)),
        )
        with pytest.raises(StorageError, match="shape mismatch"):
            load_transformed_database(path)


class TestPivotTableRoundtrip:
    """Pivot-table behaviours the all-method snapshot matrix of
    ``test_persistence_snapshots.py`` does not cover (it pins the
    zero-evaluation restore and the wrong-metric probe)."""

    def test_restore_validates_shapes(self, histograms_64) -> None:
        from repro.exceptions import QueryError

        data = histograms_64[:20]

        def restore(pivot_indices, table):
            state = {
                "pivot_indices": np.asarray(pivot_indices, dtype=np.int64),
                "table": np.asarray(table, dtype=np.float64),
            }
            return PivotTable.from_state(data, euclidean, state)

        with pytest.raises(QueryError):
            restore([0, 1], np.zeros((20, 3)))
        with pytest.raises(QueryError):
            restore([], np.zeros((20, 0)))
        with pytest.raises(QueryError):
            restore([99], np.zeros((20, 1)))

    def test_loaded_table_supports_inserts(self, histograms_64, tmp_path) -> None:
        data = histograms_64[:100]
        original = PivotTable(data, euclidean, n_pivots=6)
        loaded = load_index(save_index(original, tmp_path / "pt3.npz"), euclidean)
        loaded.insert(histograms_64[100])
        assert loaded.size == 101
        top = loaded.knn_search(histograms_64[100], 1)[0]
        assert top.index == 100

    def test_roundtrip_matches_scan(self, histograms_64, tmp_path) -> None:
        data = histograms_64[:120]
        scan = SequentialFile(data, euclidean)
        original = PivotTable(data, euclidean, n_pivots=10)
        loaded = load_index(save_index(original, tmp_path / "pt4.npz"), euclidean)
        for q in histograms_64[200:203]:
            assert_same_neighbors(loaded.knn_search(q, 7), scan.knn_search(q, 7))
