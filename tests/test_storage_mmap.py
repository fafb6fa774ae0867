"""Memory-mapped vector store: record-API parity, views, lifecycle.

The mmap store is the out-of-core record backend (the paper's
1M x 512-d testbed).  Its record API must behave exactly like the heap
:class:`~repro.storage.vector_store.VectorStore` so call sites work
unchanged, while its zero-copy row views feed the kernels tile by tile.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, PageError, QueryError, StorageError
from repro.storage import MmapVectorStore


def test_append_get_roundtrip_float32_rounds_once() -> None:
    store = MmapVectorStore(3)
    try:
        v = np.array([0.1, 0.2, 0.3])
        idx = store.append(v)
        assert idx == 0
        got = store.get(0)
        assert got.dtype == np.float64
        # One rounding through the record dtype, like the heap store.
        assert np.array_equal(got, v.astype(np.float32).astype(np.float64))
    finally:
        store.close()


def test_float64_store_is_exact() -> None:
    with MmapVectorStore(4, dtype="float64") as store:
        rng = np.random.default_rng(0)
        data = rng.normal(size=(17, 4))
        store.extend(data)
        assert len(store) == 17
        assert np.array_equal(np.asarray(store.rows), data)


def test_append_block_returns_first_index_and_grows() -> None:
    with MmapVectorStore(2, capacity=4) as store:
        first = store.append_block(np.ones((3, 2)))
        assert first == 0
        # Growth past the pre-sized capacity doubles the mapping.
        second = store.append_block(np.zeros((10, 2)))
        assert second == 3
        assert len(store) == 13
        assert store.capacity >= 13


def test_rows_view_is_zero_copy_and_read_only() -> None:
    with MmapVectorStore(5, capacity=8) as store:
        store.extend(np.arange(40, dtype=np.float64).reshape(8, 5))
        rows = store.rows
        assert rows.dtype == np.float32
        assert rows.base is not None  # a view, not a copy
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        sub = store.row_range(2, 5)
        assert sub.shape == (3, 5)
        assert np.array_equal(np.asarray(sub), np.asarray(rows[2:5]))


def test_iter_blocks_covers_store_in_order() -> None:
    with MmapVectorStore(3, capacity=10) as store:
        data = np.random.default_rng(1).normal(size=(10, 3))
        store.extend(data)
        seen = []
        for start, view in store.iter_blocks(4):
            assert view.shape[0] <= 4
            seen.append((start, np.asarray(view, dtype=np.float64)))
        assert [s for s, _ in seen] == [0, 4, 8]
        stitched = np.vstack([v for _, v in seen])
        assert np.array_equal(stitched, data.astype(np.float32).astype(np.float64))


def test_scan_matches_heap_store_semantics() -> None:
    with MmapVectorStore(2, dtype="float64") as store:
        data = np.random.default_rng(2).normal(size=(5, 2))
        store.extend(data)
        indices = [i for i, _ in store.scan()]
        scanned = np.vstack([row for _, row in store.scan()])
        assert indices == list(range(5))
        assert scanned.dtype == np.float64
        assert np.array_equal(scanned, data)


def test_from_array_spills_and_matches() -> None:
    data = np.random.default_rng(3).normal(size=(23, 6))
    store = MmapVectorStore.from_array(data, block_rows=7)
    try:
        assert len(store) == 23
        assert np.array_equal(
            np.asarray(store.rows),
            data.astype(np.float32),
        )
    finally:
        store.close()


def test_persistent_path_survives_close_and_reopens(tmp_path) -> None:
    path = tmp_path / "vectors.bin"
    data = np.random.default_rng(4).normal(size=(9, 4)).astype(np.float32)
    store = MmapVectorStore(4, path=path, capacity=9)
    store.extend(data)
    store.flush()
    store.close()
    assert path.exists()
    reopened = np.memmap(path, dtype=np.float32, mode="r", shape=(9, 4))
    assert np.array_equal(np.asarray(reopened), data)


def test_temporary_file_removed_on_close() -> None:
    store = MmapVectorStore(2)
    path = store.path
    store.append(np.zeros(2))
    store.close()
    assert not os.path.exists(path)
    with pytest.raises(StorageError):
        store.append(np.zeros(2))


def test_validation_errors() -> None:
    with pytest.raises(StorageError):
        MmapVectorStore(0)
    with pytest.raises(StorageError):
        MmapVectorStore(2, dtype="int32")
    with pytest.raises(StorageError):
        MmapVectorStore(2, capacity=-1)
    with MmapVectorStore(3) as store:
        with pytest.raises(DimensionMismatchError):
            store.append(np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            store.append_block(np.zeros((2, 4)))
        store.append(np.zeros(3))
        with pytest.raises(PageError):
            store.get(1)
        with pytest.raises(PageError):
            store.row_range(0, 2)


def test_drop_pages_returns_clean_pages() -> None:
    with MmapVectorStore(8, capacity=64) as store:
        store.extend(np.ones((64, 8)))
        # Linux has MADV_DONTNEED; the call must not corrupt the data.
        dropped = store.drop_pages()
        assert dropped in (True, False)
        assert np.array_equal(np.asarray(store.rows), np.ones((64, 8), dtype=np.float32))


class TestStreamingGenerator:
    def test_stream_writes_expected_shape_and_unit_sums(self) -> None:
        from repro.datasets import stream_clustered_histograms

        store = stream_clustered_histograms(
            200, 2, rng=np.random.default_rng(5), block_rows=64
        )
        try:
            rows = np.asarray(store.rows, dtype=np.float64)
            assert rows.shape == (200, 8)
            assert np.all(rows >= 0.0)
            # Unit row sums up to the float32 record rounding.
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-5)
        finally:
            store.close()

    def test_stream_is_deterministic_for_a_seed(self) -> None:
        from repro.datasets import stream_clustered_histograms

        a = stream_clustered_histograms(50, 2, rng=np.random.default_rng(7))
        b = stream_clustered_histograms(50, 2, rng=np.random.default_rng(7))
        try:
            assert np.array_equal(np.asarray(a.rows), np.asarray(b.rows))
        finally:
            a.close()
            b.close()

    def test_stream_appends_to_existing_store_and_checks_dim(self) -> None:
        from repro.datasets import stream_clustered_histograms

        with MmapVectorStore(8) as store:
            stream_clustered_histograms(
                30, 2, rng=np.random.default_rng(8), store=store
            )
            assert len(store) == 30
            with pytest.raises(QueryError):
                stream_clustered_histograms(10, 3, store=store)

    def test_stream_validates_arguments(self) -> None:
        from repro.datasets import stream_clustered_histograms

        with pytest.raises(QueryError):
            stream_clustered_histograms(0, 2)
        with pytest.raises(QueryError):
            stream_clustered_histograms(5, 2, block_rows=0)


class TestCacheClearResetStats:
    def test_clear_keeps_stats_by_default_and_resets_on_request(self) -> None:
        from repro.storage import VectorStore

        store = VectorStore(4, page_size=256, cache_pages=2)
        for row in np.random.default_rng(9).normal(size=(32, 4)):
            store.append(row)
        for i in range(32):
            store.get(i)
        cache = store.cache
        assert cache.stats.accesses > 0
        cache.clear()
        assert cache.stats.accesses > 0  # historical behaviour preserved
        cache.clear(reset_stats=True)
        assert cache.stats.accesses == 0
        assert cache.stats.faults == 0

    def test_reset_store_cache_helper(self) -> None:
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
        try:
            from _common import reset_store_cache
        finally:
            sys.path.pop(0)

        from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
        from repro.mam import DiskSequentialFile

        data = np.random.default_rng(10).normal(size=(64, 4))
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        index = DiskSequentialFile(data, counter, page_size=256, cache_pages=2)
        index.knn_search(data[0], 1)
        assert index.store.cache.stats.total_accesses > 0
        reset_store_cache(index)
        assert index.store.cache.stats.total_accesses == 0
        # Indexes without a paged store are a no-op, not an error.
        reset_store_cache(object())


class TestMemoryObservability:
    def test_peak_rss_measured_on_this_platform(self) -> None:
        from repro.obs import peak_rss_bytes, peak_rss_source

        assert peak_rss_bytes() > 0
        assert peak_rss_source() in ("getrusage", "tracemalloc", "unavailable")

    def test_record_memory_sets_gauges(self) -> None:
        from repro.obs import PEAK_RSS, MetricsRegistry, record_memory, snapshot_dict

        registry = MetricsRegistry()
        record_memory(registry=registry, model="qfd", method="mtree")
        names = {m["name"] for m in snapshot_dict(registry)["metrics"]}
        assert names == {PEAK_RSS}

    def test_metrics_block_always_carries_memory(self) -> None:
        from repro.bench import metrics_block

        block = metrics_block(None)
        assert "memory" in block
        assert block["memory"]["peak_rss_bytes"] >= 0
        assert "source" in block["memory"]
