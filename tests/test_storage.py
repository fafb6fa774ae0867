"""Tests for repro.storage — pages, LRU cache, vector store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, PageError, StorageError
from repro.storage import LRUPageCache, PagedFile, VectorStore


class TestPagedFile:
    def test_allocate_and_roundtrip(self) -> None:
        with PagedFile(64) as pf:
            pid = pf.allocate()
            pf.write_page(pid, b"hello")
            assert pf.read_page(pid)[:5] == b"hello"

    def test_pages_padded_to_page_size(self) -> None:
        with PagedFile(64) as pf:
            pid = pf.allocate()
            pf.write_page(pid, b"x")
            assert len(pf.read_page(pid)) == 64

    def test_sequential_page_ids(self) -> None:
        with PagedFile(32) as pf:
            assert [pf.allocate() for _ in range(4)] == [0, 1, 2, 3]
            assert pf.n_pages == 4

    def test_stats_counting(self) -> None:
        with PagedFile(32) as pf:
            pid = pf.allocate()
            pf.write_page(pid, b"a")
            pf.read_page(pid)
            pf.read_page(pid)
            assert pf.stats.writes == 1
            assert pf.stats.reads == 2
            pf.stats.reset()
            assert pf.stats.reads == 0

    def test_out_of_range_page(self) -> None:
        with PagedFile(32) as pf:
            with pytest.raises(PageError):
                pf.read_page(0)

    def test_oversized_payload(self) -> None:
        with PagedFile(32) as pf:
            pid = pf.allocate()
            with pytest.raises(PageError):
                pf.write_page(pid, b"z" * 33)

    def test_file_backed(self, tmp_path) -> None:
        path = tmp_path / "pages.bin"
        with PagedFile(32, path=path) as pf:
            pid = pf.allocate()
            pf.write_page(pid, b"disk")
            assert pf.read_page(pid)[:4] == b"disk"
        assert path.exists()

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_image_round_trips_with_one_write(self, tmp_path, on_disk) -> None:
        def opened(name: str) -> PagedFile:
            return PagedFile(32, path=tmp_path / name if on_disk else None)

        with opened("a.bin") as source, opened("b.bin") as copy:
            for i in range(5):
                source.write_page(source.allocate(), bytes([i + 1]) * (i + 1))
            image = source.image()
            assert image.shape == (5, 32) and image.dtype == np.uint8
            assert source.stats.reads == 5  # a dump reads every page
            copy.load_image(image)
            assert copy.n_pages == 5
            assert (copy.stats.reads, copy.stats.writes) == (0, 0)
            assert [copy.read_page(i) for i in range(5)] == [source.read_page(i) for i in range(5)]
            assert copy.allocate() == 5  # and the file goes on from there
            with pytest.raises(PageError):
                copy.load_image(np.zeros((2, 31), np.uint8))

    def test_file_backed_reads_what_was_written_at_any_offset(self, tmp_path) -> None:
        """Real-file I/O is positional (pread/pwrite): no seek state to lose
        between interleaved reads and writes of different pages."""
        path = tmp_path / "pages.bin"
        with PagedFile(48, path=path) as pf:
            for _ in range(6):
                pf.allocate()
            for pid in (4, 1, 5, 0):
                pf.write_page(pid, bytes([65 + pid]) * 7)
                assert pf.read_page(3) == b"\x00" * 48  # an untouched page stays zero
            assert [pf.read_page(p)[:7] for p in (0, 1, 4, 5)] == [
                b"A" * 7, b"B" * 7, b"E" * 7, b"F" * 7
            ]
            with pytest.raises(PageError):
                pf.read_page(6)
        assert path.stat().st_size == 6 * 48
        with pytest.raises(StorageError):
            pf.read_page(0)  # closed

    def test_rejects_tiny_page(self) -> None:
        with pytest.raises(StorageError):
            PagedFile(8)

    def test_rejects_negative_latency(self) -> None:
        with pytest.raises(StorageError):
            PagedFile(64, read_latency=-1.0)


class TestLRUPageCache:
    def _file_with_pages(self, count: int) -> PagedFile:
        pf = PagedFile(32)
        for i in range(count):
            pid = pf.allocate()
            pf.write_page(pid, bytes([i]) * 4)
        pf.stats.reset()
        return pf

    def test_hit_after_miss(self) -> None:
        cache = LRUPageCache(self._file_with_pages(3), capacity=2)
        cache.read_page(0)
        cache.read_page(0)
        assert cache.stats.faults == 1
        assert cache.stats.hits == 1

    def test_eviction_order_is_lru(self) -> None:
        cache = LRUPageCache(self._file_with_pages(3), capacity=2)
        cache.read_page(0)
        cache.read_page(1)
        cache.read_page(0)  # 0 is now most recent
        cache.read_page(2)  # evicts 1
        cache.stats.reset()
        cache.read_page(0)
        assert cache.stats.hits == 1
        cache.read_page(1)
        assert cache.stats.faults == 1

    def test_read_pages_accounts_like_single_reads(self) -> None:
        """One lock, one loop — the hits, faults, evictions and LRU order of
        reading the same ids one by one (duplicates and evictions included)."""
        ids = [0, 1, 0, 2, 3, 1, 1, 0, 4, 2]
        block = LRUPageCache(self._file_with_pages(5), capacity=3)
        single = LRUPageCache(self._file_with_pages(5), capacity=3)
        got = block.read_pages(ids[:6]) + block.read_pages(ids[6:])
        assert got == [single.read_page(i) for i in ids]
        assert block.stats == single.stats and block.stats.faults > 5
        assert list(block._pages) == list(single._pages)  # same residents, same order
        assert block.backing.stats.reads == single.backing.stats.reads
        assert block.read_pages([]) == []

    def test_working_set_within_capacity_never_refaults(self) -> None:
        """The Section 5.3 fixed-cache effect, small-database side."""
        cache = LRUPageCache(self._file_with_pages(3), capacity=4)
        for _ in range(5):
            for pid in range(3):
                cache.read_page(pid)
        assert cache.stats.faults == 3  # only the cold reads

    def test_working_set_exceeding_capacity_thrashes(self) -> None:
        """... and the large-database side: sequential scans larger than
        the LRU capacity fault on every page, every pass."""
        cache = LRUPageCache(self._file_with_pages(4), capacity=2)
        for _ in range(3):
            for pid in range(4):
                cache.read_page(pid)
        assert cache.stats.faults == 12  # no reuse at all

    def test_write_through_updates_cache(self) -> None:
        pf = self._file_with_pages(1)
        cache = LRUPageCache(pf, capacity=2)
        cache.write_page(0, b"new!")
        data = cache.read_page(0)
        assert data[:4] == b"new!"
        assert cache.stats.hits == 1  # served from cache
        assert pf.stats.writes == 1  # but persisted

    def test_hit_rate(self) -> None:
        cache = LRUPageCache(self._file_with_pages(2), capacity=2)
        assert cache.stats.hit_rate == 0.0
        cache.read_page(0)
        cache.read_page(0)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_write_path_counted(self) -> None:
        """Regression: writes used to bypass CacheStats entirely, so
        write-heavy workloads reported a hit rate built from reads alone."""
        cache = LRUPageCache(self._file_with_pages(3), capacity=2)
        cache.write_page(0, b"cold")  # not resident -> write fault
        assert (cache.stats.write_hits, cache.stats.write_faults) == (0, 1)
        cache.write_page(0, b"warm")  # resident now -> write hit
        assert (cache.stats.write_hits, cache.stats.write_faults) == (1, 1)
        cache.write_page(1, b"b")  # fault; fills the cache
        cache.write_page(2, b"c")  # fault; evicts page 0
        cache.write_page(0, b"back")  # faults again
        assert cache.stats.write_faults == 4
        assert cache.stats.write_accesses == 5
        assert cache.stats.write_hit_rate == pytest.approx(1 / 5)
        # Read counters are untouched by the write path.
        assert (cache.stats.hits, cache.stats.faults) == (0, 0)

    def test_combined_hit_rate_and_reset(self) -> None:
        cache = LRUPageCache(self._file_with_pages(2), capacity=2)
        assert cache.stats.combined_hit_rate == 0.0
        cache.write_page(0, b"a")  # write fault
        cache.read_page(0)  # read hit
        cache.read_page(1)  # read fault
        cache.write_page(1, b"b")  # write hit
        assert cache.stats.total_accesses == 4
        assert cache.stats.combined_hit_rate == pytest.approx(0.5)
        cache.stats.reset()
        assert cache.stats.total_accesses == 0
        assert (cache.stats.write_hits, cache.stats.write_faults) == (0, 0)

    def test_clear_drops_pages(self) -> None:
        cache = LRUPageCache(self._file_with_pages(2), capacity=2)
        cache.read_page(0)
        cache.clear()
        cache.read_page(0)
        assert cache.stats.faults == 2

    def test_rejects_zero_capacity(self) -> None:
        with pytest.raises(StorageError):
            LRUPageCache(self._file_with_pages(1), capacity=0)


class TestVectorStore:
    def test_append_get_roundtrip(self, rng: np.random.Generator) -> None:
        with VectorStore(8, page_size=128) as store:
            rows = rng.random((10, 8))
            for row in rows:
                store.append(row)
            for i in range(10):
                assert np.allclose(store.get(i), rows[i])

    def test_len_and_records_per_page(self) -> None:
        with VectorStore(4, page_size=128) as store:
            assert store.records_per_page == 4  # 4 * 32B per page
            store.extend(np.ones((9, 4)))
            assert len(store) == 9

    def test_scan_order(self, rng: np.random.Generator) -> None:
        with VectorStore(4, page_size=64) as store:
            rows = rng.random((7, 4))
            store.extend(rows)
            scanned = list(store.scan())
            assert [i for i, _ in scanned] == list(range(7))
            assert all(np.allclose(vec, rows[i]) for i, vec in scanned)

    def test_scan_pages_blocks(self, rng: np.random.Generator) -> None:
        with VectorStore(4, page_size=64) as store:  # 2 records per page
            rows = rng.random((5, 4))
            store.extend(rows)
            blocks = list(store.scan_pages())
            assert [first for first, _ in blocks] == [0, 2, 4]
            assert blocks[-1][1].shape == (1, 4)

    def test_wrong_dim_rejected(self) -> None:
        with VectorStore(4) as store:
            with pytest.raises(DimensionMismatchError):
                store.append(np.ones(5))

    def test_out_of_range_get(self) -> None:
        with VectorStore(4) as store:
            store.append(np.ones(4))
            with pytest.raises(PageError):
                store.get(1)

    def test_record_must_fit_page(self) -> None:
        with pytest.raises(StorageError):
            VectorStore(100, page_size=64)

    def test_cache_stats_exposed(self, rng: np.random.Generator) -> None:
        with VectorStore(4, page_size=64, cache_pages=1) as store:
            store.extend(rng.random((6, 4)))  # 3 pages, cache of 1
            store.cache.stats.reset()
            list(store.scan_pages())
            list(store.scan_pages())
            # Each full scan faults on every page (thrashing).
            assert store.cache.stats.faults == 6

class TestVectorStoreDtype:
    def test_default_is_float64(self) -> None:
        with VectorStore(4) as store:
            assert store.dtype == np.float64
            assert store.record_size == 32

    def test_float32_halves_the_record(self) -> None:
        with VectorStore(4, page_size=128, dtype="float32") as store:
            assert store.dtype == np.float32
            assert store.record_size == 16
            assert store.records_per_page == 8

    def test_float32_roundtrip_reads_float64(self, rng: np.random.Generator) -> None:
        rows = rng.random((6, 4))
        with VectorStore(4, page_size=64, dtype=np.float32) as store:
            store.extend(rows)
            for i in range(6):
                got = store.get(i)
                assert got.dtype == np.float64
                # One float32 rounding per coordinate, nothing worse.
                assert np.allclose(got, rows[i], atol=1e-6)
                assert np.array_equal(got, rows[i].astype(np.float32).astype(np.float64))

    def test_scan_matches_get_for_float32(self, rng: np.random.Generator) -> None:
        rows = rng.random((5, 4))
        with VectorStore(4, page_size=64, dtype="float32") as store:
            store.extend(rows)
            for i, vec in store.scan():
                assert np.array_equal(vec, store.get(i))

    def test_unsupported_dtype_rejected(self) -> None:
        with pytest.raises(StorageError, match="record dtype"):
            VectorStore(4, dtype="int32")

    def test_record_fit_respects_dtype(self) -> None:
        # 16-d float64 records (128 B) overflow a 64 B page; float32 fits.
        with pytest.raises(StorageError):
            VectorStore(16, page_size=64)
        with VectorStore(16, page_size=64, dtype="float32") as store:
            assert store.records_per_page == 1
