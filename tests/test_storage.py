"""Tests for repro.storage — pages, LRU cache, vector store."""

from __future__ import annotations

import gc
import os
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.datasets import clustered_histograms, histogram_workload
from repro.distances import euclidean
from repro.exceptions import DimensionMismatchError, PageError, StorageError
from repro.mam import PagedMTree
from repro.models import QMapModel, load_built_index
from repro.persistence import format as snapshot_format
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


def _filled(pf: PagedFile, count: int) -> list[bytes]:
    """Allocate *count* pages of distinct payloads; return each padded page."""
    held = []
    for i in range(count):
        payload = bytes([i + 1]) * (i % pf.page_size + 1)
        pf.write_page(pf.allocate(), payload)
        held.append(payload.ljust(pf.page_size, b"\x00"))
    return held


class TestPageArray:
    """The in-memory file is one page array: grown by doubling, adopted on
    restore, viewed by ``image()``, copied before the first write while
    a caller holds it."""

    def test_grows_past_its_capacity_and_keeps_every_page(self) -> None:
        with PagedFile(32) as pf:
            pf.write_page(pf.allocate(), b"first")
            held = [b"first".ljust(32, b"\x00")] + _filled(pf, 40)
            assert len(pf._pages) == 64  # 1, 2, 4, ..., doubled on each overflow
            assert pf.n_pages == 41
            assert [pf.read_page(i) for i in range(41)] == held

    def test_short_read_raises_page_error(self, tmp_path) -> None:
        path = tmp_path / "pages.bin"
        with PagedFile(32, path=path) as pf:
            _filled(pf, 3)
            os.truncate(path, 2 * 32 + 5)  # page 2 cut short behind the file's back
            assert pf.read_page(1) == bytes([2]) * 2 + b"\x00" * 30
            with pytest.raises(PageError, match="short read"):
                pf.read_page(2)
            with pytest.raises(PageError, match="short read"):
                pf.image()

    @pytest.mark.parametrize("on_disk", [False, True])
    @pytest.mark.parametrize(
        "operation",
        [
            lambda pf: pf.allocate(),
            lambda pf: pf.read_page(0),
            lambda pf: pf.write_page(0, b"x"),
            lambda pf: pf.image(),
            lambda pf: pf.load_image(np.zeros((1, 32), np.uint8)),
        ],
        ids=["allocate", "read_page", "write_page", "image", "load_image"],
    )
    def test_every_operation_on_a_closed_file_raises(self, tmp_path, on_disk, operation) -> None:
        pf = PagedFile(32, path=tmp_path / "pages.bin" if on_disk else None)
        _filled(pf, 2)
        pf.close()
        with pytest.raises(StorageError, match="closed"):
            operation(pf)

    def test_restore_adopts_the_image_without_a_copy(self) -> None:
        image = np.arange(4 * 32, dtype=np.uint8).reshape(4, 32)
        with PagedFile(32) as pf:
            pf.load_image(image)
            assert np.shares_memory(pf.image(), image)
            assert pf.read_page(3) == image[3].tobytes()

    def test_writes_after_adoption_leave_the_source_alone(self) -> None:
        image = np.arange(3 * 32, dtype=np.uint8).reshape(3, 32)
        image.flags.writeable = False
        before = image.copy()
        with PagedFile(32) as pf:
            pf.load_image(image)
            assert pf.allocate() == 3
            pf.write_page(0, b"changed")
            pf.write_page(3, b"new")
            assert pf.read_page(0)[:7] == b"changed" and pf.read_page(3)[:3] == b"new"
            assert not np.shares_memory(pf.image(), image)
        assert np.array_equal(image, before) and not image.flags.writeable

    def test_a_restore_into_a_file_with_pages_appends_a_copy(self) -> None:
        image = np.full((2, 32), 7, np.uint8)
        with PagedFile(32) as pf:
            _filled(pf, 1)
            pf.load_image(image)
            assert pf.n_pages == 3 and pf.read_page(2) == bytes([7]) * 32
            assert not np.shares_memory(pf.image(), image)

    def test_image_is_a_read_only_view_later_writes_leave_alone(self) -> None:
        with PagedFile(32) as pf:
            held = _filled(pf, 5)
            image = pf.image()
            assert not image.flags.writeable
            with pytest.raises(ValueError):
                image[0, 0] = 9
            assert [row.tobytes() for row in image] == held
            pf.write_page(1, b"later")
            pf.write_page(pf.allocate(), b"grown")
            assert [row.tobytes() for row in image] == held
            assert pf.read_page(1)[:5] == b"later"
            second = pf.image()
            assert second.shape == (6, 32) and second[1].tobytes()[:5] == b"later"


class TestRestoredPagedMTree:
    @pytest.fixture(scope="class")
    def rows(self) -> np.ndarray:
        return clustered_histograms(260, 4, themes=6, rng=np.random.default_rng(39))

    def test_inserts_leave_the_snapshot_pages_alone(self, rows) -> None:
        tree = PagedMTree(rows[:200], euclidean, capacity=6, cache_pages=4)
        state = tree.structural_state()
        pages = state["pages"]
        before = pages.copy()
        assert not pages.flags.writeable
        restored = PagedMTree.from_state(rows[:200], euclidean, state)
        assert np.shares_memory(restored._file.image(), pages)
        n_pages = restored.node_pages()
        for row in rows[200:]:
            restored.insert(row)
        assert restored.node_pages() > n_pages  # splits allocated pages
        assert np.array_equal(pages, before) and not pages.flags.writeable
        for row in rows[200:230]:  # the source tree's writes leave its image alone too
            tree.insert(row)
        assert np.array_equal(pages, before)
        want = PagedMTree(rows[:200], euclidean, capacity=6, cache_pages=4)
        for row in rows[200:]:
            want.insert(row)
        assert np.array_equal(
            restored.structural_state()["pages"], want.structural_state()["pages"]
        )

    def test_save_load_save_keeps_the_pages_member(self, tmp_path) -> None:
        workload = histogram_workload(300, 1, bins_per_channel=4, seed=5)
        built = QMapModel(workload.matrix).build_index(
            "paged-mtree", workload.database, capacity=8
        )
        first = built.save(tmp_path / "first")
        second = load_built_index(first).save(tmp_path / "second")

        def member(path: str) -> bytes:
            with zipfile.ZipFile(path) as zf:
                (name,) = [n for n in zf.namelist() if n.startswith("state__pages.")]
                return zf.read(name)

        assert member(first) == member(second)

    def test_in_memory_and_real_file_twins_count_alike(self, rows, tmp_path) -> None:
        twins = [
            PagedMTree(rows[:200], euclidean, capacity=6, cache_pages=5, path=path)
            for path in (None, str(tmp_path / "twin.pages"))
        ]
        for tree in twins:
            for step, row in enumerate(rows[200:]):
                tree.knn_search(rows[step], 5)
                tree.insert(row)
                tree.range_search(row, 0.1)
        memory, disk = (
            (vars(t.cache.backing.stats), vars(t.cache.stats)) for t in twins
        )
        assert memory == disk
        assert memory[0]["reads"] > 0 and memory[1]["faults"] > 0
        images = [tree.structural_state()["pages"] for tree in twins]
        assert np.array_equal(*images)
        for tree in twins:
            tree.close()


def test_a_paged_mtree_restore_allocates_its_pages_once(tmp_path, monkeypatch) -> None:
    """Memory guard: a restore's allocation peak stays within 1.3x of what
    it keeps.  The pages are the bulk of a paged M-tree snapshot; copying
    them into the page file after decoding them read 1.69x here (1.70x at
    a 25 MB image), adopting them reads 1.21x.  One codec thread keeps the
    reader's blocks in flight the same on any host."""
    monkeypatch.setattr(snapshot_format, "_POOL_SIZE", 1)
    workload = histogram_workload(8000, 1, bins_per_channel=4, seed=2011)
    built = QMapModel(workload.matrix).build_index(
        "paged-mtree", workload.database, capacity=16
    )
    path = built.save(tmp_path / "paged")
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
    tree = restored.access_method
    assert tree.node_pages() * tree.cache.backing.page_size > 0.6 * retained  # pages dominate
    assert peak <= 1.3 * retained, f"restore peaked at {peak / retained:.2f}x what it keeps"


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
