"""Fixed-size LRU page cache (paper Section 5.3).

The paper explains the relative slowdown of query processing on its largest
databases by "a fixed-size disk cache used in the experiments".  This cache
reproduces that behaviour: while the working set fits, queries touch the
disk only once; once the database outgrows ``capacity`` pages, every scan
starts faulting and the cost curve bends upward (bench E_A4).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from ..exceptions import StorageError
from .pages import PagedFile

__all__ = ["CacheStats", "LRUPageCache"]


@dataclass
class CacheStats:
    """Hit/fault counters of an :class:`LRUPageCache`.

    Reads and writes are counted separately: ``hits``/``faults`` cover
    the read path (a fault is a physical read), ``write_hits``/
    ``write_faults`` cover the write-through path (a *write hit*
    refreshes a resident page, a *write fault* installs a page that was
    not cached).  Write-heavy workloads — bulk loads, dynamic inserts —
    would otherwise report a misleading hit rate built from reads alone.
    """

    hits: int = 0
    faults: int = 0
    write_hits: int = 0
    write_faults: int = 0

    @property
    def accesses(self) -> int:
        """Read accesses through the cache."""
        return self.hits + self.faults

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served from the cache (0 when untouched)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def write_accesses(self) -> int:
        """Write accesses through the cache."""
        return self.write_hits + self.write_faults

    @property
    def write_hit_rate(self) -> float:
        """Fraction of writes that refreshed an already-resident page."""
        if self.write_accesses == 0:
            return 0.0
        return self.write_hits / self.write_accesses

    @property
    def total_accesses(self) -> int:
        """All page accesses, reads and writes."""
        return self.accesses + self.write_accesses

    @property
    def combined_hit_rate(self) -> float:
        """Fraction of all accesses (reads + writes) that hit the cache."""
        if self.total_accesses == 0:
            return 0.0
        return (self.hits + self.write_hits) / self.total_accesses

    @property
    def combined_rate(self) -> float:
        """Alias of :attr:`combined_hit_rate`.

        The name the observability cache instrument
        (:func:`repro.obs.instruments.record_cache_stats`) reads, kept
        separate so the duck-typed adapter has a stable, short contract.
        """
        return self.combined_hit_rate

    def reset(self) -> None:
        """Zero the counters."""
        self.hits = 0
        self.faults = 0
        self.write_hits = 0
        self.write_faults = 0


class LRUPageCache:
    """Least-recently-used cache in front of a :class:`PagedFile`.

    Writes are write-through: the page goes to the backing file immediately
    and the cached copy (if any) is refreshed, so a crash-free read path
    never observes stale data.

    Parameters
    ----------
    backing:
        The paged file to cache.
    capacity:
        Cache size in pages; must be at least 1.
    """

    def __init__(self, backing: PagedFile, capacity: int) -> None:
        if capacity < 1:
            raise StorageError(f"cache capacity must be >= 1 page, got {capacity}")
        self._backing = backing
        self._capacity = capacity
        self._pages: OrderedDict[int, bytes] = OrderedDict()
        self._stats = CacheStats()
        # Queries from the batch engine's thread executor share this
        # cache; the LRU bookkeeping is check-then-act and must not race.
        self._lock = threading.RLock()

    @property
    def capacity(self) -> int:
        """Cache capacity in pages."""
        return self._capacity

    @property
    def stats(self) -> CacheStats:
        """Hit/fault counters."""
        return self._stats

    @property
    def backing(self) -> PagedFile:
        """The underlying paged file."""
        return self._backing

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)

    def read_page(self, page_id: int) -> bytes:
        """Read a page, serving from the cache when possible."""
        return self.read_pages((page_id,))[0]

    def read_pages(self, page_ids: Iterable[int]) -> list[bytes]:
        """Read several pages, in order, under one lock acquisition.

        Hit/fault counts and the LRU order are those of reading the pages
        one by one.  Thread-safe: concurrent readers (the batch engine's
        thread executor) serialize on the LRU bookkeeping.
        """
        out = []
        with self._lock:
            pages, stats = self._pages, self._stats
            for page_id in page_ids:
                data = pages.get(page_id)
                if data is not None:
                    stats.hits += 1
                    pages.move_to_end(page_id)
                else:
                    stats.faults += 1
                    data = self._backing.read_page(page_id)
                    self._insert(page_id, data)
                out.append(data)
        return out

    def write_page(self, page_id: int, payload: bytes) -> None:
        """Write-through a page and refresh the cached copy.

        Counted in the write-path statistics: refreshing a resident page
        is a write hit, installing a non-resident one a write fault.
        """
        with self._lock:
            self._backing.write_page(page_id, payload)
            padded = payload.ljust(self._backing.page_size, b"\x00")
            if page_id in self._pages:
                self._stats.write_hits += 1
                self._pages[page_id] = padded
                self._pages.move_to_end(page_id)
            else:
                self._stats.write_faults += 1
                self._insert(page_id, padded)

    def allocate(self) -> int:
        """Allocate a page in the backing file."""
        return self._backing.allocate()

    def _insert(self, page_id: int, data: bytes) -> None:
        self._pages[page_id] = data
        self._pages.move_to_end(page_id)
        while len(self._pages) > self._capacity:
            self._pages.popitem(last=False)

    def clear(self, *, reset_stats: bool = False) -> None:
        """Drop all cached pages.

        Counters are kept by default (the historical behaviour, which
        lets a warm-up phase stay visible in the totals).  Benchmarks
        that reuse one store across repetitions pass ``reset_stats=True``
        so each run's hit/fault rates start from zero instead of
        accumulating the previous runs' traffic.
        """
        with self._lock:
            self._pages.clear()
            if reset_stats:
                self._stats.reset()
