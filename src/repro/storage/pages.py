"""Paged binary storage — the disk substrate (paper Section 5.3).

The paper's indexes live in secondary memory behind a *fixed-size disk
cache*; Section 5.3 attributes the relative slowdown on the largest
databases to that cache overflowing.  To reproduce the effect
deterministically we model a disk as an array of fixed-size pages with
explicit read/write accounting (and optional simulated latency), fronted by
the LRU cache in :mod:`repro.storage.cache`.

:class:`PagedFile` supports both a RAM-backed mode (one page array, also
what a restored snapshot's pages become without a copy) and a real file on
disk.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import PageError, StorageError

__all__ = ["PageStats", "PagedFile", "DEFAULT_PAGE_SIZE"]

#: Default page size in bytes; 4 KiB like a common filesystem block.
DEFAULT_PAGE_SIZE = 4096


@dataclass
class PageStats:
    """Physical I/O counters of a :class:`PagedFile`."""

    reads: int = 0
    writes: int = 0

    def reset(self) -> None:
        """Zero the counters."""
        self.reads = 0
        self.writes = 0


class PagedFile:
    """A file of fixed-size pages with physical-I/O accounting.

    Without a path the pages are the rows of one ``(capacity, page_size)``
    uint8 array, which doubles when an allocation outgrows it, and a page
    read or write is a slice of it.  The array is never a second copy of
    a restored snapshot: :meth:`load_image` into an empty in-memory file
    *adopts* the image as a read-only view, and :meth:`image` of an
    in-memory file hands out a read-only view of the filled pages.  While
    the array is shared either way, the next write or :meth:`allocate`
    first copies it into an array the file owns, so a caller's image is
    never mutated.

    Parameters
    ----------
    page_size:
        Page payload size in bytes.
    path:
        When given, pages live in a real file at *path*; otherwise in the
        in-memory page array (still paying the accounting, which is what
        the experiments measure).
    read_latency:
        Optional simulated seconds per physical page read; lets benches
        exaggerate the cost gap between cached and uncached access without
        real spinning rust.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        path: str | os.PathLike[str] | None = None,
        read_latency: float = 0.0,
    ) -> None:
        if page_size < 16:
            raise StorageError(f"page_size must be >= 16 bytes, got {page_size}")
        if read_latency < 0.0:
            raise StorageError("read_latency must be non-negative")
        self._page_size = page_size
        self._read_latency = read_latency
        self._n_pages = 0
        self._stats = PageStats()
        self._path = os.fspath(path) if path is not None else None
        # A real file is an unbuffered descriptor read and written at
        # explicit offsets (a buffered file discards its buffer on every
        # seek); without a path the pages are the first ``n_pages`` rows
        # of the page array, which ``_shared`` marks as also held by a
        # caller.
        self._pages: np.ndarray | None = None
        self._shared = False
        self._fd: int | None = None
        if self._path is None:
            self._pages = np.empty((0, page_size), np.uint8)
        else:
            self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666)

    @property
    def page_size(self) -> int:
        """Page payload size in bytes."""
        return self._page_size

    @property
    def n_pages(self) -> int:
        """Number of allocated pages."""
        return self._n_pages

    @property
    def stats(self) -> PageStats:
        """Physical I/O counters (reads bypass the cache layer only)."""
        return self._stats

    def _array(self) -> np.ndarray:
        """The in-memory page array (a closed file has none)."""
        if self._pages is None:
            raise StorageError("paged file is closed")
        return self._pages

    def _writable(self, n_pages: int) -> np.ndarray:
        """The page array with room for *n_pages* pages, owned by the file:
        a shared array is copied first, a full one into twice the room."""
        pages = self._array()
        capacity = len(pages)
        if n_pages > capacity:
            capacity = max(n_pages, 2 * capacity)
        elif not self._shared:
            return pages
        owned = np.empty((capacity, self._page_size), np.uint8)
        owned[: self._n_pages] = pages[: self._n_pages]
        self._pages, self._shared = owned, False
        return owned

    def _write(self, page_id: int, payload: "bytes | memoryview") -> None:
        """Write *payload*, a whole number of pages, from page *page_id* on."""
        if self._fd is not None:
            offset = page_id * self._page_size
            if os.pwrite(self._fd, payload, offset) != len(payload):
                raise PageError(f"short write at offset {offset}")
            return
        count = len(payload) // self._page_size
        rows = np.frombuffer(payload, np.uint8).reshape(count, self._page_size)
        self._writable(page_id + count)[page_id : page_id + count] = rows

    def allocate(self) -> int:
        """Allocate a zero-filled page, returning its page id."""
        page_id = self._n_pages
        self._write(page_id, bytes(self._page_size))
        self._n_pages += 1
        return page_id

    def image(self) -> np.ndarray:
        """Every page verbatim, as a read-only ``(n_pages, page_size)``
        uint8 array (one physical read per page, past any cache in front
        of the file).  An in-memory file returns a view of its page array,
        which its next write leaves as it is."""
        n_pages = self._n_pages
        if self._fd is not None:
            data = os.pread(self._fd, n_pages * self._page_size, 0)
            if len(data) != n_pages * self._page_size:
                raise PageError("short read of the page image")
            view = np.frombuffer(data, np.uint8).reshape(n_pages, self._page_size)
        else:
            view = self._array()[:n_pages]
            view.flags.writeable = False
            self._shared = True
        self._stats.reads += n_pages
        return view

    def load_image(self, pages: np.ndarray) -> None:
        """Append the pages of an :meth:`image`.

        For restoring a saved file: the image is where the file starts,
        not I/O it did, so the counters are untouched.  An empty in-memory
        file adopts *pages* as its page array without a copy (and never
        writes to it); otherwise the pages are written with one write.
        """
        if pages.ndim != 2 or pages.shape[1] != self._page_size or pages.dtype != np.uint8:
            raise PageError(
                f"page image of shape {pages.shape} ({pages.dtype}) does not "
                f"hold {self._page_size}-byte pages"
            )
        if self._fd is None and self._n_pages == 0 and self._pages is not None:
            view = pages.view()
            view.flags.writeable = False
            self._pages, self._shared = view, True
        else:
            self._write(self._n_pages, memoryview(np.ascontiguousarray(pages)).cast("B"))
        self._n_pages += pages.shape[0]

    def write_page(self, page_id: int, payload: bytes) -> None:
        """Write *payload* (at most one page) to page *page_id*."""
        if not 0 <= page_id < self._n_pages:
            raise PageError(f"page id {page_id} out of range [0, {self._n_pages})")
        if len(payload) > self._page_size:
            raise PageError(
                f"payload of {len(payload)} bytes exceeds page size {self._page_size}"
            )
        self._write(page_id, payload.ljust(self._page_size, b"\x00"))
        self._stats.writes += 1

    def read_page(self, page_id: int) -> bytes:
        """Read the full payload of page *page_id* (a physical read)."""
        if not 0 <= page_id < self._n_pages:
            raise PageError(f"page id {page_id} out of range [0, {self._n_pages})")
        if self._read_latency > 0.0:
            time.sleep(self._read_latency)
        if self._fd is not None:
            data = os.pread(self._fd, self._page_size, page_id * self._page_size)
            if len(data) != self._page_size:
                raise PageError(f"short read on page {page_id}")
        else:
            data = self._array()[page_id].tobytes()
        self._stats.reads += 1
        return data

    def close(self) -> None:
        """Release the backing file or page array."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._pages = None

    def __enter__(self) -> "PagedFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
