"""Paged binary storage — the disk substrate (paper Section 5.3).

The paper's indexes live in secondary memory behind a *fixed-size disk
cache*; Section 5.3 attributes the relative slowdown on the largest
databases to that cache overflowing.  To reproduce the effect
deterministically we model a disk as an array of fixed-size pages with
explicit read/write accounting (and optional simulated latency), fronted by
the LRU cache in :mod:`repro.storage.cache`.

:class:`PagedFile` supports both a RAM-backed mode (fast, used by tests)
and a real file on disk.
"""

from __future__ import annotations

import io
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

    Parameters
    ----------
    page_size:
        Page payload size in bytes.
    path:
        When given, pages live in a real file at *path*; otherwise in an
        in-memory buffer (still paying the accounting, which is what the
        experiments measure).
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
        # seek); without a path the pages live in an in-memory buffer.
        self._buffer: io.BytesIO | None = None
        self._fd: int | None = None
        if self._path is None:
            self._buffer = io.BytesIO()
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

    def _write_at(self, offset: int, payload: "bytes | memoryview") -> None:
        if self._fd is not None:
            if os.pwrite(self._fd, payload, offset) != len(payload):
                raise PageError(f"short write at offset {offset}")
        elif self._buffer is not None:
            self._buffer.seek(offset)
            self._buffer.write(payload)
        else:
            raise StorageError("paged file is closed")

    def _read_at(self, offset: int, size: int) -> bytes:
        if self._fd is not None:
            return os.pread(self._fd, size, offset)
        if self._buffer is None:
            raise StorageError("paged file is closed")
        self._buffer.seek(offset)
        return self._buffer.read(size)

    def allocate(self) -> int:
        """Allocate a zero-filled page, returning its page id."""
        page_id = self._n_pages
        self._write_at(page_id * self._page_size, b"\x00" * self._page_size)
        self._n_pages += 1
        return page_id

    def image(self) -> np.ndarray:
        """Every page verbatim, as an ``(n_pages, page_size)`` uint8 array
        (one physical read per page, past any cache in front of the file)."""
        data = self._read_at(0, self._n_pages * self._page_size)
        if len(data) != self._n_pages * self._page_size:
            raise PageError("short read of the page image")
        self._stats.reads += self._n_pages
        return np.frombuffer(data, np.uint8).reshape(self._n_pages, self._page_size)

    def load_image(self, pages: np.ndarray) -> None:
        """Append the pages of an :meth:`image` with one write.

        For restoring a saved file: the image is where the file starts,
        not I/O it did, so the counters are untouched.
        """
        if pages.ndim != 2 or pages.shape[1] != self._page_size or pages.dtype != np.uint8:
            raise PageError(
                f"page image of shape {pages.shape} ({pages.dtype}) does not "
                f"hold {self._page_size}-byte pages"
            )
        image = memoryview(np.ascontiguousarray(pages)).cast("B")
        self._write_at(self._n_pages * self._page_size, image)
        self._n_pages += pages.shape[0]

    def _check_page_id(self, page_id: int) -> None:
        if not 0 <= page_id < self._n_pages:
            raise PageError(f"page id {page_id} out of range [0, {self._n_pages})")

    def write_page(self, page_id: int, payload: bytes) -> None:
        """Write *payload* (at most one page) to page *page_id*."""
        self._check_page_id(page_id)
        if len(payload) > self._page_size:
            raise PageError(
                f"payload of {len(payload)} bytes exceeds page size {self._page_size}"
            )
        self._write_at(page_id * self._page_size, payload.ljust(self._page_size, b"\x00"))
        self._stats.writes += 1

    def read_page(self, page_id: int) -> bytes:
        """Read the full payload of page *page_id* (a physical read)."""
        self._check_page_id(page_id)
        if self._read_latency > 0.0:
            time.sleep(self._read_latency)
        data = self._read_at(page_id * self._page_size, self._page_size)
        if len(data) != self._page_size:
            raise PageError(f"short read on page {page_id}")
        self._stats.reads += 1
        return data

    def close(self) -> None:
        """Release the backing file or buffer."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._buffer = None

    def __enter__(self) -> "PagedFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
