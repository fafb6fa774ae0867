"""Memory-mapped vector storage — the out-of-core record backend.

The paper's testbed (1M Flickr histograms at 512 dimensions) does not fit
the heap-resident float64 arrays the in-memory path uses (~4 GB for the
raw copy alone).  :class:`MmapVectorStore` keeps the records in a single
``np.memmap`` file of packed float32 (or float64) rows instead: the
operating system pages vector data in and out on demand, the process RSS
stays bounded by the working set, and the kernels read row-range *views*
of the mapping one tile at a time (:func:`repro.kernels.gram.row_tiles`),
upcasting each to the float64 floats a heap copy would hold, so an index
answers and charges the same on either store.

The record API mirrors :class:`~repro.storage.vector_store.VectorStore`
(``append`` / ``extend`` / ``get`` / ``scan`` / ``scan_pages`` /
``len``), so call sites written against the paged store work unchanged;
on top of it sit the zero-copy accessors the out-of-core path needs:
``rows`` (one stable view of all records), ``row_range`` and
``iter_blocks`` (tile streaming), and ``drop_pages`` (return clean
resident pages to the OS between build phases).

Unlike the paged store there is no LRU cache or physical-I/O accounting
in front of the mapping — the kernel's page cache plays that role; the
logical *distance* accounting that the experiments measure is unaffected
(it lives in :class:`repro.mam.base.DistancePort`).
"""

from __future__ import annotations

import mmap as _mmap
import os
import tempfile
from typing import Iterator

import numpy as np

from ..exceptions import DimensionMismatchError, PageError, StorageError

__all__ = ["MmapVectorStore"]

_RECORD_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: Initial capacity (rows) of a store created without an explicit one.
_INITIAL_CAPACITY = 1024


class MmapVectorStore:
    """Append-only store of fixed-dimensionality vectors in one memmap file.

    Parameters
    ----------
    dim:
        Vector dimensionality; fixed for the lifetime of the store.
    dtype:
        On-disk record precision, ``float32`` (default — this is the
        out-of-core backend, halving the footprint is the point) or
        ``float64``.  Like :class:`~repro.storage.vector_store.VectorStore`,
        record-level reads return float64; a float32 store rounds each
        stored coordinate once on write.
    path:
        Backing file path.  When omitted, a temporary file is created and
        removed on :meth:`close`; an explicit path persists.
    capacity:
        Initial capacity in rows; the file grows by doubling as records
        are appended.  Pre-sizing to the final count avoids remaps (which
        invalidate previously handed-out views).

    Notes
    -----
    Row views (:attr:`rows`, :meth:`row_range`, :meth:`iter_blocks`)
    alias the live mapping: they are zero-copy, read-only, and remain
    valid only until the next capacity growth.  Freeze the store (stop
    appending) before handing views to an index build.
    """

    def __init__(
        self,
        dim: int,
        *,
        dtype: str | np.dtype = "float32",
        path: str | os.PathLike[str] | None = None,
        capacity: int = 0,
    ) -> None:
        if dim < 1:
            raise StorageError(f"dim must be >= 1, got {dim}")
        record_dtype = np.dtype(dtype)
        if record_dtype not in _RECORD_DTYPES:
            names = ", ".join(str(d) for d in _RECORD_DTYPES)
            raise StorageError(
                f"record dtype must be one of {names}, got {record_dtype}"
            )
        if capacity < 0:
            raise StorageError(f"capacity must be >= 0, got {capacity}")
        self._dim = dim
        self._dtype = record_dtype
        self._record_size = dim * record_dtype.itemsize
        self._count = 0
        self._capacity = 0
        self._mm: np.memmap | None = None
        if path is None:
            fd, self._path = tempfile.mkstemp(prefix="repro-vectors-", suffix=".mmap")
            os.close(fd)
            self._owns_file = True
        else:
            self._path = os.fspath(path)
            self._owns_file = False
            open(self._path, "a+b").close()
        self._closed = False
        if capacity:
            self._grow(capacity)

    # ------------------------------------------------------------------
    # introspection (VectorStore parity)
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self._dim

    @property
    def dtype(self) -> np.dtype:
        """On-disk record precision."""
        return self._dtype

    @property
    def record_size(self) -> int:
        """Bytes per stored vector record."""
        return self._record_size

    @property
    def path(self) -> str:
        """The backing file path."""
        return self._path

    @property
    def capacity(self) -> int:
        """Currently mapped capacity in rows."""
        return self._capacity

    @property
    def nbytes(self) -> float:
        """Bytes of record payload currently stored."""
        return self._count * self._record_size

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # growth / lifecycle
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("memory-mapped store is closed")

    def _grow(self, min_capacity: int) -> None:
        """Extend the backing file and remap (invalidates old views)."""
        new_capacity = max(self._capacity, _INITIAL_CAPACITY)
        while new_capacity < min_capacity:
            new_capacity *= 2
        new_capacity = max(new_capacity, min_capacity)
        if self._mm is not None:
            self._mm.flush()
            del self._mm
        with open(self._path, "r+b") as fh:
            fh.truncate(new_capacity * self._record_size)
        self._mm = np.memmap(
            self._path, dtype=self._dtype, mode="r+", shape=(new_capacity, self._dim)
        )
        self._capacity = new_capacity

    def ensure_capacity(self, rows: int) -> None:
        """Pre-size the mapping so *rows* records fit without remapping."""
        self._check_open()
        if rows > self._capacity:
            self._grow(rows)

    def flush(self) -> None:
        """Write dirty mapped pages back to the file."""
        self._check_open()
        if self._mm is not None:
            self._mm.flush()

    def drop_pages(self) -> bool:
        """Hint the OS to evict this mapping's resident pages.

        Flushes first, then issues ``madvise(MADV_DONTNEED)`` over the
        whole mapping — clean pages are returned to the OS immediately,
        bounding the measured peak RSS between phases.  Returns ``False``
        (and does nothing) on platforms without ``MADV_DONTNEED``.
        """
        self._check_open()
        if self._mm is None or not hasattr(_mmap, "MADV_DONTNEED"):
            return False
        self._mm.flush()
        # np.memmap keeps the underlying mmap object in ._mmap; madvise
        # over the full mapping needs no page-range arithmetic.
        self._mm._mmap.madvise(_mmap.MADV_DONTNEED)
        return True

    def close(self) -> None:
        """Flush, unmap, and remove the backing file if it was temporary."""
        if self._closed:
            return
        if self._mm is not None:
            self._mm.flush()
            del self._mm
            self._mm = None
        if self._owns_file:
            try:
                os.unlink(self._path)
            except OSError:
                pass
        self._closed = True

    def __enter__(self) -> "MmapVectorStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def append(self, vector: np.ndarray) -> int:
        """Append one vector, returning its record index."""
        self._check_open()
        arr = np.ascontiguousarray(vector, dtype=self._dtype)
        if arr.shape != (self._dim,):
            raise DimensionMismatchError(
                f"expected shape ({self._dim},), got {arr.shape}"
            )
        if self._count + 1 > self._capacity:
            self._grow(self._count + 1)
        assert self._mm is not None
        self._mm[self._count] = arr
        index = self._count
        self._count += 1
        return index

    def append_block(self, rows: np.ndarray) -> int:
        """Append a ``(k, dim)`` block in one write, returning the first index.

        The streaming write path of the synthetic generator and the
        QMap transform: rows are cast to the record dtype and written
        straight into the mapping, so the heap never holds more than one
        block.
        """
        self._check_open()
        block = np.atleast_2d(np.asarray(rows))
        if block.ndim != 2 or block.shape[1] != self._dim:
            raise DimensionMismatchError(
                f"expected shape (k, {self._dim}), got {block.shape}"
            )
        k = block.shape[0]
        if k == 0:
            return self._count
        if self._count + k > self._capacity:
            self._grow(self._count + k)
        assert self._mm is not None
        self._mm[self._count : self._count + k] = block.astype(
            self._dtype, copy=False
        )
        first = self._count
        self._count += k
        return first

    def extend(self, batch: np.ndarray) -> None:
        """Append every row of *batch* (block write)."""
        self.append_block(batch)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def get(self, index: int) -> np.ndarray:
        """Read the vector at record *index* (a float64 copy)."""
        self._check_open()
        if not 0 <= index < self._count:
            raise PageError(f"record index {index} out of range [0, {self._count})")
        assert self._mm is not None
        return np.asarray(self._mm[index], dtype=np.float64).copy()

    @property
    def rows(self) -> np.ndarray:
        """Zero-copy read-only view of all stored records (native dtype).

        This is the array handed to an out-of-core index build: slicing
        it streams pages through the OS cache without materializing the
        store.  Valid until the next capacity growth.
        """
        self._check_open()
        if self._mm is None:
            self._grow(_INITIAL_CAPACITY)
        assert self._mm is not None
        view = self._mm[: self._count]
        view.flags.writeable = False
        return view

    def row_range(self, start: int, stop: int) -> np.ndarray:
        """Zero-copy read-only view of records ``[start, stop)``."""
        self._check_open()
        if not 0 <= start <= stop <= self._count:
            raise PageError(
                f"row range [{start}, {stop}) outside [0, {self._count})"
            )
        assert self._mm is not None
        view = self._mm[start:stop]
        view.flags.writeable = False
        return view

    def iter_blocks(
        self, block_rows: int
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Iterate ``(first_index, rows_view)`` in tiles of *block_rows*."""
        if block_rows < 1:
            raise StorageError(f"block_rows must be >= 1, got {block_rows}")
        for start in range(0, self._count, block_rows):
            stop = min(start + block_rows, self._count)
            yield start, self.row_range(start, stop)

    def scan(self) -> Iterator[tuple[int, np.ndarray]]:
        """Iterate ``(index, vector)`` in storage order (float64 copies)."""
        for start, block in self.iter_blocks(max(1, 65536 // max(1, self._record_size))):
            rows = np.asarray(block, dtype=np.float64)
            for slot in range(rows.shape[0]):
                yield start + slot, rows[slot]

    def scan_pages(self) -> Iterator[tuple[int, np.ndarray]]:
        """Iterate ``(first_index, rows)`` block-at-a-time (float64 copies)."""
        for start, block in self.iter_blocks(max(1, 65536 // max(1, self._record_size))):
            yield start, np.asarray(block, dtype=np.float64)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_array(
        cls,
        data: np.ndarray,
        *,
        dtype: str | np.dtype = "float32",
        path: str | os.PathLike[str] | None = None,
        block_rows: int = 65536,
    ) -> "MmapVectorStore":
        """Build a store from an in-memory ``(m, n)`` array, block by block."""
        arr = np.atleast_2d(np.asarray(data))
        if arr.ndim != 2:
            raise DimensionMismatchError(
                f"expected a (m, n) array, got shape {arr.shape}"
            )
        store = cls(arr.shape[1], dtype=dtype, path=path, capacity=arr.shape[0])
        for start in range(0, arr.shape[0], block_rows):
            store.append_block(arr[start : start + block_rows])
        return store
