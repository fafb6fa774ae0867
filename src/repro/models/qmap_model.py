"""The QMap model: transform once, index and query in Euclidean space.

The paper's contribution as a drop-in pipeline (Sections 3 and 4):

1. factor the static QFD matrix, ``A = B B^T`` (done once, O(n^3));
2. map every database vector ``u -> uB`` (O(n^2) each, at indexing time);
3. build any unmodified MAM — or SAM — over the mapped vectors with the
   plain Euclidean distance (O(n) per evaluation);
4. map each query vector the same way and search; distances, and therefore
   results and pruning behaviour, are *exactly* those of the QFD space.

Query results refer to database row indices, so answers are directly
comparable with the QFD model's.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from .._typing import ArrayLike, as_vector_batch
from ..core.qfd import QuadraticFormDistance
from ..core.qmap import QMap
from ..distances.base import CountingDistance
from ..distances.minkowski import euclidean, euclidean_one_to_many
from ..exceptions import QueryError
from ..obs import span
from ..storage.mmap_store import MmapVectorStore
from .base import BuiltIndex, finish_index, instantiate, restore_index

__all__ = ["QMapModel"]


class QMapModel:
    """Builds access methods over the QMap-transformed Euclidean space.

    Parameters
    ----------
    qfd:
        The static quadratic form distance (or raw QFD matrix) to map.
    """

    name = "qmap"

    def __init__(self, qfd: QuadraticFormDistance | ArrayLike | QMap) -> None:
        self._qmap = qfd if isinstance(qfd, QMap) else QMap(qfd)

    @property
    def qmap(self) -> QMap:
        """The underlying transformation."""
        return self._qmap

    @property
    def qfd(self) -> QuadraticFormDistance:
        """The source distance the model reproduces exactly."""
        return self._qmap.qfd

    @property
    def dim(self) -> int:
        """Histogram dimensionality ``n`` (preserved by the map, k = n)."""
        return self._qmap.dim

    def _iter_source_blocks(self, database: ArrayLike, chunk: int) -> Any:
        """Yield float64 ``(k, n)`` blocks of the source database.

        A :class:`~repro.storage.MmapVectorStore` (or a raw 2-D array /
        memmap) is streamed in *chunk*-row slices, so the heap holds one
        block at a time; anything else is coerced through the standard
        validation first.
        """
        if isinstance(database, MmapVectorStore):
            if database.dim != self.dim:
                raise QueryError(
                    f"database dimensionality {database.dim} does not match "
                    f"the model's {self.dim}"
                )
            for _, view in database.iter_blocks(chunk):
                yield np.asarray(view, dtype=np.float64)
            return
        rows = np.asarray(database)
        if rows.ndim != 2 or rows.dtype not in (np.float32, np.float64):
            rows = as_vector_batch(database, self.dim, name="database")
        elif rows.shape[1] != self.dim:
            raise QueryError(
                f"database shape {rows.shape} does not match expected "
                f"dimensionality {self.dim}"
            )
        for start in range(0, rows.shape[0], chunk):
            yield np.asarray(rows[start : start + chunk], dtype=np.float64)

    def _source_length(self, database: ArrayLike) -> int:
        if isinstance(database, MmapVectorStore):
            return len(database)
        return int(np.asarray(database).shape[0])

    def build_index(
        self,
        method: str,
        database: ArrayLike,
        *,
        store: str = "heap",
        store_dtype: Any = None,
        store_path: "str | None" = None,
        block_rows: int | None = None,
        **kwargs: Any,
    ) -> BuiltIndex:
        """Transform *database* and build the named access method over it.

        Works for every MAM *and* SAM in the registry — the point of the
        homeomorphic map is that the target space is an ordinary Euclidean
        one.

        ``store="mmap"`` streams the transform: source blocks (from a
        :class:`~repro.storage.MmapVectorStore`, a raw memmap, or any 2-D
        array) are mapped chunk-by-chunk straight into a second
        memory-mapped store of *mapped* vectors, so the heap never holds
        the full ``m x n`` matrix on either side of the transform.  The
        mapped records are stored in ``store_dtype`` (float32 by default
        — one extra rounding per coordinate versus the heap path; pass
        ``store_dtype`` on a heap build to get its bit-exact heap twin).
        """
        if store == "mmap" and block_rows is None:
            from ..kernels import DEFAULT_BLOCK_ROWS

            block_rows = DEFAULT_BLOCK_ROWS
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        m = self._source_length(database)
        backing: MmapVectorStore | None = None
        with span(f"build/{method}", model=self.name):
            start = time.perf_counter()
            if store == "mmap":
                from ..kernels import DEFAULT_BLOCK_ROWS

                chunk = block_rows or DEFAULT_BLOCK_ROWS
                backing = MmapVectorStore(
                    self.dim,
                    dtype=store_dtype or "float32",
                    path=store_path,
                    capacity=max(m, 1),
                )
                # Release written pages every ~256 MiB: dirty mapped
                # pages count toward RSS until flushed, and the mapped
                # rows are not read back until the index build.
                drop_every = max(
                    1,
                    (256 << 20)
                    // max(1, chunk * self.dim * backing.dtype.itemsize),
                )
                with span("build/transform", model=self.name):
                    for i, block in enumerate(
                        self._iter_source_blocks(database, chunk)
                    ):
                        backing.append_block(self._qmap.transform_batch(block))
                        if (i + 1) % drop_every == 0:
                            backing.drop_pages()
                mapped = backing.rows
            elif store_dtype is not None and np.dtype(store_dtype) != np.float64:
                # Heap twin of the mmap path: same chunk boundaries, same
                # per-block transform, same rounding through the record
                # dtype — the rows differ from an mmap build only in
                # where they live.
                from ..kernels import DEFAULT_BLOCK_ROWS

                chunk = block_rows or DEFAULT_BLOCK_ROWS
                record = np.dtype(store_dtype)
                mapped = np.empty((m, self.dim), dtype=np.float64)
                pos = 0
                with span("build/transform", model=self.name):
                    for block in self._iter_source_blocks(database, chunk):
                        out = self._qmap.transform_batch(block)
                        mapped[pos : pos + out.shape[0]] = (
                            out.astype(record).astype(np.float64)
                        )
                        pos += out.shape[0]
            else:
                data = as_vector_batch(database, self.dim, name="database")
                with span("build/transform", model=self.name):
                    mapped = self._qmap.transform_batch(data)
            am = instantiate(method, mapped, counter, kwargs, block_rows=block_rows)
            elapsed = time.perf_counter() - start
        return finish_index(
            self, am, counter, backing, method=method, seconds=elapsed,
            transforms=m, block_rows=block_rows,
            query_mapper=self._qmap.transform,
            batch_mapper=self._qmap.transform_batch,
        )

    def load_index(
        self,
        source: Any,
        *,
        verify: bool = True,
        store: str = "heap",
        store_path: "str | None" = None,
        block_rows: int | None = None,
    ) -> BuiltIndex:
        """Restore a :meth:`BuiltIndex.save` snapshot into this model.

        The snapshot stores the *mapped* database (rows are ``uB``), so
        the restore pays neither the O(m n^2) transform pass nor a single
        distance evaluation — ``build_costs`` comes back with zero
        distance computations and zero transforms, the whole point of
        persisting QMap-model indexes.  ``store="mmap"`` re-wires the
        structure over a memory-mapped spill of the archived mapped rows,
        still at zero evaluations and zero transforms.
        """
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        return restore_index(
            self, source, counter, accepts_sams=True, verify=verify, store=store,
            store_path=store_path, block_rows=block_rows,
            query_mapper=self._qmap.transform,
            batch_mapper=self._qmap.transform_batch,
        )

    def distance(self, u: ArrayLike, v: ArrayLike) -> float:
        """QFD evaluated the QMap way (transform + L2); exact by Theorem 3.3."""
        return self._qmap.distance_via_map(u, v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QMapModel(dim={self.dim})"
