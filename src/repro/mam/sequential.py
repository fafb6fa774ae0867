"""The sequential file — the naïve referential MAM (paper Section 4.1).

A flat binary file built by appending inserted objects; every query scans
all ``m`` objects and computes ``d(q, o_i)`` regardless of selectivity.
"Although this kind of 'MAM' is not very smart, it is a baseline structure
that also can take advantage of the QMap model": under QFD each of the
``m`` distances costs O(n^2); after the QMap transform they cost O(n).

Two variants are provided:

* :class:`SequentialFile` — in-memory rows (the default everywhere).
  Under the QFD it scans through a certified float32 filter: float32 over
  a shadow copy of the rows, float64 only where the filter's error bound
  cannot decide (paper Section 2.3.1's filter-and-refine, with the lower
  bound from floating-point analysis).  Answers, distances and charged
  counts are the full float64 scan's.
* :class:`DiskSequentialFile` — rows behind the paged storage substrate,
  used by the disk-cache ablation (bench E_A4).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

import numpy as np

from .._typing import ArrayLike
from ..engine.trace import activate_trace, current_trace
from ..kernels import gram
from ..kernels.kernels import QFDKernel
from ..obs.events import ROOT
from ..storage.vector_store import VectorStore
from .base import (
    AccessMethod,
    DistancePort,
    Neighbor,
    _KnnHeap,
    grown,
    neighbors_from_distances,
    state_float,
    state_int,
    state_str,
)

if TYPE_CHECKING:
    from ..engine.trace import QueryTrace

__all__ = ["SequentialFile", "DiskSequentialFile"]


#: Fewest multiply-adds (``rows * n^2``) a float64 re-evaluation of the
#: filter's undecided rows is given, padded with other rows of their tile:
#: OpenBLAS takes products of at most ``10^6`` through its small-matrix
#: path and one row through gemv, and both round differently from the
#: gemm a full tile runs (at 512-d, 2- and 3-row products move the last
#: ulp; 4 rows and up do not).  8 rows at 512-d, 512 at 64-d.
_REFINE_MACS = 1 << 21

#: A scan filters only databases of at least this many padded
#: re-evaluations: 128 rows at 512-d, 8 192 at 64-d, never at 8-d.  Below
#: it the float32 pass does not pay for itself.  Filtered over plain kNN
#: time, in-process, alternated, three runs each (Xeon, 2 vCPUs, BLAS
#: pinned to one thread): at 512-d 64 rows 1.04-1.10x, 128 rows
#: 0.86-0.92x, 192 rows 0.73x, 256 rows 0.67-0.71x; at 64-d 4 096 rows
#: 0.95x, 8 192 rows 0.76-0.77x.
_FILTER_MIN_REFINES = 16

#: ``1 + 2^-40`` on a squared threshold: a squared distance above it has a
#: square root strictly above the threshold's, so no row left out of the
#: re-evaluation can tie with one kept in.
_CUT_SLACK = 1.0 + 2.0**-40

#: Serializes the lazy shadow build, so concurrent first queries (the
#: thread executor) build one shadow and publish it once.
_SHADOW_LOCK = threading.Lock()


def _refine_rows(dim: int) -> int:
    """Rows one float64 re-evaluation is padded to (``_REFINE_MACS``)."""
    return max(2, -(-_REFINE_MACS // (dim * dim)))


def _undecided(
    s: np.ndarray, delta: np.ndarray, k: int | None, radius: float
) -> np.ndarray:
    """Rows the certified float32 values cannot rule out, ascending.

    Every row's float64 squared distance lies in ``[s - delta, s +
    delta]`` (a row whose bounds are not finite in ``[-inf, inf]``).  kNN
    keeps ``{s - delta <= H}``, ``H`` the k-th smallest ``s + delta``: the
    k rows under ``H`` are at most ``H`` away, so every row of the answer,
    and every row tied with its k-th distance, is kept.  Range keeps
    ``{s - delta <= r^2}``.
    """
    lower = s - delta
    upper = s + delta
    bad = ~(np.isfinite(lower) & np.isfinite(upper))
    if bad.any():
        lower[bad] = -np.inf
        upper[bad] = np.inf
    if k is None:
        cut = radius * radius
    else:
        cut = max(float(np.partition(upper, k - 1)[k - 1]), 0.0)
    return np.flatnonzero(lower <= cut * _CUT_SLACK)


def _refine(
    port: DistancePort, query: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Uncharged ``port.compute_many`` over the ascending *rows* of *data*,
    with the floats a scan of every row gives them.

    Per row tile of the scan: the undecided rows, padded with the tile's
    first rows to ``_refine_rows`` so the product takes the tile's gemm
    kernel — or the whole tile, when it is that short (a small tail tile
    runs the scan's very call) or at least half undecided.
    """
    m, n = data.shape
    pad = _refine_rows(n)
    out = np.empty(rows.shape[0], dtype=np.float64)
    tiles = gram.row_tiles(m)
    edges = np.searchsorted(rows, [tile.start for tile in tiles] + [m])
    for tile, lo, hi in zip(tiles, edges[:-1], edges[1:]):
        if lo == hi:
            continue
        start, stop = tile.start, min(tile.stop, m)
        picked = rows[lo:hi]
        if stop - start <= pad or 2 * picked.shape[0] >= stop - start:
            out[lo:hi] = port.compute_many(query, data[start:stop])[picked - start]
            continue
        take = np.union1d(picked, np.arange(start, start + pad))
        out[lo:hi] = port.compute_many(query, data[take])[np.searchsorted(take, picked)]
    return out


class SequentialFile(AccessMethod):
    """Flat in-memory sequential scan.

    Building is a no-op beyond storing the rows (``O(mn)`` time in the QFD
    model; the QMap model additionally pays the O(n^2)-per-vector transform
    — the single row of Table 1 where the QFD model wins).

    Under a QFD (the port's kernel is a
    :class:`~repro.kernels.kernels.QFDKernel`), a query computes every
    row's squared distance in float32 over a float32 *shadow* of the rows,
    with a proven error bound per row
    (:func:`~repro.kernels.gram.qfd_filter`), and re-evaluates in float64,
    uncharged, only the rows the bound cannot rule out.  It charges the
    ``m`` rows a full scan charges, makes the same trace calls, and
    returns the full scan's answers and distances bit for bit.  The shadow
    is built by the first filtered query (not at build time), extended by
    inserts, and left out of snapshots and pickles; float32
    (memory-mapped) rows are their own shadow.
    """

    #: A scan is one ``port.many`` over the database rows: the distance's
    #: own one-to-many, which reads a memory-mapped store tile by tile.
    supports_out_of_core = True

    #: The float32 shadow of the rows (``None`` until the first filtered
    #: query) and the grown buffer it is the filled prefix of.
    _shadow: "np.ndarray | None" = None
    _shadow_buffer: "np.ndarray | None" = None

    def __getstate__(self) -> dict:
        # A copy rebuilds its own shadow on its first query.
        state = super().__getstate__()
        state.pop("_shadow", None)
        state.pop("_shadow_buffer", None)
        return state

    def _scan(
        self,
        query: np.ndarray,
        trace: "QueryTrace",
        *,
        k: int | None = None,
        radius: float = np.inf,
    ) -> tuple[np.ndarray | None, np.ndarray, int]:
        """The distances a kNN (*k*) or range (*radius*) query needs, all
        ``m`` charged and reported to *trace*: the rows evaluated (``None``
        for every row, in order), their distances and the scan's EXPLAIN
        token."""
        tok = trace.visit(ROOT, "scan", count=0)
        self._port.charge(rows=self.size, trace=trace)
        rows, distances = self._distances(query, k, radius)
        trace.refine(self.size)
        trace.verify(tok, -1, float("nan"), count=self.size)
        return rows, distances, tok

    def _distances(
        self, query: np.ndarray, k: int | None, radius: float
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Every row's float64 distance, or under a QFD those of the rows
        the float32 filter leaves undecided (none is ruled out when *k* is
        every row or *radius* is infinite)."""
        data = self._data
        kernel = self._port.kernel
        everything = k == data.shape[0] if k is not None else radius == np.inf
        if (
            isinstance(kernel, QFDKernel)
            and not everything
            and data.shape[0] >= _FILTER_MIN_REFINES * _refine_rows(self.dim)
        ):
            shadow = self._shadow_rows()
            if shadow is not None:
                s, delta = kernel.filter(query, shadow, rows_exact=shadow is data)
                rows = _undecided(s, delta, k, radius)
                if rows.shape[0] < data.shape[0]:
                    return rows, _refine(self._port, query, data, rows)
        return None, self._port.compute_many(query, data)

    def _shadow_rows(self) -> np.ndarray | None:
        """The shadow of the stored rows, built on first use."""
        data = self._data
        if data.dtype == np.float32:
            return data
        shadow = self._shadow
        if shadow is None:
            with _SHADOW_LOCK:
                shadow = self._shadow
                if shadow is None:
                    shadow = gram.qfd_shadow(data)
                    self._shadow_buffer = shadow
                    self._shadow = shadow
        # Off only mid-insert (the rows are stored before the hook runs).
        return shadow if shadow.shape[0] == data.shape[0] else None

    def _range_hits(
        self, query: np.ndarray, radius: float, trace: "QueryTrace"
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Indices and distances of the rows within *radius* (ascending
        index), and the scan's EXPLAIN token."""
        rows, distances, tok = self._scan(query, trace, radius=radius)
        within = np.flatnonzero(distances <= radius)
        return (within if rows is None else rows[within]), distances[within], tok

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        trace = current_trace()
        hits, distances, tok = self._range_hits(query, radius, trace)
        if tok >= 0:
            for idx, dist in zip(hits, distances):
                trace.result(tok, int(idx), float(dist))
        return neighbors_from_distances(distances, hits)

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        rows, distances, _ = self._scan(query, current_trace(), k=k)
        # Every row up to the k-th distance, so rows tied there are kept or
        # dropped by the shared (distance, index) order, not by partition.
        order = np.flatnonzero(distances <= np.partition(distances, k - 1)[k - 1])
        indices = order if rows is None else rows[order]
        return neighbors_from_distances(distances[order], indices)[:k]

    def _range_search_batch(
        self, queries: np.ndarray, radius: float, traces: "list[QueryTrace]"
    ) -> list[list[Neighbor]]:
        """Batch scan: each query the single-query scan, the float32 filter
        included, so the answers are bit-identical to looping
        :meth:`range_search`."""
        out: list[list[Neighbor]] = []
        for pos, trace in enumerate(traces):
            with activate_trace(trace):
                hits, distances, _ = self._range_hits(queries[pos], radius, trace)
                out.append(neighbors_from_distances(distances, hits))
                trace.results = len(hits)
        return out

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Appending the row is the entire build; a built shadow is
        extended by the row's float32 copy, never rebuilt."""
        if self._shadow is None:
            return
        buffer = grown(self._shadow_buffer, index, 1)
        buffer[index : index + 1] = gram.qfd_shadow(vector[None, :])
        self._shadow_buffer = buffer
        self._shadow = buffer[: index + 1]


class DiskSequentialFile(AccessMethod):
    """Sequential file on the paged-disk substrate.

    The scan walks the pages of a :class:`~repro.storage.VectorStore`
    through its fixed-size LRU cache, so query cost decomposes into
    distance computations plus physical page reads — exactly the two
    components whose interplay Section 5.3 discusses.  It stays a plain
    float64 scan of every page, without :class:`SequentialFile`'s float32
    filter: what it measures is page I/O (E_A4), and a shadow in RAM would
    answer without reading the pages.

    Parameters
    ----------
    database:
        Rows to index (appended to the store at construction).
    distance:
        Black-box distance (port or plain callable).
    page_size, cache_pages, read_latency, dtype:
        Forwarded to the :class:`~repro.storage.VectorStore`.
    """

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        page_size: int = 4096,
        cache_pages: int = 64,
        read_latency: float = 0.0,
        dtype: str = "float64",
    ) -> None:
        super().__init__(database, distance)
        self._store_config = {
            "page_size": int(page_size),
            "cache_pages": int(cache_pages),
            "read_latency": float(read_latency),
            "dtype": str(np.dtype(dtype)),
        }
        self._build_store()
        # The in-memory copy is kept only for the AccessMethod API
        # (database property used by correctness tests); queries below go
        # through the store.

    def _build_store(self) -> None:
        cfg = self._store_config
        self._store = VectorStore(
            self.dim,
            page_size=cfg["page_size"],
            cache_pages=cfg["cache_pages"],
            read_latency=cfg["read_latency"],
            dtype=cfg["dtype"],
        )
        self._store.extend(self._data)

    def structural_state(self) -> dict[str, np.ndarray]:
        cfg = self._store_config
        return {
            "page_size": np.int64(cfg["page_size"]),
            "cache_pages": np.int64(cfg["cache_pages"]),
            "read_latency": np.float64(cfg["read_latency"]),
            "dtype": np.str_(cfg["dtype"]),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        self._store_config = {
            "page_size": state_int(state, "page_size"),
            "cache_pages": state_int(state, "cache_pages"),
            "read_latency": state_float(state, "read_latency"),
            "dtype": state_str(state, "dtype"),
        }
        super()._restore_state(state)
        # Rebuilding the paged store is pure byte I/O — no distances.
        self._build_store()

    @property
    def store(self) -> VectorStore:
        """The paged vector store (for cache statistics)."""
        return self._store

    def _scan_pages(self, query: np.ndarray, trace: "QueryTrace"):
        """Per page: its first object index, its distances (charged and
        reported to *trace*) and its EXPLAIN token."""
        for first_index, rows in self._store.scan_pages():
            tok = trace.visit(
                ROOT, f"page@{first_index}" if trace.events is not None else "", count=0
            )
            distances = self._port.many(query, rows, trace)
            trace.refine(rows.shape[0])
            trace.verify(tok, -1, float("nan"), count=int(rows.shape[0]))
            yield first_index, distances, tok

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        trace = current_trace()
        out: list[Neighbor] = []
        for first_index, distances, tok in self._scan_pages(query, trace):
            for offset in np.flatnonzero(distances <= radius):
                neighbor = Neighbor(float(distances[offset]), first_index + int(offset))
                out.append(neighbor)
                trace.result(tok, neighbor.index, neighbor.distance)
        return out

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        heap = _KnnHeap(k)
        for first_index, distances, _ in self._scan_pages(query, current_trace()):
            for offset, dist in enumerate(distances):
                heap.offer(float(dist), first_index + offset)
        return heap.neighbors()

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Append the record to the paged store (one page write-through)."""
        self._store.append(vector)
