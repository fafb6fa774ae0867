"""The sequential file — the naïve referential MAM (paper Section 4.1).

A flat binary file built by appending inserted objects; every query scans
all ``m`` objects and computes ``d(q, o_i)`` regardless of selectivity.
"Although this kind of 'MAM' is not very smart, it is a baseline structure
that also can take advantage of the QMap model": under QFD each of the
``m`` distances costs O(n^2); after the QMap transform they cost O(n).

Two variants are provided:

* :class:`SequentialFile` — in-memory rows (the default everywhere).
  Under the QFD it scans through a certified filter (paper Section
  2.3.1's filter-and-refine): an O(n + k) lower bound
  ``mu ||v - q||^2 + ||(v - q) W||^2`` rules most rows out, and float64
  runs only on the rest.  Answers, distances and charged counts are the
  full float64 scan's.
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


#: Fewest multiply-adds (``rows * n^2``) a float64 evaluation of the rows
#: the bound keeps is given, padded with other rows of their tile:
#: OpenBLAS takes products of at most ``10^6`` through its small-matrix
#: path and one row through gemv, and both round differently from the
#: gemm a full tile runs (at 512-d, 2- and 3-row products move the last
#: ulp; 4 rows and up do not).  8 rows at 512-d, 512 at 64-d.
_REFINE_MACS = 1 << 21

#: A scan is bounded only over databases of at least this many padded
#: evaluations: 72 rows at 512-d, 4 608 at 64-d, never at 8-d.  Below it
#: the bound does not pay for itself.  Bounded over plain kNN time
#: (k = 10), in-process, alternated, three runs of seven rounds each
#: (Xeon, 2 vCPUs, BLAS pinned to one thread): at 512-d 64 rows
#: 1.04-1.06x, 72 rows 0.87x, 96 rows 0.75-0.80x, 128 rows 0.62-0.67x,
#: 192 rows 0.36-0.46x, 256 rows 0.28-0.29x; at 64-d 1 536 rows
#: 1.15-1.23x, 2 048 rows 0.89-0.95x, 3 072 rows 0.52-0.67x, 4 096 rows
#: 0.48-0.59x, 6 144 rows 0.38-0.39x, 8 192 rows 0.30-0.37x.  The floor
#: is the least count of paddings at which neither loses.
_FILTER_MIN_REFINES = 9

#: ``1 + 2^-40`` on a squared threshold: a squared distance above it has a
#: square root strictly above the threshold's, so no row left out of the
#: evaluation can tie with one kept in.
_CUT_SLACK = 1.0 + 2.0**-40

#: Serializes the lazy build of the shadow, its norms and the projected
#: rows, so concurrent first queries (the thread executor) build them once
#: and publish them once.
_SHADOW_LOCK = threading.Lock()


def _refine_rows(dim: int) -> int:
    """Rows one float64 evaluation is padded to (``_REFINE_MACS``)."""
    return max(2, -(-_REFINE_MACS // (dim * dim)))


def _survivors(
    port: DistancePort,
    query: np.ndarray,
    data: np.ndarray,
    bound: np.ndarray,
    tighter: Callable[[np.ndarray], np.ndarray] | None,
    k: int | None,
    radius: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows the lower bounds cannot rule out, ascending, and their
    float64 distances; ``None`` when they rule out none.

    Every row's float64 squared distance is at least its *bound*, and at
    least ``tighter(rows)`` for ascending *rows* (``-inf`` where nothing
    is certain): the rank-k term alone, then the full bound on the rows
    it keeps (:meth:`~repro.kernels.kernels.QFDKernel.lower_bound`
    without and with the shadow; *tighter* is ``None`` when *bound* is
    the full one already).  Range keeps rows within ``r^2``.  kNN first
    evaluates the seed, the ``max(2k, _refine_rows(n))`` rows of smallest
    *bound*, through :func:`_refine`: ``D``, their k-th smallest distance,
    is at least the k-th distance of the scan, so every row of the answer,
    ties included, has both bounds at most ``D^2`` and is kept.  Both cuts
    take ``_CUT_SLACK``.
    """
    m = bound.shape[0]
    seed = np.empty(0, dtype=np.intp)
    if k is None:
        cut = radius * radius * _CUT_SLACK
    else:
        first = max(2 * k, _refine_rows(data.shape[1]))
        if first >= m:  # the seed is every row
            return None
        seed = np.sort(np.argpartition(bound, first - 1)[:first])
        near = _refine(port, query, data, seed)
        cut = float(np.partition(near, k - 1)[k - 1]) ** 2 * _CUT_SLACK
    rows = np.setdiff1d(np.flatnonzero(bound <= cut), seed, assume_unique=True)
    if tighter is not None:
        rows = rows[tighter(rows) <= cut]
    if seed.shape[0] + rows.shape[0] == m:
        return None
    distances = _refine(port, query, data, rows)
    if not seed.shape[0]:
        return rows, distances
    rows = np.concatenate([seed, rows])
    order = np.argsort(rows)
    return rows[order], np.concatenate([near, distances])[order]


def _refine(
    port: DistancePort, query: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Uncharged ``port.compute_many`` over the ascending *rows* of *data*,
    with the floats a scan of every row gives them.

    Per row tile of the scan: the rows, padded with the tile's first
    rows when fewer than ``_refine_rows`` so the product takes the tile's
    gemm kernel — or the whole tile, when it is that short (a small tail
    tile runs the scan's very call) or at least half picked.
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
        if picked.shape[0] >= pad:
            out[lo:hi] = port.compute_many(query, data[picked])
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
    :class:`~repro.kernels.kernels.QFDKernel`), a query bounds every row's
    squared distance from below in O(n + k)
    (:meth:`~repro.kernels.kernels.QFDKernel.lower_bound`, over a float32
    *shadow* of the rows, its row norms and the rows projected on ``W``)
    and evaluates in float64, uncharged, only the rows that bound cannot
    rule out (:func:`_survivors`).  It charges the ``m`` rows a full scan
    charges, makes the same trace calls, and returns the full scan's
    answers and distances bit for bit.  The shadow, its norms and the
    projected rows are built by the first bounded query (not at build
    time), extended by inserts, and left out of snapshots and pickles;
    float32 (memory-mapped) rows are their own shadow.
    """

    #: A scan is one ``port.many`` over the database rows: the distance's
    #: own one-to-many, which reads a memory-mapped store tile by tile.
    supports_out_of_core = True

    #: The float32 shadow of the rows (``None`` until the first bounded
    #: query, and always for float32 rows, their own shadow), its float64
    #: row norms ``||v^||^2`` and the rows projected on the kernel's ``W``
    #: (``None`` until the first bounded query), and the grown buffers
    #: they are the filled prefixes of.
    _shadow: "np.ndarray | None" = None
    _shadow_buffer: "np.ndarray | None" = None
    _projected: "np.ndarray | None" = None
    _projected_buffer: "np.ndarray | None" = None
    _norms: "np.ndarray | None" = None
    _norms_buffer: "np.ndarray | None" = None

    _BOUND_ROWS = (
        "_shadow", "_shadow_buffer", "_projected", "_projected_buffer",
        "_norms", "_norms_buffer",
    )

    def __getstate__(self) -> dict:
        # A copy rebuilds its own shadow, norms and projected rows on its
        # first query.
        state = super().__getstate__()
        for key in self._BOUND_ROWS:
            state.pop(key, None)
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
        the lower bound does not rule out (none is ruled out when *k* is
        every row or *radius* is infinite)."""
        data = self._data
        kernel = self._port.kernel
        everything = k == data.shape[0] if k is not None else radius == np.inf
        if (
            isinstance(kernel, QFDKernel)
            and not everything
            and data.shape[0] >= _FILTER_MIN_REFINES * _refine_rows(self.dim)
        ):
            operands = self._bound_rows(kernel)
            if operands is not None:
                shadow, norms, projected = operands
                exact = shadow is data
                tighter = None
                if kernel.weights.shape[1]:  # the rank-k term alone, then the full bound
                    bound = kernel.lower_bound(query, None, norms, projected, rows_exact=exact)

                    def tighter(rows: np.ndarray) -> np.ndarray:
                        return kernel.lower_bound(
                            query, shadow[rows], norms[rows], projected[rows], rows_exact=exact
                        )

                else:  # the rank-0 fallback: mu's bound is the only one
                    bound = kernel.lower_bound(query, shadow, norms, rows_exact=exact)
                kept = _survivors(self._port, query, data, bound, tighter, k, radius)
                if kept is not None:
                    return kept
        return None, self._port.compute_many(query, data)

    def _bound_rows(
        self, kernel: QFDKernel
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The shadow of the stored rows, its norms
        (:func:`~repro.kernels.gram.shadow_norms`) and the rows projected
        on *kernel*'s ``W``, built on first use."""
        data = self._data
        norms = self._norms
        if norms is None:
            with _SHADOW_LOCK:
                norms = self._norms
                if norms is None:
                    shadow = data
                    if data.dtype != np.float32:
                        shadow = gram.qfd_shadow(data)
                        self._shadow_buffer = shadow
                        self._shadow = shadow
                    projected = kernel.project(shadow)
                    self._projected_buffer = projected
                    self._projected = projected
                    norms = gram.shadow_norms(shadow)
                    self._norms_buffer = norms
                    self._norms = norms  # published last: a reader checks it first
        shadow = data if data.dtype == np.float32 else self._shadow
        projected = self._projected
        # Off only mid-insert (the rows are stored before the hook runs).
        if not shadow.shape[0] == projected.shape[0] == norms.shape[0] == data.shape[0]:
            return None
        return shadow, norms, projected

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
        """Batch scan: each query the single-query scan, the bound included,
        so the answers are bit-identical to looping :meth:`range_search`."""
        out: list[list[Neighbor]] = []
        for pos, trace in enumerate(traces):
            with activate_trace(trace):
                hits, distances, _ = self._range_hits(queries[pos], radius, trace)
                out.append(neighbors_from_distances(distances, hits))
                trace.results = len(hits)
        return out

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Appending the row is the entire build; a built shadow, its norms
        and the projected rows are extended by the row's float32 copy, its
        norm and its projection, never rebuilt (only float64 stores take
        inserts)."""
        if self._norms is None:
            return
        row = gram.qfd_shadow(vector[None, :])
        shadow = grown(self._shadow_buffer, index, 1)
        shadow[index : index + 1] = row
        projected = grown(self._projected_buffer, index, 1)
        projected[index : index + 1] = self._port.kernel.project(row)
        norms = grown(self._norms_buffer, index, 1)
        norms[index : index + 1] = gram.shadow_norms(row)
        self._shadow_buffer, self._projected_buffer, self._norms_buffer = (
            shadow, projected, norms,
        )
        self._shadow = shadow[: index + 1]
        self._projected = projected[: index + 1]
        self._norms = norms[: index + 1]


class DiskSequentialFile(AccessMethod):
    """Sequential file on the paged-disk substrate.

    The scan walks the pages of a :class:`~repro.storage.VectorStore`
    through its fixed-size LRU cache, so query cost decomposes into
    distance computations plus physical page reads — exactly the two
    components whose interplay Section 5.3 discusses.  It stays a plain
    float64 scan of every page, without :class:`SequentialFile`'s lower
    bound: what it measures is page I/O (E_A4), and a shadow in RAM would
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
