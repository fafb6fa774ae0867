"""The sequential file — the naïve referential MAM (paper Section 4.1).

A flat binary file built by appending inserted objects; every query scans
all ``m`` objects and computes ``d(q, o_i)`` regardless of selectivity.
"Although this kind of 'MAM' is not very smart, it is a baseline structure
that also can take advantage of the QMap model": under QFD each of the
``m`` distances costs O(n^2); after the QMap transform they cost O(n).

Two variants are provided:

* :class:`SequentialFile` — in-memory rows (the default everywhere).
  Under the QFD it scans through a certified filter (paper Section
  2.3.1's filter-and-refine): the L2 projection bound of the rows mapped
  by the QFD's Cholesky factor ``G``, O(k) per row from ``W = G V``,
  rules most rows out, an O(n) interval from the mapped rows themselves
  (the QMap image, float32) brackets the rest, and float64 runs only on
  the rows that can answer.  Under L2 (the QMap model) the filter is the
  pivot table's projection bound ``||(v - q) W||``, O(k) per row
  (:class:`~repro.mam.projection.ProjectionFilter`).  Answers, distances
  and charged counts are the full float64 scan's.
* :class:`DiskSequentialFile` — rows behind the paged storage substrate,
  used by the disk-cache ablation (bench E_A4).
"""

from __future__ import annotations

import threading
from math import sqrt
from typing import TYPE_CHECKING, Callable

import numpy as np

from .._typing import ArrayLike
from ..engine.trace import activate_trace, current_trace
from ..kernels import gram
from ..kernels.kernels import L2Kernel, QFDKernel
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
from .projection import SCAN_FLOOR, ProjectionFilter

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

#: Serializes the lazy build of the QFD scan's rows and of the projection
#: filter, and the mapping of rows a query reaches first, so concurrent
#: queries (the thread executor) build, map and publish each once.
_ROWS_LOCK = threading.Lock()


def _refine_rows(dim: int) -> int:
    """Rows one float64 evaluation is padded to (``_REFINE_MACS``)."""
    return max(2, -(-_REFINE_MACS // (dim * dim)))


def _squared_cut(distance: float) -> float:
    """The QFD bound's cut for a distance: its square, ``_CUT_SLACK`` high."""
    return distance * distance * _CUT_SLACK


def _reach(hi: Callable[[float], float], squares: np.ndarray, k: int) -> float:
    """A distance no less than the k-th smallest of rows whose squared
    float64 distances are at most ``hi`` of their *squares*: the root of
    ``hi`` of the k-th smallest (``hi`` is non-decreasing), which the
    correctly rounded root keeps in order."""
    return sqrt(max(hi(float(np.partition(squares, k - 1)[k - 1])), 0.0))


def _survivors(
    port: DistancePort, query: np.ndarray, data: np.ndarray, bound: np.ndarray,
    k: int | None, radius: float, cut_for: Callable[[float], float],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Under L2: the rows the projection bound cannot rule out, ascending,
    and their float64 distances; ``None`` when it rules out none.

    A row whose *bound* exceeds ``cut_for(d)`` is farther than ``d``
    (:meth:`~repro.mam.projection.ProjectionFilter.bound`).  Range keeps
    rows within ``cut_for(r)``.  kNN first evaluates the seed, the ``2k``
    rows of smallest *bound*: ``D``, their k-th smallest distance, is at
    least the scan's k-th distance, so every row of the answer, ties
    included, is within ``cut_for(D)``.  Rows are evaluated by one
    ``port.compute_many`` (an L2 float does not depend on the rows its call
    holds).
    """
    m = data.shape[0]
    seed = np.empty(0, dtype=np.intp)
    if k is None:
        cut = cut_for(radius)
    else:
        if 2 * k >= m:  # the seed is every row
            return None
        seed = np.sort(np.argpartition(bound, 2 * k - 1)[: 2 * k])
        near = port.compute_many(query, data[seed])
        cut = cut_for(float(np.partition(near, k - 1)[k - 1]))
    rows = np.setdiff1d(np.flatnonzero(~(bound > cut)), seed, assume_unique=True)
    if seed.shape[0] + rows.shape[0] == m:
        return None
    distances = port.compute_many(query, data[rows])
    if not seed.shape[0]:
        return rows, distances
    rows = np.concatenate([seed, rows])
    order = np.argsort(rows)
    return rows[order], np.concatenate([near, distances])[order]


def _mapped_survivors(
    port: DistancePort, query: np.ndarray, data: np.ndarray,
    bound: tuple[np.ndarray, Callable[[float], float]] | None,
    squares: Callable[[np.ndarray], tuple | None], k: int | None, radius: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Under the QFD: the rows neither stage rules out, ascending, and their
    float64 distances (:func:`_refine`); ``None`` when they rule out none.

    *bound* is the rank-k stage's ``(c, cut)`` (``None`` at rank 0: every
    row is a candidate and the seed), and ``squares(rows)`` the mapped
    stage's ``(s, lo_cut, hi)`` over *rows*, or ``None`` when nothing is
    certain (:func:`~repro.kernels.gram.qfd_stages`): a row whose ``c``
    exceeds ``cut(R)``, or whose ``s`` exceeds ``lo_cut(R)``, has a squared
    float64 distance above ``R``, and ``hi(s)`` is at least it.  Range
    keeps rows within ``_squared_cut(r)``.  kNN's cut is :func:`_reach` of
    the seed, the ``2k`` rows of smallest ``c``: at least the scan's k-th
    distance.  The candidates are the rows whose ``c`` is within it; with
    the seed's squares reused, their ``hi`` can only lower it, and the rows
    whose ``s`` is within the final cut are evaluated.
    """
    m = data.shape[0]
    cut = _squared_cut(radius)
    if k is not None and 2 * k >= m:  # the seed is every row
        return None
    seed, near = np.empty(0, dtype=np.intp), np.empty(0)
    if bound is None:  # rank 0: every row is the seed and a candidate
        rows = np.arange(m)
    else:
        c, rank_cut = bound
        if k is not None:
            seed = np.argpartition(c, 2 * k - 1)[: 2 * k]
            mapped = squares(seed)
            if mapped is None:
                return None
            near, _, hi = mapped
            cut = _squared_cut(_reach(hi, near, k))
        within = ~(c > rank_cut(cut))
        within[seed] = False
        rows = np.flatnonzero(within)
    mapped = squares(rows)
    if mapped is None:
        return None
    s, lo_cut, hi = mapped
    rows, s = np.concatenate([seed, rows]), np.concatenate([near, s])
    if k is not None:
        cut = min(cut, _squared_cut(_reach(hi, s, k)))
    rows = np.sort(rows[~(s > lo_cut(cut))])
    return None if rows.shape[0] == m else (rows, _refine(port, query, data, rows))


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


class _QFDRows:
    """What the QFD scan keeps of its rows, outside snapshots and pickles.

    The rank-k operand ``W`` (:meth:`~repro.kernels.kernels.QFDKernel.fit`,
    ``fitted``), fitted to the rows by the first bounded query and kept
    for good; every row projected on it (``P`` and ``S``,
    :func:`~repro.kernels.gram.qfd_project`), made then and extended by
    inserts, with ``V``, one bound on every row's norm; and the rows mapped
    by the QFD's Cholesky factor, float32
    (:meth:`~repro.kernels.kernels.QFDKernel.map`), each mapped the first
    time a query needs its sum into an append-only buffer with a slot per
    row (``4 n`` bytes per row reached), with ``e``, one bound on every
    mapped row's error.  Both bounds are running maxima, raised under
    ``_ROWS_LOCK`` before a row they cover is counted or marked mapped.
    """

    __slots__ = (
        "size", "v_norm", "m_error", "fitted", "_projected", "_squares", "_mapped", "_done"
    )

    def __init__(self, kernel: QFDKernel, data: np.ndarray) -> None:
        m, n = data.shape
        self.fitted = kernel.fit(data)
        self._projected, self._squares, self.v_norm = gram.qfd_project(self.fitted[1], data)
        self._mapped = np.empty((m, n), dtype=np.float32)
        self._done = np.zeros(m, dtype=bool)
        self.m_error = 0.0
        self.size = m

    def append(self, index: int, row: np.ndarray) -> None:
        """Cover the row stored at *index*: projected now on the kept
        ``W``, mapped on demand."""
        projected, squares, v_norm = gram.qfd_project(self.fitted[1], row[None, :])
        with _ROWS_LOCK:
            for key in self.__slots__[4:]:
                setattr(self, key, grown(getattr(self, key), index, 1))
            self._projected[index], self._squares[index] = projected[0], squares[0]
            self._done[index] = False
            self.v_norm = float(np.maximum(self.v_norm, v_norm))  # a NaN sticks
            self.size = index + 1

    def stages(
        self, kernel: QFDKernel, query: np.ndarray, data: np.ndarray
    ) -> tuple[tuple | None, Callable[[np.ndarray], tuple | None]] | None:
        """:func:`_mapped_survivors`' ``(bound, squares)`` for *query* over
        *data* (``bound`` is ``None`` at rank 0), or ``None`` when no stage
        is certain; ``squares`` maps the rows no query reached first."""
        size = self.size  # before V: a row counted is covered
        stages = kernel.stages(query, self.fitted, self.v_norm)
        if stages is None:
            return None
        rank, mapped = stages
        bound = None
        if self.fitted[1].shape[1]:
            bound = rank(self._projected[:size], self._squares[:size])

        def squares(rows: np.ndarray) -> tuple | None:
            missing = rows[~self._done[rows]]
            if missing.size:
                with _ROWS_LOCK:
                    missing = missing[~self._done[missing]]
                    self._mapped[missing], m_error = kernel.map(data[missing])
                    self.m_error = float(np.maximum(self.m_error, m_error))
                    self._done[missing] = True
            return mapped(self._mapped[rows], self.m_error)

        return bound, squares


class SequentialFile(AccessMethod):
    """Flat in-memory sequential scan.

    Building is a no-op beyond storing the rows (``O(mn)`` time in the QFD
    model; the QMap model additionally pays the O(n^2)-per-vector transform
    — the single row of Table 1 where the QFD model wins).

    Under a QFD (the port's kernel is a
    :class:`~repro.kernels.kernels.QFDKernel`), a query bounds every row's
    squared distance from below in O(k) from the rows projected on ``W =
    G V`` (``G`` the QFD's Cholesky factor, ``V`` the L2 filter's basis of
    the mapped rows), brackets the rows that bound keeps in O(n) from the
    rows mapped by ``G``, and evaluates in float64, uncharged, only the
    rows whose interval can reach the answer (:func:`_mapped_survivors`).  It
    charges the ``m`` rows a full scan charges, makes the same trace calls,
    and returns the full scan's answers and distances bit for bit.  ``W``
    and the projected rows are made by the first bounded query (not at
    build time), a row is mapped by the first query that needs its
    interval, inserts extend both on the same ``W``, and none of it is in a
    snapshot or a pickle (:class:`_QFDRows`).
    """

    #: A scan is one ``port.many`` over the database rows: the distance's
    #: own one-to-many, which reads a memory-mapped store tile by tile.
    supports_out_of_core = True

    #: Under a QFD: the projected and mapped rows (``None`` until the first
    #: bounded query).  Under L2: the projection filter (``None`` until the
    #: first bounded query, ``False`` where it is off).
    _qfd_rows: "_QFDRows | None" = None
    _projection: "ProjectionFilter | bool | None" = None

    _BOUND_ROWS = ("_qfd_rows", "_projection")

    def __getstate__(self) -> dict:
        # A copy projects and maps its own rows from its first query on.
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
        """Every row's float64 distance, or those of the rows the bounds do
        not rule out (none is ruled out when *k* is every row or *radius*
        is infinite)."""
        data = self._data
        kernel = self._port.kernel
        everything = k == data.shape[0] if k is not None else radius == np.inf
        if (
            isinstance(kernel, QFDKernel)
            and not everything
            and data.shape[0] >= _FILTER_MIN_REFINES * _refine_rows(self.dim)
        ):
            rows = self._mapped_rows(kernel)
            stages = None if rows is None else rows.stages(kernel, query, data)
            if stages is not None:
                kept = _mapped_survivors(self._port, query, data, *stages, k, radius)
                if kept is not None:
                    return kept
        elif isinstance(kernel, L2Kernel) and not everything:
            projection = self._projection_filter()
            if projection is not None and projection.size == data.shape[0]:
                squares, cut = projection.bound(query, slice(0, data.shape[0]), data)
                kept = _survivors(self._port, query, data, squares, k, radius, cut)
                if kept is not None:
                    return kept
        return None, self._port.compute_many(query, data)

    def _projection_filter(self) -> ProjectionFilter | None:
        """The L2 projection filter over the stored rows, built on first
        use (``False`` once found off)."""
        projection = self._projection
        if projection is None:
            with _ROWS_LOCK:
                projection = self._projection
                if projection is None:
                    projection = ProjectionFilter.over(self._port, self._data, SCAN_FLOOR) or False
                    self._projection = projection
        return projection or None

    def _mapped_rows(self, kernel: QFDKernel) -> "_QFDRows | None":
        """The QFD scan's rows (:class:`_QFDRows`), built on first use;
        ``None`` for a matrix without a Cholesky factor, or mid-insert (the
        rows are stored before the hook runs)."""
        rows = self._qfd_rows
        if rows is None:
            if kernel.factor is None:
                return None
            with _ROWS_LOCK:
                rows = self._qfd_rows
                if rows is None:
                    rows = _QFDRows(kernel, self._data)
                    self._qfd_rows = rows
        return rows if rows.size == self._data.shape[0] else None

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
        """Appending the row is the entire build; built QFD rows and a built
        projection filter are extended by it, never rebuilt (only float64
        stores take inserts).  A projection filter found off is decided
        again at the next query."""
        if self._projection is not None:
            if self._projection:
                self._projection.append(index)
            else:
                self._projection = None
        if self._qfd_rows is not None:
            self._qfd_rows.append(index, vector)


class DiskSequentialFile(AccessMethod):
    """Sequential file on the paged-disk substrate.

    The scan walks the pages of a :class:`~repro.storage.VectorStore`
    through its fixed-size LRU cache, so query cost decomposes into
    distance computations plus physical page reads — exactly the two
    components whose interplay Section 5.3 discusses.  It stays a plain
    float64 scan of every page, without :class:`SequentialFile`'s lower
    bound: what it measures is page I/O (E_A4), and rows kept in RAM
    would answer without reading the pages.

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
