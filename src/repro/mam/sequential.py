"""The sequential file — the naïve referential MAM (paper Section 4.1).

A flat binary file built by appending inserted objects; every query scans
all ``m`` objects and computes ``d(q, o_i)`` regardless of selectivity.
"Although this kind of 'MAM' is not very smart, it is a baseline structure
that also can take advantage of the QMap model": under QFD each of the
``m`` distances costs O(n^2); after the QMap transform they cost O(n).

Two variants are provided:

* :class:`SequentialFile` — in-memory rows (the default everywhere).
* :class:`DiskSequentialFile` — rows behind the paged storage substrate,
  used by the disk-cache ablation (bench E_A4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .._typing import ArrayLike
from ..engine.trace import activate_trace, current_trace
from ..obs.events import ROOT
from ..storage.vector_store import VectorStore
from .base import (
    AccessMethod,
    DistancePort,
    Neighbor,
    _KnnHeap,
    neighbors_from_distances,
    state_float,
    state_int,
    state_str,
)

if TYPE_CHECKING:
    from ..engine.trace import QueryTrace

__all__ = ["SequentialFile", "DiskSequentialFile"]


class SequentialFile(AccessMethod):
    """Flat in-memory sequential scan.

    Building is a no-op beyond storing the rows (``O(mn)`` time in the QFD
    model; the QMap model additionally pays the O(n^2)-per-vector transform
    — the single row of Table 1 where the QFD model wins).
    """

    #: A scan is one ``port.many`` over the database rows: the distance's
    #: own one-to-many, which reads a memory-mapped store tile by tile.
    supports_out_of_core = True

    def _scan(self, query: np.ndarray, trace: "QueryTrace") -> tuple[np.ndarray, int]:
        """All ``m`` distances, charged and reported to *trace*; the
        scan's EXPLAIN token comes back with them."""
        tok = trace.visit(ROOT, "scan", count=0)
        distances = self._port.many(query, self._data, trace)
        trace.refine(self.size)
        trace.verify(tok, -1, float("nan"), count=self.size)
        return distances, tok

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        trace = current_trace()
        distances, tok = self._scan(query, trace)
        hits = np.flatnonzero(distances <= radius)
        if tok >= 0:
            for idx in hits:
                trace.result(tok, int(idx), float(distances[idx]))
        return neighbors_from_distances(distances[hits], hits)

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        distances, _ = self._scan(query, current_trace())
        # Every row up to the k-th distance, so rows tied there are kept or
        # dropped by the shared (distance, index) order, not by partition.
        order = np.flatnonzero(distances <= np.partition(distances, k - 1)[k - 1])
        return neighbors_from_distances(distances[order], order)[:k]

    def _range_search_batch(
        self, queries: np.ndarray, radius: float, traces: "list[QueryTrace]"
    ) -> list[list[Neighbor]]:
        """Batch scan: per-query one-to-many distances (bit-identical to
        the single-query path), with the threshold mask applied to the
        whole ``s x m`` distance matrix at once."""
        matrix = np.empty((queries.shape[0], self.size), dtype=np.float64)
        for pos, trace in enumerate(traces):
            with activate_trace(trace):
                matrix[pos], _ = self._scan(queries[pos], trace)
        within = matrix <= radius
        out: list[list[Neighbor]] = []
        for pos, trace in enumerate(traces):
            with activate_trace(trace):
                hits = np.flatnonzero(within[pos])
                out.append(neighbors_from_distances(matrix[pos, hits], hits))
                trace.results = len(hits)
        return out

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Appending the row is the entire build — nothing else to update."""


class DiskSequentialFile(AccessMethod):
    """Sequential file on the paged-disk substrate.

    The scan walks the pages of a :class:`~repro.storage.VectorStore`
    through its fixed-size LRU cache, so query cost decomposes into
    distance computations plus physical page reads — exactly the two
    components whose interplay Section 5.3 discusses.

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
