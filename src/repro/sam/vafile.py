"""VA-file — vector approximation file (Weber et al.), paper Section 2.1.

The VA-file gives up on hierarchical pruning entirely (the honest response
to the curse of dimensionality): each vector is quantized to a few bits per
dimension, and queries scan the *approximations*, which are much smaller
than the vectors.  Cell boundaries yield per-object lower and upper bounds
on the true distance; objects whose lower bound exceeds the running kth
upper bound are filtered, and the survivors are refined with real distance
computations in ascending lower-bound order.

Implemented for the Minkowski family (default L2 — the QMap target space).
Quantization boundaries are per-dimension quantiles of the data, the
standard choice for skewed (e.g. histogram) data.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .._typing import ArrayLike
from ..engine.trace import current_trace
from ..exceptions import QueryError, StorageError
from ..mam.base import (
    AccessMethod,
    DistancePort,
    Neighbor,
    _KnnHeap,
    state_array,
    state_float,
    state_int,
)
from ._minkowski import minkowski_port, validate_order

__all__ = ["VAFile"]


#: Cells per block of :meth:`VAFile._cell_walls`' gather: its index and
#: gathered temporaries stay at 512 KB each, whatever the table's size.
_WALL_BLOCK = 65536


class VAFile(AccessMethod):
    """Vector approximation file for Minkowski queries.

    Parameters
    ----------
    database:
        ``(m, n)`` rows to index.
    bits:
        Bits per dimension; ``2**bits`` quantization cells per axis.
    p:
        Minkowski order of the query distance (``float('inf')`` for L∞).
    """

    def __init__(
        self,
        database: ArrayLike,
        *,
        bits: int = 4,
        p: float = 2.0,
        refine_distance: "DistancePort | Callable | None" = None,
    ) -> None:
        if not 1 <= bits <= 16:
            raise QueryError(f"bits per dimension must be in [1, 16], got {bits}")
        self._p = validate_order(p)
        # See RTree: an injected counter charges refinements to the caller.
        if refine_distance is None:
            refine_distance = minkowski_port(self._p)
        super().__init__(database, refine_distance)
        self._bits = bits
        cells = 2**bits
        # Per-dimension quantile boundaries: boundaries[d] has cells+1 edges
        # covering the data range exactly.
        quantiles = np.linspace(0.0, 1.0, cells + 1)
        self._boundaries = np.quantile(self._data, quantiles, axis=0)  # (cells+1, n)
        # Make the outer edges open so every point falls inside.
        self._boundaries[0] -= 1e-12
        self._boundaries[-1] += 1e-12
        self._approx = self._quantize(self._data)
        self._cell_lower, self._cell_upper = self._cell_walls(self._approx)

    @property
    def bits(self) -> int:
        """Bits per dimension."""
        return self._bits

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def _init_restore(self, database, distance, state) -> None:
        # Like the R-tree, the VA-file needs no supplied distance: the
        # stored Minkowski order rebuilds the default refinement port.
        p = state_float(state, "p")
        try:
            self._p = validate_order(p)
        except QueryError as exc:
            raise StorageError(str(exc)) from None
        if distance is None:
            distance = minkowski_port(self._p)
        AccessMethod.__init__(self, database, distance)
        self._restore_state(state)

    def structural_state(self) -> dict[str, np.ndarray]:
        return {
            "bits": np.int64(self._bits),
            "p": np.float64(self._p),
            "boundaries": self._boundaries.copy(),
            "approx": self._approx.copy(),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        bits = state_int(state, "bits")
        boundaries = state_array(state, "boundaries", dtype=np.float64)
        approx = state_array(state, "approx", dtype=np.uint16)
        super()._restore_state(state)
        if not 1 <= bits <= 16:
            raise StorageError(
                f"bits per dimension must be in [1, 16], got {bits}"
            )
        cells = 2**bits
        if boundaries.shape != (cells + 1, self.dim):
            raise StorageError(
                f"VA-file snapshot: boundary grid shape {boundaries.shape} "
                f"does not match ({cells + 1}, {self.dim})"
            )
        if approx.shape != (self.size, self.dim):
            raise StorageError(
                f"VA-file snapshot: approximation shape {approx.shape} "
                f"does not match ({self.size}, {self.dim})"
            )
        if approx.size and int(approx.max()) >= cells:
            raise StorageError(
                "VA-file snapshot: approximation cell out of range"
            )
        # Adopted, not copied: nothing writes either in place (an insert
        # stacks new arrays), so the snapshot's arrays stay as decoded.
        self._bits = bits
        self._boundaries = boundaries
        self._approx = approx
        self._cell_lower, self._cell_upper = self._cell_walls(approx)

    def _verify_state_probe(self) -> None:
        # Re-quantizing the first row with the stored grid must reproduce
        # its stored approximation — no distance function involved.
        if self.size == 0:
            return
        if not np.array_equal(self._quantize(self._data[:1]), self._approx[:1]):
            raise StorageError(
                "stored approximations disagree with the database "
                "(snapshot from a different dataset?)"
            )

    @property
    def approximation_bytes(self) -> int:
        """Size of the approximation table in bytes (the VA-file's claim)."""
        return self._approx.size * self._approx.itemsize

    def _cell_walls(self, approx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per object and axis, the lower and the upper wall of its cell.

        The walls are static, so a query pays only the gap arithmetic, not
        the gather.  Gathered in blocks of rows, the upper wall from the
        edges shifted by one rather than from ``cell + 1``: the temporaries
        are one block's, never an int64 copy of the whole table.
        """
        lower = np.empty(approx.shape)
        upper = np.empty(approx.shape)
        step = max(1, _WALL_BLOCK // approx.shape[1])
        for start in range(0, approx.shape[0], step):
            block = slice(start, start + step)
            cells = approx[block].astype(np.intp)
            lower[block] = np.take_along_axis(self._boundaries[:-1], cells, axis=0)
            upper[block] = np.take_along_axis(self._boundaries[1:], cells, axis=0)
        return lower, upper

    def _quantize(self, rows: np.ndarray) -> np.ndarray:
        cells = 2**self._bits
        out = np.empty(rows.shape, dtype=np.uint16)
        for d in range(self.dim):
            out[:, d] = np.clip(
                np.searchsorted(self._boundaries[:, d], rows[:, d], side="right") - 1,
                0,
                cells - 1,
            )
        return out

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Quantize the new object with the existing grid.

        Boundaries are not re-fit (they came from the build-time data
        distribution); the outer cells are clamped, so the approximation
        stays a sound lower/upper bound and queries remain exact —
        drifting data merely loosens the outermost cells.
        """
        approx = self._quantize(vector.reshape(1, -1))
        lower, upper = self._cell_walls(approx)
        self._approx = np.vstack([self._approx, approx])
        self._cell_lower = np.vstack([self._cell_lower, lower])
        self._cell_upper = np.vstack([self._cell_upper, upper])

    def _bounds(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-object lower and upper bounds on d(query, object)."""
        cell_lower = self._cell_lower
        cell_upper = self._cell_upper
        below = np.maximum(cell_lower - query, 0.0)
        above = np.maximum(query - cell_upper, 0.0)
        gap = np.maximum(below, above)  # 0 where query coordinate is inside the cell
        far = np.maximum(np.abs(query - cell_lower), np.abs(query - cell_upper))
        if np.isinf(self._p):
            return gap.max(axis=1, initial=0.0), far.max(axis=1, initial=0.0)
        if self._p == 2.0:  # the common case; pow() is an order slower
            lower = np.sqrt(np.einsum("ij,ij->i", gap, gap))
            upper = np.sqrt(np.einsum("ij,ij->i", far, far))
            return lower, upper
        lower = np.power(np.power(gap, self._p).sum(axis=1), 1.0 / self._p)
        upper = np.power(np.power(far, self._p).sum(axis=1), 1.0 / self._p)
        return lower, upper

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        trace = current_trace()
        lower, upper = self._bounds(query)
        out: list[Neighbor] = []
        certain = np.flatnonzero(upper <= radius)
        maybe = np.flatnonzero((lower <= radius) & (upper > radius))
        # Certain hits still need their exact distance for the result list.
        for group in (certain, maybe):
            if group.size == 0:
                continue
            dists = self._port.many(query, self._data[group], trace)
            for idx, dist in zip(group, dists):
                if dist <= radius:
                    out.append(Neighbor(float(dist), int(idx)))
        return out

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        lower, upper = self._bounds(query)
        # Phase 1: the kth-smallest upper bound caps the candidate set.
        kth_upper = np.partition(upper, k - 1)[k - 1]
        candidates = np.flatnonzero(lower <= kth_upper)
        # Phase 2: refine candidates in ascending lower-bound order.
        order = candidates[np.argsort(lower[candidates], kind="stable")]
        heap = _KnnHeap(k)
        trace = current_trace()
        for idx in order:
            if lower[idx] > heap.radius:
                break
            heap.offer(self._port.pair(query, self._data[idx], trace), int(idx))
        return heap.neighbors()

    def candidate_ratio(self, query: ArrayLike, k: int) -> float:
        """Fraction of the database surviving phase-1 filtering for a kNN.

        The VA-file's selling point is this ratio staying small in high
        dimensions; exposed for bench E_A6.
        """
        q = np.asarray(query, dtype=np.float64)
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        lower, upper = self._bounds(q)
        kth_upper = np.partition(upper, min(k, self.size) - 1)[min(k, self.size) - 1]
        return float(np.count_nonzero(lower <= kth_upper) / self.size)
