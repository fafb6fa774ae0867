"""The QFD model: index raw histograms under the black-box QFD (Section 4).

This is the "straightforward" configuration the paper argues *against* for
static matrices: every distance evaluation — during indexing as well as
querying — pays the full O(n^2) quadratic form.  The number of evaluations
per operation is identical to the QMap model's (distances are the same);
only the per-evaluation cost differs.
"""

from __future__ import annotations

import time
from typing import Any

from .._typing import ArrayLike, as_vector_batch
from ..core.qfd import QuadraticFormDistance
from ..distances.base import CountingDistance
from ..exceptions import QueryError
from ..obs import span
from .base import (
    SAM_REGISTRY,
    BuiltIndex,
    finish_index,
    instantiate,
    resolve_store,
    restore_index,
)

__all__ = ["QFDModel"]


class QFDModel:
    """Builds access methods directly over the QFD space.

    Parameters
    ----------
    qfd:
        The static quadratic form distance (or a raw QFD matrix).
    """

    name = "qfd"

    def __init__(self, qfd: QuadraticFormDistance | ArrayLike) -> None:
        if not isinstance(qfd, QuadraticFormDistance):
            qfd = QuadraticFormDistance(qfd)
        self._qfd = qfd

    @property
    def qfd(self) -> QuadraticFormDistance:
        """The model's distance function."""
        return self._qfd

    @property
    def dim(self) -> int:
        """Histogram dimensionality ``n``."""
        return self._qfd.dim

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
        """Build the named access method over *database*.

        SAM methods are rejected: a coordinate index built for rectangles
        cannot answer QFD ball queries without ellipsoid-aware bounds,
        which is precisely the paper's Section 2.1 caveat.  Use the QMap
        model for SAMs.

        ``store="mmap"`` indexes a memory-mapped record store (built from
        *database* if it is not already a
        :class:`~repro.storage.MmapVectorStore`) and defaults
        ``block_rows`` on, so out-of-core capable methods stream the rows
        through the blocked kernels instead of materializing them.
        """
        if method in SAM_REGISTRY:
            raise QueryError(
                f"SAM {method!r} cannot index the raw QFD space; transform "
                "it with the QMap model first (paper Section 2.4)"
            )
        if store == "mmap" and block_rows is None:
            from ..kernels import DEFAULT_BLOCK_ROWS

            block_rows = DEFAULT_BLOCK_ROWS
        data, backing = resolve_store(
            database, self.dim, store=store, store_dtype=store_dtype,
            store_path=store_path,
        )
        counter = CountingDistance(self._qfd, one_to_many=self._qfd.one_to_many)
        with span(f"build/{method}", model=self.name):
            start = time.perf_counter()
            am = instantiate(method, data, counter, kwargs, block_rows=block_rows)
            elapsed = time.perf_counter() - start
        return finish_index(
            self, am, counter, backing, method=method, seconds=elapsed,
            block_rows=block_rows,
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

        *source* is a snapshot path (or an already-read
        :class:`~repro.persistence.IndexSnapshot`).  The snapshot must
        have been saved by the QFD model with this model's matrix; both
        are checked before any structure is rebuilt.  Restoring performs
        **zero** distance evaluations — the saved structure is re-wired,
        not rebuilt (``build_costs.distance_computations == 0``).

        ``store="mmap"`` spills the archived rows into a memory-mapped
        store (block by block — the heap never holds the full database)
        and re-wires the structure over its pages, still at zero
        evaluations; ``block_rows`` defaults on in that case.
        """
        counter = CountingDistance(self._qfd, one_to_many=self._qfd.one_to_many)
        return restore_index(
            self, source, counter, accepts_sams=False, verify=verify, store=store,
            store_path=store_path, block_rows=block_rows,
        )

    def distance(self, u: ArrayLike, v: ArrayLike) -> float:
        """One exact QFD evaluation (convenience passthrough)."""
        return self._qfd(u, v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QFDModel(dim={self.dim})"
