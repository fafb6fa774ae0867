"""Common interfaces of the access methods (paper Sections 2 and 4).

All indexes in :mod:`repro.mam` and :mod:`repro.sam` implement
:class:`AccessMethod`: they are built over an ``(m, n)`` database of row
vectors plus a black-box distance function, and answer the paper's two
query types —

* **range query** ``(q, rad)``: all objects within distance ``rad`` of ``q``;
* **kNN query** ``(q, k)``: the ``k`` nearest objects.

Results are :class:`Neighbor` records ordered by distance (ties broken by
index) so that every method's answer can be compared bit-for-bit with the
sequential scan in the correctness tests.

The distance is always accessed through :class:`DistancePort`, which
understands plain callables as well as
:class:`~repro.distances.base.CountingDistance` wrappers and optional
vectorized one-to-many forms.  The evaluation counters behind that port are
the cost measure of the complexity experiments (Tables 1 and 2).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .._typing import ArrayLike, as_vector, as_vector_batch
from ..distances.base import CountingDistance
from ..engine.trace import activate_trace, current_trace, fold_into, query_trace
from ..exceptions import EmptyIndexError, IndexStateError, QueryError, StorageError

if TYPE_CHECKING:
    from ..engine.batch import BatchExecutor
    from ..engine.trace import QueryTrace, TraceCollector

__all__ = [
    "Neighbor",
    "DistancePort",
    "BoundQuery",
    "AccessMethod",
    "NodeBatchedSearchMixin",
    "PRUNE_SLACK_REL",
    "prune_slack",
    "neighbors_from_distances",
    "state_array",
    "state_int",
    "state_float",
    "state_str",
]


# ----------------------------------------------------------------------
# structural-state helpers (snapshot protocol)
# ----------------------------------------------------------------------

def state_array(
    state: dict[str, np.ndarray], key: str, *, dtype: object | None = None
) -> np.ndarray:
    """Pop a required array from a structural-state dict.

    Raises :class:`~repro.exceptions.StorageError` when the key is absent,
    so a snapshot written for a different method (or a truncated file)
    fails loudly instead of surfacing as a ``KeyError`` deep in a restore.
    """
    try:
        value = state.pop(key)
    except KeyError:
        raise StorageError(f"snapshot state is missing {key!r}") from None
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    return arr


def state_int(state: dict[str, np.ndarray], key: str) -> int:
    """Pop a scalar integer from a structural-state dict."""
    arr = state_array(state, key)
    if arr.size != 1:
        raise StorageError(f"snapshot state entry {key!r} is not a scalar")
    return int(arr.reshape(()))


def state_float(state: dict[str, np.ndarray], key: str) -> float:
    """Pop a scalar float from a structural-state dict."""
    arr = state_array(state, key)
    if arr.size != 1:
        raise StorageError(f"snapshot state entry {key!r} is not a scalar")
    return float(arr.reshape(()))


def state_str(state: dict[str, np.ndarray], key: str) -> str:
    """Pop a scalar string from a structural-state dict."""
    arr = state_array(state, key)
    if arr.size != 1:
        raise StorageError(f"snapshot state entry {key!r} is not a scalar")
    return str(arr.reshape(()))


def grown(buffer: np.ndarray, used: int, extra: int, axis: int = 0) -> np.ndarray:
    """*buffer* if it has room for *extra* rows after its first *used*,
    else a copy of those rows in a buffer of at least twice the capacity.

    Doubling makes appends amortized O(1) and keeps the allocation within
    twice the rows held.  "Rows" run along *axis* (1 for a buffer that
    holds one column per object).
    """
    need = used + extra
    if need <= buffer.shape[axis]:
        return buffer
    shape = list(buffer.shape)
    shape[axis] = max(need, 2 * shape[axis])
    bigger = np.empty(shape, buffer.dtype)
    held = (slice(None),) * axis + (slice(used),)
    bigger[held] = buffer[held]
    return bigger


#: Relative slack for pruning tests that compare kernel-evaluated query
#: distances against build-stored bounds (covering radii, parent
#: distances, vantage medians, GNAT ranges).  Those bounds are frequently
#: *exactly tight* — a covering radius IS some member's build-time
#: distance — and under QMap the build's Gram-form L2 matrices agree with
#: the query's difference form only to the last few ulps, so a self-query
#: (or an exact duplicate) would otherwise prune the very subtree holding
#: its zero-distance match.  (The QFD model runs one arithmetic on both
#: sides.)  Slack only ever admits a subtree, never excludes one,
#: so results stay exact; at 1e-12 relative it changes which nodes are
#: visited only at bitwise-boundary coincidences, where the pre-kernel
#: scalar arithmetic visited the node too.
PRUNE_SLACK_REL = 1e-12


def prune_slack(*terms: "float | np.ndarray") -> "float | np.ndarray":
    """Ulp-scale tolerance for a pruning comparison involving *terms*.

    A term may be an array (one value per node entry): the sum runs in the
    same order either way, so an entry's slack is the same float whether
    it is computed alone or with its whole node.
    """
    total = 0.0
    for t in terms:
        total += abs(t)
    return PRUNE_SLACK_REL * total


@dataclass(frozen=True, order=True)
class Neighbor:
    """One query answer: the object's distance and database index.

    Ordering is by ``(distance, index)``, the deterministic convention all
    access methods share.
    """

    distance: float
    index: int


class DistancePort:
    """Uniform access to a distance function, scalar or vectorized.

    Parameters
    ----------
    func:
        ``d(u, v) -> float``.  If the object also has ``one_to_many``
        (e.g. :class:`~repro.distances.base.CountingDistance`), that method
        is used for batched evaluations; otherwise *one_to_many* is used
        when supplied, else a Python loop.
    one_to_many:
        Optional vectorized ``d1m(q, rows) -> ndarray`` fallback.

    Notes
    -----
    Batched evaluation counts one logical distance computation per row —
    the same cost model the paper uses, where vectorization changes
    constants but not the number of distances.
    """

    def __init__(
        self,
        func: Callable[[np.ndarray, np.ndarray], float],
        *,
        one_to_many: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self._func = func
        counter = func if isinstance(func, CountingDistance) else None
        self._counter = counter
        # Uncounted forms: the port charges every evaluation itself — to
        # the query's open record, by the traversal's *logical* access
        # pattern — so it never goes through the counting wrappers.
        self._scalar_uncounted = counter.func if counter is not None else func
        if counter is not None:
            self._vector_uncounted = counter.vectorized
        else:
            bound = getattr(func, "one_to_many", None)
            self._vector_uncounted = bound if callable(bound) else one_to_many
        from ..kernels.kernels import resolve_kernel  # kernels sit below mam

        self._kernel = resolve_kernel(func)

    def pair(
        self, u: np.ndarray, v: np.ndarray, trace: "QueryTrace | None" = None
    ) -> float:
        """One distance evaluation."""
        self.charge(calls=1, trace=trace)
        return float(self._scalar_uncounted(u, v))

    def many(
        self, q: np.ndarray, rows: np.ndarray, trace: "QueryTrace | None" = None
    ) -> np.ndarray:
        """Distances from *q* to every row of *rows*."""
        # One batched row per candidate, as the CountingDistance counts a
        # one-to-many call — also when it has to loop a scalar function.
        self.charge(rows=int(rows.shape[0]), trace=trace)
        return self.compute_many(q, rows)

    def compute_many(self, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Physically evaluate *q*-to-*rows* distances without charging.

        For a traversal that counts its own evaluations and charges the
        port once; the arithmetic is :meth:`many`'s.
        """
        if rows.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        vector = self._vector_uncounted
        if vector is not None:
            return np.asarray(vector(q, np.asarray(rows)), dtype=np.float64)
        scalar = self._scalar_uncounted
        return np.array([scalar(q, row) for row in rows], dtype=np.float64)

    def pair_uncounted(self, u: np.ndarray, v: np.ndarray) -> float:
        """One distance evaluation outside the counting paths.

        Used by snapshot integrity probes: restoring an index must perform
        *zero* logical distance computations (the whole point of persisting
        the structure), yet a loaded file should still be cross-checked
        against the supplied metric — so the probe bypasses the
        :class:`~repro.distances.base.CountingDistance` wrapper.
        """
        return float(self._scalar_uncounted(u, v))

    @property
    def raw(self) -> Callable[[np.ndarray, np.ndarray], float]:
        """The wrapped scalar distance function."""
        return self._func

    @property
    def kernel(self):
        """The resolved batched kernel, or ``None``."""
        return self._kernel

    @property
    def counter(self) -> CountingDistance | None:
        """The wrapped :class:`CountingDistance`, if the distance is one."""
        return self._counter

    def charge(
        self, *, calls: int = 0, rows: int = 0, trace: "QueryTrace | None" = None
    ) -> None:
        """Charge logical evaluations — the port's one charging routine.

        Plain attribute adds on *trace*, by default the context's open
        :class:`~repro.engine.trace.QueryTrace`, whose totals reach the
        :class:`CountingDistance` when the query ends.  Only with no
        query open (build, insert, direct port use) does the charge go
        straight to the counter.  Traversals pass the record they fetched
        once, sparing a context lookup per call.
        """
        if trace is None:
            trace = current_trace()
        if trace is not None:
            trace.charge(calls, rows)
        elif self._counter is not None and (calls or rows):
            self._counter.add_counts(calls=calls, batch_rows=rows)

    def bind_query(
        self, query: np.ndarray, trace: "QueryTrace | None" = None
    ) -> "BoundQuery":
        """Bind *query* into a :class:`BoundQuery` evaluation context.

        With a kernel, every evaluation afterwards goes through its query
        context: the metric's own batched arithmetic, so a bound vector on
        a write path (an insert descending a tree, a routing object during
        a split) stores what :meth:`compute_many` would have.  *trace* is
        the query's open record, charged directly; a lazily consumed
        cursor leaves it ``None`` and charges whatever is current at each
        evaluation — the counter itself when no query is open.
        """
        ctx = None if self._kernel is None else self._kernel.bind(query)
        return BoundQuery(self, query, ctx, trace)

    def pairwise(self, rows: np.ndarray, *, charge: bool = True) -> np.ndarray:
        """Symmetric distance matrix over *rows* (zero diagonal).

        Charges ``n(n-1)/2`` batched rows — the logical cost of evaluating
        each unordered pair once, exactly what the suffix one-to-many loops
        it replaces used to charge.  Pass ``charge=False`` when the caller
        replays a different logical pattern and charges it explicitly.
        """
        n = rows.shape[0]
        if self._kernel is not None:
            out = self._kernel.pairwise(rows)
        else:
            out = np.zeros((n, n), dtype=np.float64)
            if self._vector_uncounted is not None:
                for i in range(n - 1):
                    d = np.asarray(
                        self._vector_uncounted(rows[i], rows[i + 1 :]), dtype=np.float64
                    )
                    out[i, i + 1 :] = d
                    out[i + 1 :, i] = d
            else:
                for i in range(n - 1):
                    for j in range(i + 1, n):
                        d = float(self._scalar_uncounted(rows[i], rows[j]))
                        out[i, j] = d
                        out[j, i] = d
        if charge:
            self.charge(rows=n * (n - 1) // 2)
        return out

    def cross(
        self, rows_a: np.ndarray, rows_b: np.ndarray, *, charge: bool = True
    ) -> np.ndarray:
        """``(len(a), len(b))`` distance matrix between two row batches.

        Charges ``len(a) * len(b)`` batched rows unless ``charge=False``.
        """
        if self._kernel is not None:
            out = self._kernel.cross(rows_a, rows_b)
        elif self._vector_uncounted is not None:
            out = np.stack(
                [
                    np.asarray(self._vector_uncounted(row, rows_b), dtype=np.float64)
                    for row in rows_a
                ]
            )
        else:
            out = np.array(
                [
                    [float(self._scalar_uncounted(a, b)) for b in rows_b]
                    for a in rows_a
                ],
                dtype=np.float64,
            )
        if charge:
            self.charge(rows=rows_a.shape[0] * rows_b.shape[0])
        return out


class BoundQuery:
    """One query bound to a :class:`DistancePort` for repeated evaluation.

    Holds the per-query kernel context.  Physical evaluation is batched;
    *charging* follows the traversal's logical access pattern through the
    explicit ``charge`` arguments — ``"calls"`` for loops that used to make
    per-entry scalar calls and ``"rows"`` for sites that were already
    one-to-many batches;
    a traversal that counts its own evaluations (the M-tree family) uses
    the uncharged :meth:`compute_many` and charges the port once.  This is
    what keeps the paper's distance counts bit-identical under the kernel
    rewrite.
    """

    __slots__ = ("_port", "_query", "_ctx", "trace")

    def __init__(
        self,
        port: DistancePort,
        query: np.ndarray,
        ctx,
        trace: "QueryTrace | None" = None,
    ) -> None:
        self._port = port
        self._query = query
        self._ctx = ctx
        #: The query's open cost record (``None``: look it up per charge).
        self.trace = trace

    @property
    def query(self) -> np.ndarray:
        """The bound query vector."""
        return self._query

    def compute_many(self, rows: np.ndarray) -> np.ndarray:
        """Physically evaluate query-to-rows distances without charging:
        the kernel context's one call (no rows give no distances there as
        in the port's form).  A traversal binds it once per query."""
        ctx = self._ctx
        if ctx is not None:
            return ctx.many(rows)
        return self._port.compute_many(self._query, rows)

    def many(self, rows: np.ndarray, *, charge: str | None = "rows") -> np.ndarray:
        """Query-to-rows distances, charged per *charge* category."""
        out = self.compute_many(rows)
        n = int(out.shape[0])
        if n and charge == "rows":
            self._port.charge(rows=n, trace=self.trace)
        elif n and charge == "calls":
            self._port.charge(calls=n, trace=self.trace)
        return out

    def one(self, row: np.ndarray) -> float:
        """One query-to-row distance, charged as a scalar call."""
        self._port.charge(calls=1, trace=self.trace)
        if self._ctx is not None:
            return self._ctx.one(row)
        return float(self._port._scalar_uncounted(self._query, row))


def neighbors_from_distances(
    distances: ArrayLike, indices: Sequence[int] | np.ndarray | None = None
) -> list[Neighbor]:
    """Sorted :class:`Neighbor` list from parallel distance/index arrays."""
    dist = np.asarray(distances, dtype=np.float64)
    if indices is None:
        idx: Sequence[int] = range(dist.shape[0])
    else:
        idx = list(indices)
    out = [Neighbor(float(d), int(i)) for d, i in zip(dist, idx)]
    out.sort()
    return out


def _answer(result: list[Neighbor], trace: "QueryTrace") -> list[Neighbor]:
    """A query's answer put in order, its size noted on the open record."""
    result.sort()
    trace.results = len(result)
    return result


class AccessMethod(ABC):
    """Base class for all metric/spatial access methods.

    Subclasses receive the database and the distance at construction,
    perform any build work there (or via dynamic inserts), and implement
    :meth:`_range_search` / :meth:`_knn_search`.  Argument validation and
    result-ordering guarantees live here so every index behaves uniformly.
    """

    #: Whether this structure's build and search touch vector data only
    #: through the :class:`DistancePort` batch paths and per-row copies —
    #: the contract that lets it keep a memory-mapped database as the raw
    #: float32 view instead of a heap-resident float64 copy.
    supports_out_of_core = False

    def __init__(self, database: ArrayLike, distance: DistancePort | Callable) -> None:
        port = distance if isinstance(distance, DistancePort) else DistancePort(distance)
        data = self._coerce_database(database)
        if data.shape[0] == 0:
            raise EmptyIndexError("cannot build an index over an empty database")
        self._data = data
        self._row_buffer: np.ndarray | None = None  # once inserts start
        self._port = port

    def _coerce_database(self, database: ArrayLike) -> np.ndarray:
        """The stored database array for *database*.

        Default: a validated float64 heap copy (`as_vector_batch`).
        Out-of-core-capable structures keep an ``np.memmap`` (what
        :attr:`~repro.storage.mmap_store.MmapVectorStore.rows` returns)
        as-is — zero copies; the kernels upcast its rows tile by tile to
        the floats of the heap copy.
        """
        if (
            type(self).supports_out_of_core
            and isinstance(database, np.memmap)
            and database.ndim == 2
            and database.dtype in (np.float32, np.float64)
        ):
            return database
        return as_vector_batch(database, name="database")

    def __getstate__(self) -> dict:
        # Spare insert capacity is not worth shipping to a worker process;
        # a copy regrows its own buffer on its next insert.
        return {**self.__dict__, "_row_buffer": None}

    @property
    def database(self) -> np.ndarray:
        """The indexed ``(m, n)`` database (row order = object index)."""
        return self._data

    @property
    def size(self) -> int:
        """Number of indexed objects ``m``."""
        return self._data.shape[0]

    @property
    def dim(self) -> int:
        """Vector dimensionality ``n``."""
        return self._data.shape[1]

    @property
    def distance(self) -> DistancePort:
        """The distance port used for every evaluation."""
        return self._port

    def range_search(self, query: ArrayLike, radius: float) -> list[Neighbor]:
        """All objects within *radius* of *query*, sorted by distance."""
        q = as_vector(query, self.dim, name="query")
        if radius < 0.0:
            raise QueryError(f"radius must be non-negative, got {radius}")
        return self._search("range", self._range_search, q, float(radius))

    def knn_search(self, query: ArrayLike, k: int) -> list[Neighbor]:
        """The *k* nearest objects (fewer only if the database is smaller)."""
        q = as_vector(query, self.dim, name="query")
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        return self._search("knn", self._knn_search, q, min(k, self.size))

    def _search(
        self,
        kind: str,
        search: Callable[..., list[Neighbor]],
        query: np.ndarray,
        parameter: float,
    ) -> list[Neighbor]:
        """One query under its cost record — the open one, if an outer
        layer (``BuiltIndex``, ``explain_query``) opened it.  When the
        query ends, also by raising, what it spent is fed to the port's
        counter: one lock acquisition, however many evaluations."""
        with query_trace(kind, parameter) as trace:
            try:
                return _answer(search(query, parameter), trace)
            finally:
                fold_into(self._port.counter, (trace,))

    def range_search_batch(
        self,
        queries: ArrayLike,
        radius: float,
        *,
        executor: "str | BatchExecutor | None" = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        collector: "TraceCollector | None" = None,
    ) -> list[list[Neighbor]]:
        """Range queries for a whole batch, one result list per query.

        Results are bit-identical to looping :meth:`range_search`; the
        batch form validates once, lets structures with a vectorized
        batch hook amortize their scans, and can fan chunks out over a
        thread or process pool (see :mod:`repro.engine`).  Attach a
        :class:`~repro.engine.trace.TraceCollector` to receive one
        :class:`~repro.engine.trace.QueryTrace` per query.
        """
        from ..engine.batch import run_query_batch  # engine sits above mam

        return run_query_batch(
            self,
            "range",
            queries,
            float(radius),
            executor=executor,
            workers=workers,
            chunk_size=chunk_size,
            collector=collector,
        )

    def knn_search_batch(
        self,
        queries: ArrayLike,
        k: int,
        *,
        executor: "str | BatchExecutor | None" = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        collector: "TraceCollector | None" = None,
    ) -> list[list[Neighbor]]:
        """kNN for a whole batch of queries; see :meth:`range_search_batch`."""
        from ..engine.batch import run_query_batch  # engine sits above mam

        return run_query_batch(
            self,
            "knn",
            queries,
            k,
            executor=executor,
            workers=workers,
            chunk_size=chunk_size,
            collector=collector,
        )

    def _range_search_batch(
        self, queries: np.ndarray, radius: float, traces: "list[QueryTrace]"
    ) -> list[list[Neighbor]]:
        """Chunk hook: already-validated queries, sorted per-query results.

        *traces* are the queries' cost records, made (and later folded
        into the counter) by the batch engine; a hook makes each current
        while it works on that query.  The default runs the single-query
        search per row; a subclass with a genuinely vectorizable batch
        plan (the sequential file) overrides it.
        """
        return self._search_each(
            traces, lambda pos: self._range_search(queries[pos], radius)
        )

    def _knn_search_batch(
        self, queries: np.ndarray, k: int, traces: "list[QueryTrace]"
    ) -> list[list[Neighbor]]:
        """Chunk hook for kNN batches (*k* already clamped); see above."""
        return self._search_each(traces, lambda pos: self._knn_search(queries[pos], k))

    @staticmethod
    def _search_each(
        traces: "list[QueryTrace]", search: Callable[[int], "list[Neighbor]"]
    ) -> list[list[Neighbor]]:
        """``search(pos)`` for every query of a chunk, each under its record."""
        out: list[list[Neighbor]] = []
        for pos, trace in enumerate(traces):
            with activate_trace(trace):
                out.append(_answer(search(pos), trace))
        return out

    # ------------------------------------------------------------------
    # structural snapshots (persistence protocol)
    # ------------------------------------------------------------------

    def structural_state(self) -> dict[str, np.ndarray]:
        """Arrays describing the built structure, without the database.

        The returned dict holds only plain numeric/string numpy arrays —
        tree topology flattened to parallel index/float arrays, never
        vectors (recoverable from the database by object index) and never
        code objects — so :mod:`repro.persistence` can write it to a
        portable ``.npz`` archive.  Structures with no state beyond the
        stored rows (the sequential file) return an empty dict.
        """
        return {}

    @classmethod
    def from_state(
        cls,
        database: ArrayLike,
        distance: "DistancePort | Callable | None",
        state: dict[str, np.ndarray],
    ) -> "AccessMethod":
        """Reassemble an index from *database* plus a structural state.

        The inverse of :meth:`structural_state`: performs **zero** distance
        evaluations — every derived attribute is rebuilt from the stored
        arrays, never recomputed through the metric.  The caller is
        responsible for passing the same distance function the structure
        was built with (SAMs may pass ``None`` to rebuild their default
        Minkowski distance).
        """
        instance = cls.__new__(cls)
        instance._init_restore(database, distance, dict(state))
        return instance

    def _init_restore(
        self,
        database: ArrayLike,
        distance: "DistancePort | Callable | None",
        state: dict[str, np.ndarray],
    ) -> None:
        """Initialization path used by :meth:`from_state`.

        Subclasses whose constructor needs state *before* the base
        initialization (e.g. SAMs building their default distance from the
        stored Minkowski order) override this; everyone else just gets
        ``__init__``-equivalent base setup followed by
        :meth:`_restore_state`.
        """
        if distance is None:
            raise StorageError(
                f"{type(self).__name__} needs the distance function it was "
                "built with to restore a snapshot"
            )
        AccessMethod.__init__(self, database, distance)
        self._restore_state(state)

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        """Subclass hook rebuilding structure attributes from state arrays.

        Implementations pop the keys they own (via :func:`state_array` and
        friends) and finish with ``super()._restore_state(state)``, which
        rejects leftovers — a snapshot written by a different method or
        format version fails here instead of silently dropping data.
        """
        if state:
            raise StorageError(
                f"unexpected snapshot state keys for {type(self).__name__}: "
                f"{sorted(state)}"
            )

    def _verify_state_probe(self) -> None:
        """Cheap integrity probe of a restored structure (load-time check).

        Re-evaluates a sampled stored bound through
        :meth:`DistancePort.pair_uncounted` — keeping the zero-evaluation
        guarantee of :meth:`from_state` — and raises
        :class:`~repro.exceptions.StorageError` when the supplied distance
        disagrees with the stored structure.  The base implementation does
        nothing; structures with re-checkable bounds override it.
        """

    @property
    def supports_inserts(self) -> bool:
        """Whether this structure implements the dynamic-insert hook."""
        return type(self)._register_insert is not AccessMethod._register_insert

    def insert(self, vector: ArrayLike) -> int:
        """Dynamically insert one object, returning its new index.

        The paper's Section 6: the QMap model "allows similarity searching
        in dynamically changing databases without any distortion" — unlike
        the database-dependent SVD/KLT reductions of Section 2.3.1, whose
        embeddings degrade as the database drifts.  Every access method in
        this library therefore supports dynamic inserts; structures
        designed around static builds (vp-tree, GNAT, VA-file) absorb new
        objects into existing regions, which keeps queries exact at the
        cost of gradually looser partitions.

        The operation is atomic with respect to the stored database: if
        the structure does not support inserts, or its insert hook fails
        partway, the appended row is rolled back so ``size`` and queries
        are exactly as before the call.
        """
        v = as_vector(vector, self.dim, name="vector")
        if not self.supports_inserts:
            raise IndexStateError(
                f"{type(self).__name__} does not support dynamic inserts"
            )
        if isinstance(self._data, np.memmap) or self._data.dtype != np.float64:
            # vstack over an out-of-core store would materialize the
            # whole database on the heap — exactly what the mmap path
            # exists to avoid.  Out-of-core indexes are static.
            raise IndexStateError(
                "out-of-core (memory-mapped) indexes are static; rebuild "
                "the index to add objects"
            )
        index = self.size
        previous = self._data
        # Rows live in a geometrically grown buffer and ``_data`` is its
        # filled prefix, so an insert copies the database only when the
        # capacity doubles, and row views handed to the hook pin that one
        # buffer instead of a fresh full copy per object.  The array the
        # index was built over is never written: it has no spare capacity.
        store = grown(previous if self._row_buffer is None else self._row_buffer, index, 1)
        store[index] = v
        self._row_buffer = store
        self._data = store[: index + 1]
        try:
            self._register_insert(index, self._data[index])
        except BaseException:
            self._data = previous
            raise
        return index

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Subclass hook updating the structure for a freshly stored row."""
        raise IndexStateError(
            f"{type(self).__name__} does not support dynamic inserts"
        )

    @abstractmethod
    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        """Subclass hook; may return results unsorted."""

    @abstractmethod
    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """Subclass hook; may return results unsorted."""


class NodeBatchedSearchMixin:
    """Search plumbing for tree MAMs whose traversals use :class:`BoundQuery`.

    Subclasses implement ``_range_impl(bound, radius)`` and
    ``_knn_impl(bound, k)`` over a bound query; this mixin binds the query
    — its kernel context and the query's open cost record
    (``bound.trace``), fetched here once.
    """

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        bound = self._port.bind_query(query, current_trace())
        return self._range_impl(bound, radius)

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        bound = self._port.bind_query(query, current_trace())
        return self._knn_impl(bound, k)

    def _range_impl(self, bound: BoundQuery, radius: float) -> list[Neighbor]:
        raise NotImplementedError

    def _knn_impl(self, bound: BoundQuery, k: int) -> list[Neighbor]:
        raise NotImplementedError


class _KnnHeap:
    """Bounded max-heap of the current k best neighbors.

    Shared helper for best-first kNN algorithms: keeps the k smallest
    distances seen, exposes the current pruning radius, and resolves
    distance ties by preferring smaller indices so results are
    deterministic.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        self._k = k
        # Max-heap via negated distance; tie-break prefers *larger* index
        # for eviction, i.e. keeps smaller indices.
        self._heap: list[tuple[float, int]] = []

    def offer(self, distance: float, index: int) -> float:
        """Consider an object for the top-k; returns the resulting radius.

        An object farther than the current radius can never enter, so a
        scan holding the returned radius in a local may skip those offers.
        """
        item = (-distance, -index)
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, item)
        elif item > self._heap[0]:
            heapq.heapreplace(self._heap, item)
        return self.radius

    @property
    def radius(self) -> float:
        """Current kth-best distance (inf while the heap is not full)."""
        if len(self._heap) < self._k:
            return float("inf")
        return -self._heap[0][0]

    def neighbors(self) -> list[Neighbor]:
        """The collected neighbors, sorted."""
        out = [Neighbor(-d, -i) for d, i in self._heap]
        out.sort()
        return out

    def __len__(self) -> int:
        return len(self._heap)
