"""Shared machinery of the QFD and QMap models (paper Section 4).

A *model* decides how the database and queries are represented and which
distance the access method sees:

* **QFD model** — raw histograms, black-box QFD (O(n^2) per evaluation);
* **QMap model** — histograms mapped through the Cholesky factor once,
  plain Euclidean distance (O(n) per evaluation), distances *exactly*
  preserved.

Both models build the same access methods through one registry, and both
report their costs through :class:`IndexCosts`: distance evaluations
(counted by :class:`~repro.distances.base.CountingDistance`) and vector
transformations — the two quantities whose trade-off Tables 1 and 2
analyze.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .._typing import ArrayLike, as_vector, as_vector_batch
from ..distances.base import CountingDistance
from ..engine.trace import QueryTrace, activate_trace, fold_into, query_trace
from ..exceptions import QueryError
from ..mam.base import AccessMethod, DistancePort, Neighbor
from ..obs import (
    BATCH_OWNER,
    get_logger,
    get_registry,
    log_event,
    record_build_costs,
    record_cache_stats,
    record_cholesky_cache,
    record_index_description,
    record_memory,
    record_query_error,
    report_queries,
    span,
    trace_scope,
)
from ..storage.mmap_store import MmapVectorStore
from ..mam.gnat import GNAT
from ..mam.mindex import MIndex
from ..mam.mtree import MTree
from ..mam.paged_mtree import PagedMTree
from ..mam.pivot_table import PivotTable
from ..mam.sat import SATree
from ..mam.sequential import DiskSequentialFile, SequentialFile
from ..mam.vptree import VPTree
from ..sam.rtree import RTree
from ..sam.vafile import VAFile
from ..sam.xtree import XTree

__all__ = [
    "IndexCosts",
    "BuiltIndex",
    "MAM_REGISTRY",
    "SAM_REGISTRY",
    "STORES",
    "resolve_method",
    "resolve_store",
    "restore_distance",
    "record_build_metrics",
    "finish_index",
    "restore_index",
]

#: Database record backends a model build accepts.
STORES = ("heap", "mmap")

#: MAMs take (database, distance, **kwargs).
MAM_REGISTRY: dict[str, type[AccessMethod]] = {
    "sequential": SequentialFile,
    "disk-sequential": DiskSequentialFile,
    "pivot-table": PivotTable,
    "mtree": MTree,
    "paged-mtree": PagedMTree,
    "mindex": MIndex,
    "sat": SATree,
    "vptree": VPTree,
    "gnat": GNAT,
}

#: SAMs take (database, **kwargs) — they pick the distance at query time.
SAM_REGISTRY: dict[str, type[AccessMethod]] = {
    "rtree": RTree,
    "xtree": XTree,
    "vafile": VAFile,
}


def resolve_method(name: str) -> tuple[type[AccessMethod], bool]:
    """Look up an access method by registry name.

    Returns ``(cls, is_sam)``.
    """
    if name in MAM_REGISTRY:
        return MAM_REGISTRY[name], False
    if name in SAM_REGISTRY:
        return SAM_REGISTRY[name], True
    known = sorted(MAM_REGISTRY) + sorted(SAM_REGISTRY)
    raise QueryError(f"unknown access method {name!r}; choose from {known}")


@dataclass(frozen=True)
class IndexCosts:
    """Cost snapshot of a build or a batch of queries.

    Attributes
    ----------
    distance_computations:
        Logical distance evaluations (the paper's primary cost unit).
    transforms:
        Vector transformations into the Euclidean space (QMap model only;
        each costs O(n^2), same order as one QFD evaluation).
    seconds:
        Wall-clock time, when measured by the caller (0 otherwise).
    """

    distance_computations: int
    transforms: int
    seconds: float = 0.0

    def __add__(self, other: "IndexCosts") -> "IndexCosts":
        return IndexCosts(
            self.distance_computations + other.distance_computations,
            self.transforms + other.transforms,
            self.seconds + other.seconds,
        )


def resolve_store(
    database: ArrayLike,
    dim: int | None,
    *,
    store: str = "heap",
    store_dtype: "str | np.dtype | None" = None,
    store_path: "str | None" = None,
) -> tuple[np.ndarray, "MmapVectorStore | None"]:
    """Resolve a model database into ``(rows, backing_store)``.

    ``store="heap"`` keeps the historical in-memory float64 path; with a
    ``store_dtype`` of float32 the rows are additionally *rounded through*
    float32 — the exact heap twin of an mmap-backed build, which the
    bit-identity property tests compare against.

    ``store="mmap"`` returns a zero-copy view over a
    :class:`~repro.storage.MmapVectorStore`: an existing store (or raw
    ``np.memmap``) is used as-is, any other array-like is spilled into a
    fresh store block-by-block (``store_path`` persists it; the default
    is an unlinked temporary file).  The returned store must be kept
    alive as long as the rows view is used — model builds stash it on
    the built index.
    """
    if store not in STORES:
        raise QueryError(f"unknown store {store!r}; choose from {list(STORES)}")
    if store == "heap":
        data = as_vector_batch(database, dim, name="database")
        if store_dtype is not None and np.dtype(store_dtype) != np.float64:
            data = data.astype(np.dtype(store_dtype)).astype(np.float64)
        return data, None
    if isinstance(database, MmapVectorStore):
        rows = database.rows
        backing: MmapVectorStore | None = database
    elif isinstance(database, np.memmap):
        rows = database
        backing = None
    else:
        backing = MmapVectorStore.from_array(
            np.atleast_2d(np.asarray(database)),
            dtype=store_dtype or "float32",
            path=store_path,
        )
        rows = backing.rows
    if rows.ndim != 2 or (dim is not None and rows.shape[1] != dim):
        raise QueryError(
            f"database shape {rows.shape} does not match expected "
            f"dimensionality {dim}"
        )
    return rows, backing


def restore_distance(
    counter: CountingDistance,
    snapshot: Any,
    *,
    store: str = "heap",
    store_path: "str | None" = None,
    force_port: bool = False,
) -> tuple[Any, "MmapVectorStore | None"]:
    """Snapshot-restore companion of :func:`resolve_store`.

    Returns ``(distance, backing_store)`` for
    :func:`repro.persistence.load_index`: with ``store="mmap"`` the
    archived rows are spilled block-by-block into a memory-mapped store
    (pass its ``rows`` as the load's database override), which the
    restored index reads exactly like a fresh out-of-core build.
    *force_port* wraps the counter in a
    :class:`~repro.mam.base.DistancePort` (the SAM refinement contract).
    """
    if store not in STORES:
        raise QueryError(f"unknown store {store!r}; choose from {list(STORES)}")
    backing: MmapVectorStore | None = None
    if store == "mmap":
        db = np.asarray(snapshot.database)
        dtype = db.dtype if db.dtype in (np.float32, np.float64) else np.float64
        backing = MmapVectorStore.from_array(db, dtype=dtype, path=store_path)
    return (DistancePort(counter) if force_port else counter), backing


def _page_cache(am: AccessMethod) -> Any:
    """The LRU page cache backing *am*, if it has one (else ``None``)."""
    cache = getattr(am, "cache", None)
    if cache is not None:
        return cache
    store = getattr(am, "store", None)
    return getattr(store, "cache", None) if store is not None else None


def record_build_metrics(
    am: AccessMethod,
    counter: CountingDistance,
    *,
    model: str,
    method: str,
    transforms: int = 0,
    seconds: float = 0.0,
    event: str = "build",
) -> None:
    """Funnel a finished build into the active observability registry.

    Call *before* the model resets its counter: the build-phase
    evaluations are recorded one-shot here (labeled ``phase="build"``);
    the query phase is reported query by query.  A no-op with the
    null registry.  When the structured JSON-lines logger is active, one
    *event* record (``"build"`` or ``"load"``) with the exact build-phase
    costs is emitted regardless of the registry — inside a trace scope,
    so the record carries a ``trace_id``.
    """
    logger = get_logger()
    if logger.enabled:
        with trace_scope():
            log_event(
                event,
                model=model,
                method=method,
                distance_computations=int(counter.count),
                transforms=transforms or None,
                seconds=round(seconds, 6) if seconds else None,
            )
    registry = get_registry()
    if not registry.enabled:
        return
    record_build_costs(
        counter.stats, registry=registry, model=model, method=method, transforms=transforms
    )
    from ..kernels.cholesky_cache import cholesky_cache_info
    from ..mam.stats import describe_index

    record_cholesky_cache(cholesky_cache_info(), registry=registry)
    try:
        description = describe_index(am)
    except Exception:
        # Diagnostics must never break a build; structure gauges are
        # best-effort for exotic hand-wired methods.
        description = None
    if description is not None:
        record_index_description(
            description, registry=registry, model=model, method=method
        )
    cache = _page_cache(am)
    if cache is not None:
        record_cache_stats(cache.stats, registry=registry)
    record_memory(registry=registry, model=model, method=method, phase="build")


class BuiltIndex:
    """An access method bound to a model's representation and counters.

    Query methods accept vectors in the *source* (QFD) space; the QMap
    model transforms them on the way in (and counts the transform), so the
    two models are interchangeable drop-ins for the benches and tests.
    """

    def __init__(
        self,
        access_method: AccessMethod,
        counter: CountingDistance,
        *,
        model_name: str,
        query_mapper: Callable[[np.ndarray], np.ndarray] | None = None,
        batch_mapper: Callable[[np.ndarray], np.ndarray] | None = None,
        build_costs: IndexCosts,
        method_name: str | None = None,
        source_matrix: np.ndarray | None = None,
    ) -> None:
        self._am = access_method
        self._counter = counter
        self._model_name = model_name
        self._query_mapper = query_mapper
        self._batch_mapper = batch_mapper
        self._build_costs = build_costs
        self._method_name = method_name
        self._source_matrix = source_matrix
        self._query_transforms = 0
        #: Transforms one mapped query or inserted vector costs (QMap: 1).
        self._transforms_per_vector = int(query_mapper is not None)

    @property
    def access_method(self) -> AccessMethod:
        """The underlying index structure."""
        return self._am

    @property
    def model_name(self) -> str:
        """``"qfd"`` or ``"qmap"``."""
        return self._model_name

    @property
    def build_costs(self) -> IndexCosts:
        """Costs spent building the index (including data transforms)."""
        return self._build_costs

    @property
    def method_name(self) -> str | None:
        """Registry name of the access method (``None`` if hand-wired)."""
        return self._method_name

    def save(self, path: object, *, extra_meta: "dict[str, Any] | None" = None) -> str:
        """Snapshot the built index, the model marker and the QFD matrix.

        The archive restores through :meth:`QFDModel.load_index` /
        :meth:`QMapModel.load_index` (which re-check the matrix) or
        :func:`repro.models.load_built_index` (which rebuilds the model
        from the stored matrix) — in all cases with zero distance
        evaluations.  Returns the path written.
        """
        from ..exceptions import StorageError
        from ..persistence import save_index

        if self._method_name is None or self._source_matrix is None:
            raise StorageError(
                "this index was not built through a model pipeline; "
                "snapshot the access method with repro.persistence.save_index"
            )
        meta: dict[str, Any] = {
            "model": np.str_(self._model_name),
            "matrix": np.asarray(self._source_matrix, dtype=np.float64),
            "build_distance_computations": np.int64(
                self._build_costs.distance_computations
            ),
            "build_transforms": np.int64(self._build_costs.transforms),
            "build_seconds": np.float64(self._build_costs.seconds),
        }
        for key, value in (extra_meta or {}).items():
            meta[key] = value
        return save_index(self._am, path, meta=meta)

    def _map_query(self, query: ArrayLike) -> np.ndarray:
        q = as_vector(query, name="query")
        if self._query_mapper is None:
            return q
        mapped = self._query_mapper(q)
        self._query_transforms += 1
        return mapped

    def _method_label(self) -> str:
        return self._method_name or type(self._am).__name__

    def _report(
        self, record: QueryTrace, kind: str, transforms: int, *, answered: bool = True
    ) -> None:
        """One finished query or insert to the active sinks, once."""
        report_queries(
            (record,), model=self._model_name, method=self._method_label(),
            kind=kind, transforms=transforms, answered=answered,
        )
        self._refresh_cache_gauges()

    def _refresh_cache_gauges(self) -> None:
        cache = _page_cache(self._am)
        if cache is not None:
            record_cache_stats(cache.stats)

    def _run_single(
        self,
        kind: str,
        parameter: float,
        query: ArrayLike,
        search: Callable[[np.ndarray], list[Neighbor]],
    ) -> list[Neighbor]:
        """Run one query under its cost record and the active sinks.

        The record is opened here (or joined, under ``explain_query``) and
        filled by the access method, which also feeds the model counter
        when the query ends; everything reported — through
        :func:`~repro.obs.report_queries`, once, also when the query
        raises — is read off that record, never off the shared counter, so
        it is exact under concurrent queries.  With either sink on, the
        query runs inside a trace scope (minting a root context if the
        caller has none) and a failure is accounted through
        :func:`record_query_error`.
        """
        registry = get_registry()
        observing = registry.enabled or get_logger().enabled
        transforms = 0
        with trace_scope() if observing else nullcontext():
            try:
                with query_trace(kind, parameter) as trace:
                    mapped = self._map_query(query)
                    transforms = self._transforms_per_vector
                    result = search(mapped)
            except BaseException as exc:
                if observing:
                    self._report(trace, kind, transforms, answered=False)
                    record_query_error(
                        exc, registry=registry, model=self._model_name,
                        method=self._method_label(), kind=kind,
                    )
                raise
            if observing:
                self._report(trace, kind, transforms)
            return result

    def knn_search(self, query: ArrayLike, k: int) -> list[Neighbor]:
        """kNN in the source space (transforming the query if needed)."""
        return self._run_single("knn", float(k), query, lambda q: self._am.knn_search(q, k))

    def range_search(self, query: ArrayLike, radius: float) -> list[Neighbor]:
        """Range query in the source space (radii are preserved exactly)."""
        return self._run_single(
            "range", float(radius), query, lambda q: self._am.range_search(q, radius)
        )

    def knn_search_batch(
        self,
        queries: ArrayLike,
        k: int,
        *,
        executor: Any = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        collector: Any = None,
    ) -> list[list[Neighbor]]:
        """kNN for a whole batch of source-space queries.

        In the QMap model all queries are transformed in one matrix-matrix
        product, amortizing the O(n^2) per-query mapping cost.  The mapped
        batch then runs through the :mod:`repro.engine` planner: pass
        ``executor``/``workers`` to parallelize and ``collector`` (a
        :class:`~repro.engine.trace.TraceCollector`) for per-query cost
        traces.  :meth:`query_costs` reads the same under every executor:
        worker processes ship their per-query records back and the engine
        folds them into the model's counter.
        """
        return self._run_batch(
            "knn",
            queries,
            lambda mapped: self._am.knn_search_batch(
                mapped, k, executor=executor, workers=workers,
                chunk_size=chunk_size, collector=collector,
            ),
        )

    def range_search_batch(
        self,
        queries: ArrayLike,
        radius: float,
        *,
        executor: Any = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        collector: Any = None,
    ) -> list[list[Neighbor]]:
        """Range queries for a whole batch of source-space queries.

        Same engine plumbing as :meth:`knn_search_batch`; range radii are
        preserved exactly by the QMap transform, so batch results in both
        models are directly comparable.
        """
        return self._run_batch(
            "range",
            queries,
            lambda mapped: self._am.range_search_batch(
                mapped, float(radius), executor=executor, workers=workers,
                chunk_size=chunk_size, collector=collector,
            ),
        )

    def _run_batch(
        self,
        kind: str,
        queries: ArrayLike,
        run: Callable[[np.ndarray], list[list[Neighbor]]],
    ) -> list[list[Neighbor]]:
        """Run a batch call, accounting a failure against this index.

        The engine reports the batch (:meth:`QueryBatch.run`); this layer
        contributes what only it knows — the model label and the batch's
        transform count (:data:`~repro.obs.BATCH_OWNER`).  The engine's own
        trace scope is entered inside the call; opening one here first
        (only when a sink is active — :func:`trace_scope` is idempotent)
        means a query that raises mid-batch is logged and counted under the
        same ``trace_id`` as the batch that carried it.
        """
        registry = get_registry()
        observing = registry.enabled or get_logger().enabled
        with trace_scope() if observing else nullcontext():
            try:
                mapped = self._map_query_batch(queries)
                transforms = mapped.shape[0] * self._transforms_per_vector
                owner = BATCH_OWNER.set((self._model_name, transforms))
                try:
                    return run(mapped)
                finally:
                    BATCH_OWNER.reset(owner)
            except BaseException as exc:
                record_query_error(
                    exc, registry=registry, model=self._model_name,
                    method=self._method_label(), kind=kind,
                )
                raise
            finally:
                if registry.enabled:
                    self._refresh_cache_gauges()

    def _map_query_batch(self, queries: ArrayLike) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if self._query_mapper is None:
            return rows
        if self._batch_mapper is not None:
            mapped = self._batch_mapper(rows)
        else:
            mapped = np.array([self._query_mapper(q) for q in rows])
        self._query_transforms += rows.shape[0]
        return mapped

    def insert(self, vector: ArrayLike) -> int:
        """Dynamically insert a source-space vector, returning its index.

        In the QMap model the vector is transformed first (one O(n^2)
        product, counted); the underlying structure then pays its normal
        insertion distances.  This is the "dynamically changing databases
        without any distortion" property of paper Section 6 — unlike the
        database-dependent reductions of Section 2.3.1, the map never
        degrades as objects arrive.

        The insert runs under a cost record of its own, whose totals are
        fed to the model counter and the cumulative registry counters
        when it ends; it is not a query and reports nothing per query.
        """
        record = QueryTrace(kind="insert")
        transforms = 0
        try:
            with activate_trace(record):
                mapped = self._map_query(vector)
                transforms = self._transforms_per_vector
                return self._am.insert(mapped)
        finally:
            fold_into(self._counter, (record,))
            if get_registry().enabled:
                self._report(record, "insert", transforms, answered=False)

    def reset_query_costs(self) -> None:
        """Zero the query-time counters (call between measured batches)."""
        self._counter.reset()
        self._query_transforms = 0

    def query_costs(self, seconds: float = 0.0) -> IndexCosts:
        """Costs accumulated since the last :meth:`reset_query_costs`."""
        return IndexCosts(
            distance_computations=self._counter.count,
            transforms=self._query_transforms,
            seconds=seconds,
        )


def instantiate(
    name: str,
    database: np.ndarray,
    counter: CountingDistance,
    kwargs: dict[str, Any],
) -> AccessMethod:
    """Build a registry access method, wiring the model's counter in.

    MAMs take the distance as their black box; SAMs pick their own query
    distance but accept an injected refinement counter so the experiments
    can account their distance evaluations identically.
    """
    cls, is_sam = resolve_method(name)
    if is_sam:
        return cls(database, refine_distance=DistancePort(counter), **kwargs)
    return cls(database, counter, **kwargs)


def finish_index(
    model: Any,
    am: AccessMethod,
    counter: CountingDistance,
    backing: "MmapVectorStore | None",
    *,
    method: str,
    seconds: float,
    transforms: int = 0,
    event: str = "build",
    query_mapper: Callable[[np.ndarray], np.ndarray] | None = None,
    batch_mapper: Callable[[np.ndarray], np.ndarray] | None = None,
) -> BuiltIndex:
    """The tail every model build and restore shares.

    Pins the backing store, snapshots the build-phase costs off
    *counter*, reports them (``record_build_metrics``), zeroes the
    counter for the query phase and wraps everything as a
    :class:`BuiltIndex` of *model* (its ``name`` and ``qfd.matrix``).
    """
    if backing is not None:
        # The rows view aliases the mapping; pin the store to the index
        # so the file outlives every query against it.
        am._backing_store = backing
    build_costs = IndexCosts(
        distance_computations=counter.count, transforms=transforms, seconds=seconds
    )
    record_build_metrics(
        am, counter, model=model.name, method=method, transforms=transforms,
        seconds=seconds, event=event,
    )
    counter.reset()
    return BuiltIndex(
        am,
        counter,
        model_name=model.name,
        query_mapper=query_mapper,
        batch_mapper=batch_mapper,
        build_costs=build_costs,
        method_name=method,
        source_matrix=model.qfd.matrix,
    )


def restore_index(
    model: Any,
    source: Any,
    counter: CountingDistance,
    *,
    accepts_sams: bool,
    query_mapper: Callable[[np.ndarray], np.ndarray] | None = None,
    batch_mapper: Callable[[np.ndarray], np.ndarray] | None = None,
    verify: bool = True,
    store: str = "heap",
    store_path: "str | None" = None,
) -> BuiltIndex:
    """Restore a snapshot into *model*: the body of both ``load_index``.

    The models differ in four values: the distance behind *counter*, the
    query/batch mappers, and whether a SAM snapshot is accepted (the
    QMap model, whose restored SAM refines through a forced
    :class:`~repro.mam.base.DistancePort`) or refused (the QFD model).
    Everything else — reading *source*, checking that this model with
    this matrix saved it, re-wiring the structure at zero distance
    evaluations, pinning an mmap backing store, the ``load`` record — is
    the same.
    """
    from ..exceptions import StorageError
    from ..persistence import IndexSnapshot, codec_for, load_index, read_snapshot

    snapshot = source if isinstance(source, IndexSnapshot) else read_snapshot(source)
    label = snapshot.path or "snapshot"
    saved_by = str(snapshot.meta.get("model", "<missing>"))
    if saved_by != model.name:
        raise StorageError(
            f"{label} was saved by the {saved_by!r} model, expected {model.name!r}"
        )
    matrix = snapshot.meta.get("matrix")
    if matrix is None or not np.allclose(
        np.asarray(matrix, dtype=np.float64), model.qfd.matrix, rtol=1e-9, atol=1e-12
    ):
        raise StorageError(
            f"{label}: snapshot's QFD matrix disagrees with the model's "
            "(wrong matrix?)"
        )
    is_sam = codec_for(snapshot.method).is_sam
    if is_sam and not accepts_sams:
        raise QueryError(
            f"SAM {snapshot.method!r} cannot index the raw QFD space; "
            "transform it with the QMap model first (paper Section 2.4)"
        )
    distance, backing = restore_distance(
        counter, snapshot, store=store, store_path=store_path, force_port=is_sam,
    )
    with span(f"load/{snapshot.method}", model=model.name):
        start = time.perf_counter()
        am = load_index(
            snapshot,
            distance,
            verify=verify,
            database=None if backing is None else backing.rows,
        )
        elapsed = time.perf_counter() - start
    return finish_index(
        model, am, counter, backing, method=snapshot.method, seconds=elapsed,
        event="load", query_mapper=query_mapper, batch_mapper=batch_mapper,
    )
