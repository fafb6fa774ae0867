"""Pluggable execution backends for the batch query engine.

Three strategies, one protocol — :meth:`BatchExecutor.chunks` splits a
batch into contiguous ranges, :meth:`BatchExecutor.map` applies a
function to one item per range and returns the results in order:

* :class:`SerialExecutor` — one chunk, run by the calling thread; the
  baseline, and on every ledger workload the fastest (ROADMAP item 5).
* :class:`ThreadPoolBatchExecutor` — ``concurrent.futures`` threads, a
  few chunks per worker.  Pool threads do not inherit the submitter's
  contextvars; whatever a chunk needs of them travels in its arguments.
* :class:`ProcessPoolBatchExecutor` — worker processes, one chunk per
  worker, for scalar Python-callable distances the GIL would serialize.
  The mapped function is pickled once, before any worker starts.

Executors know nothing about queries; the query semantics live in
:mod:`repro.engine.batch`.  A batch of one chunk, or one worker, never
starts a pool.
"""

from __future__ import annotations

import functools
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

from ..exceptions import QueryError

__all__ = [
    "BatchExecutor",
    "SerialExecutor",
    "ThreadPoolBatchExecutor",
    "ProcessPoolBatchExecutor",
    "EXECUTOR_REGISTRY",
    "resolve_executor",
]

T = TypeVar("T")


def _at_least_one(name: str, value: int | None) -> int | None:
    if value is not None and value < 1:
        raise QueryError(f"{name} must be >= 1, got {value}")
    return value


class BatchExecutor:
    """Strategy interface: split a batch into chunks, map over them.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 8 (beyond
        that the memory bandwidth of the distance kernels saturates on
        typical hosts).
    chunk_size:
        Queries per chunk; defaults to an even split into
        ``workers * chunks_per_worker`` chunks.
    """

    name = "abstract"

    #: Chunks per worker in the default split.
    chunks_per_worker = 1

    #: The ``concurrent.futures`` pool class chunks fan out over.
    _pool: Any = None

    def __init__(self, workers: int | None = None, *, chunk_size: int | None = None) -> None:
        if _at_least_one("workers", workers) is None:
            workers = min(os.cpu_count() or 1, 8)
        self.workers = workers
        self.chunk_size = _at_least_one("chunk_size", chunk_size)

    def chunks(self, n: int) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` ranges covering ``[0, n)``, in order."""
        size = self.chunk_size
        if size is None:
            size = max(1, -(-n // (self.workers * self.chunks_per_worker)))  # ceil
        return [(start, min(start + size, n)) for start in range(0, n, size)]

    def map(self, fn: Callable[[Any], T], items: Sequence[Any]) -> list[T]:
        """``fn(item)`` for every item, results in input order."""
        if len(items) <= 1 or self.workers == 1:
            return [fn(item) for item in items]
        with self._pool(max_workers=min(self.workers, len(items))) as pool:
            return list(pool.map(fn, items))


class SerialExecutor(BatchExecutor):
    """Run the whole batch as one chunk in the calling thread."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__(1)


class ThreadPoolBatchExecutor(BatchExecutor):
    """Fan chunks out over a thread pool.

    A few chunks per worker balances load while keeping the vectorized
    batch hooks' per-chunk work worthwhile.
    """

    name = "thread"
    chunks_per_worker = 4
    _pool = ThreadPoolExecutor


def _call_pickled(payload: bytes, item: Any) -> Any:
    return pickle.loads(payload)(item)


class ProcessPoolBatchExecutor(BatchExecutor):
    """Fan chunks out over worker processes, one chunk per worker.

    Worker processes cannot update in-process state of the parent, so
    everything a chunk measures must travel back in its return value.
    """

    name = "process"
    _pool = ProcessPoolExecutor

    def map(self, fn: Callable[[Any], T], items: Sequence[Any]) -> list[T]:
        if len(items) > 1 and self.workers > 1:
            # Pickled once, up front: the (potentially large) index is
            # serialized one time rather than per chunk, and a failure
            # here is a pickling problem by construction — a TypeError a
            # query raises later in a worker is not.
            try:
                payload = pickle.dumps(fn)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise QueryError(
                    "the process executor must pickle the index and its distance "
                    "function; use module-level distance callables, or the "
                    "'thread' executor for unpicklable indexes"
                ) from exc
            fn = functools.partial(_call_pickled, payload)
        return super().map(fn, items)


#: Executor names accepted by the engine/CLI.
EXECUTOR_REGISTRY: dict[str, type[BatchExecutor]] = {
    "serial": SerialExecutor,
    "thread": ThreadPoolBatchExecutor,
    "process": ProcessPoolBatchExecutor,
}


def resolve_executor(
    executor: "str | BatchExecutor | None",
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
) -> BatchExecutor:
    """Normalize an executor spec (instance, name, choice, or ``None``).

    ``None`` means serial unless *workers* asks for parallelism, in
    which case threads are chosen.  A planner-chosen executor (any
    object with a string ``name`` and optional ``workers``/``chunk_size``
    attributes, e.g. :class:`repro.planner.ExecutorChoice`) is accepted
    duck-typed, so the engine needs no planner import; explicit
    *workers*/*chunk_size* arguments override the choice's own fields.
    *workers* and *chunk_size* below 1 are rejected whatever the spec.
    """
    _at_least_one("workers", workers)
    _at_least_one("chunk_size", chunk_size)
    if isinstance(executor, BatchExecutor):
        return executor
    if executor is not None and not isinstance(executor, str):
        name = getattr(executor, "name", None)
        if not isinstance(name, str):
            raise QueryError(
                f"cannot resolve executor from {executor!r}; pass a name, "
                "a BatchExecutor, or an object with a string 'name'"
            )
        if workers is None:
            workers = getattr(executor, "workers", None)
        if chunk_size is None:
            chunk_size = getattr(executor, "chunk_size", None)
        executor = name
    if executor is None:
        executor = "serial" if workers in (None, 1) else "thread"
    if executor not in EXECUTOR_REGISTRY:
        raise QueryError(
            f"unknown executor {executor!r}; choose from {sorted(EXECUTOR_REGISTRY)}"
        )
    if executor == "serial":
        return SerialExecutor()
    return EXECUTOR_REGISTRY[executor](workers, chunk_size=chunk_size)
