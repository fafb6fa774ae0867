"""Pluggable execution backends for the batch query engine.

Three strategies, one interface (:meth:`BatchExecutor.map_ordered`):

* :class:`SerialExecutor` — the calling thread runs every task in order;
  zero overhead, the baseline every speedup is measured against.
* :class:`ThreadPoolBatchExecutor` — ``concurrent.futures`` threads.
  MAM queries are numpy-heavy (the one-to-many distance kernels release
  the GIL), so threads already deliver near-linear scaling for the
  paper's workloads without any serialization cost.
* :class:`ProcessPoolBatchExecutor` — chunked worker processes, for the
  pure-Python distance paths (SQFD, custom callables) where the GIL
  would serialize threads.  Tasks are shipped in chunks to amortize the
  per-task pickling of the index.

Executors know nothing about queries; they map an arbitrary function
over an index sequence and preserve input order in the output.  The
query semantics live in :mod:`repro.engine.batch`.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

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


class BatchExecutor:
    """Strategy interface: run ``fn(i)`` for every ``i`` in order."""

    name = "abstract"

    #: Whether tasks may run concurrently in this process (drives the
    #: engine's decision to install per-thread trace contexts).
    concurrent_in_process = False

    def map_ordered(self, fn: Callable[[int], T], indices: Sequence[int]) -> list[T]:
        """Apply *fn* to every index, returning results in input order."""
        raise NotImplementedError


class SerialExecutor(BatchExecutor):
    """Run every query in the calling thread, one after another."""

    name = "serial"

    def map_ordered(self, fn: Callable[[int], T], indices: Sequence[int]) -> list[T]:
        return [fn(i) for i in indices]


class ThreadPoolBatchExecutor(BatchExecutor):
    """Fan queries out over a thread pool.

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()`` capped at 8 (beyond
        that the memory bandwidth of the distance kernels saturates on
        typical hosts).
    """

    name = "thread"
    concurrent_in_process = True

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = min(os.cpu_count() or 1, 8)
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def map_ordered(self, fn: Callable[[int], T], indices: Sequence[int]) -> list[T]:
        if len(indices) <= 1 or self.workers == 1:
            return [fn(i) for i in indices]
        # Pool threads do not inherit the submitter's contextvars (the
        # active trace context and span stack), so snapshot the context
        # once per task at submit time and run the task inside its own
        # copy — worker-thread spans then nest under the batch span and
        # carry the request's trace_id.
        tasks = [(contextvars.copy_context(), i) for i in indices]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(lambda task: task[0].run(fn, task[1]), tasks))


class ProcessPoolBatchExecutor(BatchExecutor):
    """Fan *chunks* of queries out over worker processes.

    The function shipped to each worker receives a contiguous slice of
    query indices and returns their results as a list; chunking keeps
    the number of times the (potentially large) index is pickled down to
    roughly one per worker rather than one per query.

    Worker processes cannot update in-process state of the parent, so
    everything a chunk measures travels back with its results: the
    queries' :class:`~repro.engine.trace.QueryTrace` records (which the
    engine folds into the parent's distance counter, exactly as it does
    for in-process chunks) and, with a registry active, the worker's
    spans and instrument state.
    """

    name = "process"
    concurrent_in_process = False

    def __init__(self, workers: int | None = None, *, chunk_size: int | None = None) -> None:
        if workers is None:
            workers = min(os.cpu_count() or 1, 8)
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise QueryError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size

    def chunks(self, n_tasks: int) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` task ranges, one per submission."""
        if n_tasks == 0:
            return []
        size = self.chunk_size
        if size is None:
            size = max(1, -(-n_tasks // self.workers))  # ceil division
        return [(start, min(start + size, n_tasks)) for start in range(0, n_tasks, size)]

    def map_chunks(
        self, fn: Callable[[tuple[int, int]], T], n_tasks: int
    ) -> list[T]:
        """Apply the (picklable) chunk function to every range, in order.

        With one chunk or one worker the pool is skipped entirely, so
        small batches never pay process start-up.
        """
        ranges = self.chunks(n_tasks)
        if len(ranges) <= 1 or self.workers == 1:
            return [fn(rng) for rng in ranges]
        with ProcessPoolExecutor(max_workers=min(self.workers, len(ranges))) as pool:
            return list(pool.map(fn, ranges))


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
    which case threads are chosen — the right default for numpy-backed
    distances.  A planner-chosen executor (any object with a string
    ``name`` and optional ``workers``/``chunk_size`` attributes, e.g.
    :class:`repro.planner.ExecutorChoice`) is accepted duck-typed, so
    the engine needs no planner import; explicit *workers*/*chunk_size*
    arguments override the choice's own fields.
    """
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
        executor = "serial" if workers in (None, 0, 1) else "thread"
    if executor not in EXECUTOR_REGISTRY:
        raise QueryError(
            f"unknown executor {executor!r}; choose from {sorted(EXECUTOR_REGISTRY)}"
        )
    if executor == "serial":
        return SerialExecutor()
    if executor == "thread":
        return ThreadPoolBatchExecutor(workers)
    return ProcessPoolBatchExecutor(workers, chunk_size=chunk_size)
