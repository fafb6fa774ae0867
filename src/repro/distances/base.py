"""Distance-function plumbing shared by all access methods.

Metric access methods treat the distance as a black box (paper Section 2.2),
so the whole library standardizes on plain callables ``d(u, v) -> float``.
This module adds the two pieces of glue the experiments need:

* :class:`CountingDistance` — a transparent wrapper that counts evaluations,
  the machine-independent cost measure used to reproduce Tables 1 and 2.
* :class:`DistanceStats` — an immutable snapshot of a counter.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

__all__ = ["DistanceFunction", "CountingDistance", "DistanceStats"]


@runtime_checkable
class DistanceFunction(Protocol):
    """Anything callable as ``d(u, v) -> float`` over numpy vectors."""

    def __call__(self, u: np.ndarray, v: np.ndarray) -> float: ...


@dataclass(frozen=True)
class DistanceStats:
    """Snapshot of a :class:`CountingDistance` counter.

    Attributes
    ----------
    calls:
        Number of single-pair distance evaluations.
    batch_rows:
        Number of rows evaluated through vectorized one-to-many calls;
        each row counts as one logical distance computation as well.
    """

    calls: int
    batch_rows: int

    @property
    def total(self) -> int:
        """Total logical distance computations (single + batched)."""
        return self.calls + self.batch_rows


class CountingDistance:
    """Wrap a distance function and count how often it is evaluated.

    The number of distance computations is the cost model of the paper's
    complexity analysis (Section 4): the QFD and QMap models spend *the
    same* number of computations for the same MAM, differing only in the
    per-computation cost — a property asserted by the integration tests
    through two of these counters.

    Parameters
    ----------
    func:
        The underlying distance ``d(u, v) -> float``.
    one_to_many:
        Optional vectorized form ``d1m(q, batch) -> ndarray``; when absent,
        a batched kernel resolved from *func* takes its place, and
        only if neither exists does :meth:`one_to_many` fall back to a
        Python loop over ``func``.
    """

    def __init__(
        self,
        func: DistanceFunction,
        *,
        one_to_many: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self._func = func
        if one_to_many is None:
            from ..kernels.kernels import resolve_kernel

            kernel = resolve_kernel(func)
            if kernel is not None:
                one_to_many = kernel.one_to_many
        self._one_to_many = one_to_many
        self._calls = 0
        self._batch_rows = 0
        # Counter updates must survive the batch engine's thread
        # executor: plain += on an attribute loses increments under
        # concurrent queries.
        self._lock = threading.Lock()

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]  # locks do not pickle (process executor)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __call__(self, u: np.ndarray, v: np.ndarray) -> float:
        with self._lock:
            self._calls += 1
        return self._func(u, v)

    def one_to_many(self, q: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """Distances from *q* to every row of *batch* (each row counted)."""
        rows = np.asarray(batch)
        with self._lock:
            self._batch_rows += rows.shape[0]
        if self._one_to_many is not None:
            return self._one_to_many(q, rows)
        return np.array([self._func(q, row) for row in rows], dtype=np.float64)

    @property
    def func(self) -> DistanceFunction:
        """The wrapped scalar distance (uncounted)."""
        return self._func

    @property
    def vectorized(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray] | None:
        """The effective uncounted one-to-many form, if any."""
        return self._one_to_many

    def add_counts(self, *, calls: int = 0, batch_rows: int = 0) -> None:
        """Charge evaluations performed outside the wrapper.

        The kernel layer computes distances physically in batches but must
        charge them according to the *logical* access pattern of the MAM
        traversal; this is its entry point into the counter.
        """
        with self._lock:
            self._calls += calls
            self._batch_rows += batch_rows

    @property
    def stats(self) -> DistanceStats:
        """Current counter snapshot (consistent: both fields read atomically)."""
        with self._lock:
            return DistanceStats(calls=self._calls, batch_rows=self._batch_rows)

    @property
    def count(self) -> int:
        """Total logical distance computations so far."""
        with self._lock:
            return self._calls + self._batch_rows

    def reset(self) -> DistanceStats:
        """Zero the counters, returning the snapshot from before the reset."""
        with self._lock:
            before = DistanceStats(calls=self._calls, batch_rows=self._batch_rows)
            self._calls = 0
            self._batch_rows = 0
        return before
