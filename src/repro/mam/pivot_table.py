"""Pivot tables (LAESA) — the flat distance-matrix MAM (paper Section 4.2).

A set of ``p`` pivots is selected from the database; every object ``o_i``
stores its distance vector ``(d(o_i, p_1), ..., d(o_i, p_p))``, and the
vectors form the ``m x p`` *pivot table*.  A range query ``(q, rad)``
computes the query's distance vector, filters out every object whose table
row falls outside the ``p``-dimensional hyper-cube of edge ``2 rad``
centered at the query row (the triangle-inequality lower bound
``|d(q,p_j) - d(o,p_j)| > rad`` for some ``j``), and verifies the ``x``
non-filtered candidates with real distance computations.

kNN processes candidates in ascending lower-bound order, shrinking the
dynamic radius as better neighbors arrive — once the lower bound of the
next candidate exceeds the current kth distance, the remainder is pruned
wholesale.

The filter is staged, as LAESA's elimination loop is.  Every bound here is
a *max over terms* (one per pivot, one per pivot pair), so the max over
the terms of the first few pivots is already a sound lower bound: stage 1
computes it for all ``m`` objects, and only the objects it leaves within
the query's limit (the radius; for kNN a cap on the ``k``-th bound, then
the first ``k`` distances' radius) get the remaining terms, over their
columns gathered from the pivot-major table.  The finished bounds are the
full bounds float for float, so answers, charges and EXPLAIN are those of
the one-object-at-a-time loop (``tests/pivot_reference.py``).

Beyond the paper: because QMap embeds the QFD isometrically into L2, the
QFD is a *Ptolemaic* metric, and Hetland's Ptolemaic pivot bound

    d(q, v) >= max over pivot pairs of
               |d(q,p1) d(v,p2) - d(q,p2) d(v,p1)| / d(p1, p2)

is often far tighter than the triangle bound.  ``bound="ptolemaic"``
switches the filter to it (paying ``p (p-1) / 2`` extra build-time
distances for the pivot-pair matrix), ``bound="best"`` takes the
pointwise maximum of both bounds, and ``bound="triangle"`` (default)
keeps the classic LAESA behaviour bit-for-bit.  Query-time charging is
identical in every mode: ``p`` pivot distances plus one evaluation per
verified candidate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .._typing import ArrayLike, as_vector
from ..distances.metric_checks import check_ptolemy_matrix
from ..engine.trace import current_trace
from ..exceptions import DimensionMismatchError, QueryError, StorageError
from ..kernels.ptolemaic import ptolemaic_bounds, valid_pivot_pairs
from ..obs.events import ROOT
from .base import AccessMethod, DistancePort, Neighbor, _KnnHeap, grown, state_array, state_str
from .pivots import select_pivot_columns

if TYPE_CHECKING:
    from ..engine.trace import QueryTrace

__all__ = ["PivotTable", "BOUND_MODES"]

#: Lower-bound modes of :class:`PivotTable`.
BOUND_MODES = ("triangle", "ptolemaic", "best")

#: Pivots whose terms bound *every* object; the other pivots' terms are
#: computed only for the objects these leave within the query's limit.
_HEAD_PIVOTS = 4


class PivotTable(AccessMethod):
    """LAESA-style pivot table.

    Parameters
    ----------
    database:
        ``(m, n)`` rows to index.
    distance:
        Black-box metric (port or plain callable).
    n_pivots:
        Number of pivots ``p``.
    pivot_method:
        Selection technique, see :mod:`repro.mam.pivots`.
    pivot_sample:
        Optional sample size ``s`` for selection.
    pivots:
        Explicit pivot indices (overrides selection; used by tests).
    bound:
        Lower-bound mode: ``"triangle"`` (classic LAESA L∞ bound,
        default), ``"ptolemaic"`` (Hetland's pivot-pair bound, valid for
        Ptolemaic metrics such as the QFD/QMap pair), or ``"best"``
        (pointwise maximum of both).
    rng:
        Randomness for pivot selection.

    Notes
    -----
    Indexing cost matches the paper's Section 4.2.1 analysis: selection
    spends ``c`` distances over the sample, then the table needs ``m * p``
    distances — each O(n^2) in the QFD model and O(n) in the QMap model.
    The non-triangle modes additionally charge ``p (p-1) / 2`` build
    distances for the pivot-pair matrix; query-time charging is the same
    in every mode.
    """

    #: Every database touch is a ``port.many`` over the stored rows or a
    #: small fancy-indexed candidate copy — the one-to-many reads the
    #: former in tiles, so a memory-mapped store is never materialized.
    supports_out_of_core = True

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        n_pivots: int = 16,
        pivot_method: str = "maxmin",
        pivot_sample: int | None = None,
        pivots: Sequence[int] | None = None,
        bound: str = "triangle",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(database, distance)
        if bound not in BOUND_MODES:
            raise QueryError(
                f"unknown bound mode {bound!r}; choose from {BOUND_MODES}"
            )
        # The m x p distance matrix ("the pivot table") is held pivot-major
        # (p x capacity, one contiguous row per pivot): a query's bounds
        # are then whole-row array passes, and an insert writes one column.
        if pivots is not None:
            pivot_list = [int(i) for i in pivots]
            if not pivot_list:
                raise QueryError("explicit pivot list must not be empty")
            for i in pivot_list:
                if not 0 <= i < self.size:
                    raise QueryError(f"pivot index {i} out of range [0, {self.size})")
            self._rows = np.stack(
                [self._port.many(self._data[j], self._data) for j in pivot_list]
            )
        else:
            pivot_list, self._rows = select_pivot_columns(
                self._data,
                min(n_pivots, self.size),
                self._port,
                method=pivot_method,
                sample_size=pivot_sample,
                rng=rng,
            )
        self._pivot_indices = pivot_list
        self._pivot_rows = self._data[pivot_list]
        self._bound = bound
        self._pivot_pair: np.ndarray | None = None
        self._pairs: tuple[np.ndarray, np.ndarray] | None = None
        if bound != "triangle":
            # Charged: p (p-1) / 2 batched rows, the logical cost of
            # evaluating each unordered pivot pair once.
            self._pivot_pair = self._port.pairwise(self._pivot_rows)
            self._pairs = valid_pivot_pairs(self._pivot_pair)
            self._guard_ptolemaic()

    def _guard_ptolemaic(self) -> None:
        """Build-time guard: refuse Ptolemaic bounds for a metric that
        violates Ptolemy's inequality on the pivots.

        Runs on the already-paid-for pivot-pair matrix, so the check costs
        zero extra distance evaluations.  A triangle-only metric (e.g. L1)
        would produce *invalid* lower bounds here — silently wrong answers
        — which is exactly the failure mode the paper documents for
        methods that assume more structure than the distance has.
        """
        report = check_ptolemy_matrix(self._pivot_pair)
        if not report.is_metric:
            worst = report.worst()
            raise QueryError(
                f"bound={self._bound!r} requires a Ptolemaic metric, but the "
                f"pivot-pair matrix violates Ptolemy's inequality on pivots "
                f"{worst.indices} by {worst.magnitude:.3g}; "
                "use bound='triangle' for this distance"
            )

    def structural_state(self) -> dict[str, np.ndarray]:
        state = {
            "pivot_indices": np.asarray(self._pivot_indices, dtype=np.int64),
            "table": np.ascontiguousarray(self._columns().T),
            "bound": np.str_(self._bound),
        }
        if self._pivot_pair is not None:
            state["pivot_pair"] = self._pivot_pair.copy()
        return state

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        pivot_list = [int(i) for i in state_array(state, "pivot_indices")]
        if not pivot_list:
            raise QueryError("pivot index list must not be empty")
        for i in pivot_list:
            if not 0 <= i < self.size:
                raise QueryError(f"pivot index {i} out of range [0, {self.size})")
        stored = state_array(state, "table", dtype=np.float64)
        if stored.shape != (self.size, len(pivot_list)):
            raise QueryError(
                f"table shape {stored.shape} does not match "
                f"({self.size}, {len(pivot_list)})"
            )
        # Version-1 snapshots predate bound modes; absent keys mean the
        # classic triangle bound, so old archives keep loading unchanged.
        bound = state_str(state, "bound") if "bound" in state else "triangle"
        if bound not in BOUND_MODES:
            raise StorageError(
                f"unknown pivot-table bound mode {bound!r} in snapshot"
            )
        pair: np.ndarray | None = None
        if bound != "triangle":
            pair = state_array(state, "pivot_pair", dtype=np.float64)
            p = len(pivot_list)
            if pair.shape != (p, p):
                raise QueryError(
                    f"pivot-pair matrix shape {pair.shape} does not match ({p}, {p})"
                )
        super()._restore_state(state)
        self._pivot_indices = pivot_list
        self._pivot_rows = self._data[pivot_list]
        self._rows = np.ascontiguousarray(stored.T)
        self._bound = bound
        self._pivot_pair = pair.copy() if pair is not None else None
        self._pairs = valid_pivot_pairs(pair) if pair is not None else None

    def _verify_state_probe(self) -> None:
        # A sampled bound re-evaluation: entry (0, 0) of the table is
        # d(o_0, p_0).  Uncounted, so a
        # restore still performs zero logical distance computations.
        probe = self._port.pair_uncounted(
            self._data[0], self._data[self._pivot_indices[0]]
        )
        if not np.isclose(probe, self._rows[0, 0], rtol=1e-6, atol=1e-9):
            raise StorageError(
                "supplied distance disagrees with the stored table "
                "(wrong metric or wrong matrix?)"
            )
        if self._pivot_pair is not None and len(self._pivot_indices) >= 2:
            probe = self._port.pair_uncounted(
                self._data[self._pivot_indices[0]],
                self._data[self._pivot_indices[1]],
            )
            if not np.isclose(probe, self._pivot_pair[0, 1], rtol=1e-6, atol=1e-9):
                raise StorageError(
                    "supplied distance disagrees with the stored pivot-pair "
                    "matrix (wrong metric or wrong matrix?)"
                )

    @property
    def pivot_indices(self) -> list[int]:
        """Database indices of the selected pivots."""
        return list(self._pivot_indices)

    @property
    def n_pivots(self) -> int:
        """Number of pivots ``p``."""
        return len(self._pivot_indices)

    def _columns(self) -> np.ndarray:
        """The filled ``p x m`` part of the pivot-major buffer."""
        return self._rows[:, : self.size]

    @property
    def table(self) -> np.ndarray:
        """The ``m x p`` pivot distance matrix (read-only view)."""
        view = self._columns().T
        view.setflags(write=False)
        return view

    @property
    def bound(self) -> str:
        """The active lower-bound mode (one of :data:`BOUND_MODES`)."""
        return self._bound

    @property
    def pivot_pair_matrix(self) -> "np.ndarray | None":
        """The ``p x p`` pivot-pair distance matrix (read-only view),
        present only in the non-triangle bound modes."""
        if self._pivot_pair is None:
            return None
        view = self._pivot_pair.view()
        view.setflags(write=False)
        return view

    def _query_vector(
        self, query: np.ndarray, trace: "QueryTrace | None" = None
    ) -> np.ndarray:
        """Distances from the query to every pivot (``p`` evaluations)."""
        return self._port.many(query, self._pivot_rows, trace)

    def _merge_terms(
        self,
        out: np.ndarray,
        query_vector: np.ndarray,
        lo: int,
        hi: int,
        objects: "np.ndarray | None" = None,
        mode: "str | None" = None,
    ) -> np.ndarray:
        """Max-merge into *out* the bound's terms of pivots ``lo..hi-1``.

        The one bound routine.  A pivot's triangle term
        ``|d(o, p_j) - d(q, p_j)|`` is its own, a pivot pair's Ptolemaic
        term belongs to its later pivot, so the terms of ``[0, h)`` and
        ``[h, p)`` partition the *mode*'s bound (default: the operative
        one): the max over either part is a lower bound, the max of both
        parts is the bound itself, float for float.  Over every object
        (the contiguous pivot rows) or, given *objects*, over their
        gathered columns.
        """
        if lo >= hi:  # EXPLAIN, or p within the first stage: nothing is left
            return out
        mode = mode or self._bound
        columns = self._columns()
        if objects is not None:
            columns = np.take(columns, objects, axis=1)  # a copy: ours to overwrite
        if mode != "triangle":
            ii, jj = self._pairs
            ours = (jj >= lo) & (jj < hi)
            ptolemaic_bounds(
                columns.T, query_vector, self._pivot_pair, (ii[ours], jj[ours]), out=out
            )
        if mode != "ptolemaic":
            rows = columns[lo:hi]
            diff = np.subtract(
                rows, query_vector[lo:hi, None], out=rows if objects is not None else None
            )
            np.abs(diff, out=diff)
            np.maximum(out, np.maximum.reduce(diff, axis=0), out=out)
        return out

    def _first_stage(
        self, query_vector: np.ndarray, trace: "QueryTrace | None"
    ) -> tuple[int, np.ndarray]:
        """``(h, bounds)``: every object bounded by the first ``h`` pivots —
        a few, or all of them under EXPLAIN, whose every reported bound is
        then the full one."""
        head = min(_HEAD_PIVOTS, self.n_pivots)
        if trace is not None and trace.events is not None:
            head = self.n_pivots
        return head, self._merge_terms(np.zeros(self.size), query_vector, 0, head)

    def _finish(
        self, query_vector: np.ndarray, head: int, objects: np.ndarray, partial: np.ndarray
    ) -> np.ndarray:
        """Exact bounds of *objects*, whose first-stage bounds are in *partial*.

        The remaining terms are computed over the objects' gathered
        columns, or over the contiguous table when most objects are asked
        for — the survivor count alone decides.
        """
        lb = partial[objects]
        p, m = self.n_pivots, partial.size
        if 2 * objects.size <= m:
            return self._merge_terms(lb, query_vector, head, p, objects)
        rest = self._merge_terms(np.zeros(m), query_vector, head, p)
        return np.maximum(lb, rest[objects], out=lb)

    def _bound_views(
        self, query_vector: np.ndarray, lb: np.ndarray
    ) -> list[tuple[str, np.ndarray]]:
        """``(label, bounds)`` pairs for event emission, operative last.

        In the non-triangle modes the *other* bound is computed too — an
        observability-only cost with no distance evaluations — so EXPLAIN
        can put triangle and Ptolemaic prune counts side by side.
        """
        if self._bound == "triangle":
            return [("pivot-linf", lb)]

        def whole(mode: str) -> np.ndarray:
            return self._merge_terms(np.zeros(lb.size), query_vector, 0, self.n_pivots, mode=mode)

        if self._bound == "ptolemaic":
            return [("pivot-linf", whole("triangle")), ("pivot-ptolemaic", lb)]
        return [
            ("pivot-linf", whole("triangle")),
            ("pivot-ptolemaic", whole("ptolemaic")),
            ("pivot-best", lb),
        ]

    def _filter(
        self, query_vector: np.ndarray, radius: float, trace: "QueryTrace | None"
    ) -> np.ndarray:
        """Indices of the objects whose bound is within *radius*, ascending."""
        head, partial = self._first_stage(query_vector, trace)
        survivors = np.flatnonzero(partial <= radius)
        if trace is not None and trace.events is not None:
            tok = trace.visit(ROOT, "pivot-filter", count=0)
            for label, bounds in self._bound_views(query_vector, partial):
                for val in bounds:
                    trace.lb_check(tok, float(val), radius, pruned=val > radius, label=label)
        return survivors[self._finish(query_vector, head, survivors, partial) <= radius]

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        trace = current_trace()
        candidates = self._filter(self._query_vector(query, trace), radius, trace)
        return self._refine_range(query, radius, candidates, trace)

    def _refine_range(
        self, query: np.ndarray, radius: float, candidates: np.ndarray, trace: "QueryTrace"
    ) -> list[Neighbor]:
        """Verify the non-filtered candidates with real distances."""
        trace.filter(self.size, int(candidates.size))
        trace.refine(int(candidates.size))
        if candidates.size == 0:
            return []
        tok = trace.visit(ROOT, "refine", count=0)
        distances = self._port.many(query, self._data[candidates], trace)
        within = distances <= radius
        if tok >= 0:
            for dist, idx in zip(distances, candidates):
                trace.verify(tok, int(idx), float(dist))
                if dist <= radius:
                    trace.result(tok, int(idx), float(dist))
        return [
            Neighbor(float(dist), int(idx))
            for dist, idx in zip(distances[within], candidates[within])
        ]

    def _knn_search(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """Best-first refinement in ascending ``(bound, index)`` order.

        Answers, counts and events are those of the sequential loop "stop
        at the first bound above the current k-th distance, else evaluate
        and offer"; bounds are finished and distances evaluated only where
        that loop can still look:

        * the full bounds of the ``k`` objects nearest by the first stage
          cap the ``k``-th smallest full bound, and a first-stage bound
          never exceeds the full one: the exact first ``k`` of the order
          are among the objects the first stage leaves within the cap;
        * those meet an unfilled heap, so they are evaluated whatever the
          radius they produce (a pivot's own bound equals its distance
          only to an ulp); that radius, ``r0``, bounds every later one, so
          the rest of the order is the objects bounded within ``r0``;
        * those are evaluated in doubling blocks, each cut at the last
          bound still within the current radius; rows computed past the
          stop are never charged — the port is charged ``refined`` scalar
          calls once, what the per-candidate loop used to charge.

        Under EXPLAIN each stop test reports every bound view of its
        object, the comparison bounds alongside the operative one.
        """
        trace = current_trace()
        qv = self._query_vector(query, trace)
        head, partial = self._first_stage(qv, trace)
        # Pure table arithmetic, zero distance evaluations.
        views = self._bound_views(qv, partial) if trace.events is not None else ()
        nearest = np.argpartition(partial, k - 1)[:k]
        cap = self._finish(qv, head, nearest, partial).max()
        order = np.flatnonzero(partial <= cap)
        lb = self._finish(qv, head, order, partial)
        by_bound = np.argsort(lb, kind="stable")  # ascending index among equals
        order, lb = order[by_bound], lb[by_bound]
        evaluate, data = self._port.bind_query(query).compute_many, self._data
        heap = _KnnHeap(k)
        radius = heap.radius
        tok = trace.visit(ROOT, "refine", count=0)
        start = refined = 0
        size = k  # the unconditional first k; then k, 2k, 4k, ...
        stopped = False
        while not stopped:
            stop = min(start + size, int(lb.searchsorted(radius, "right")))
            if stop <= start:
                break
            block = order[start:stop]
            distances = evaluate(data[block]).tolist()
            for idx, value, dist in zip(block.tolist(), lb[start:stop].tolist(), distances):
                stopped = value > radius
                if tok >= 0:
                    self._trace_stop_test(trace, tok, views, idx, radius)
                if stopped:
                    break
                if tok >= 0:
                    trace.verify(tok, idx, dist)
                if dist <= radius:
                    radius = heap.offer(dist, idx)
                refined += 1
            if start == 0:
                # No later radius exceeds this one (r0), so the loop cannot
                # get past the objects the first stage leaves within it:
                # finish those too and put the order's tail in order.
                later = np.flatnonzero(partial <= radius)
                later = later[partial[later] > cap]
                order = np.concatenate([order, later])
                lb = np.concatenate([lb, self._finish(qv, head, later, partial)])
                by_bound = k + np.lexsort((order[k:], lb[k:]))
                order[k:], lb[k:] = order[by_bound], lb[by_bound]
            start = stop
            size = start
        if tok >= 0 and not stopped and refined < partial.size:
            # The sequential loop ends on the first object it does not
            # evaluate: the next of the order or, past it, the smallest
            # remaining bound, lowest index among equals (EXPLAIN's first
            # stage spans every pivot, so *partial* is the bound).
            if start < order.size:
                ended_on = order[start]
            else:
                left = np.ones(partial.size, dtype=bool)
                left[order] = False
                left = np.flatnonzero(left)
                ended_on = left[np.argmin(partial[left])]
            self._trace_stop_test(trace, tok, views, int(ended_on), radius)
        self._port.charge(calls=refined, trace=trace)
        trace.filter(self.size, refined)
        trace.refine(refined)
        return heap.neighbors()

    @staticmethod
    def _trace_stop_test(trace: "QueryTrace", tok: int, views, idx: int, radius: float) -> None:
        """EXPLAIN detail of one stop test: every bound view of object *idx*."""
        for label, bounds in views:
            value = float(bounds[idx])
            trace.lb_check(tok, value, radius, pruned=value > radius, label=label)

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Compute the new object's pivot distances: one more table column.

        Costs ``p`` distance evaluations, exactly the paper's Section 4.2.1
        per-object indexing cost; the pivot set itself never changes.
        """
        column = self._port.many(vector, self._pivot_rows)
        self._rows = grown(self._rows, index, 1, axis=1)
        self._rows[:, index] = column

    def candidates_for_radius(self, query: ArrayLike, radius: float) -> int:
        """Number ``x`` of non-filtered objects for a range query.

        Exposed for the filtering-power experiments (the paper's querying
        complexity carries the term ``x n^2`` vs. ``x n``).  Charges the
        ``p`` pivot distances but not the refinement ones.

        Validates like :meth:`range_search`/:meth:`knn_search`: a
        wrong-dimension query raises a :class:`QueryError` instead of
        surfacing as a numpy broadcast error from the pivot scan.
        """
        try:
            q = as_vector(query, self.dim, name="query")
        except DimensionMismatchError as exc:
            raise QueryError(f"malformed range query: {exc}") from exc
        if radius < 0.0:
            raise QueryError(f"radius must be non-negative, got {radius}")
        return int(self._filter(self._query_vector(q), radius, None).size)
