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

#: Floats in the ``p x block`` temporary of one pass of the triangle-bound
#: kernel (1 MB): it stays L2-resident while the table streams past —
#: measured fastest among 256..8192 columns at p = 32, m = 8 000.
_BOUND_BLOCK_FLOATS = 131072


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
    #: small fancy-indexed candidate copy — a blocked kernel streams the
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

    def _triangle_bounds(self, query_vector: np.ndarray) -> np.ndarray:
        """Pivot-mapped L∞ (triangle) lower bound for every object.

        ``max_j |d(o, p_j) - d(q, p_j)|`` over contiguous pivot rows, a
        block of columns at a time; abs-difference and max are exact, so
        the floats do not depend on the layout or the blocking.
        """
        columns = self._columns()
        qv = query_vector[:, None]
        out = np.empty(columns.shape[1], dtype=np.float64)
        block = max(1, _BOUND_BLOCK_FLOATS // columns.shape[0])
        for start in range(0, out.shape[0], block):
            diff = columns[:, start : start + block] - qv
            np.abs(diff, out=diff)
            np.maximum.reduce(diff, axis=0, out=out[start : start + block])
        return out

    def _ptolemaic_lb(
        self, query_vector: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        return ptolemaic_bounds(
            self.table, query_vector, self._pivot_pair, self._pairs, out=out
        )

    def _lower_bounds(self, query_vector: np.ndarray) -> np.ndarray:
        """The mode's operative lower bound for every database object."""
        if self._bound == "triangle":
            return self._triangle_bounds(query_vector)
        if self._bound == "ptolemaic":
            return self._ptolemaic_lb(query_vector)
        # "best": max-merge the Ptolemaic bound into the triangle one.
        return self._ptolemaic_lb(query_vector, out=self._triangle_bounds(query_vector))

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
        tri = self._triangle_bounds(query_vector)
        if self._bound == "ptolemaic":
            return [("pivot-linf", tri), ("pivot-ptolemaic", lb)]
        return [
            ("pivot-linf", tri),
            ("pivot-ptolemaic", self._ptolemaic_lb(query_vector)),
            ("pivot-best", lb),
        ]

    def _range_search(self, query: np.ndarray, radius: float) -> list[Neighbor]:
        trace = current_trace()
        qv = self._query_vector(query, trace)
        lb = self._lower_bounds(qv)
        candidates = np.flatnonzero(lb <= radius)
        if trace.events is not None:
            tok = trace.visit(ROOT, "pivot-filter", count=0)
            for label, bounds in self._bound_views(qv, lb):
                for val in bounds:
                    trace.lb_check(
                        tok, float(val), radius, pruned=val > radius, label=label
                    )
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
        trace = current_trace()
        qv = self._query_vector(query, trace)
        lb = self._lower_bounds(qv)
        # Under EXPLAIN the comparison bounds ride along for the side-by-
        # side section; pure table arithmetic, zero distance evaluations.
        views = self._bound_views(qv, lb) if trace.events is not None else ()
        return self._refine_knn(query, k, lb, trace, views)

    def _refine_knn(
        self,
        query: np.ndarray,
        k: int,
        lb: np.ndarray,
        trace: "QueryTrace",
        views: "Sequence[tuple[str, np.ndarray]]" = (),
    ) -> list[Neighbor]:
        """Best-first refinement in ascending ``(bound, index)`` order.

        Answers, counts and events are those of the sequential loop
        "stop at the first bound above the current k-th distance, else
        evaluate and offer", but the distances are evaluated in blocks
        and the stop test is replayed over them:

        * the first ``k`` objects meet an unfilled heap, so they are
          evaluated unconditionally — never filtered by the radius they
          produce (a pivot's own bound equals its distance only to an ulp);
        * their largest distance ``r0`` bounds every later radius, so the
          rest of the order is the objects with ``lb <= r0``, sorted;
        * those are evaluated in doubling blocks — a schedule fixed by
          ``k`` and the bound order alone — and rows computed past the
          stop are never charged: the port is charged ``refined`` scalar
          calls once, what the per-candidate loop used to charge.

        *views* are the EXPLAIN detail's (label, bounds) arrays, *lb* last:
        each stop test reports the comparison bounds alongside the operative
        one — the "would the other bound have pruned here?" record behind
        the side-by-side section.
        """
        m = lb.shape[0]
        if k < m:
            kth = np.partition(lb, k - 1)[k - 1]
            below = np.flatnonzero(lb < kth)
            ties = np.flatnonzero(lb == kth)  # ascending index: already in order
            order = np.concatenate(
                [below[np.argsort(lb[below], kind="stable")], ties[: k - below.size]]
            )
        else:
            order = np.argsort(lb, kind="stable")
        compute, data = self._port.compute_many, self._data
        heap = _KnnHeap(k)
        radius = r0 = heap.radius
        tok = trace.visit(ROOT, "refine", count=0)
        start = refined = 0
        size = order.size  # the unconditional first k; then k, 2k, 4k, ...
        stopped = False
        while start < order.size and not stopped:
            block = order[start : start + size]
            distances = compute(query, data[block]).tolist()
            for idx, bound, dist in zip(block.tolist(), lb[block].tolist(), distances):
                stopped = bound > radius
                if tok >= 0:
                    self._trace_stop_test(trace, tok, views, idx, radius)
                if stopped:
                    break
                if tok >= 0:
                    trace.verify(tok, idx, dist)
                if dist <= radius:
                    radius = heap.offer(dist, idx)
                refined += 1
            if start == 0 and k < m:
                # No later radius exceeds r0, so the loop cannot get past
                # the objects bounded within it: sort only those.
                r0 = radius
                later = lb <= r0
                later[order] = False
                rest = np.flatnonzero(later)
                order = np.concatenate([order, rest[np.argsort(lb[rest], kind="stable")]])
            start += size
            size = start
        if tok >= 0 and not stopped and refined < m:
            # The sequential loop ends on the first object it does not
            # evaluate; past the r0 survivors that is the smallest
            # remaining bound (lowest index among equals).  The first k
            # were evaluated even if their bound is an ulp above r0.
            beyond = lb > r0
            beyond[order[:k]] = False
            beyond = np.flatnonzero(beyond)
            self._trace_stop_test(trace, tok, views, int(beyond[np.argmin(lb[beyond])]), radius)
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
        lb = self._lower_bounds(self._query_vector(q))
        return int(np.count_nonzero(lb <= radius))
