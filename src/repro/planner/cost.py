"""Plan pricing: the paper's Table 2 closed forms.

:class:`CostModel` prices every candidate physical plan in the paper's
cost unit — arithmetic operations, with a QFD evaluation worth ``n^2``, a
Euclidean evaluation ``n`` and a QMap transform ``n^2`` — by evaluating
the same Table 2 closed forms the EXPLAIN :class:`~repro.obs.explain.
CostAudit` checks against.  One input it cannot get from the formulas
is **selectivity** — how many objects a range query touches, estimated
from an empirical :class:`DistanceHistogram` of sampled pairwise
distances (kNN selectivity is simply ``k/m``).  How many objects a
filter passes or a traversal visits is a fixed, deliberately
pessimistic fraction (:data:`DEFAULT_FILTER_LOOSENESS`,
:data:`DEFAULT_VISIT_FRACTION`).

Setup costs (e.g. the database reduction a filter-and-refine plan must
pay before its first query) are priced separately from per-query costs,
so the planner can amortize them over the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bench.complexity import theoretical_querying_flops

__all__ = [
    "DistanceHistogram",
    "PredictedCost",
    "CostModel",
    "DEFAULT_RANGE_SELECTIVITY",
    "DEFAULT_VISIT_FRACTION",
    "DEFAULT_FILTER_LOOSENESS",
]

#: Fraction of the database a range query is assumed to select when no
#: distance histogram is available (matches the benches' "~10 results on
#: m=1000" range-radius target, with slack).
DEFAULT_RANGE_SELECTIVITY = 0.05

#: Fraction of the database a tree traversal is assumed to evaluate.
#: Deliberately pessimistic: an exotic index must clearly beat the scan
#: on the closed forms before the planner picks it.
DEFAULT_VISIT_FRACTION = 0.5

#: How many times more candidates than true results a contractive filter
#: (pivot table, SVD/QBIC lower bound) is assumed to pass.
DEFAULT_FILTER_LOOSENESS = 3.0


@dataclass(frozen=True)
class DistanceHistogram:
    """Empirical distance distribution for selectivity estimates.

    Built from any 1-D sample of pairwise distances (e.g. uncounted
    query-to-row samples, or the rows of a pivot table's ``m x p``
    distance matrix).  The sample is stored sorted, so selectivity is a
    binary search and quantiles are rank lookups.
    """

    sample: np.ndarray

    @classmethod
    def from_sample(cls, distances: object) -> "DistanceHistogram":
        arr = np.asarray(distances, dtype=np.float64).ravel()
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            raise ValueError("distance sample must not be empty")
        return cls(sample=np.sort(arr))

    def selectivity(self, radius: float) -> float:
        """Estimated fraction of pairwise distances ``<= radius``."""
        hits = int(np.searchsorted(self.sample, float(radius), side="right"))
        return hits / self.sample.size

    def radius_at(self, fraction: float) -> float:
        """The radius below which ~*fraction* of sampled distances fall."""
        fraction = min(max(float(fraction), 0.0), 1.0)
        rank = min(
            self.sample.size - 1, max(0, int(round(fraction * self.sample.size)) - 1)
        )
        return float(self.sample[rank])


@dataclass(frozen=True)
class PredictedCost:
    """A plan's price: one-time setup plus a per-query rate.

    ``setup_flops`` is paid once before the first query (e.g. reducing
    the database for a filter-and-refine plan); ``per_query_flops`` is
    the Table 2-style cost of each query.  ``total(batch_size)`` is what
    the planner minimizes.
    """

    setup_flops: float
    per_query_flops: float

    def total(self, batch_size: int) -> float:
        return self.setup_flops + max(int(batch_size), 1) * self.per_query_flops


class CostModel:
    """Prices physical plans for one workload dimensionality."""

    # -- workload statistics -------------------------------------------

    def result_fraction(self, spec) -> float:
        """Estimated fraction of the database in the true answer."""
        m = max(int(spec.m), 1)
        if spec.kind == "knn":
            return min(1.0, max(float(spec.param), 1.0) / m)
        if spec.histogram is not None:
            return min(1.0, spec.histogram.selectivity(float(spec.param)))
        return DEFAULT_RANGE_SELECTIVITY

    def filter_candidates(self, spec, *, looseness: "float | None" = None) -> float:
        """Expected candidates ``x`` a contractive filter passes per query."""
        if looseness is None:
            looseness = DEFAULT_FILTER_LOOSENESS
        m = max(int(spec.m), 1)
        fraction = min(1.0, looseness * self.result_fraction(spec))
        floor = float(spec.param) if spec.kind == "knn" else 1.0
        return min(float(m), max(fraction * m, floor))

    # -- plan pricing --------------------------------------------------

    def scan_cost(self, spec, model: str) -> PredictedCost:
        """Table 2, sequential row: the baseline every plan must beat.

        The QMap scan pays the one-time O(m n^2) database transform as
        setup (Table 1's sequential indexing cost) — amortized over the
        batch, which is exactly why it wins for real workloads and can
        lose to the raw-QFD scan for a single tiny query.
        """
        m, n = int(spec.m), int(spec.dim)
        per_query = theoretical_querying_flops("sequential", model, m=m, n=n)
        setup = float(m) * n * n if model == "qmap" else 0.0
        return PredictedCost(setup_flops=setup, per_query_flops=per_query)

    def probe_cost(self, spec, entry) -> PredictedCost:
        """Price an index probe against a catalog entry.

        Methods with a Table 2 closed form (pivot table, M-tree) are
        priced exactly; every other structure is priced generically as
        ``x`` evaluations at the model's per-evaluation cost, with ``x``
        from :data:`DEFAULT_VISIT_FRACTION` — pessimistic enough that
        only the closed-form structures can beat the scan.
        """
        m, n = int(spec.m), int(spec.dim)
        method, model = entry.method, entry.model
        if method in ("sequential", "disk-sequential"):
            # A persisted scan: the QMap variant's transform is already
            # archived, so unlike a fresh DirectScan there is no setup.
            per_query = theoretical_querying_flops(
                "sequential", model, m=m, n=n
            )
            return PredictedCost(setup_flops=0.0, per_query_flops=per_query)
        if method == "pivot-table":
            p = int(entry.n_pivots or 16)
            x = self.filter_candidates(spec)
            per_query = theoretical_querying_flops(
                method, model, m=m, n=n, p=p, x=int(round(x))
            )
            return PredictedCost(setup_flops=0.0, per_query_flops=per_query)
        if method in ("mtree", "paged-mtree"):
            x = int(round(DEFAULT_VISIT_FRACTION * m))
            per_query = theoretical_querying_flops(
                "mtree", model, m=m, n=n, x=x
            )
            return PredictedCost(setup_flops=0.0, per_query_flops=per_query)
        x = DEFAULT_VISIT_FRACTION * m
        if model == "qfd":
            per_query = x * n * n
        else:
            per_query = n * n + x * n
        return PredictedCost(setup_flops=0.0, per_query_flops=per_query)

    def filter_refine_cost(self, spec, *, rank: int) -> PredictedCost:
        """Price a lower-bound filter-and-refine scan (Section 2.3.1).

        Setup: the rank-``k`` reduction of the database (``m * n * k``
        multiply-adds) plus the O(n^3) decomposition that produces the
        map.  Per query: one query reduction (``n * k``), ``m`` cheap
        lower bounds (``k`` each), and one exact O(n^2) QFD refinement
        per surviving candidate.
        """
        m, n = int(spec.m), int(spec.dim)
        k = max(1, int(rank))
        setup = float(n) ** 3 + float(m) * n * k
        x = self.filter_candidates(spec)
        per_query = n * k + m * k + x * n * n
        return PredictedCost(setup_flops=setup, per_query_flops=per_query)
