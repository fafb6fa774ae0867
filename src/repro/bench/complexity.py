"""Empirical verification of the paper's complexity Tables 1 and 2.

The paper's cost unit is the distance computation: O(n^2) arithmetic for a
QFD evaluation, O(n) for a Euclidean one, plus O(n^2) per QMap vector
transformation.  :func:`measured_flops` converts the counters recorded by
the models into that arithmetic estimate, and the ``theoretical_*``
functions evaluate the closed forms from Tables 1 and 2 so the benches can
check that the measured costs scale the way the paper proves — and that
the "Better" column comes out the same.
"""

from __future__ import annotations

from ..exceptions import QueryError
from ..models import IndexCosts

__all__ = [
    "measured_flops",
    "theoretical_indexing_flops",
    "theoretical_querying_flops",
]


def measured_flops(costs: IndexCosts, model_name: str, dim: int) -> float:
    """Arithmetic-operation estimate of recorded costs.

    QFD evaluations cost ``n^2``, Euclidean evaluations ``n``, and each
    QMap transformation ``n^2`` (one matrix-to-vector product).
    """
    if model_name == "qfd":
        eval_cost = dim * dim
    elif model_name == "qmap":
        eval_cost = dim
    else:
        raise QueryError(f"unknown model {model_name!r}")
    return float(
        costs.distance_computations * eval_cost + costs.transforms * dim * dim
    )


def theoretical_indexing_flops(
    method: str,
    model: str,
    *,
    m: int,
    n: int,
    p: int = 0,
    selection_cost: int = 0,
) -> float:
    """Closed forms of the paper's Table 1 (indexing time complexity).

    Parameters mirror the paper's symbols: database size ``m``,
    dimensionality ``n``, pivot count ``p``, and ``c`` = *selection_cost*
    (distance computations spent selecting pivots).
    """
    import math

    if method == "sequential":
        return float(m * n) if model == "qfd" else float(m * n * n)
    if method == "pivot-table":
        if model == "qfd":
            return float(selection_cost * n * n + m * p * n * n)
        return float(selection_cost * n + m * n * n + m * p * n)
    if method == "mtree":
        log_m = math.log2(max(m, 2))
        if model == "qfd":
            return float(m * n * n * log_m)
        return float(m * n * n + m * n * log_m)
    raise QueryError(f"no Table 1 closed form for method {method!r}")


def theoretical_querying_flops(
    method: str,
    model: str,
    *,
    m: int,
    n: int,
    p: int = 0,
    x: int = 0,
) -> float:
    """Closed forms of the paper's Table 2 (querying time complexity).

    ``x`` is the number of non-filtered objects (pivot table) or distance
    computations spent by the query (M-tree), measured from the actual run.
    """
    if method == "sequential":
        return float(m * n * n) if model == "qfd" else float(m * n + n * n)
    if method == "pivot-table":
        if model == "qfd":
            return float(p * n * n + m * p + x * n * n)
        return float(n * n + p * n + m * p + x * n)
    if method == "mtree":
        return float(x * n * n) if model == "qfd" else float(n * n + x * n)
    raise QueryError(f"no Table 2 closed form for method {method!r}")
