"""Run one query under event collection and assemble its EXPLAIN plan.

:mod:`repro.obs.explain` is pure assembly; this module is the runner that
knows about :class:`~repro.models.base.BuiltIndex`: it opens the query's
:class:`~repro.engine.trace.QueryTrace` with an
:class:`~repro.obs.events.EventBuffer` attached as its ``events`` detail,
executes the query inside it, and hands the filled buffer plus the
record's own evaluation counts to :func:`~repro.obs.explain.
assemble_plan`.  For the methods with a Table 2 closed form (sequential,
pivot table, M-tree) it also attaches the :class:`~repro.obs.explain.
CostAudit` comparing the observed arithmetic against the paper's
prediction.

The import of :mod:`repro.bench.complexity` is deferred into the audit
helper: ``bench`` imports ``models`` at module load, so a top-level
import here would be circular.
"""

from __future__ import annotations

from ..engine.trace import query_trace
from ..exceptions import QueryError
from ..obs.events import ROOT, EventBuffer
from ..obs.explain import CostAudit, ExplainPlan, assemble_plan
from .base import BuiltIndex, IndexCosts

__all__ = ["explain_query", "AUDITABLE_METHODS"]

#: Methods whose querying cost has a Table 2 closed form to audit against.
AUDITABLE_METHODS = ("sequential", "pivot-table", "mtree")


def _table2_audit(
    index: BuiltIndex,
    buffer: EventBuffer,
    evaluations: int,
    transforms: int,
) -> "CostAudit | None":
    """Observed vs predicted querying flops, for auditable methods only."""
    method = index.method_name
    if method not in AUDITABLE_METHODS:
        return None
    from ..bench.complexity import measured_flops, theoretical_querying_flops

    am = index.access_method
    m, n = am.size, am.dim
    p = 0
    x = 0
    filter_flops = 0.0
    if method == "pivot-table":
        p = am.n_pivots
        # Table 2's x = non-filtered objects = the candidates actually
        # verified with a real distance during refinement.
        x = buffer.candidates_verified
        # The hyper-cube filter compares m objects against p pivot
        # distances — arithmetic Table 2 prices but no CountingDistance
        # observes.  Charging it on the observed side makes the pivot
        # table audit zero-drift like the other closed forms.
        filter_flops = float(m * p)
    elif method == "mtree":
        # Table 2 prices the M-tree query as x distance computations.
        x = evaluations
    predicted = theoretical_querying_flops(
        method, index.model_name, m=m, n=n, p=p, x=x
    )
    observed = (
        measured_flops(
            IndexCosts(distance_computations=evaluations, transforms=transforms),
            index.model_name,
            n,
        )
        + filter_flops
    )
    return CostAudit(
        method=method,
        model=index.model_name,
        predicted_flops=predicted,
        observed_flops=observed,
        observed_evaluations=evaluations,
        observed_transforms=transforms,
        observed_filter_flops=filter_flops,
    )


def explain_query(
    index: BuiltIndex,
    query: object,
    *,
    k: "int | None" = None,
    radius: "float | None" = None,
    max_events: int = 10_000,
    sample_every: int = 1,
    audit: bool = True,
) -> ExplainPlan:
    """Execute one query and return its :class:`ExplainPlan`.

    Pass exactly one of ``k`` (kNN) or ``radius`` (range).  The query runs
    normally — same answers, same counter updates as an unobserved run —
    under a cost record whose ``events`` detail collects the traversal
    events; ``max_events`` / ``sample_every`` bound the recorded event
    list without affecting the plan's exact aggregates.  The plan's
    ``counter_*`` totals are this query's own record, so they are exact
    even while other threads query the same index.

    kNN traversals never emit ``result_add`` inside the structure (the
    bounded heap may evict any accepted neighbor later), so the answer's
    result events are synthesized after the fact; the same applies to the
    SAM structures, which are observed through their refinement port only.
    """
    if (k is None) == (radius is None):
        raise QueryError("explain_query needs exactly one of k= or radius=")
    kind, parameter = ("knn", int(k)) if k is not None else ("range", float(radius))
    buffer = EventBuffer(max_events=max_events, sample_every=sample_every)
    with query_trace(kind, parameter, events=buffer) as trace:
        if k is not None:
            answer = index.knn_search(query, parameter)
        else:
            answer = index.range_search(query, parameter)
    counter_calls = trace.scalar_evaluations
    counter_rows = trace.batched_evaluations
    transforms = int(index._query_mapper is not None)  # one query, mapped once
    if not buffer.results_added and answer:
        for neighbor in answer:
            buffer.result_add(ROOT, neighbor.index, neighbor.distance)
    plan_audit = (
        _table2_audit(index, buffer, counter_calls + counter_rows, transforms)
        if audit
        else None
    )
    return assemble_plan(
        buffer,
        method=index.method_name or type(index.access_method).__name__,
        model=index.model_name,
        kind=kind,
        parameter=float(parameter),
        counter_calls=counter_calls,
        counter_rows=counter_rows,
        transforms=transforms,
        answer=[(neighbor.index, neighbor.distance) for neighbor in answer],
        seconds=trace.seconds,
        audit=plan_audit,
    )
