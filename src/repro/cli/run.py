"""The one run-and-report path behind every command that runs queries.

``query``, ``index query``, both ``--plan`` paths, ``report``, ``explain``
and ``trace export`` are the same protocol — the paper's Section 5
protocol: build (or restore, or plan) an index under one model, run a
query batch, report time and distance computations.  The pieces:

* :func:`observe` — the command's :class:`~repro.obs.ObservedRun`, from
  whichever sink flags its parser carries (validated before any work);
* :func:`make_workload`, :func:`build_index`, :func:`method_line` — the
  synthetic workload, the index built with :data:`INDEX_KWARGS`, and the
  ``method   :`` header;
* :func:`run_and_report` — run the batch, deactivate the sinks, print
  ``wall time`` / ``costs`` / ``trace`` / ``latency``, EXPLAIN query 0;
* :func:`run_planned` — the same around the cost-based planner.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable

from ..engine import TraceCollector, query_trace
from ..exceptions import QueryError
from ..models import QFDModel, QMapModel, explain_query
from ..obs import ObservedRun, check_output_path
from .options import COLLECTOR_SINKS, GROUPS, dests

#: Default construction arguments of every command that builds an index.
INDEX_KWARGS: dict[str, dict[str, int]] = {
    "pivot-table": {"n_pivots": 16},
    "mindex": {"n_pivots": 16},
    "mtree": {"capacity": 16},
    "paged-mtree": {"capacity": 16},
    "rtree": {"capacity": 16},
    "xtree": {"capacity": 16},
}


def index_kwargs(method: str, bound: "str | None" = None) -> dict:
    """:data:`INDEX_KWARGS` for *method*, plus a non-default ``--bound``."""
    kwargs = dict(INDEX_KWARGS.get(method, {}))
    if method == "pivot-table" and bound and bound != "triangle":
        kwargs["bound"] = bound
    return kwargs


def observe(
    args: argparse.Namespace, *, traced: bool = True, live: bool = False, **settings: Any
) -> ObservedRun:
    """The observed run for *args*; bad sink arguments exit 2 here.

    Every sink flag the command's parser declares is passed through;
    *settings* adds what is not a flag of the sink group (``report
    --out`` as ``metrics_out=``).  ``traced=False`` is for an
    executor that takes no trace collector.
    """
    sinks = {
        dest: getattr(args, dest)
        for dest in dests(*GROUPS["sinks"])
        if hasattr(args, dest)
    }
    wants_traces = sinks.pop("trace", False) or sinks.get("trace_out")
    collector = TraceCollector() if traced and wants_traces else None
    # A served or profiled command-line run gets a registry of its own:
    # the endpoint has something to show, and samples land in span phases.
    live = live or any(
        sinks.get(dest) is not None for dest in ("serve_metrics", "profile_out")
    )
    try:
        check_output_path("--out", getattr(args, "out", None))
        return ObservedRun(live=live, collector=collector, **sinks, **settings)
    except ValueError as exc:
        raise QueryError(str(exc)) from exc


def make_workload(args: argparse.Namespace, queries: "int | None" = None):
    """The synthetic histogram workload the workload flags describe."""
    from ..datasets import histogram_workload

    return histogram_workload(
        args.size,
        args.queries if queries is None else queries,
        bins_per_channel=args.bins,
        seed=args.seed,
    )


def query_kind(args: argparse.Namespace) -> "tuple[int | None, float | None, str]":
    """``(k, radius, label)`` — exactly one of *k* / *radius* is set."""
    if args.radius is not None:
        return None, args.radius, f"range(r={args.radius})"
    return args.k, None, f"{args.k}NN"


def method_line(
    method: str, model: str, *details: str, kwargs: "dict | None" = None
) -> str:
    """The ``method   :`` header line (build *kwargs* shown when given)."""
    built_with = "" if kwargs is None else f" {kwargs or ''}"
    return "".join([f"method   : {method}{built_with} [{model} model]", *details])


def build_index(args: argparse.Namespace, workload, **store: Any):
    """Build ``--method`` under ``--model``; returns ``(index, kwargs)``."""
    model = (QMapModel if args.model == "qmap" else QFDModel)(workload.matrix)
    kwargs = index_kwargs(args.method, args.bound)
    index = model.build_index(args.method, workload.database, **store, **kwargs)
    return index, kwargs


def engine_call(index, queries, k, radius, **engine: Any) -> Callable[[], list]:
    """The batch-engine call answering *queries* (kNN or range)."""
    if radius is not None:
        return lambda: index.range_search_batch(queries, radius, **engine)
    return lambda: index.knn_search_batch(queries, k, **engine)


def loop_call(index, queries, k, radius, collector) -> Callable[[], list]:
    """A plain per-query loop over the same queries.

    The loop opens each query's record itself, so ``--trace`` /
    ``--trace-out`` see the same per-query records the batch engine
    collects.
    """
    kind, parameter = ("range", radius) if radius is not None else ("knn", k)
    search = index.range_search if kind == "range" else index.knn_search

    def run() -> list:
        results = []
        for pos, q in enumerate(queries):
            with query_trace(kind, parameter, query_index=pos, collector=collector):
                results.append(search(q, parameter))
        return results

    return run


def explain_first(run: ObservedRun, index, queries, k, radius) -> None:
    """Re-run query 0 under event collection for the exit-time sinks.

    The batch itself runs with events off (the bit-identical fast path);
    the plan re-executes query 0 with its own counter delta, so its
    totals describe exactly that one query.
    """
    if len(queries):
        run.set_plan(explain_query(index, queries[0], k=k, radius=radius))


def run_and_report(
    run: ObservedRun,
    target: Any,
    execute: Callable[[], list],
    *,
    execution: "str | None" = None,
    lines: "str | None" = "full",
    trace: bool = False,
    explain: "Callable[[], None] | None" = None,
) -> None:
    """Run the batch under *run*, print its cost lines, EXPLAIN query 0.

    *target* (a ``BuiltIndex`` or a planner execution) reports the
    costs; *lines* is ``"full"`` (``execution`` / ``wall time`` /
    ``costs``), ``"costs"`` (one line with the time appended) or
    ``None``.  The sinks are deactivated before anything is printed or
    explained, so the exported metrics and log describe exactly the
    build and the batch.
    """
    start = time.perf_counter()
    results = execute()
    elapsed = time.perf_counter() - start
    run.deactivate()
    n = len(results)
    if lines == "full":
        if execution is not None:
            print(f"execution: {execution}")
        print(f"wall time: {elapsed:.3f}s for {n} queries -> {n / elapsed:.1f} queries/s")
    if lines is not None:
        costs = target.query_costs(elapsed)
        print(
            f"costs    : {costs.distance_computations} distance evaluations, "
            f"{costs.transforms} query transforms"
            + (f" in {elapsed:.3f}s" if lines == "costs" else "")
        )
    if trace and run.collector is not None:
        summary = run.collector.summary()
        print(
            "trace    : "
            f"{summary.evaluations_per_query:.1f} evals/query "
            f"({summary.scalar_evaluations} scalar + "
            f"{summary.batched_evaluations} batched), "
            f"filter {summary.filter_hits}/{summary.filter_checked} passed, "
            f"{summary.candidates} candidates refined, "
            f"{summary.results} results"
        )
        print(
            "latency  : "
            f"p50 {summary.p50_seconds * 1000:.2f}ms, "
            f"p95 {summary.p95_seconds * 1000:.2f}ms per query"
        )
    if explain is not None and run.wants_plan:
        explain()


def _explain_planned(run: ObservedRun, planned, workload, k, radius) -> None:
    """The planner's EXPLAIN: considered plans with measured actuals.

    Re-runs query 0 through *every* considered alternative to fill the
    ``actual=`` column (per-query flops in the cost model's unit), then
    — when the chosen plan is index-backed — adds the usual traversal
    tree for the chosen plan, whose totals still match the distance
    counter exactly.
    """
    import json

    from ..models.planning import alternative_actual_flops

    if len(workload.queries) == 0:
        return
    query = workload.queries[0]
    actuals = alternative_actual_flops(
        planned.choice, workload.matrix, workload.database, query, k=k, radius=radius
    )
    text = planned.choice.render(per_query=True, actual_flops=actuals)
    plan = None
    if planned.execution.index is not None:
        plan = explain_query(planned.execution.index, query, k=k, radius=radius)
        text += "\n\n" + plan.render()
    payload = {
        "considered": [
            {
                "plan": c.name,
                "predicted_flops": c.total_flops,
                "predicted_per_query_flops": c.cost.per_query_flops,
                "actual_per_query_flops": actuals.get(c.name),
                "executor": c.executor.describe(),
                "chosen": c.chosen,
            }
            for c in planned.choice.considered
        ],
        "explain": None if plan is None else plan.to_dict(),
    }
    run.set_plan(plan, text=text, document=json.dumps(payload, indent=2), note="query 0")


def run_planned(
    run: ObservedRun,
    args: argparse.Namespace,
    workload,
    *,
    headers: "list[str]",
    index_dir: "str | None",
    seed: int,
    calibrate_from: "str | None" = None,
) -> int:
    """Plan, print the considered alternatives, and execute the choice."""
    from ..models.planning import plan_query_batch
    from ..planner import ExecutorChoice

    ignored = [f for f, d in zip(COLLECTOR_SINKS, dests(*COLLECTOR_SINKS)) if getattr(args, d)]
    if ignored:
        print(
            f"note: {'/'.join(ignored)} ignored under --plan (the planner's "
            "executor takes no trace collector)",
            file=sys.stderr,
        )
    k, radius, _ = query_kind(args)
    with run:
        for line in headers:
            print(line)
        history = None
        if calibrate_from:
            from ..bench import load_history

            history = load_history(calibrate_from)
        executor = None
        if args.executor or args.workers:
            executor = ExecutorChoice(
                name=args.executor or ("thread" if (args.workers or 1) > 1 else "serial"),
                workers=args.workers,
            )
        planned = plan_query_batch(
            workload.matrix,
            workload.database,
            workload.queries,
            k=k,
            radius=radius,
            index_dir=index_dir,
            history=history,
            force=None if args.plan == "auto" else args.plan,
            executor=executor,
            seed=seed,
        )
        catalog = planned.catalog
        if catalog.directory is not None:
            note = f"{len(catalog)} snapshot(s)"
            if catalog.warnings:
                note += f", {len(catalog.warnings)} warning(s)"
            print(f"catalog  : {catalog.directory}: {note}")
            for warning in catalog.warnings:
                print(f"warning: {warning}", file=sys.stderr)
        if history is not None:
            print(f"calibrate: {calibrate_from} ({len(history)} record(s))")
        print(planned.choice.render())
        execution = planned.execution
        run_and_report(
            run,
            execution,
            lambda: execution.run_batch(workload.queries, k=k, radius=radius),
            execution=f"{execution.name} [{execution.executor.describe()}]",
            explain=lambda: _explain_planned(run, planned, workload, k, radius),
        )
    return 0
