"""Command bodies: each takes the parsed ``Namespace``, returns the exit code.

What the commands do is documented where the user reads it — the
parser's help and epilog (:mod:`repro.cli.parser`).  The commands that
run queries are thin: :mod:`repro.cli.run` holds the shared path.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..exceptions import QueryError, StorageError
from ..models import QFDModel, QMapModel, explain_query
from .run import (
    build_index,
    engine_call,
    explain_first,
    index_kwargs,
    loop_call,
    make_workload,
    method_line,
    observe,
    query_kind,
    run_and_report,
    run_planned,
)

#: Snapshot metadata written by ``index save`` and replayed by ``index query``.
_RECIPE_KEYS = ("workload_size", "workload_bins", "workload_queries", "workload_seed")


def cmd_info(args: argparse.Namespace) -> int:
    from .. import __version__
    from ..models import MAM_REGISTRY, SAM_REGISTRY

    print(f"repro {__version__}")
    print("paper: Skopal, Bartos, Lokoc — EDBT 2011")
    print(f"metric access methods : {', '.join(sorted(MAM_REGISTRY))}")
    print(f"spatial access methods: {', '.join(sorted(SAM_REGISTRY))}")
    print(f"numpy {np.__version__}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from ..core import QMap, random_spd_matrix
    from ..datasets import gaussian_vectors

    rng = np.random.default_rng(args.seed)
    matrix = random_spd_matrix(args.dim, rng=rng, condition=20.0)
    data = gaussian_vectors(args.size, args.dim, rng=rng)
    queries = gaussian_vectors(8, args.dim, rng=rng)

    qmap = QMap(matrix)
    failures = 0

    worst = 0.0
    for q in queries:
        for row in data[:50]:
            worst = max(worst, abs(qmap.qfd(q, row) - qmap.distance_via_map(q, row)))
    status = "ok" if worst < 1e-8 else "FAIL"
    failures += status != "ok"
    print(f"[{status}] QMap distance preservation (worst error {worst:.2e})")

    i_qfd = QFDModel(matrix).build_index("mtree", data, capacity=8)
    i_qmap = QMapModel(matrix).build_index("mtree", data, capacity=8)
    scan = QFDModel(matrix).build_index("sequential", data)
    agree = True
    for q in queries:
        truth = [n.index for n in scan.knn_search(q, 10)]
        agree &= [n.index for n in i_qfd.knn_search(q, 10)] == truth
        agree &= [n.index for n in i_qmap.knn_search(q, 10)] == truth
    status = "ok" if agree else "FAIL"
    failures += status != "ok"
    print(f"[{status}] M-tree answers match the sequential scan in both models")

    i_qfd.reset_query_costs()
    i_qmap.reset_query_costs()
    for q in queries:
        i_qfd.knn_search(q, 10)
        i_qmap.knn_search(q, 10)
    same_counts = (
        i_qfd.query_costs().distance_computations
        == i_qmap.query_costs().distance_computations
    )
    status = "ok" if same_counts else "FAIL"
    failures += status != "ok"
    print(f"[{status}] identical distance-evaluation counts across models")

    print("self-check:", "PASSED" if failures == 0 else f"{failures} FAILURES")
    return 0 if failures == 0 else 1


def cmd_compare(args: argparse.Namespace) -> int:
    from ..bench import compare_models

    workload = make_workload(args, queries=10)
    kwargs = index_kwargs(args.method)
    cmp = compare_models(workload, args.method, method_kwargs=kwargs, k=args.k)
    print(f"workload : {workload.name}, m={args.size}")
    print(f"method   : {args.method} {kwargs or ''}")
    print(
        f"indexing : QFD {cmp.qfd_build.seconds:.3f}s vs "
        f"QMap {cmp.qmap_build.seconds:.3f}s "
        f"({cmp.indexing_speedup:.1f}x)"
    )
    print(
        f"query    : QFD {cmp.qfd_query.seconds_per_query * 1000:.2f}ms vs "
        f"QMap {cmp.qmap_query.seconds_per_query * 1000:.2f}ms per {args.k}NN "
        f"({cmp.querying_speedup:.1f}x)"
    )
    print(
        f"evals    : {cmp.qfd_query.evaluations_per_query:.0f} per query "
        "(identical in both models)"
    )
    return 0


def _workload_line(workload, size: int, queries: int) -> str:
    return f"workload : {workload.name}, m={size}, q={queries}"


def _build_and_run(args: argparse.Namespace, run, workload, **report) -> int:
    """Build ``--method`` over *workload* and run its queries under *run*.

    The path of ``query``, ``report`` and ``trace export``; *report* goes
    to :func:`~repro.cli.run.run_and_report`.  The batch engine runs the
    queries unless the command has a ``--batch`` flag and it is off.
    """
    k, radius, what = query_kind(args)
    executor, workers = getattr(args, "executor", None), getattr(args, "workers", None)
    with run:
        index, kwargs = build_index(args, workload)
        index.reset_query_costs()
        if report.get("lines", "full") is not None:
            print(_workload_line(workload, args.size, args.queries))
            print(method_line(args.method, args.model, f", {what}", kwargs=kwargs))
        if getattr(args, "batch", True):
            execute = engine_call(
                index, workload.queries, k, radius,
                executor=executor, workers=workers, collector=run.collector,
            )
            name = executor or ("thread" if (workers or 1) > 1 else "serial")
            pool = f"{workers} workers" if workers else "default workers"
            execution = f"batch engine ({name}, {pool})"
        else:
            execute = loop_call(index, workload.queries, k, radius, run.collector)
            execution = "per-query loop"
        run_and_report(
            run, index, execute, execution=execution, **report,
            explain=lambda: explain_first(run, index, workload.queries, k, radius),
        )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    run = observe(args, traced=not args.plan)
    workload = make_workload(args)
    if args.plan:
        return run_planned(
            run,
            args,
            workload,
            headers=[_workload_line(workload, args.size, args.queries)],
            index_dir=args.index_dir,
            seed=args.seed,
        )
    return _build_and_run(args, run, workload, trace=args.trace)


def cmd_explain(args: argparse.Namespace) -> int:
    """Build a synthetic workload and EXPLAIN one query against it."""
    if args.query_index < 0:
        raise QueryError(f"--query-index must be >= 0, got {args.query_index}")
    run = observe(args)
    workload = make_workload(args, queries=args.query_index + 1)
    k, radius, _ = query_kind(args)
    # With --timeline-out or --profile-out the build + explain run under
    # a live registry, so the timeline gets wall-clock spans alongside
    # the traversal and the profiler can attribute samples to span phases.
    with run:
        index, _ = build_index(args, workload)
        index.reset_query_costs()
        plan = explain_query(
            index,
            workload.queries[args.query_index],
            k=k,
            radius=radius,
            max_events=args.max_events,
            sample_every=args.sample_every,
        )
        run.deactivate()
        run.set_plan(plan)
        print(plan.to_json() if args.json else plan.render())
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(plan.to_json() + "\n")
            print(f"plan JSON: {args.out}")
    # A mismatch would mean the plan lost track of counted evaluations —
    # surface it as a failure, it is the feature's core invariant.
    return 0 if plan.totals_match else 1


def cmd_trace_export(args: argparse.Namespace) -> int:
    """Run a workload under span + event collection, write the timeline."""
    run = observe(args, live=True, timeline_out=args.out)
    return _build_and_run(args, run, make_workload(args), lines="costs")


def _report_diff(args: argparse.Namespace) -> int:
    from ..obs.export import diff_metrics, load_metrics_jsonl, render_diff

    path_a, path_b = args.diff
    deltas = diff_metrics(load_metrics_jsonl(path_a), load_metrics_jsonl(path_b))
    text = render_diff(deltas, label_a=path_a, label_b=path_b)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"diff     : {args.out}")
    else:
        print(text)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Build + query with a live registry, then export everything."""
    if args.diff is not None:
        return _report_diff(args)
    run = observe(args, live=True, metrics_out=args.out)
    return _build_and_run(args, run, make_workload(args), lines=None)


def cmd_index_build(args: argparse.Namespace) -> int:
    workload = make_workload(args)
    index, kwargs = build_index(args, workload, store=args.store, store_path=args.store_path)
    costs = index.build_costs
    print(_workload_line(workload, args.size, args.queries))
    store_tag = "" if args.store == "heap" else f" store={args.store}"
    print(method_line(args.method, args.model, store_tag, kwargs=kwargs))
    print(
        f"build    : {costs.distance_computations} distance evaluations, "
        f"{costs.transforms} transforms, {costs.seconds:.3f}s"
    )
    if args.out is not None:
        recipe = dict(
            zip(_RECIPE_KEYS, map(np.int64, (args.size, args.bins, args.queries, args.seed)))
        )
        path = index.save(args.out, extra_meta=recipe)
        print(f"snapshot : {path}")
    return 0


def cmd_index_load(args: argparse.Namespace) -> int:
    from ..models import load_built_index

    index = load_built_index(args.path, verify=not args.no_verify, store=args.store)
    am = index.access_method
    costs = index.build_costs
    store_tag = "" if args.store == "heap" else f" store={args.store}"
    print(f"snapshot : {args.path}")
    print(
        method_line(
            index.method_name, index.model_name, f", m={am.size}, dim={am.dim}", store_tag
        )
    )
    print(
        f"restore  : {costs.distance_computations} distance evaluations, "
        f"{costs.transforms} transforms, {costs.seconds:.3f}s"
    )
    return 0


def cmd_index_query(args: argparse.Namespace) -> int:
    from ..datasets import histogram_workload
    from ..models import load_built_index
    from ..persistence import read_snapshot

    run = observe(args, traced=not args.plan)
    snapshot = read_snapshot(args.path)
    missing = [key for key in _RECIPE_KEYS if key not in snapshot.meta]
    if missing:
        raise StorageError(
            f"{snapshot.path} records no query workload recipe "
            f"(missing {missing}); snapshot it with 'repro index save'"
        )
    size, bins, n_queries, seed = (int(snapshot.meta[key]) for key in _RECIPE_KEYS)
    workload = histogram_workload(size, n_queries, bins_per_channel=bins, seed=seed)
    if args.plan:
        from pathlib import Path

        return run_planned(
            run,
            args,
            workload,
            headers=[f"snapshot : {snapshot.path}", _workload_line(workload, size, n_queries)],
            index_dir=str(Path(args.path).parent),
            seed=seed,
        )
    k, radius, what = query_kind(args)
    with run:
        # The header was already parsed above — pass the snapshot through
        # so the restore does not open and decode the archive a second
        # time.
        index = load_built_index(snapshot)
        index.reset_query_costs()
        print(f"snapshot : {snapshot.path}")
        print(
            method_line(
                index.method_name, index.model_name, f", m={size}, q={n_queries}, {what}"
            )
        )
        print(
            f"restore  : {index.build_costs.distance_computations} distance "
            f"evaluations, {index.build_costs.seconds:.3f}s"
        )
        run_and_report(
            run,
            index,
            engine_call(
                index, workload.queries, k, radius,
                executor=args.executor, workers=args.workers, collector=run.collector,
            ),
            trace=args.trace,
            explain=lambda: explain_first(run, index, workload.queries, k, radius),
        )
    return 0


def cmd_index_ls(args: argparse.Namespace) -> int:
    """List discovered snapshots; unreadable files warn on stderr."""
    import os

    from ..models import load_catalog

    catalog = load_catalog(args.directory)
    print(f"{catalog.directory}: {len(catalog)} snapshot(s)")
    if catalog.entries:
        print(
            f"  {'file':<30} {'method':<15} {'model':<5} {'bound':<9} "
            f"{'n':>7} {'dim':>5} {'fmt':>3} {'store':<5} {'pivots':>6}"
        )
        for entry in catalog.entries:
            name = os.path.basename(entry.path)
            print(
                f"  {name:<30} {entry.method:<15} {entry.model:<5} "
                f"{str(entry.bound or '-'):<9} {entry.size:>7} "
                f"{entry.dim:>5} {entry.format_version:>3} "
                f"{entry.store:<5} {entry.n_pivots if entry.n_pivots is not None else '-':>6}"
            )
    for warning in catalog.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0
