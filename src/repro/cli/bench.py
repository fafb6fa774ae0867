"""``repro bench check | history | watch``: the benchmark regression gate."""

from __future__ import annotations

import argparse
import sys

from ..exceptions import QueryError
from ..models import QFDModel, QMapModel
from .run import index_kwargs, make_workload

#: The deterministic cost workload gated by ``repro bench check``: the
#: three methods with Table 1/2 closed forms, under both models.  The
#: pivot table is additionally gated in its ptolemaic and best bound
#: modes (variant suffix in the metric prefix); the unsuffixed
#: pivot-table keys stay the triangle mode, pinning the classic code
#: path against the bound-mode refactor.
_BENCH_CHECK_METHODS = ("sequential", "pivot-table", "mtree")
_BENCH_CHECK_BOUNDS: dict[str, tuple[tuple[str, "str | None"], ...]] = {
    "pivot-table": (("", None), ("+ptolemaic", "ptolemaic"), ("+best", "best")),
}


def _bench_check_metrics(args: argparse.Namespace) -> dict:
    """Distance-evaluation counts for the fixed-seed gate workload.

    Counts (never wall-clock) are gated: for a fixed seed they are
    bit-reproducible, so any drift means the traversal itself changed.
    """
    workload = make_workload(args)
    metrics: dict = {}
    for model_cls, model_name in ((QFDModel, "qfd"), (QMapModel, "qmap")):
        model = model_cls(workload.matrix)
        for method in _BENCH_CHECK_METHODS:
            for suffix, bound in _BENCH_CHECK_BOUNDS.get(method, (("", None),)):
                index = model.build_index(
                    method, workload.database, **index_kwargs(method, bound)
                )
                prefix = f"{method}{suffix}.{model_name}"
                metrics[f"{prefix}.build_evaluations"] = (
                    index.build_costs.distance_computations
                )
                index.reset_query_costs()
                for q in workload.queries:
                    index.knn_search(q, args.k)
                costs = index.query_costs()
                metrics[f"{prefix}.query_evaluations"] = costs.distance_computations
                metrics[f"{prefix}.query_transforms"] = costs.transforms

    # Planner gate: snapshot the closed-form qmap indexes into a scratch
    # catalog, plan the same workload with the uncalibrated cost model
    # (calibration would make the pick machine-dependent), and gate what
    # the chosen plan actually spends.  Any drift means either the cost
    # model's argmin moved or the chosen traversal changed.
    import tempfile
    from pathlib import Path

    from ..models.planning import plan_query_batch

    with tempfile.TemporaryDirectory() as tmp:
        for method in ("pivot-table", "mtree"):
            built = QMapModel(workload.matrix).build_index(
                method, workload.database, **index_kwargs(method)
            )
            built.save(str(Path(tmp) / f"{method}.npz"))
        planned = plan_query_batch(
            workload.matrix,
            workload.database,
            workload.queries,
            k=args.k,
            index_dir=tmp,
        )
        planned.execution.run_batch(workload.queries, k=args.k)
        costs = planned.execution.query_costs()
        metrics["planner.auto.alternatives"] = len(planned.choice.considered)
        metrics["planner.auto.query_evaluations"] = costs.distance_computations
        metrics["planner.auto.query_transforms"] = costs.transforms
    return metrics


def cmd_bench_check(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from ..bench import append_history, check_regression, history_record

    meta = {
        "size": args.size,
        "bins": args.bins,
        "queries": args.queries,
        "k": args.k,
        "seed": args.seed,
    }
    print(
        f"workload : m={args.size}, q={args.queries}, k={args.k}, "
        f"bins={args.bins}, seed={args.seed}"
    )
    metrics = _bench_check_metrics(args)
    if not args.no_history:
        path = append_history(history_record("bench-check", metrics, meta=meta), args.history)
        print(f"history  : appended to {path}")

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": meta,
            "default_threshold": 0.0,
            "metrics": metrics,
        }
        baseline_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"baseline : rewritten at {baseline_path}")
        return 0
    if not baseline_path.exists():
        print(
            f"error: no baseline at {baseline_path}; create one with "
            "--update-baseline",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    stored_meta = baseline.get("workload", {})
    if stored_meta and {k: stored_meta[k] for k in meta if k in stored_meta} != meta:
        print(
            f"error: baseline {baseline_path} was recorded for workload "
            f"{stored_meta}, not {meta}; rerun with matching parameters "
            "or --update-baseline",
            file=sys.stderr,
        )
        return 2
    checks = check_regression(
        metrics,
        baseline.get("metrics", {}),
        default_threshold=float(baseline.get("default_threshold", 0.0)),
        thresholds=baseline.get("thresholds"),
    )
    for check in checks:
        print("  " + check.describe())
    regressed = [c for c in checks if c.regressed]
    improved = [c for c in checks if c.drifted and not c.regressed]
    if regressed:
        print(f"bench check: {len(regressed)} metric(s) REGRESSED")
        return 1
    if improved:
        print(
            f"bench check: passed ({len(improved)} metric(s) improved — "
            "consider --update-baseline)"
        )
        return 0
    print(f"bench check: passed, {len(checks)} metrics match the baseline")
    return 0


def cmd_bench_history(args: argparse.Namespace) -> int:
    from ..bench import load_history

    records = load_history(args.history)
    if not records:
        print(f"no history at {args.history}")
        return 0
    shown = records[-args.last :] if args.last > 0 else records
    print(f"{args.history}: {len(records)} run(s), showing {len(shown)}")
    for record in shown:
        metrics = record.get("metrics", {})
        git = str(record.get("git", "unknown"))[:12]
        print(
            f"  {record.get('timestamp', '?'):25s} {record.get('bench', '?'):12s} "
            f"git={git}  {len(metrics)} metrics"
        )
    return 0


def cmd_bench_watch(args: argparse.Namespace) -> int:
    from ..bench import watch_history

    if args.window < 1:
        raise QueryError(f"--window must be >= 1, got {args.window}")
    if args.min_history < 1:
        raise QueryError(f"--min-history must be >= 1, got {args.min_history}")
    report = watch_history(
        args.history,
        bench=args.bench,
        window=args.window,
        sigma=args.sigma,
        min_history=args.min_history,
    )
    print(report.render())
    return report.exit_code
