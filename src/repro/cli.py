"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library version, registered access methods, and environment summary.
``verify``
    Fast self-check: QMap exactness, index/scan agreement, and identical
    distance-evaluation counts across the two models on random data.
``compare``
    Run a QFD-model vs QMap-model comparison on a synthetic histogram
    workload and print the paper-style row (build/query times + speedups).
``query``
    Run a batch of queries through the batch engine: pick the access
    method, model, executor and worker count; ``--trace`` prints the
    per-query cost aggregation (distance evaluations, filter hits,
    candidates) next to the throughput.  ``--plan auto`` hands the
    batch to the cost-based planner instead: it enumerates every
    physical alternative (both scans, filter-and-refine pipelines, one
    probe per snapshot in ``--index-dir``), prints the considered plans
    with predicted costs, and executes the cheapest; ``--plan <name>``
    forces a specific alternative.
``index build|save|load|query|ls``
    Index lifecycle on a reproducible synthetic workload: build an index
    (``build``), snapshot it to a pickle-free ``.npz`` with the workload
    recipe in its metadata (``save``), restore it with zero distance
    evaluations (``load``), run the recorded query workload against a
    restored snapshot through the batch engine (``query``, with
    ``--plan`` routing it through the planner against the snapshot's
    directory as catalog), and list the snapshots discovered in a
    directory from their headers alone (``ls``).
``report``
    Build and query a synthetic workload with a live metrics registry
    and export everything the observability layer collected — build and
    query spans, distance-evaluation counters, per-MAM node accounting —
    as an aligned table, JSON-lines, or Prometheus text format.
``explain``
    Run one query under traversal-event collection and print its EXPLAIN
    plan: the node-by-node cost tree (distance charges, lower-bound
    checks with their actual values, prunes, candidate verifications),
    totals verified against the distance counter, and the paper's
    Table 2 audit where a closed form exists.
``bench check|history``
    Benchmark regression gate: ``check`` measures the deterministic
    distance-evaluation counts of a fixed-seed workload, appends them to
    ``BENCH_history.jsonl``, and compares them against the committed
    ``benchmarks/bench_baseline.json`` (nonzero exit on regression);
    ``history`` lists the recorded runs.

``trace export``
    Run a workload under spans + traversal-event collection and write a
    Chrome trace-event JSON timeline (loadable in Perfetto /
    ``chrome://tracing``): wall-clock span slices per phase and worker
    thread, plus the first query's traversal with per-node charged
    distance evaluations.
``bench watch``
    Drift detector over the benchmark history: per metric key, the
    latest run is compared against the trailing window with robust
    median/MAD statistics — count keys zero-tolerance, timing keys
    gated at a configurable sigma.  Exit 0 clean, 1 drift, 2
    insufficient history.
``report --diff A B``
    Key-wise comparison of two ``--metrics jsonl`` exports.

``query`` and ``index query`` additionally accept ``--trace-out PATH``
(per-query ``QueryTrace`` records as JSON-lines), ``--metrics
{table,jsonl,prom}`` (run with a live registry and print the export),
``--serve-metrics [host:]port`` (serve the live registry over HTTP at
``/metrics`` / ``/healthz`` / ``/snapshot.json`` while the batch runs;
port 0 auto-assigns; ``--serve-hold S`` keeps the endpoint up S seconds
after the run), and ``--explain`` / ``--explain-out PATH`` (EXPLAIN the
batch's first query after the run).  ``query`` and ``explain`` accept
``--timeline-out PATH`` to write the run's Chrome trace-event timeline
and ``--profile-out PATH`` / ``--profile-hz HZ`` to run under the
built-in sampling profiler (``.json`` writes speedscope JSON, any other
extension collapsed flamegraph stacks).  ``query``, ``index query`` and
``report`` accept ``--log-json PATH`` to write one structured JSON
record per build/query/batch/plan event, correlated by ``trace_id``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "QMap reproduction of 'On (not) indexing quadratic form "
            "distance by metric access methods' (EDBT 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show version and registered access methods")

    verify = sub.add_parser("verify", help="run a fast correctness self-check")
    verify.add_argument("--dim", type=int, default=32, help="vector dimensionality")
    verify.add_argument("--size", type=int, default=500, help="database size")
    verify.add_argument("--seed", type=int, default=0)

    compare = sub.add_parser("compare", help="QFD vs QMap on a synthetic workload")
    compare.add_argument("--method", default="mtree", help="access method name")
    compare.add_argument("--size", type=int, default=1000, help="database size")
    compare.add_argument(
        "--bins", type=int, default=4, help="RGB bins per channel (4 -> 64-d, 8 -> 512-d)"
    )
    compare.add_argument("--k", type=int, default=5, help="kNN parameter")
    compare.add_argument("--seed", type=int, default=0)

    query = sub.add_parser(
        "query", help="run a query batch through the batch engine"
    )
    query.add_argument("--method", default="pivot-table", help="access method name")
    query.add_argument(
        "--model", choices=["qfd", "qmap"], default="qmap", help="distance model"
    )
    query.add_argument("--size", type=int, default=1000, help="database size")
    query.add_argument(
        "--bins", type=int, default=4, help="RGB bins per channel (4 -> 64-d, 8 -> 512-d)"
    )
    query.add_argument("--queries", type=int, default=50, help="number of queries")
    query.add_argument("--k", type=int, default=10, help="kNN parameter")
    query.add_argument(
        "--bound",
        choices=["triangle", "ptolemaic", "best"],
        default="triangle",
        help="pivot-table lower-bound mode (ignored by other methods)",
    )
    query.add_argument(
        "--radius",
        type=float,
        default=None,
        help="run range queries with this radius instead of kNN",
    )
    query.add_argument(
        "--batch",
        action="store_true",
        help="use the batch engine (otherwise a plain per-query loop)",
    )
    query.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default=None,
        help="batch executor (default: serial, or thread when --workers > 1)",
    )
    query.add_argument("--workers", type=int, default=None, help="parallel workers")
    query.add_argument(
        "--trace",
        action="store_true",
        help="collect per-query traces and print the aggregated cost model",
    )
    query.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write per-query QueryTrace records to PATH as JSON-lines",
    )
    query.add_argument(
        "--metrics",
        choices=["table", "jsonl", "prom"],
        default=None,
        help="run with a live metrics registry and print the export",
    )
    query.add_argument(
        "--serve-metrics",
        default=None,
        metavar="[HOST:]PORT",
        help="serve the live registry over HTTP while the batch runs "
        "(GET /metrics, /healthz, /snapshot.json; port 0 auto-assigns)",
    )
    query.add_argument(
        "--serve-hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the metrics endpoint up this long after the run",
    )
    query.add_argument(
        "--timeline-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event timeline (wall-clock spans plus "
        "the first query's traversal); open in Perfetto",
    )
    query.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="run under the built-in sampling profiler and write the "
        "profile (.json -> speedscope, anything else -> collapsed "
        "stacks for flamegraph.pl)",
    )
    query.add_argument(
        "--profile-hz",
        type=float,
        default=200.0,
        metavar="HZ",
        help="profiler sampling rate in samples/second (default: 200)",
    )
    query.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help="write one structured JSON record per build/query/batch "
        "event to PATH (trace_id-correlated JSON-lines)",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="after the batch, re-run the first query under event "
        "collection and print its EXPLAIN plan",
    )
    query.add_argument(
        "--explain-out",
        default=None,
        metavar="PATH",
        help="write the first query's EXPLAIN plan to PATH as JSON",
    )
    query.add_argument(
        "--plan",
        default=None,
        metavar="auto|NAME",
        help="route the batch through the cost-based planner: 'auto' "
        "executes the cheapest physical plan, a plan name (e.g. "
        "'scan[qmap]') forces that alternative; the considered-plans "
        "header is printed either way (--method/--bound are ignored)",
    )
    query.add_argument(
        "--index-dir",
        default=None,
        metavar="DIR",
        help="directory of .npz index snapshots the planner may probe",
    )
    query.add_argument(
        "--calibrate-from",
        default=None,
        metavar="PATH",
        help="bench history JSON-lines used to calibrate the planner's "
        "cost model (default: uncalibrated Table 2 closed forms)",
    )
    query.add_argument("--seed", type=int, default=0)

    explain = sub.add_parser(
        "explain",
        help="run one query under traversal-event collection and print "
        "its cost tree (node-by-node distance charges, lower-bound "
        "checks, prunes) plus the Table 2 audit",
    )
    explain.add_argument("--method", default="mtree", help="access method name")
    explain.add_argument(
        "--model", choices=["qfd", "qmap"], default="qmap", help="distance model"
    )
    explain.add_argument("--size", type=int, default=500, help="database size")
    explain.add_argument(
        "--bins", type=int, default=4, help="RGB bins per channel (4 -> 64-d, 8 -> 512-d)"
    )
    explain.add_argument("--k", type=int, default=10, help="kNN parameter")
    explain.add_argument(
        "--radius",
        type=float,
        default=None,
        help="explain a range query with this radius instead of kNN",
    )
    explain.add_argument(
        "--bound",
        choices=["triangle", "ptolemaic", "best"],
        default="triangle",
        help="pivot-table lower-bound mode; ptolemaic/best render triangle "
        "vs Ptolemaic prune counts side by side (ignored by other methods)",
    )
    explain.add_argument(
        "--query-index", type=int, default=0, help="which workload query to explain"
    )
    explain.add_argument(
        "--max-events",
        type=int,
        default=10_000,
        help="cap on recorded event objects (aggregates stay exact)",
    )
    explain.add_argument(
        "--sample-every",
        type=int,
        default=1,
        help="record every N-th lb_check/candidate_verify event",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="print the plan as JSON instead of the text tree",
    )
    explain.add_argument(
        "--out", default=None, metavar="PATH", help="also write the plan JSON to PATH"
    )
    explain.add_argument(
        "--timeline-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event timeline of the build/query "
        "spans and this query's traversal; open in Perfetto",
    )
    explain.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="run under the built-in sampling profiler and write the "
        "profile (.json -> speedscope, anything else -> collapsed "
        "stacks for flamegraph.pl)",
    )
    explain.add_argument(
        "--profile-hz",
        type=float,
        default=200.0,
        metavar="HZ",
        help="profiler sampling rate in samples/second (default: 200)",
    )
    explain.add_argument("--seed", type=int, default=0)

    trace = sub.add_parser(
        "trace", help="export observability timelines for external viewers"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    texport = trace_sub.add_parser(
        "export",
        help="run a workload under spans + event collection and write a "
        "Chrome trace-event JSON timeline loadable in Perfetto",
    )
    texport.add_argument("--method", default="mtree", help="access method name")
    texport.add_argument(
        "--model", choices=["qfd", "qmap"], default="qmap", help="distance model"
    )
    texport.add_argument("--size", type=int, default=500, help="database size")
    texport.add_argument(
        "--bins", type=int, default=4, help="RGB bins per channel (4 -> 64-d, 8 -> 512-d)"
    )
    texport.add_argument("--queries", type=int, default=20, help="number of queries")
    texport.add_argument("--k", type=int, default=10, help="kNN parameter")
    texport.add_argument(
        "--radius",
        type=float,
        default=None,
        help="run range queries with this radius instead of kNN",
    )
    texport.add_argument(
        "--bound",
        choices=["triangle", "ptolemaic", "best"],
        default="triangle",
        help="pivot-table lower-bound mode (ignored by other methods)",
    )
    texport.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default=None,
        help="batch executor (default: serial, or thread when --workers > 1)",
    )
    texport.add_argument("--workers", type=int, default=None, help="parallel workers")
    texport.add_argument(
        "--out",
        default="repro_timeline.json",
        metavar="PATH",
        help="timeline JSON output path",
    )
    texport.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench", help="benchmark regression history and baseline gate"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bcheck = bench_sub.add_parser(
        "check",
        help="run the deterministic cost workload, append it to the "
        "history, and gate the counts against the committed baseline "
        "(exit 1 on regression)",
    )
    bcheck.add_argument("--size", type=int, default=400, help="database size")
    bcheck.add_argument(
        "--bins", type=int, default=4, help="RGB bins per channel (4 -> 64-d)"
    )
    bcheck.add_argument("--queries", type=int, default=10, help="number of queries")
    bcheck.add_argument("--k", type=int, default=10, help="kNN parameter")
    bcheck.add_argument("--seed", type=int, default=2011)
    bcheck.add_argument(
        "--baseline",
        default="benchmarks/bench_baseline.json",
        metavar="PATH",
        help="committed baseline file",
    )
    bcheck.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="append-only run history (JSON-lines)",
    )
    bcheck.add_argument(
        "--no-history",
        action="store_true",
        help="do not append this run to the history file",
    )
    bcheck.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run instead of gating",
    )

    bhistory = bench_sub.add_parser(
        "history", help="show the recorded benchmark run history"
    )
    bhistory.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="history file to read",
    )
    bhistory.add_argument(
        "--last", type=int, default=10, help="show only the most recent N runs"
    )

    bwatch = bench_sub.add_parser(
        "watch",
        help="detect drift in the benchmark history with robust "
        "median/MAD statistics (count keys zero-tolerance, timing keys "
        "sigma-gated); exit 0 clean, 1 drift, 2 insufficient history",
    )
    bwatch.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="history file to read",
    )
    bwatch.add_argument(
        "--bench",
        default=None,
        metavar="NAME",
        help="watch only this bench name (default: every bench found)",
    )
    bwatch.add_argument(
        "--window",
        type=int,
        default=10,
        help="trailing prior runs forming the baseline window",
    )
    bwatch.add_argument(
        "--sigma",
        type=float,
        default=5.0,
        help="robust z-score threshold for timing metrics (counts stay "
        "zero-tolerance)",
    )
    bwatch.add_argument(
        "--min-history",
        type=int,
        default=3,
        help="minimum prior runs a bench needs before it is checked",
    )

    index = sub.add_parser(
        "index", help="build, snapshot, restore and query persistent indexes"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)

    def _add_build_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--method", default="pivot-table", help="access method name")
        p.add_argument(
            "--model", choices=["qfd", "qmap"], default="qmap", help="distance model"
        )
        p.add_argument("--size", type=int, default=1000, help="database size")
        p.add_argument(
            "--bins",
            type=int,
            default=4,
            help="RGB bins per channel (4 -> 64-d, 8 -> 512-d)",
        )
        p.add_argument(
            "--queries", type=int, default=20, help="workload queries (recorded)"
        )
        p.add_argument(
            "--bound",
            choices=["triangle", "ptolemaic", "best"],
            default="triangle",
            help="pivot-table lower-bound mode (ignored by other methods)",
        )
        p.add_argument(
            "--store",
            choices=["heap", "mmap"],
            default="heap",
            help="vector storage: heap float64 arrays (default) or an "
            "out-of-core float32 memmap evaluated by the blocked kernels",
        )
        p.add_argument(
            "--store-path",
            default=None,
            metavar="PATH",
            help="backing file for --store mmap (default: a temporary file)",
        )
        p.add_argument(
            "--block-rows",
            type=int,
            default=None,
            help="tile height of the blocked kernels (selects the "
            "out-of-core evaluation path; defaults to 8192 under "
            "--store mmap)",
        )
        p.add_argument("--seed", type=int, default=0)

    ibuild = index_sub.add_parser(
        "build", help="build an index over a synthetic workload"
    )
    _add_build_args(ibuild)
    ibuild.add_argument(
        "--out", default=None, help="also snapshot the index to this .npz path"
    )

    isave = index_sub.add_parser(
        "save", help="build an index and snapshot it (build with a required --out)"
    )
    _add_build_args(isave)
    isave.add_argument("--out", required=True, help="snapshot .npz path")

    iload = index_sub.add_parser(
        "load", help="restore a snapshot and report the restore costs"
    )
    iload.add_argument("path", help="snapshot .npz path")
    iload.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the integrity probe on load",
    )
    iload.add_argument(
        "--store",
        choices=["heap", "mmap"],
        default="heap",
        help="restore the archived rows onto the heap (default) or into "
        "an out-of-core float32 memmap (still zero distance evaluations)",
    )
    iload.add_argument(
        "--block-rows",
        type=int,
        default=None,
        help="blocked-kernel tile height for --store mmap restores",
    )

    iquery = index_sub.add_parser(
        "query", help="restore a snapshot and run its recorded query workload"
    )
    iquery.add_argument("path", help="snapshot .npz path")
    iquery.add_argument("--k", type=int, default=10, help="kNN parameter")
    iquery.add_argument(
        "--radius",
        type=float,
        default=None,
        help="run range queries with this radius instead of kNN",
    )
    iquery.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default=None,
        help="batch executor (default: serial, or thread when --workers > 1)",
    )
    iquery.add_argument("--workers", type=int, default=None, help="parallel workers")
    iquery.add_argument(
        "--trace",
        action="store_true",
        help="collect per-query traces and print the aggregated cost model",
    )
    iquery.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write per-query QueryTrace records to PATH as JSON-lines",
    )
    iquery.add_argument(
        "--metrics",
        choices=["table", "jsonl", "prom"],
        default=None,
        help="run with a live metrics registry and print the export",
    )
    iquery.add_argument(
        "--serve-metrics",
        default=None,
        metavar="[HOST:]PORT",
        help="serve the live registry over HTTP while the batch runs "
        "(GET /metrics, /healthz, /snapshot.json; port 0 auto-assigns)",
    )
    iquery.add_argument(
        "--serve-hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the metrics endpoint up this long after the run",
    )
    iquery.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help="write one structured JSON record per build/query/batch "
        "event to PATH (trace_id-correlated JSON-lines)",
    )
    iquery.add_argument(
        "--explain",
        action="store_true",
        help="after the batch, re-run the first query under event "
        "collection and print its EXPLAIN plan",
    )
    iquery.add_argument(
        "--explain-out",
        default=None,
        metavar="PATH",
        help="write the first query's EXPLAIN plan to PATH as JSON",
    )
    iquery.add_argument(
        "--plan",
        default=None,
        metavar="auto|NAME",
        help="plan the recorded workload instead of probing this snapshot "
        "directly: the planner's catalog is the snapshot's directory, "
        "'auto' executes the cheapest alternative, a plan name forces one",
    )

    ils = index_sub.add_parser(
        "ls", help="list the index snapshots discovered in a directory"
    )
    ils.add_argument("directory", help="directory containing .npz snapshots")

    report = sub.add_parser(
        "report",
        help="build + query a synthetic workload and export all metrics",
    )
    report.add_argument("--method", default="pivot-table", help="access method name")
    report.add_argument(
        "--model", choices=["qfd", "qmap"], default="qmap", help="distance model"
    )
    report.add_argument("--size", type=int, default=500, help="database size")
    report.add_argument(
        "--bins", type=int, default=4, help="RGB bins per channel (4 -> 64-d, 8 -> 512-d)"
    )
    report.add_argument("--queries", type=int, default=20, help="number of queries")
    report.add_argument("--k", type=int, default=10, help="kNN parameter")
    report.add_argument(
        "--bound",
        choices=["triangle", "ptolemaic", "best"],
        default="triangle",
        help="pivot-table lower-bound mode (ignored by other methods)",
    )
    report.add_argument(
        "--radius",
        type=float,
        default=None,
        help="run range queries with this radius instead of kNN",
    )
    report.add_argument(
        "--metrics",
        choices=["table", "jsonl", "prom"],
        default="table",
        help="export format (default: table)",
    )
    report.add_argument(
        "--out", default=None, metavar="PATH", help="write the export to PATH"
    )
    report.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write per-query QueryTrace records to PATH as JSON-lines",
    )
    report.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help="write one structured JSON record per build/query/batch "
        "event to PATH (trace_id-correlated JSON-lines)",
    )
    report.add_argument(
        "--diff",
        nargs=2,
        default=None,
        metavar=("A", "B"),
        help="compare two --metrics jsonl export files key by key "
        "instead of running a workload",
    )
    report.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_info() -> int:
    from . import __version__
    from .models import MAM_REGISTRY, SAM_REGISTRY

    print(f"repro {__version__}")
    print("paper: Skopal, Bartos, Lokoc — EDBT 2011")
    print(f"metric access methods : {', '.join(sorted(MAM_REGISTRY))}")
    print(f"spatial access methods: {', '.join(sorted(SAM_REGISTRY))}")
    print(f"numpy {np.__version__}")
    return 0


def _cmd_verify(dim: int, size: int, seed: int) -> int:
    from .core import QMap, random_spd_matrix
    from .datasets import gaussian_vectors
    from .models import QFDModel, QMapModel

    rng = np.random.default_rng(seed)
    matrix = random_spd_matrix(dim, rng=rng, condition=20.0)
    data = gaussian_vectors(size, dim, rng=rng)
    queries = gaussian_vectors(8, dim, rng=rng)

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


def _cmd_compare(method: str, size: int, bins: int, k: int, seed: int) -> int:
    from .bench import compare_models
    from .datasets import histogram_workload

    workload = histogram_workload(size, 10, bins_per_channel=bins, seed=seed)
    kwargs = {"pivot-table": {"n_pivots": 16}, "mtree": {"capacity": 16}}.get(method, {})
    cmp = compare_models(workload, method, method_kwargs=kwargs, k=k)
    print(f"workload : {workload.name}, m={size}")
    print(f"method   : {method} {kwargs or ''}")
    print(
        f"indexing : QFD {cmp.qfd_build.seconds:.3f}s vs "
        f"QMap {cmp.qmap_build.seconds:.3f}s "
        f"({cmp.indexing_speedup:.1f}x)"
    )
    print(
        f"query    : QFD {cmp.qfd_query.seconds_per_query * 1000:.2f}ms vs "
        f"QMap {cmp.qmap_query.seconds_per_query * 1000:.2f}ms per {k}NN "
        f"({cmp.querying_speedup:.1f}x)"
    )
    print(
        f"evals    : {cmp.qfd_query.evaluations_per_query:.0f} per query "
        "(identical in both models)"
    )
    return 0


def _activate_metrics(fmt: "str | None", *, force: bool = False):
    """Install a live registry when a metrics format was requested.

    Returns ``(registry, restore)``; call ``restore()`` in a ``finally``
    block to reinstate the previous active registry.  With *fmt* ``None``
    the null registry stays active and ``restore`` is a no-op — unless
    *force* is set (``--serve-metrics`` / ``--timeline-out`` need a live
    registry even when no export format was asked for).
    """
    from .obs import MetricsRegistry, set_registry

    if fmt is None and not force:
        return None, lambda: None
    registry = MetricsRegistry()
    previous = set_registry(registry)
    return registry, lambda: set_registry(previous)


def _activate_logger(path: "str | None"):
    """Install a JSON-lines structured logger when ``--log-json`` was given.

    Returns ``(logger, restore)``; call ``restore()`` in a ``finally``
    block to reinstate the previous logger and close the file.  With
    *path* ``None`` the null logger stays active and ``restore`` is a
    no-op.
    """
    if path is None:
        return None, lambda: None
    from .obs import JsonLinesLogger, set_logger

    logger = JsonLinesLogger(path)
    previous = set_logger(logger)

    def restore() -> None:
        set_logger(previous)
        logger.close()

    return logger, restore


def _start_profiler(path: "str | None", hz: float):
    """Start the sampling profiler when ``--profile-out`` was given."""
    if path is None:
        return None
    from .obs import SamplingProfiler

    return SamplingProfiler(hz=hz).start()


def _finish_profiler(profiler, path: str, hz: float, registry) -> None:
    """Stop *profiler*, mirror its phase counts, and write the profile."""
    if profiler is None:
        return
    profiler.stop()
    profiler.record_to(registry)
    out = profiler.write(path)
    print(
        f"profile  : {out} ({profiler.sample_count} samples @ {hz:g}Hz, "
        f"{'speedscope JSON' if str(out).lower().endswith('.json') else 'collapsed stacks'})"
    )


def _start_telemetry(spec: "str | None", registry):
    """Start a :class:`~repro.obs.live.TelemetryServer` for *registry*.

    Returns the running server, or ``None`` when no ``--serve-metrics``
    spec was given.  The printed ``serving  :`` line is flushed so a
    parent process (the CI scrape smoke) can parse the bound URL before
    the batch finishes.
    """
    if spec is None:
        return None
    from .exceptions import QueryError
    from .obs import TelemetryServer, parse_serve_spec

    try:
        host, port = parse_serve_spec(spec)
    except ValueError as exc:
        raise QueryError(str(exc)) from exc
    server = TelemetryServer(registry, host=host, port=port)
    server.start()
    print(
        f"serving  : {server.url} (GET /metrics /healthz /snapshot.json)",
        flush=True,
    )
    return server


def _finish_telemetry(server, hold: float) -> None:
    """Hold the metrics endpoint up for *hold* seconds, then stop it."""
    if server is None:
        return
    if hold and hold > 0:
        import time

        print(f"holding  : metrics endpoint up for {hold:g}s", flush=True)
        try:
            time.sleep(hold)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
    server.stop()


def _write_timeline_out(path: str, registry, plan) -> None:
    """Write the run's Chrome trace-event timeline to *path*."""
    from .obs import write_timeline

    spans = registry.spans if registry is not None else None
    out = write_timeline(path, spans=spans, plan=plan)
    n_spans = len(spans or ())
    n_events = len(plan.events) if plan is not None else 0
    print(
        f"timeline : {out} ({n_spans} span(s), {n_events} traversal "
        "event(s)); open in Perfetto or chrome://tracing"
    )


def _emit_metrics(registry, fmt: "str | None", out: "str | None" = None) -> None:
    """Print (or write) the registry export in the chosen format."""
    from .obs import export

    if registry is None or fmt is None:
        return
    text = export(registry, fmt)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"metrics  : {out} [{fmt}]")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _write_traces(collector, path: str) -> None:
    """Dump a collector's per-query records to *path* as JSON-lines."""
    from .obs import traces_to_jsonl

    traces = collector.traces
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(traces_to_jsonl(traces))
    print(f"traces   : {path} ({len(traces)} records)")


def _explain_first_query(
    index, queries, *, k: int, radius: "float | None", show: bool, out: "str | None"
):
    """Re-run the batch's first query under event collection.

    The batch itself runs with events off (the bit-identical fast path);
    the plan re-executes query 0 with its own counter delta, so the
    printed totals describe exactly that one query.  Returns the
    :class:`~repro.obs.explain.ExplainPlan` (or ``None`` with no
    queries) so callers can feed it to the timeline exporter.
    """
    from .models import explain_query

    if len(queries) == 0:
        return None
    if radius is not None:
        plan = explain_query(index, queries[0], radius=radius)
    else:
        plan = explain_query(index, queries[0], k=k)
    if show:
        print()
        print(plan.render())
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(plan.to_json() + "\n")
        print(f"explain  : {out} (query 0, {plan.kind})")
    return plan


def _with_bound(method: str, kwargs: dict, bound: "str | None") -> dict:
    """Merge a non-default ``--bound`` into pivot-table build kwargs."""
    if method == "pivot-table" and bound and bound != "triangle":
        return {**kwargs, "bound": bound}
    return dict(kwargs)


def _explain_planned(planned, workload, *, k, radius, show, out) -> None:
    """The planner's EXPLAIN: considered plans with measured actuals.

    Re-runs query 0 through *every* considered alternative to fill the
    ``actual=`` column (per-query flops in the cost model's unit), then
    — when the chosen plan is index-backed — prints the usual traversal
    tree for the chosen plan, whose totals still match the distance
    counter exactly.
    """
    import json

    from .models import explain_query
    from .models.planning import alternative_actual_flops

    if len(workload.queries) == 0:
        return
    query = workload.queries[0]
    actuals = alternative_actual_flops(
        planned.choice, workload.matrix, workload.database, query, k=k, radius=radius
    )
    if show:
        print()
        print(planned.choice.render(per_query=True, actual_flops=actuals))
    plan_dict = None
    if planned.execution.index is not None:
        plan = explain_query(planned.execution.index, query, k=k, radius=radius)
        if show:
            print()
            print(plan.render())
        plan_dict = plan.to_dict()
    if out is not None:
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
            "explain": plan_dict,
        }
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"explain  : {out} (query 0)")


def _run_planned(
    workload,
    *,
    plan: str,
    index_dir: "str | None",
    calibrate_from: "str | None",
    k: "int | None",
    radius: "float | None",
    executor_name: "str | None",
    workers: "int | None",
    explain: bool,
    explain_out: "str | None",
    seed: int,
    log_json: "str | None" = None,
) -> int:
    """Plan, print the considered alternatives, and execute the choice."""
    logger, restore_logger = _activate_logger(log_json)
    try:
        return _run_planned_inner(
            workload,
            plan=plan,
            index_dir=index_dir,
            calibrate_from=calibrate_from,
            k=k,
            radius=radius,
            executor_name=executor_name,
            workers=workers,
            explain=explain,
            explain_out=explain_out,
            seed=seed,
        )
    finally:
        restore_logger()
        if logger is not None:
            print(f"log      : {log_json} ({logger.records_written} records)")


def _run_planned_inner(
    workload,
    *,
    plan: str,
    index_dir: "str | None",
    calibrate_from: "str | None",
    k: "int | None",
    radius: "float | None",
    executor_name: "str | None",
    workers: "int | None",
    explain: bool,
    explain_out: "str | None",
    seed: int,
) -> int:
    import time

    from .models.planning import plan_query_batch
    from .planner import ExecutorChoice

    history = None
    if calibrate_from:
        from .bench import load_history

        history = load_history(calibrate_from)
    executor = None
    if executor_name or workers:
        executor = ExecutorChoice(
            name=executor_name or ("thread" if (workers or 1) > 1 else "serial"),
            workers=workers,
        )
    planned = plan_query_batch(
        workload.matrix,
        workload.database,
        workload.queries,
        k=k,
        radius=radius,
        index_dir=index_dir,
        history=history,
        force=None if plan == "auto" else plan,
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
    start = time.perf_counter()
    results = execution.run_batch(workload.queries, k=k, radius=radius)
    elapsed = time.perf_counter() - start
    n = len(results)
    print(f"execution: {execution.name} [{execution.executor.describe()}]")
    print(
        f"wall time: {elapsed:.3f}s for {n} queries -> {n / elapsed:.1f} queries/s"
    )
    costs = execution.query_costs(elapsed)
    print(
        f"costs    : {costs.distance_computations} distance evaluations, "
        f"{costs.transforms} query transforms"
    )
    if explain or explain_out:
        _explain_planned(
            planned, workload, k=k, radius=radius, show=explain, out=explain_out
        )
    return 0


def _cmd_query(args: "argparse.Namespace") -> int:
    import time

    from .datasets import histogram_workload
    from .engine import TraceCollector, query_trace
    from .models import QFDModel, QMapModel

    workload = histogram_workload(
        args.size, args.queries, bins_per_channel=args.bins, seed=args.seed
    )
    if args.plan:
        if args.serve_metrics is not None or args.timeline_out or args.profile_out:
            print(
                "note: --serve-metrics/--timeline-out/--profile-out are "
                "ignored under --plan",
                file=sys.stderr,
            )
        print(f"workload : {workload.name}, m={args.size}, q={args.queries}")
        return _run_planned(
            workload,
            plan=args.plan,
            index_dir=args.index_dir,
            calibrate_from=args.calibrate_from,
            k=None if args.radius is not None else args.k,
            radius=args.radius,
            executor_name=args.executor,
            workers=args.workers,
            explain=args.explain,
            explain_out=args.explain_out,
            seed=args.seed,
            log_json=args.log_json,
        )
    force = (
        args.serve_metrics is not None
        or bool(args.timeline_out)
        or bool(args.profile_out)
    )
    registry, restore_registry = _activate_metrics(args.metrics, force=force)
    logger, restore_logger = _activate_logger(args.log_json)
    profiler = _start_profiler(args.profile_out, args.profile_hz)
    server = None
    try:
        server = _start_telemetry(args.serve_metrics, registry)
        model = (QMapModel if args.model == "qmap" else QFDModel)(workload.matrix)
        kwargs = {"pivot-table": {"n_pivots": 16}, "mtree": {"capacity": 16}}.get(
            args.method, {}
        )
        kwargs = _with_bound(args.method, kwargs, getattr(args, "bound", None))
        index = model.build_index(args.method, workload.database, **kwargs)
        index.reset_query_costs()
        collector = TraceCollector() if (args.trace or args.trace_out) else None

        if args.radius is not None:
            what = f"range(r={args.radius})"
        else:
            what = f"{args.k}NN"
        mode = "batch engine" if args.batch else "per-query loop"
        print(f"workload : {workload.name}, m={args.size}, q={args.queries}")
        print(f"method   : {args.method} {kwargs or ''} [{args.model} model], {what}")

        try:
            start = time.perf_counter()
            if args.batch:
                engine_kwargs = {
                    "executor": args.executor,
                    "workers": args.workers,
                    "collector": collector,
                }
                if args.radius is not None:
                    results = index.range_search_batch(
                        workload.queries, args.radius, **engine_kwargs
                    )
                else:
                    results = index.knn_search_batch(
                        workload.queries, args.k, **engine_kwargs
                    )
            else:
                # The plain loop opens each query's record itself, so
                # --trace / --trace-out see the same per-query records the
                # batch engine collects.
                kind, parameter = (
                    ("range", args.radius) if args.radius is not None else ("knn", args.k)
                )
                search = index.range_search if kind == "range" else index.knn_search
                results = []
                for pos, q in enumerate(workload.queries):
                    with query_trace(kind, parameter, query_index=pos, collector=collector):
                        results.append(search(q, parameter))
            elapsed = time.perf_counter() - start
        finally:
            # Deactivate before the EXPLAIN re-run below so the exported
            # metrics and log describe exactly the build + batch (the
            # server keeps serving this registry's final state during
            # --serve-hold).
            restore_registry()
            restore_logger()

        n = len(results)
        executor = args.executor or ("thread" if (args.workers or 1) > 1 else "serial")
        workers = f"{args.workers} workers" if args.workers else "default workers"
        print(
            f"execution: {mode}" + (f" ({executor}, {workers})" if args.batch else "")
        )
        print(
            f"wall time: {elapsed:.3f}s for {n} queries "
            f"-> {n / elapsed:.1f} queries/s"
        )
        costs = index.query_costs(elapsed)
        print(
            f"costs    : {costs.distance_computations} distance evaluations, "
            f"{costs.transforms} query transforms"
        )
        if collector is not None and args.trace:
            summary = collector.summary()
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
        if collector is not None and args.trace_out:
            _write_traces(collector, args.trace_out)
        _finish_profiler(profiler, args.profile_out, args.profile_hz, registry)
        profiler = None
        if logger is not None:
            print(f"log      : {args.log_json} ({logger.records_written} records)")
        _emit_metrics(registry, args.metrics)
        plan = None
        if args.explain or args.explain_out or args.timeline_out:
            plan = _explain_first_query(
                index,
                workload.queries,
                k=args.k,
                radius=args.radius,
                show=args.explain,
                out=args.explain_out,
            )
        if args.timeline_out:
            _write_timeline_out(args.timeline_out, registry, plan)
        _finish_telemetry(server, args.serve_hold)
        server = None
        return 0
    except BaseException:
        if server is not None:
            server.stop()
        if profiler is not None:
            profiler.stop()
        restore_registry()
        restore_logger()
        raise


#: Default construction arguments for the ``index`` lifecycle commands.
_INDEX_KWARGS: dict[str, dict[str, int]] = {
    "pivot-table": {"n_pivots": 16},
    "mindex": {"n_pivots": 16},
    "mtree": {"capacity": 16},
    "paged-mtree": {"capacity": 16},
    "rtree": {"capacity": 16},
    "xtree": {"capacity": 16},
}


def _cmd_index_build(args: "argparse.Namespace") -> int:
    from .datasets import histogram_workload
    from .models import QFDModel, QMapModel

    workload = histogram_workload(
        args.size, args.queries, bins_per_channel=args.bins, seed=args.seed
    )
    model = (QMapModel if args.model == "qmap" else QFDModel)(workload.matrix)
    kwargs = _with_bound(
        args.method, _INDEX_KWARGS.get(args.method, {}), getattr(args, "bound", None)
    )
    index = model.build_index(
        args.method,
        workload.database,
        store=args.store,
        store_path=args.store_path,
        block_rows=args.block_rows,
        **kwargs,
    )
    costs = index.build_costs
    print(f"workload : {workload.name}, m={args.size}, q={args.queries}")
    store_tag = "" if args.store == "heap" else f" store={args.store}"
    print(f"method   : {args.method} {kwargs or ''} [{args.model} model]{store_tag}")
    print(
        f"build    : {costs.distance_computations} distance evaluations, "
        f"{costs.transforms} transforms, {costs.seconds:.3f}s"
    )
    if args.out is not None:
        recipe = {
            "workload_size": np.int64(args.size),
            "workload_bins": np.int64(args.bins),
            "workload_queries": np.int64(args.queries),
            "workload_seed": np.int64(args.seed),
        }
        path = index.save(args.out, extra_meta=recipe)
        print(f"snapshot : {path}")
    return 0


def _cmd_index_load(
    path: str,
    verify: bool,
    *,
    store: str = "heap",
    block_rows: "int | None" = None,
) -> int:
    from .models import load_built_index

    index = load_built_index(path, verify=verify, store=store, block_rows=block_rows)
    am = index.access_method
    costs = index.build_costs
    store_tag = "" if store == "heap" else f" store={store}"
    print(f"snapshot : {path}")
    print(
        f"method   : {index.method_name} [{index.model_name} model], "
        f"m={am.size}, dim={am.dim}{store_tag}"
    )
    print(
        f"restore  : {costs.distance_computations} distance evaluations, "
        f"{costs.transforms} transforms, {costs.seconds:.3f}s"
    )
    return 0


def _cmd_index_query(args: "argparse.Namespace") -> int:
    import time

    from .datasets import histogram_workload
    from .engine import TraceCollector
    from .exceptions import StorageError
    from .models import load_built_index
    from .persistence import read_snapshot

    snapshot = read_snapshot(args.path)
    recipe_keys = (
        "workload_size",
        "workload_bins",
        "workload_queries",
        "workload_seed",
    )
    missing = [key for key in recipe_keys if key not in snapshot.meta]
    if missing:
        raise StorageError(
            f"{snapshot.path} records no query workload recipe "
            f"(missing {missing}); snapshot it with 'repro index save'"
        )
    size, bins, n_queries, seed = (int(snapshot.meta[key]) for key in recipe_keys)
    workload = histogram_workload(size, n_queries, bins_per_channel=bins, seed=seed)
    if getattr(args, "plan", None):
        from pathlib import Path

        print(f"snapshot : {snapshot.path}")
        print(f"workload : {workload.name}, m={size}, q={n_queries}")
        return _run_planned(
            workload,
            plan=args.plan,
            index_dir=str(Path(args.path).parent),
            calibrate_from=None,
            k=None if args.radius is not None else args.k,
            radius=args.radius,
            executor_name=args.executor,
            workers=args.workers,
            explain=args.explain,
            explain_out=args.explain_out,
            seed=seed,
            log_json=args.log_json,
        )
    force = args.serve_metrics is not None
    registry, restore_registry = _activate_metrics(args.metrics, force=force)
    logger, restore_logger = _activate_logger(args.log_json)
    server = None
    try:
        server = _start_telemetry(args.serve_metrics, registry)
        # The header was already parsed above — pass the snapshot through
        # so the restore does not open and decode the archive a second
        # time.
        index = load_built_index(snapshot)
        index.reset_query_costs()
        collector = TraceCollector() if (args.trace or args.trace_out) else None

        what = f"range(r={args.radius})" if args.radius is not None else f"{args.k}NN"
        print(f"snapshot : {snapshot.path}")
        print(
            f"method   : {index.method_name} [{index.model_name} model], "
            f"m={size}, q={n_queries}, {what}"
        )
        print(
            f"restore  : {index.build_costs.distance_computations} distance "
            f"evaluations, {index.build_costs.seconds:.3f}s"
        )

        engine_kwargs = {
            "executor": args.executor,
            "workers": args.workers,
            "collector": collector,
        }
        try:
            start = time.perf_counter()
            if args.radius is not None:
                results = index.range_search_batch(
                    workload.queries, args.radius, **engine_kwargs
                )
            else:
                results = index.knn_search_batch(
                    workload.queries, args.k, **engine_kwargs
                )
            elapsed = time.perf_counter() - start
        finally:
            restore_registry()
            restore_logger()

        n = len(results)
        print(
            f"wall time: {elapsed:.3f}s for {n} queries -> {n / elapsed:.1f} queries/s"
        )
        costs = index.query_costs(elapsed)
        print(
            f"costs    : {costs.distance_computations} distance evaluations, "
            f"{costs.transforms} query transforms"
        )
        if collector is not None and args.trace:
            summary = collector.summary()
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
        if collector is not None and args.trace_out:
            _write_traces(collector, args.trace_out)
        if logger is not None:
            print(f"log      : {args.log_json} ({logger.records_written} records)")
        _emit_metrics(registry, args.metrics)
        if args.explain or args.explain_out:
            _explain_first_query(
                index,
                workload.queries,
                k=args.k,
                radius=args.radius,
                show=args.explain,
                out=args.explain_out,
            )
        _finish_telemetry(server, args.serve_hold)
        server = None
        return 0
    except BaseException:
        if server is not None:
            server.stop()
        restore_registry()
        restore_logger()
        raise


def _cmd_index_ls(directory: str) -> int:
    """List discovered snapshots; unreadable files warn on stderr."""
    import os

    from .models import load_catalog

    catalog = load_catalog(directory)
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


def _cmd_explain(args: "argparse.Namespace") -> int:
    """Build a synthetic workload and EXPLAIN one query against it."""
    from .datasets import histogram_workload
    from .exceptions import QueryError
    from .models import QFDModel, QMapModel, explain_query

    if args.query_index < 0:
        raise QueryError(f"--query-index must be >= 0, got {args.query_index}")
    workload = histogram_workload(
        args.size,
        args.query_index + 1,
        bins_per_channel=args.bins,
        seed=args.seed,
    )
    # With --timeline-out or --profile-out, run the build + explain under
    # a live registry so the timeline gets wall-clock spans alongside the
    # traversal and the profiler can attribute samples to span phases.
    registry = None
    restore = lambda: None  # noqa: E731 - trivial no-op restore
    if args.timeline_out or args.profile_out:
        from .obs import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        previous = set_registry(registry)
        restore = lambda: set_registry(previous)  # noqa: E731
    profiler = _start_profiler(args.profile_out, args.profile_hz)
    try:
        model = (QMapModel if args.model == "qmap" else QFDModel)(workload.matrix)
        kwargs = _with_bound(
            args.method, _INDEX_KWARGS.get(args.method, {}), getattr(args, "bound", None)
        )
        index = model.build_index(args.method, workload.database, **kwargs)
        index.reset_query_costs()
        plan = explain_query(
            index,
            workload.queries[args.query_index],
            k=None if args.radius is not None else args.k,
            radius=args.radius,
            max_events=args.max_events,
            sample_every=args.sample_every,
        )
    except BaseException:
        if profiler is not None:
            profiler.stop()
        raise
    finally:
        restore()
    print(plan.to_json() if args.json else plan.render())
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(plan.to_json() + "\n")
        print(f"plan JSON: {args.out}")
    _finish_profiler(profiler, args.profile_out, args.profile_hz, registry)
    if args.timeline_out:
        _write_timeline_out(args.timeline_out, registry, plan)
    # A mismatch would mean the plan lost track of counted evaluations —
    # surface it as a failure, it is the feature's core invariant.
    return 0 if plan.totals_match else 1


#: The deterministic cost workload gated by ``repro bench check``: the
#: three methods with Table 1/2 closed forms, under both models.  The
#: pivot table is additionally gated in its ptolemaic and best bound
#: modes (variant suffix in the metric prefix); the unsuffixed
#: pivot-table keys stay the triangle mode, pinning the classic code
#: path against the bound-mode refactor.
_BENCH_CHECK_METHODS = ("sequential", "pivot-table", "mtree")
_BENCH_CHECK_VARIANTS: dict[str, tuple[tuple[str, dict], ...]] = {
    "pivot-table": (
        ("", {}),
        ("+ptolemaic", {"bound": "ptolemaic"}),
        ("+best", {"bound": "best"}),
    ),
}


def _bench_check_metrics(args: "argparse.Namespace") -> dict:
    """Distance-evaluation counts for the fixed-seed gate workload.

    Counts (never wall-clock) are gated: for a fixed seed they are
    bit-reproducible, so any drift means the traversal itself changed.
    """
    from .datasets import histogram_workload
    from .models import QFDModel, QMapModel

    workload = histogram_workload(
        args.size, args.queries, bins_per_channel=args.bins, seed=args.seed
    )
    metrics: dict = {}
    for model_cls, model_name in ((QFDModel, "qfd"), (QMapModel, "qmap")):
        model = model_cls(workload.matrix)
        for method in _BENCH_CHECK_METHODS:
            for suffix, extra in _BENCH_CHECK_VARIANTS.get(method, (("", {}),)):
                kwargs = {**_INDEX_KWARGS.get(method, {}), **extra}
                index = model.build_index(method, workload.database, **kwargs)
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

    from .models.planning import plan_query_batch

    with tempfile.TemporaryDirectory() as tmp:
        for method in ("pivot-table", "mtree"):
            built = QMapModel(workload.matrix).build_index(
                method, workload.database, **_INDEX_KWARGS.get(method, {})
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


def _cmd_bench_check(args: "argparse.Namespace") -> int:
    import json
    from pathlib import Path

    from .bench import append_history, check_regression, history_record

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


def _cmd_bench_history(args: "argparse.Namespace") -> int:
    from .bench import load_history

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


def _cmd_bench_watch(args: "argparse.Namespace") -> int:
    from .bench import watch_history
    from .exceptions import QueryError

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


def _cmd_bench(args: "argparse.Namespace") -> int:
    if args.bench_command == "check":
        return _cmd_bench_check(args)
    if args.bench_command == "history":
        return _cmd_bench_history(args)
    if args.bench_command == "watch":
        return _cmd_bench_watch(args)
    raise AssertionError(  # pragma: no cover
        f"unhandled bench command {args.bench_command!r}"
    )


def _cmd_trace_export(args: "argparse.Namespace") -> int:
    """Run a workload under span + event collection, write the timeline."""
    import time

    from .datasets import histogram_workload
    from .models import QFDModel, QMapModel, explain_query
    from .obs import MetricsRegistry, use_registry, write_timeline

    workload = histogram_workload(
        args.size, args.queries, bins_per_channel=args.bins, seed=args.seed
    )
    model = (QMapModel if args.model == "qmap" else QFDModel)(workload.matrix)
    kwargs = _with_bound(
        args.method, _INDEX_KWARGS.get(args.method, {}), getattr(args, "bound", None)
    )
    registry = MetricsRegistry()
    what = f"range(r={args.radius})" if args.radius is not None else f"{args.k}NN"
    print(f"workload : {workload.name}, m={args.size}, q={args.queries}")
    print(f"method   : {args.method} {kwargs or ''} [{args.model} model], {what}")
    with use_registry(registry):
        index = model.build_index(args.method, workload.database, **kwargs)
        index.reset_query_costs()
        start = time.perf_counter()
        if args.radius is not None:
            index.range_search_batch(
                workload.queries, args.radius,
                executor=args.executor, workers=args.workers,
            )
        else:
            index.knn_search_batch(
                workload.queries, args.k,
                executor=args.executor, workers=args.workers,
            )
        elapsed = time.perf_counter() - start
    costs = index.query_costs(elapsed)
    print(
        f"costs    : {costs.distance_computations} distance evaluations, "
        f"{costs.transforms} query transforms in {elapsed:.3f}s"
    )
    plan = None
    if len(workload.queries):
        plan = explain_query(
            index,
            workload.queries[0],
            k=None if args.radius is not None else args.k,
            radius=args.radius,
        )
    path = write_timeline(args.out, spans=registry.spans, plan=plan)
    n_events = len(plan.events) if plan is not None else 0
    print(
        f"timeline : {path} ({len(registry.spans)} span(s), {n_events} "
        "traversal event(s)); open in Perfetto or chrome://tracing"
    )
    return 0


def _cmd_trace(args: "argparse.Namespace") -> int:
    if args.trace_command == "export":
        return _cmd_trace_export(args)
    raise AssertionError(  # pragma: no cover
        f"unhandled trace command {args.trace_command!r}"
    )


def _cmd_report_diff(args: "argparse.Namespace") -> int:
    from .bench import diff_metrics, load_metrics_jsonl, render_diff

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


def _cmd_report(args: "argparse.Namespace") -> int:
    """Build + query with a live registry, then export everything."""
    if args.diff is not None:
        return _cmd_report_diff(args)
    from .datasets import histogram_workload
    from .engine import TraceCollector
    from .models import QFDModel, QMapModel
    from .obs import MetricsRegistry, use_registry

    workload = histogram_workload(
        args.size, args.queries, bins_per_channel=args.bins, seed=args.seed
    )
    model = (QMapModel if args.model == "qmap" else QFDModel)(workload.matrix)
    kwargs = _with_bound(
        args.method, _INDEX_KWARGS.get(args.method, {}), getattr(args, "bound", None)
    )
    registry = MetricsRegistry()
    collector = TraceCollector() if args.trace_out else None
    logger, restore_logger = _activate_logger(args.log_json)
    try:
        with use_registry(registry):
            index = model.build_index(args.method, workload.database, **kwargs)
            index.reset_query_costs()
            if args.radius is not None:
                index.range_search_batch(
                    workload.queries, args.radius, collector=collector
                )
            else:
                index.knn_search_batch(workload.queries, args.k, collector=collector)
    finally:
        restore_logger()
    if collector is not None:
        _write_traces(collector, args.trace_out)
    if logger is not None:
        print(f"log      : {args.log_json} ({logger.records_written} records)")
    _emit_metrics(registry, args.metrics, args.out)
    return 0


def _cmd_index(args: "argparse.Namespace") -> int:
    if args.index_command in ("build", "save"):
        return _cmd_index_build(args)
    if args.index_command == "load":
        return _cmd_index_load(
            args.path,
            not args.no_verify,
            store=args.store,
            block_rows=args.block_rows,
        )
    if args.index_command == "query":
        return _cmd_index_query(args)
    if args.index_command == "ls":
        return _cmd_index_ls(args.directory)
    raise AssertionError(  # pragma: no cover
        f"unhandled index command {args.index_command!r}"
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .exceptions import ReproError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "info":
            return _cmd_info()
        if args.command == "verify":
            return _cmd_verify(args.dim, args.size, args.seed)
        if args.command == "compare":
            return _cmd_compare(args.method, args.size, args.bins, args.k, args.seed)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "index":
            return _cmd_index(args)
        if args.command == "report":
            return _cmd_report(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
