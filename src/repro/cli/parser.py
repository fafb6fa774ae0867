"""The argparse tree: sub-commands attach shared option groups.

This is also the one copy of the command reference: ``python -m repro
<command> --help`` prints the command's description below, ``python -m
repro --help`` the one-line summaries and the sink flags' overview.
"""

from __future__ import annotations

import argparse

from . import bench, commands
from .options import attach

_EPILOG = """\
`repro <command> --help` is each command's reference.  Commands that run
queries take sink flags (--metrics, --log-json, --trace-out, ...): a bad
sink argument exits 2 before any work is done.
"""

_QUERY = """\
Run a batch of queries: pick the access method, model, executor and
worker count (--batch for the batch engine, otherwise a plain per-query
loop); --trace prints the per-query cost aggregation (distance
evaluations, filter hits, candidates) next to the throughput.

--plan auto hands the batch to the cost-based planner instead: it
enumerates every physical alternative (both scans, filter-and-refine
pipelines, one probe per snapshot in --index-dir), prints the considered
plans with predicted costs, and executes the cheapest; --plan NAME
forces a specific alternative.
"""

_INDEX = """\
Index lifecycle on a reproducible synthetic workload: build an index
(build), snapshot it to a pickle-free .npz with the workload recipe in
its metadata (save), restore it with zero distance evaluations (load),
run the recorded query workload against a restored snapshot through the
batch engine (query; --plan routes it through the planner with the
snapshot's directory as catalog), and list the snapshots discovered in a
directory from their headers alone (ls).
"""

_REPORT = """\
Build and query a synthetic workload with a live metrics registry and
export everything the observability layer collected - build and query
spans, distance-evaluation counters, per-MAM node accounting - as an
aligned table, JSON-lines, or Prometheus text format.  --diff A B
compares two --metrics jsonl exports key by key instead.
"""

_EXPLAIN = """\
Run one query under traversal-event collection and print its EXPLAIN
plan: the node-by-node cost tree (distance charges, lower-bound checks
with their actual values, prunes, candidate verifications), totals
verified against the distance counter, and the paper's Table 2 audit
where a closed form exists.
"""

_TRACE_EXPORT = """\
Run a workload under spans + traversal-event collection and write a
Chrome trace-event JSON timeline (loadable in Perfetto /
chrome://tracing): wall-clock span slices per phase and worker thread,
plus the first query's traversal with per-node charged distance
evaluations.
"""

_BENCH_CHECK = """\
Measure the deterministic distance-evaluation counts of a fixed-seed
workload and compare them against the committed baseline (exit 1 on
regression, 2 on a missing or mismatched baseline).
"""


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "QMap reproduction of 'On (not) indexing quadratic form "
            "distance by metric access methods' (EDBT 2011)"
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, func, help, description=None) -> argparse.ArgumentParser:
        child = parent.add_parser(
            name,
            help=help,
            description=description or help,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        child.set_defaults(func=func)
        return child

    command(sub, "info", commands.cmd_info, "show version and registered access methods")

    verify = command(sub, "verify", commands.cmd_verify, "run a fast correctness self-check")
    verify.add_argument("--dim", type=int, default=32, help="vector dimensionality")
    attach(verify, "--size", "--seed", size=500)

    compare = command(
        sub, "compare", commands.cmd_compare, "QFD vs QMap on a synthetic workload"
    )
    attach(compare, "--method", "--size", "--bins", "--k", "--seed", method="mtree", k=5)

    query = command(
        sub,
        "query",
        commands.cmd_query,
        "run a query batch (plain loop, batch engine, or the cost-based planner)",
        _QUERY,
    )
    attach(query, "workload", "kind", "executor", "sinks", "--plan")
    query.add_argument(
        "--batch",
        action="store_true",
        help="use the batch engine (otherwise a plain per-query loop)",
    )
    query.add_argument(
        "--index-dir",
        default=None,
        metavar="DIR",
        help="directory of .npz index snapshots the planner may probe",
    )

    explain = command(
        sub,
        "explain",
        commands.cmd_explain,
        "EXPLAIN one query: its node-by-node cost tree plus the Table 2 audit",
        _EXPLAIN,
    )
    attach(
        explain,
        "--method", "--model", "--size", "--bins", "--seed", "kind",
        "--timeline-out", "--profile-out", "--profile-hz",
        method="mtree", size=500,
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
        "--json", action="store_true", help="print the plan as JSON instead of the text tree"
    )
    explain.add_argument(
        "--out", default=None, metavar="PATH", help="also write the plan JSON to PATH"
    )

    trace = sub.add_parser("trace", help="export observability timelines for external viewers")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    texport = command(
        trace_sub,
        "export",
        commands.cmd_trace_export,
        "run a workload and write its Chrome trace-event timeline",
        _TRACE_EXPORT,
    )
    attach(texport, "workload", "kind", "executor", method="mtree", size=500, queries=20)
    texport.add_argument(
        "--out", default="repro_timeline.json", metavar="PATH", help="timeline JSON output path"
    )

    bench_cmd = sub.add_parser("bench", help="deterministic distance-count baseline gate")
    bench_sub = bench_cmd.add_subparsers(dest="bench_command", required=True)
    bcheck = command(
        bench_sub,
        "check",
        bench.cmd_bench_check,
        "gate the deterministic cost workload against the committed baseline",
        _BENCH_CHECK,
    )
    attach(
        bcheck, "--size", "--bins", "--queries", "--k", "--seed",
        size=400, queries=10, seed=2011,
    )
    bcheck.add_argument(
        "--baseline",
        default="benchmarks/bench_baseline.json",
        metavar="PATH",
        help="committed baseline file",
    )
    bcheck.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run instead of gating",
    )

    index = sub.add_parser(
        "index",
        help="build, snapshot, restore and query persistent indexes",
        description=_INDEX,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    ibuild = command(
        index_sub, "build", commands.cmd_index_build, "build an index over a synthetic workload"
    )
    ibuild.add_argument("--out", default=None, help="also snapshot the index to this .npz path")
    isave = command(
        index_sub,
        "save",
        commands.cmd_index_build,
        "build an index and snapshot it (build with a required --out)",
    )
    isave.add_argument("--out", required=True, help="snapshot .npz path")
    for build in (ibuild, isave):
        attach(build, "workload", "--bound", "store", queries=20)

    iload = command(
        index_sub,
        "load",
        commands.cmd_index_load,
        "restore a snapshot and report the restore costs",
    )
    iload.add_argument("path", help="snapshot .npz path")
    iload.add_argument("--no-verify", action="store_true", help="skip the integrity probe on load")
    attach(iload, "--store")

    iquery = command(
        index_sub,
        "query",
        commands.cmd_index_query,
        "restore a snapshot and run its recorded query workload",
    )
    iquery.add_argument("path", help="snapshot .npz path")
    attach(
        iquery,
        "--k", "--radius", "executor",
        "--trace", "--trace-out", "--metrics", "--serve-metrics", "--serve-hold",
        "--log-json", "--explain", "--explain-out", "--plan",
    )

    ils = command(
        index_sub,
        "ls",
        commands.cmd_index_ls,
        "list the index snapshots discovered in a directory",
    )
    ils.add_argument("directory", help="directory containing .npz snapshots")

    report = command(
        sub,
        "report",
        commands.cmd_report,
        "build + query a synthetic workload and export all metrics",
        _REPORT,
    )
    attach(
        report, "workload", "kind", "--metrics", "--trace-out", "--log-json",
        size=500, queries=20, metrics="table",
    )
    report.add_argument("--out", default=None, metavar="PATH", help="write the export to PATH")
    report.add_argument(
        "--diff",
        nargs=2,
        default=None,
        metavar=("A", "B"),
        help="compare two --metrics jsonl export files key by key "
        "instead of running a workload",
    )
    return parser
