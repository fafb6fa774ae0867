"""Every shared command-line flag, declared once.

:data:`OPTIONS` maps a flag to its ``add_argument`` keywords and
:data:`GROUPS` names the sets the sub-commands share; :func:`attach`
adds groups (or single flags — ``verify`` takes only ``--size`` and
``--seed``) to a sub-parser and overrides the defaults that differ for
that command.  The defaults here are ``repro query``'s.
"""

from __future__ import annotations

import argparse


def _path(help: str) -> dict:
    """A flag naming an output file (off by default)."""
    return dict(default=None, metavar="PATH", help=help)


OPTIONS: dict[str, dict] = {
    # workload: which index over which synthetic histogram database
    "--method": dict(default="pivot-table", help="access method name"),
    "--model": dict(choices=["qfd", "qmap"], default="qmap", help="distance model"),
    "--size": dict(type=int, default=1000, help="database size"),
    "--bins": dict(
        type=int, default=4, help="RGB bins per channel (4 -> 64-d, 8 -> 512-d)"
    ),
    "--queries": dict(type=int, default=50, help="number of queries (index save records it)"),
    "--seed": dict(type=int, default=0, help="workload random seed"),
    # query kind
    "--k": dict(type=int, default=10, help="kNN parameter"),
    "--radius": dict(
        type=float, default=None, help="run range queries with this radius instead of kNN"
    ),
    "--bound": dict(
        choices=["triangle", "ptolemaic", "best"],
        default="triangle",
        help="pivot-table lower-bound mode; explain renders triangle vs Ptolemaic "
        "prune counts side by side (ignored by other methods)",
    ),
    # executor
    "--executor": dict(
        choices=["serial", "thread", "process"],
        default=None,
        help="batch executor (default: serial, or thread when --workers > 1)",
    ),
    "--workers": dict(type=int, default=None, help="parallel workers"),
    # sinks: what the observed run reports (repro.obs.ObservedRun)
    "--metrics": dict(
        choices=["table", "jsonl", "prom"],
        default=None,
        help="run with a live metrics registry and print the export",
    ),
    "--serve-metrics": dict(
        default=None,
        metavar="[HOST:]PORT",
        help="serve the live registry over HTTP while the batch runs "
        "(GET /metrics, /healthz, /snapshot.json; port 0 auto-assigns)",
    ),
    "--serve-hold": dict(
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the metrics endpoint up this long after the run",
    ),
    "--log-json": _path(
        "write one structured JSON record per build/query/batch/plan "
        "event to PATH (trace_id-correlated JSON-lines)"
    ),
    "--trace": dict(
        action="store_true",
        help="collect per-query traces and print the aggregated cost model",
    ),
    "--trace-out": _path("write per-query QueryTrace records to PATH as JSON-lines"),
    "--explain": dict(
        action="store_true",
        help="after the batch, re-run the first query under event "
        "collection and print its EXPLAIN plan",
    ),
    "--explain-out": _path("write the first query's EXPLAIN plan to PATH as JSON"),
    "--timeline-out": _path(
        "write a Chrome trace-event timeline (wall-clock build/query "
        "spans plus the explained query's traversal); open in Perfetto"
    ),
    "--profile-out": _path(
        "run under the built-in sampling profiler and write the "
        "profile (.json -> speedscope, anything else -> collapsed "
        "stacks for flamegraph.pl)"
    ),
    "--profile-hz": dict(
        type=float,
        default=200.0,
        metavar="HZ",
        help="profiler sampling rate in samples/second (default: 200)",
    ),
    # store: where the indexed vectors live
    "--store": dict(
        choices=["heap", "mmap"],
        default="heap",
        help="vector storage: heap float64 arrays (default) or an "
        "out-of-core float32 memmap evaluated by the blocked kernels",
    ),
    "--store-path": _path("backing file for --store mmap (default: a temporary file)"),
    "--block-rows": dict(
        type=int,
        default=None,
        help="tile height of the blocked kernels (selects the out-of-core "
        "evaluation path; defaults to 8192 under --store mmap)",
    ),
    # shared by several sub-commands without forming a group
    "--plan": dict(
        default=None,
        metavar="auto|NAME",
        help="route the batch through the cost-based planner: 'auto' "
        "executes the cheapest physical plan, a plan name (e.g. "
        "'scan[qmap]') forces that alternative (--method/--bound are "
        "ignored; index query plans over the snapshot's directory)",
    ),
    "--history": dict(
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="append-only benchmark run history (JSON-lines)",
    ),
}

#: Sinks fed by the per-query trace collector.  A run that cannot hand
#: one to its executor (the planner's) names these in its stderr note.
COLLECTOR_SINKS = ("--trace", "--trace-out")

GROUPS: dict[str, tuple[str, ...]] = {
    "workload": ("--method", "--model", "--size", "--bins", "--queries", "--seed"),
    "kind": ("--k", "--radius", "--bound"),
    "executor": ("--executor", "--workers"),
    "sinks": (
        "--metrics",
        "--serve-metrics",
        "--serve-hold",
        "--log-json",
        *COLLECTOR_SINKS,
        "--explain",
        "--explain-out",
        "--timeline-out",
        "--profile-out",
        "--profile-hz",
    ),
    "store": ("--store", "--store-path", "--block-rows"),
}


def dests(*flags: str) -> list[str]:
    """The ``argparse.Namespace`` attribute names of *flags*."""
    return [flag.lstrip("-").replace("-", "_") for flag in flags]


def attach(parser: argparse.ArgumentParser, *names: str, **defaults: object) -> None:
    """Add the named groups / flags to *parser*, then apply *defaults*."""
    for name in names:
        for flag in GROUPS.get(name, (name,)):
            parser.add_argument(flag, **OPTIONS[flag])
    parser.set_defaults(**defaults)
