"""Snapshot-restore benchmark: rebuilding an index vs restoring a snapshot.

For each registered access method, in both models, this bench:

1. builds the index over a synthetic histogram workload and records the
   distance evaluations and wall time the build paid;
2. snapshots it with :meth:`BuiltIndex.save` (pickle-free ``.npz``);
3. restores it with ``load_index`` and records the restore's distance
   evaluations (asserted **zero** — the entire point of structural
   snapshots) and wall time;
4. restores it once more under :mod:`tracemalloc` and records the
   restore's allocation peak and the memory the restored index keeps
   (MB over the pre-restore baseline) — a restore that decodes a member
   and then copies it peaks well above what it keeps;
5. runs the workload's kNN queries against both copies and asserts the
   answers are bit-identical.

The QFD model covers every MAM; the QMap model additionally covers the
SAMs (R-tree, X-tree, VA-file), which only exist behind the Euclidean
transform.  The full run (m = 8 000, so that a paged M-tree's page image
outweighs the snapshot reader's blocks in flight) writes
``BENCH_snapshot.json`` at the repository root; ``--smoke`` runs a tiny
grid without writing, as a CI liveness check.

Usage::

    PYTHONPATH=src python benchmarks/bench_snapshot_restore.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import gc
import os
import tempfile
import time
import tracemalloc
from pathlib import Path

from _common import write_report
from repro.bench import metrics_block
from repro.datasets import histogram_workload
from repro.models import QFDModel, QMapModel
from repro.obs import MetricsRegistry, use_registry

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_snapshot.json"

#: Construction arguments per method (sized for the bench workload).
METHOD_KWARGS: dict[str, dict[str, int]] = {
    "pivot-table": {"n_pivots": 16},
    "mindex": {"n_pivots": 16},
    "mtree": {"capacity": 16},
    "paged-mtree": {"capacity": 16},
    "vptree": {"leaf_size": 8},
    "gnat": {"arity": 4, "leaf_size": 8},
    "rtree": {"capacity": 16},
    "xtree": {"capacity": 16},
    "vafile": {"bits": 4},
}

MAM_METHODS = (
    "sequential",
    "disk-sequential",
    "pivot-table",
    "mtree",
    "paged-mtree",
    "mindex",
    "sat",
    "vptree",
    "gnat",
)
SAM_METHODS = ("rtree", "xtree", "vafile")


def traced_restore(model, saved: str) -> tuple[float, float]:
    """The allocation peak and the retained size of one restore, in MB over
    the allocations live before it (the retained size is read while the
    restored index is still alive)."""
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        restored = model.load_index(saved)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del restored
    return (peak - baseline) / 1e6, (retained - baseline) / 1e6


def run_method(model, method: str, workload, k: int, tmpdir: str) -> dict:
    """Build, save, restore and cross-check one (model, method) pair."""
    kwargs = METHOD_KWARGS.get(method, {})
    built = model.build_index(method, workload.database, **kwargs)
    build = built.build_costs

    path = os.path.join(tmpdir, f"{model.name}_{method}")
    save_start = time.perf_counter()
    saved = built.save(path)
    save_seconds = time.perf_counter() - save_start

    restored = model.load_index(saved)
    restore = restored.build_costs
    assert restore.distance_computations == 0, (
        f"{model.name}/{method}: restore paid "
        f"{restore.distance_computations} distance evaluations, expected 0"
    )
    assert restore.transforms == 0, (
        f"{model.name}/{method}: restore paid {restore.transforms} transforms"
    )

    peak_mb, retained_mb = traced_restore(model, saved)

    for q in workload.queries:
        got = [(n.index, n.distance) for n in restored.knn_search(q, k)]
        want = [(n.index, n.distance) for n in built.knn_search(q, k)]
        assert got == want, (
            f"{model.name}/{method}: restored index answers differ"
        )

    return {
        "model": model.name,
        "method": method,
        "kwargs": kwargs,
        "build": {
            "distance_computations": build.distance_computations,
            "transforms": build.transforms,
            "seconds": build.seconds,
        },
        "snapshot_bytes": os.path.getsize(saved),
        "save_seconds": save_seconds,
        "restore": {
            "distance_computations": restore.distance_computations,
            "transforms": restore.transforms,
            "seconds": restore.seconds,
            "peak_mb": peak_mb,
            "retained_mb": retained_mb,
        },
        "restore_speedup": build.seconds / restore.seconds
        if restore.seconds > 0
        else float("inf"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid, no JSON written (CI liveness check)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"output path (default: {DEFAULT_OUT}; never written in --smoke)",
    )
    args = parser.parse_args()

    if args.smoke:
        m, n_queries, bins, k = 120, 3, 4, 5
        mams: tuple[str, ...] = ("pivot-table", "mtree")
        sams: tuple[str, ...] = ("vafile",)
    else:
        m, n_queries, bins, k = 8000, 10, 4, 10
        mams, sams = MAM_METHODS, SAM_METHODS

    workload = histogram_workload(m, n_queries, bins_per_channel=bins, seed=2011)
    qfd = QFDModel(workload.matrix)
    qmap = QMapModel(workload.matrix)

    report = {
        "benchmark": "snapshot_restore",
        "config": {
            "m": m,
            "n_queries": n_queries,
            "bins_per_channel": bins,
            "k": k,
            "smoke": args.smoke,
        },
        "results": [],
    }
    header = (
        f"{'model':>6} {'method':>16} {'build-evals':>12} {'build-s':>9} "
        f"{'restore-evals':>13} {'restore-s':>10} {'speedup':>8} "
        f"{'peak-MB':>8} {'kept-MB':>8}"
    )
    print(header)
    print("-" * len(header))
    # Run under a live metrics registry: build_index/load_index emit
    # build/load spans and phase="build" distance counters, so the JSON
    # report's ``metrics`` block mirrors the table (and shows restores
    # paying zero distance evaluations).
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory() as tmpdir, use_registry(registry):
        pairs = [(qfd, method) for method in mams]
        pairs += [(qmap, method) for method in (*mams, *sams)]
        for model, method in pairs:
            entry = run_method(model, method, workload, k, tmpdir)
            report["results"].append(entry)
            print(
                f"{entry['model']:>6} {entry['method']:>16} "
                f"{entry['build']['distance_computations']:>12} "
                f"{entry['build']['seconds']:>9.3f} "
                f"{entry['restore']['distance_computations']:>13} "
                f"{entry['restore']['seconds']:>10.4f} "
                f"{entry['restore_speedup']:>7.1f}x "
                f"{entry['restore']['peak_mb']:>8.2f} "
                f"{entry['restore']['retained_mb']:>8.2f}"
            )
    report["metrics"] = metrics_block(registry)

    if args.smoke and args.out is None:
        print("smoke run: machinery OK, no JSON written")
        return
    out = args.out if args.out is not None else DEFAULT_OUT
    write_report(report, out)


if __name__ == "__main__":
    main()
