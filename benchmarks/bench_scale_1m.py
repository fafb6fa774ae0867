"""Scale bench — the paper's full 1M x 512-d testbed, out of core.

Every other bench in this directory reproduces the paper's *shape* at
reduced database scale (DESIGN.md Section 5).  This one reproduces its
*size*: one million 512-d float32 histograms — the Flickr testbed of
Section 5.1 — indexed and queried without ever materializing the heap
float64 copy (~4 GB) the in-memory path would need:

* the corpus streams straight to a memory-mapped float32 store
  (:func:`repro.datasets.stream_clustered_histograms`);
* indexes build over the raw memmap (``store="mmap"``), whose rows the
  kernels read in 8192-row tiles with the in-memory arithmetic;
* the QMap model streams its transform chunk-by-chunk into a second
  memmap of mapped vectors.

Measured per (model x method) cell: build seconds, build distance
evaluations, queries/second, evaluations/query, and the cell's **peak
resident set**.  Each cell runs in its own subprocess because
``ru_maxrss`` is a process-lifetime high-water mark — one process per
phase makes the peaks independent and attributable.

The full run writes ``BENCH_scale_1m.json`` at the repository root;
``--smoke`` runs a 20k-row grid as a CI liveness check (no JSON unless
``--out`` is given).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale_1m.py [--smoke] [--n N]
        [--queries Q] [--k K]
        [--workdir DIR] [--keep-data] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_scale_1m.json"

#: The paper's dimensionality: 8 bins per RGB channel -> 512-d.
BINS_PER_CHANNEL = 8
DIM = BINS_PER_CHANNEL**3

MODELS = ("qfd", "qmap")
METHODS = ("sequential", "pivot-table", "mtree")

#: Construction arguments per method (the snapshot bench's sizing).
METHOD_KWARGS: dict[str, dict[str, int]] = {
    "pivot-table": {"n_pivots": 16},
    "mtree": {"capacity": 16, "bulk_load": True},
}

SOURCE_FILE = "source_f32.bin"
AUX_FILE = "aux.npz"


# ----------------------------------------------------------------------
# phase bodies (run inside the per-phase subprocess)
# ----------------------------------------------------------------------


def _phase_generate(args: argparse.Namespace) -> dict:
    """Stream the synthetic Flickr substitute into the memmap source file."""
    from repro.color.prototypes import lab_bin_prototypes
    from repro.core.matrices import prototype_similarity_matrix
    from repro.datasets import clustered_histograms, stream_clustered_histograms
    from repro.obs import peak_rss_bytes, peak_rss_source

    workdir = Path(args.workdir)
    start = time.perf_counter()
    store = stream_clustered_histograms(
        args.n,
        BINS_PER_CHANNEL,
        rng=np.random.default_rng(args.seed),
        path=workdir / SOURCE_FILE,
        dtype="float32",
    )
    store.flush()
    store.close()
    seconds = time.perf_counter() - start
    # Held-out queries (the paper keeps query histograms unindexed) and
    # the Hafner Lab-prototype QFD matrix, shared by every phase.
    queries = clustered_histograms(
        args.queries, BINS_PER_CHANNEL, rng=np.random.default_rng(args.seed + 1)
    )
    repair = prototype_similarity_matrix(lab_bin_prototypes(BINS_PER_CHANNEL))
    np.savez(workdir / AUX_FILE, queries=queries, matrix=repair.matrix)
    return {
        "phase": "generate",
        "rows": args.n,
        "dim": DIM,
        "seconds": seconds,
        "source_bytes": os.path.getsize(workdir / SOURCE_FILE),
        "peak_rss_bytes": peak_rss_bytes(),
        "peak_rss_source": peak_rss_source(),
    }


def _phase_cell(args: argparse.Namespace, model_name: str, method: str) -> dict:
    """Build + query one (model, method) cell over the memmap source."""
    from repro.bench import measure_queries, metrics_block
    from repro.models import QFDModel, QMapModel
    from repro.obs import (
        MetricsRegistry,
        RssSampler,
        peak_rss_bytes,
        peak_rss_source,
        use_registry,
    )

    from _common import maybe_profile, maybe_serve_metrics

    workdir = Path(args.workdir)
    source = np.memmap(
        workdir / SOURCE_FILE, dtype=np.float32, mode="r", shape=(args.n, DIM)
    )
    aux = np.load(workdir / AUX_FILE)
    matrix, queries = aux["matrix"], aux["queries"]
    model = QFDModel(matrix) if model_name == "qfd" else QMapModel(matrix)
    kwargs = dict(METHOD_KWARGS.get(method, {}))
    # The QMap model spills its *mapped* vectors to a second memmap; give
    # it a named file in the workdir so the parent's cleanup removes it.
    store_path = (
        str(workdir / f"mapped_{method}.bin") if model_name == "qmap" else None
    )
    registry = MetricsRegistry()
    # Background RSS sampling (ru_maxrss is a lifetime high-water mark;
    # the sampler attributes the peak to this cell specifically) plus an
    # optional live scrape endpoint via REPRO_BENCH_SERVE=[host:]port.
    sampler = RssSampler(
        interval=0.2,
        registry=registry,
        model=model_name,
        method=method,
        phase="cell",
    )
    with use_registry(registry), maybe_serve_metrics(registry), maybe_profile(), sampler:
        built = model.build_index(
            method,
            source,
            store="mmap",
            store_path=store_path,
            **kwargs,
        )
        measured = measure_queries(built, queries, mode="knn", k=args.k)
        # Nearest neighbor of each query — the parent cross-checks that
        # all three methods agree within a model (same metric, exact
        # structures, so the 1NN must be identical).
        top1 = [built.knn_search(q, 1)[0].index for q in queries]
    return {
        "sampled_peak_rss_bytes": sampler.peak_seen,
        "rss_samples": sampler.samples,
        "phase": f"{model_name}:{method}",
        "model": model_name,
        "method": method,
        "build_seconds": built.build_costs.seconds,
        "build_evaluations": built.build_costs.distance_computations,
        "transforms": built.build_costs.transforms,
        "seconds_per_query": measured.seconds_per_query,
        "queries_per_second": 1.0 / measured.seconds_per_query,
        "evaluations_per_query": measured.evaluations_per_query,
        "peak_rss_bytes": peak_rss_bytes(),
        "peak_rss_source": peak_rss_source(),
        "top1": [int(i) for i in top1],
        "metrics": metrics_block(registry),
    }


def run_phase(args: argparse.Namespace) -> None:
    """Subprocess entry: run one phase, write its JSON next to the data."""
    if args.phase == "generate":
        result = _phase_generate(args)
    else:
        model_name, method = args.phase.split(":", 1)
        result = _phase_cell(args, model_name, method)
    out = Path(args.workdir) / f"result_{args.phase.replace(':', '_')}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# parent orchestration
# ----------------------------------------------------------------------


def _spawn(args: argparse.Namespace, phase: str) -> dict:
    """Run *phase* in a fresh interpreter and return its result dict."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--phase",
        phase,
        "--workdir",
        str(args.workdir),
        "--n",
        str(args.n),
        "--queries",
        str(args.queries),
        "--k",
        str(args.k),
        "--seed",
        str(args.seed),
    ]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    start = time.perf_counter()
    subprocess.run(cmd, env=env, check=True)
    elapsed = time.perf_counter() - start
    result_path = Path(args.workdir) / f"result_{phase.replace(':', '_')}.json"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["wall_seconds"] = elapsed
    return result


def _check_answers(phases: list[dict]) -> dict:
    """Within each model the three structures must return the same 1NN."""
    checks = {}
    for model in MODELS:
        answers = {p["method"]: p["top1"] for p in phases if p["model"] == model}
        reference = answers[METHODS[0]]
        agree = all(answers[m] == reference for m in answers)
        checks[model] = {"methods_agree": agree, "top1": reference}
        if not agree:
            raise SystemExit(
                f"answer mismatch across {model} methods: {answers}"
            )
    return checks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--n", type=int, default=1_000_000)
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument(
        "--smoke", action="store_true", help="20k-row CI grid (no JSON unless --out)"
    )
    parser.add_argument("--workdir", type=Path, default=None)
    parser.add_argument(
        "--keep-data", action="store_true", help="keep the memmap files afterwards"
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--phase", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.smoke:
        args.n = min(args.n, 20_000)
        args.queries = min(args.queries, 5)

    if args.phase is not None:
        run_phase(args)
        return

    from repro.bench import format_table, metrics_block

    from _common import write_report

    owns_workdir = args.workdir is None
    if owns_workdir:
        args.workdir = Path(tempfile.mkdtemp(prefix="repro-scale-"))
    else:
        args.workdir.mkdir(parents=True, exist_ok=True)

    heap_bytes = args.n * DIM * 8  # the float64 heap copy this bench avoids
    print(
        f"scale bench: n={args.n:,} x {DIM}-d float32, "
        f"{args.queries} queries, k={args.k} "
        f"(heap float64 copy would be {heap_bytes / 2**30:.2f} GiB)"
    )
    try:
        gen = _spawn(args, "generate")
        print(
            f"generated {gen['rows']:,} rows "
            f"({gen['source_bytes'] / 2**30:.2f} GiB on disk) "
            f"in {gen['seconds']:.1f}s, "
            f"peak RSS {gen['peak_rss_bytes'] / 2**20:.0f} MiB"
        )
        phases = []
        for model in MODELS:
            for method in METHODS:
                phase = f"{model}:{method}"
                result = _spawn(args, phase)
                phases.append(result)
                print(
                    f"{phase:>20}: build {result['build_seconds']:.1f}s "
                    f"({result['build_evaluations']:,} evals), "
                    f"{result['queries_per_second']:.2f} q/s, "
                    f"{result['evaluations_per_query']:,.0f} evals/q, "
                    f"peak RSS {result['peak_rss_bytes'] / 2**20:.0f} MiB"
                )
        checks = _check_answers(phases)
    finally:
        if owns_workdir and not args.keep_data:
            import shutil

            shutil.rmtree(args.workdir, ignore_errors=True)

    print()
    print(
        format_table(
            [
                "model",
                "method",
                "build [s]",
                "build evals",
                "q/s",
                "evals/q",
                "peak RSS [MiB]",
                "RSS/heap-copy",
            ],
            [
                [
                    p["model"],
                    p["method"],
                    f"{p['build_seconds']:.1f}",
                    p["build_evaluations"],
                    f"{p['queries_per_second']:.2f}",
                    f"{p['evaluations_per_query']:.0f}",
                    f"{p['peak_rss_bytes'] / 2**20:.0f}",
                    f"{p['peak_rss_bytes'] / heap_bytes:.2f}",
                ]
                for p in phases
            ],
            title="out-of-core scale run (every cell in its own process)",
        )
    )
    max_rss = max(p["peak_rss_bytes"] for p in phases)
    print(
        f"\nmax phase peak RSS: {max_rss / 2**30:.2f} GiB "
        f"vs {heap_bytes / 2**30:.2f} GiB heap float64 copy "
        f"({max_rss / heap_bytes:.2f}x)"
    )

    report = {
        "benchmark": "scale_1m",
        "config": {
            "n": args.n,
            "dim": DIM,
            "queries": args.queries,
            "k": args.k,
            "seed": args.seed,
            "store": "mmap",
            "smoke": args.smoke,
        },
        "results": {
            "generate": gen,
            "phases": [
                {k: v for k, v in p.items() if k not in ("top1", "metrics")}
                for p in phases
            ],
            "headline": {
                "heap_float64_bytes": heap_bytes,
                "max_phase_peak_rss_bytes": max_rss,
                "rss_over_heap_copy": max_rss / heap_bytes,
            },
        },
        "checks": checks,
        "phase_metrics": {p["phase"]: p["metrics"] for p in phases},
        "metrics": metrics_block(),
    }
    if args.smoke and args.out is None:
        print("smoke run: machinery OK, no JSON written")
        return
    write_report(report, args.out if args.out is not None else DEFAULT_OUT)


if __name__ == "__main__":
    main()
