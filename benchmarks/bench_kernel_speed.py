"""Kernel-layer speed benchmark: scalar vs node-batched vs Gram kernel.

Times M-tree kNN querying under three evaluation strategies over the *same*
tree, for the QFD model (raw histograms + quadratic form) and the QMap
model (Cholesky-mapped vectors + L2), at n in {64, 256, 512}:

* ``scalar``       — one Python-level distance call per candidate, the
  pre-kernel fallback path (``use_kernel=False``, no vectorized form);
* ``node_batched`` — all entries of a visited node evaluated through the
  metric's own one-to-many form (diff-based, O(n^2) per row);
* ``gram_kernel``  — the :mod:`repro.kernels` query context: ``qA`` and
  ``qAq^T`` precomputed once per query, cached ``vAv^T`` per row, O(n) per
  candidate.

All three tiers traverse identically and charge identical logical distance
counts (asserted); only the physical evaluation differs.  The grid runs on
Gaussian ``vector_workload`` rows, plus one ``histogram_workload`` row at
the largest dimension — the data every other benchmark and the paper use.

That data is ``Dirichlet(alpha ~ 1e-3)``: ~1 % of its entries are float64
subnormals, and every multiply-add that meets one takes an x86 microcode
assist.  A second table therefore times each QFD entry point on the raw
histogram rows and on the same rows with the subnormals zeroed, interleaved
in one process, and reports ``subnormal_penalty_ratio = raw / flushed``.
Entry points that flush their operand themselves (PR 21; the QMap
transform since PR 22) are marked ``fixed`` and must read ~1; the others
are measured and left (see ``docs/architecture.md``, *Subnormal operands*).
A last line times the one difference-form L2 one-to-many over a
database-sized batch: ns per row and the peak bytes it allocates.

The full run writes ``BENCH_kernels.json`` at the repository root;
``--smoke`` runs a tiny grid without writing, as a CI check: it exits
non-zero when a fixed entry point's ratio exceeds ``MAX_FIXED_PENALTY``.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_speed.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import time
import tracemalloc
from pathlib import Path

import numpy as np

from _common import write_report
from repro.core.qfd import QuadraticFormDistance
from repro.core.qmap import QMap
from repro.datasets import histogram_workload, vector_workload
from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.bench import metrics_block
from repro.kernels import QFDKernel, gram
from repro.mam import MTree
from repro.mam.base import DistancePort
from repro.obs import MetricsRegistry, span, use_registry

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: ``--smoke`` fails above this raw/flushed ratio on a fixed entry point.
#: The parent commit read 2.4-5 on every one of them; a same-process ratio
#: of the same arithmetic does not depend on the host's speed.
MAX_FIXED_PENALTY = 1.5


def _scalar_only(func):
    """Hide *func*'s identity so no kernel or vectorized form resolves."""

    def call(u, v):
        return float(func(u, v))

    return call


def _tier_ports(model: str, matrix: np.ndarray) -> dict[str, DistancePort]:
    """The three evaluation strategies for one model's metric."""
    if model == "qfd":
        qfd = QuadraticFormDistance(matrix)
        return {
            "scalar": DistancePort(
                CountingDistance(_scalar_only(qfd)), use_kernel=False
            ),
            "node_batched": DistancePort(
                CountingDistance(qfd, one_to_many=qfd.one_to_many), use_kernel=False
            ),
            "gram_kernel": DistancePort(
                CountingDistance(qfd, one_to_many=qfd.one_to_many)
            ),
        }
    return {
        "scalar": DistancePort(
            CountingDistance(_scalar_only(euclidean)), use_kernel=False
        ),
        "node_batched": DistancePort(
            CountingDistance(euclidean, one_to_many=euclidean_one_to_many),
            use_kernel=False,
        ),
        "gram_kernel": DistancePort(
            CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        ),
    }


def _time_queries(tree: MTree, queries: np.ndarray, k: int, repeats: int) -> float:
    """Best-of-*repeats* wall time of the whole kNN query batch."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for q in queries:
            tree.knn_search(q, k)
        best = min(best, time.perf_counter() - start)
    return best


def run_model(
    model: str,
    dim: int,
    *,
    m: int,
    n_queries: int,
    k: int,
    capacity: int,
    repeats: int,
    kind: str = "vector",
) -> dict:
    if kind == "histogram":
        workload = histogram_workload(
            m, n_queries, bins_per_channel=round(dim ** (1 / 3)), seed=2011
        )
    else:
        workload = vector_workload(m, n_queries, dim, seed=2011)
    if model == "qfd":
        data, queries = workload.database, workload.queries
    else:
        qmap = QMap(workload.matrix)
        data = qmap.transform_batch(workload.database)
        queries = qmap.transform_batch(workload.queries)

    ports = _tier_ports(model, workload.matrix)
    # One tree, three evaluation strategies: the structure is built once
    # (with the kernel port) and the port swapped per tier, so the timing
    # isolates the query hot path.
    build_start = time.perf_counter()
    tree = MTree(data, ports["gram_kernel"], capacity=capacity)
    build_seconds = time.perf_counter() - build_start

    entry: dict = {
        "model": model,
        "data": kind,
        "dim": dim,
        "build_seconds": build_seconds,
        "tiers": {},
    }
    reference: list[list] = []
    counts: dict[str, int] = {}
    for tier, port in ports.items():
        tree._port = port
        port.attach_database(tree.database)
        counter: CountingDistance = port.raw  # type: ignore[assignment]
        counter.reset()
        seconds = _time_queries(tree, queries, k, repeats)
        counts[tier] = counter.count // repeats
        results = [tree.knn_search(q, k) for q in queries]
        if not reference:
            reference = results
        else:
            for got, want in zip(results, reference):
                assert [n.index for n in got] == [n.index for n in want], (
                    f"{model}/n={dim}: tier {tier} changed the neighbor set"
                )
                assert all(
                    abs(g.distance - w.distance) <= 1e-6 for g, w in zip(got, want)
                ), f"{model}/n={dim}: tier {tier} drifted distances past 1e-6"
        entry["tiers"][tier] = {"seconds": seconds, "distance_count": counts[tier]}
    assert len(set(counts.values())) == 1, (
        f"{model}/n={dim}: logical distance counts differ across tiers: {counts}"
    )
    scalar_s = entry["tiers"]["scalar"]["seconds"]
    entry["speedup_node_batched"] = scalar_s / entry["tiers"]["node_batched"]["seconds"]
    entry["speedup_gram_kernel"] = scalar_s / entry["tiers"]["gram_kernel"]["seconds"]
    return entry


def _interleaved_best(raw_call, flushed_call, repeats: int) -> tuple[float, float]:
    """Best-of-*repeats* seconds of two calls, alternated so drift hits both."""
    best_raw = best_flushed = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        raw_call()
        best_raw = min(best_raw, time.perf_counter() - start)
        start = time.perf_counter()
        flushed_call()
        best_flushed = min(best_flushed, time.perf_counter() - start)
    return best_raw, best_flushed


def subnormal_penalty(bins_per_channel: int, m: int, repeats: int) -> dict:
    """Each QFD entry point on raw histogram rows vs the same rows flushed."""
    workload = histogram_workload(m, 1, bins_per_channel=bins_per_channel, seed=2011)
    matrix = workload.matrix

    def subnormal(x: np.ndarray) -> np.ndarray:
        return (np.abs(x) < np.finfo(x.dtype).tiny) & (x != 0)

    # rows32 holds *float32* subnormals (values a float64 store keeps as
    # normals), which a blocked tile upcasts back to float64 normals.
    raw = {"rows": workload.database, "q": workload.queries[0]}
    raw["rows32"] = raw["rows"].astype(np.float32)
    clean = {name: np.where(subnormal(x), 0, x) for name, x in raw.items()}

    qfd = QuadraticFormDistance(matrix)
    qmap = QMap(matrix)
    kernel = QFDKernel(matrix)
    tiles = QFDKernel(matrix, block_rows=256)
    norms = gram.qfd_row_norms(matrix, raw["rows"])
    for operands in (raw, clean):
        operands["ctx"] = kernel.bind(operands["q"])
    split, a, b = 17, min(64, m // 4), min(300, m // 2)

    # (name, fixed by PR 21?, shape, call over one of the two operand sets)
    entry_points = [
        ("QuadraticFormDistance.one_to_many", True, f"{m}x{qfd.dim}",
         lambda d: qfd.one_to_many(d["q"], d["rows"])),
        ("QuadraticFormDistance.pairwise", True, f"{b}x{qfd.dim}",
         lambda d: qfd.pairwise(d["rows"][:b])),
        ("gram.qfd_row_norms", True, f"{m}x{qfd.dim}",
         lambda d: gram.qfd_row_norms(matrix, d["rows"])),
        ("gram.qfd_squared_pairwise", True, f"{split}x{qfd.dim}",
         lambda d: gram.qfd_squared_pairwise(matrix, d["rows"][:split])),
        ("gram.qfd_cross", True, f"{a}x{b}x{qfd.dim}",
         lambda d: gram.qfd_cross(matrix, d["rows"][:a], d["rows"][a : a + b])),
        ("gram.qfd_squared_one_to_many (no norms)", True, f"{m}x{qfd.dim}",
         lambda d: gram.qfd_squared_one_to_many(matrix, d["q"], d["rows"])),
        ("QFDQueryContext.many (cached norms)", False, f"{m}x{qfd.dim}",
         lambda d: d["ctx"].many(d["rows"], norms)),
        ("QFDQueryContext.one (cached norm)", False, f"1x{qfd.dim}",
         lambda d: d["ctx"].one(d["rows"][0], norms[0])),
        ("QuadraticFormDistance.squared", False, f"1x{qfd.dim}",
         lambda d: qfd.squared(d["q"], d["rows"][0])),
        ("QMap.transform_batch", True, f"{m}x{qfd.dim}",
         lambda d: qmap.transform_batch(d["rows"])),
        ("QMap.transform", True, f"1x{qfd.dim}",
         lambda d: qmap.transform(d["q"])),
        ("blocked tiles, float32 store", False, f"{m}x{qfd.dim}",
         lambda d: tiles.one_to_many(d["q"], d["rows32"])),
    ]
    rows = []
    for name, fixed, shape, call in entry_points:
        raw_s, flushed_s = _interleaved_best(
            lambda: call(raw), lambda: call(clean), repeats
        )
        rows.append(
            {
                "entry_point": name,
                "fixed": fixed,
                "shape": shape,
                "raw_seconds": raw_s,
                "flushed_seconds": flushed_s,
                "subnormal_penalty_ratio": raw_s / flushed_s,
            }
        )
    return {
        "data": "histogram",
        "dim": qfd.dim,
        "m": m,
        "subnormal_fraction": float(subnormal(raw["rows"]).mean()),
        "repeats": repeats,
        "entry_points": rows,
    }


def l2_scan(m: int, dim: int, repeats: int) -> dict:
    """``gram.l2_one_to_many`` over ``m x dim`` rows: time and peak allocation."""
    rng = np.random.default_rng(2011)
    rows, q = rng.standard_normal((m, dim)), rng.standard_normal(dim)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        gram.l2_one_to_many(q, rows)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    gram.l2_one_to_many(q, rows)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "shape": f"{m}x{dim}",
        "ns_per_row": best / m * 1e9,
        "peak_temporary_bytes": peak,
        "operand_bytes": rows.nbytes,
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
        dims, m, n_queries, k, repeats = [64], 150, 3, 5, 1
        penalty_m, penalty_repeats = 600, 5
    else:
        dims, m, n_queries, k, repeats = [64, 256, 512], 800, 10, 10, 3
        penalty_m, penalty_repeats = 4000, 7
    capacity = 8
    # (data, dim) cells: the Gaussian grid, then the paper's data at its top.
    cells = [("vector", dim) for dim in dims] + [("histogram", dims[-1])]

    report = {
        "benchmark": "kernel_speed",
        "structure": "mtree",
        "query": "knn",
        "config": {
            "m": m,
            "n_queries": n_queries,
            "k": k,
            "capacity": capacity,
            "dims": dims,
            "repeats": repeats,
            "smoke": args.smoke,
        },
        "results": [],
    }
    header = (
        f"{'model':>6} {'data':>9} {'n':>4} {'scalar':>10} {'node-batch':>11} "
        f"{'gram':>10} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    # The measured grid runs under a live metrics registry so the JSON
    # report carries an observability ``metrics`` block (span timings per
    # model x dim cell) alongside the raw tier numbers.
    registry = MetricsRegistry()
    with use_registry(registry):
        for data, dim in cells:
            for model in ("qfd", "qmap"):
                with span("bench/kernel_speed", model=model, data=data, dim=str(dim)):
                    entry = run_model(
                        model,
                        dim,
                        m=m,
                        n_queries=n_queries,
                        k=k,
                        capacity=capacity,
                        repeats=repeats,
                        kind=data,
                    )
                report["results"].append(entry)
                tiers = entry["tiers"]
                print(
                    f"{model:>6} {data:>9} {dim:>4} "
                    f"{tiers['scalar']['seconds']:>10.4f} "
                    f"{tiers['node_batched']['seconds']:>11.4f} "
                    f"{tiers['gram_kernel']['seconds']:>10.4f} "
                    f"{entry['speedup_gram_kernel']:>7.1f}x"
                )
    report["metrics"] = metrics_block(registry)

    # Always 512-d: the assist is per multiply-add, so the ratio needs the
    # product to dominate the call, not the numpy dispatch around it.
    penalty = subnormal_penalty(8, penalty_m, penalty_repeats)
    report["subnormal_penalty"] = penalty
    print(
        f"\nsubnormal penalty: {penalty['m']} x {penalty['dim']}-d histogram rows, "
        f"{penalty['subnormal_fraction']:.2%} subnormal entries"
    )
    header = f"{'entry point':<42} {'shape':>12} {'raw ms':>9} {'flushed ms':>11} {'ratio':>6}"
    print(header)
    print("-" * len(header))
    for row in penalty["entry_points"]:
        print(
            f"{row['entry_point']:<42} {row['shape']:>12} "
            f"{row['raw_seconds'] * 1e3:>9.3f} {row['flushed_seconds'] * 1e3:>11.3f} "
            f"{row['subnormal_penalty_ratio']:>5.2f}x{'' if row['fixed'] else '  (left)'}"
        )
    slow = [
        row["entry_point"]
        for row in penalty["entry_points"]
        if row["fixed"] and row["subnormal_penalty_ratio"] > MAX_FIXED_PENALTY
    ]
    if slow and args.smoke:
        raise SystemExit(
            f"subnormal_penalty_ratio > {MAX_FIXED_PENALTY} on fixed entry point(s): "
            + ", ".join(slow)
        )

    scan = l2_scan(8000, 512, penalty_repeats)
    report["l2_one_to_many"] = scan
    print(
        f"\nl2_one_to_many {scan['shape']}: {scan['ns_per_row']:.0f} ns/row, peak "
        f"temporary {scan['peak_temporary_bytes'] / 1e6:.2f} MB "
        f"(operand {scan['operand_bytes'] / 1e6:.1f} MB)"
    )

    if args.smoke and args.out is None:
        print("smoke run: machinery OK, no JSON written")
        return
    out = args.out if args.out is not None else DEFAULT_OUT
    write_report(report, out)


if __name__ == "__main__":
    main()
