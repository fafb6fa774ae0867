"""Ptolemaic vs triangle pivot bounds — filtering power and distance cost.

The paper's Table 2 charges the pivot table ``x`` refinement distances,
where ``x`` is the candidate-set size the lower bound failed to filter;
under the raw QFD the triangle bound is weak and ``x`` stays large.  The
QFD is a *Ptolemaic* metric (QMap embeds it isometrically into L2), so
Hetland's pivot-pair bound applies — this bench measures, on the
E_A4-style QFD workload (64-d histograms, Lab-prototype matrix), how much
of that budget the ``bound="ptolemaic"`` / ``bound="best"`` pivot table
recovers: candidate-set sizes for range queries and logical distance
evaluations for range and kNN, under both models.

Expected shape: Ptolemaic filtering yields a strictly smaller total
candidate set than triangle filtering (asserted by the report), with
``best`` at least as tight as either; query-time charging stays ``p``
pivot distances + one per verified candidate in every mode, so the
candidate column *is* the cost story — in evaluations.  The ``knn_ms`` /
``range_ms`` columns are the same queries in seconds: a bound that prunes
more also computes more (``p (p-1) / 2`` pair terms against ``p``), and
only the clock says which wins.  The passes of all six cells are
interleaved in one process and each cell reports its median.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import time
from pathlib import Path

import pytest

from _common import write_report
from repro.bench import format_table
from repro.datasets import calibrate_radius, histogram_workload
from repro.models import BuiltIndex, QFDModel, QMapModel

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_ptolemaic.json"

#: E_A4 profile: 4 bins/channel -> 64-d histograms, fixed paper seed.
M = 1_000
N_QUERIES = 10
BINS = 4
N_PIVOTS = 16
K = 10
TARGET_RESULTS = 10
TIMING_REPEATS = 9

BOUNDS = ("triangle", "ptolemaic", "best")


@functools.lru_cache(maxsize=1)
def _workload():
    return histogram_workload(M, N_QUERIES, bins_per_channel=BINS, seed=2011)


@functools.lru_cache(maxsize=1)
def _radius() -> float:
    return calibrate_radius(_workload(), TARGET_RESULTS)


@functools.lru_cache(maxsize=None)
def _index(model_name: str, bound: str) -> BuiltIndex:
    workload = _workload()
    model_cls = QMapModel if model_name == "qmap" else QFDModel
    # Same selection rng in every mode -> identical pivots, so the bound
    # is the only variable between the columns.
    return model_cls(workload.matrix).build_index(
        "pivot-table", workload.database, n_pivots=N_PIVOTS, bound=bound
    )


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("model_name", ["qfd", "qmap"])
def test_range_query(benchmark, model_name: str, bound: str) -> None:
    index = _index(model_name, bound)
    queries, radius = _workload().queries, _radius()
    benchmark(lambda: [index.range_search(q, radius) for q in queries])


@pytest.mark.parametrize("bound", BOUNDS)
def test_knn_query(benchmark, bound: str) -> None:
    index = _index("qfd", bound)
    queries = _workload().queries
    benchmark(lambda: [index.knn_search(q, K) for q in queries])


def _measure(model_name: str, bound: str) -> dict:
    """Candidate-set size and distance counts for one model x bound cell.

    The candidate count is derived from the exact charging model: a range
    query pays ``p`` query-to-pivot distances plus one per candidate the
    lower bound failed to filter, so ``candidates = evals - queries * p``
    — the same ``x`` the paper's Table 2 charges, for either model.
    """
    workload, radius = _workload(), _radius()
    index = _index(model_name, bound)
    index.reset_query_costs()
    results = 0
    for q in workload.queries:
        results += len(index.range_search(q, radius))
    range_evals = index.query_costs().distance_computations
    candidates = range_evals - N_QUERIES * N_PIVOTS
    index.reset_query_costs()
    for q in workload.queries:
        index.knn_search(q, K)
    knn_evals = index.query_costs().distance_computations
    return {
        "model": model_name,
        "bound": bound,
        "build_evaluations": index.build_costs.distance_computations,
        "range_candidates": candidates,
        "range_evaluations": range_evals,
        "range_results": results,
        "knn_evaluations": knn_evals,
    }


def _time_cells(cells: list[dict]) -> None:
    """Add ``knn_ms`` / ``range_ms`` (per query) to every cell: the median
    of ``TIMING_REPEATS`` passes over the query set, the cells' passes
    interleaved so a slow stretch of the host falls on all of them."""
    queries, radius = _workload().queries, _radius()
    passes: dict[tuple[int, str], list[float]] = {}
    for _ in range(TIMING_REPEATS):
        for pos, cell in enumerate(cells):
            index = _index(cell["model"], cell["bound"])
            for name, search, parameter in (
                ("knn_ms", index.knn_search, K),
                ("range_ms", index.range_search, radius),
            ):
                begin = time.perf_counter()
                for q in queries:
                    search(q, parameter)
                passes.setdefault((pos, name), []).append(time.perf_counter() - begin)
    for (pos, name), seconds in passes.items():
        cells[pos][name] = round(statistics.median(seconds) * 1e3 / len(queries), 4)


def test_ptolemaic_filters_strictly_better() -> None:
    """The acceptance check, also run under plain pytest."""
    for model_name in ("qfd", "qmap"):
        tri = _measure(model_name, "triangle")
        pto = _measure(model_name, "ptolemaic")
        best = _measure(model_name, "best")
        assert pto["range_candidates"] < tri["range_candidates"], model_name
        assert best["range_candidates"] <= pto["range_candidates"], model_name
        # Same answers regardless of the bound.
        assert pto["range_results"] == tri["range_results"] == best["range_results"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="report only, no JSON written (CI liveness check)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"output path (default: {DEFAULT_OUT}; never written in --smoke)",
    )
    args = parser.parse_args()

    workload, radius = _workload(), _radius()
    print()
    print("=" * 72)
    print("Ptolemaic bounds: triangle vs ptolemaic vs best (pivot table)")
    print(
        f"testbed: {workload.name}, m={M}, {N_QUERIES} held-out queries, "
        f"p={N_PIVOTS}, range r={radius:.4g} (~{TARGET_RESULTS} results), {K}NN"
    )
    print("=" * 72)

    report = {
        "benchmark": "ptolemaic_bounds",
        "structure": "pivot-table",
        "config": {
            "m": M,
            "n_queries": N_QUERIES,
            "bins_per_channel": BINS,
            "n_pivots": N_PIVOTS,
            "k": K,
            "radius": radius,
            "seed": 2011,
            "smoke": args.smoke,
        },
        "results": [],
    }
    measured: dict[tuple[str, str], dict] = {}
    for model_name in ("qfd", "qmap"):
        for bound in BOUNDS:
            cell = _measure(model_name, bound)
            measured[(model_name, bound)] = cell
            report["results"].append(cell)
    _time_cells(report["results"])
    rows = [
        [
            cell["model"],
            cell["bound"],
            cell["build_evaluations"],
            cell["range_candidates"],
            cell["range_evaluations"],
            cell["knn_evaluations"],
            cell["range_ms"],
            cell["knn_ms"],
        ]
        for cell in report["results"]
    ]
    print(
        format_table(
            [
                "model",
                "bound",
                "build evals",
                "range candidates",
                "range evals",
                "kNN evals",
                "range ms/q",
                "kNN ms/q",
            ],
            rows,
            title="filtering power over the full query workload (totals)",
        )
    )

    ok = True
    for model_name in ("qfd", "qmap"):
        tri = measured[(model_name, "triangle")]["range_candidates"]
        pto = measured[(model_name, "ptolemaic")]["range_candidates"]
        verdict = "OK" if pto < tri else "FAILED"
        ok = ok and pto < tri
        print(
            f"{model_name:4s}: ptolemaic candidates {pto} vs triangle {tri} "
            f"-> strictly smaller [{verdict}]"
        )
    report["config"]["strictly_smaller"] = ok
    print(
        "\npaper extension: a 'third column' for Table 2 — same query "
        "charging, tighter x. The Ptolemaic bound costs p(p-1)/2 extra "
        "build distances (the pivot-pair matrix) and nothing at query time."
    )

    if args.smoke and args.out is None:
        print("smoke run: machinery OK, no JSON written")
        return
    out = args.out if args.out is not None else DEFAULT_OUT
    write_report(report, out)


if __name__ == "__main__":
    main()
