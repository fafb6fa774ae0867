"""Planner pick vs a best-of-all-alternatives oracle — regret on E_A4.

The cost-based planner (:mod:`repro.planner`) prices every alternative —
direct scans under both models, filter-and-refine pipelines, and one
probe per cataloged snapshot — from Table 2 closed forms and snapshot
headers, then picks the argmin.  This bench asks the only question that
matters about a cost model: *how much does trusting the prediction cost
versus an oracle that runs everything?*

On the E_A4-style workload (64-d histograms, Lab-prototype matrix, fixed
paper seed) it snapshots the closed-form qmap and qfd indexes into a
scratch catalog, plans the kNN batch with the Table 2 cost model,
then executes **every** considered alternative over the full batch and
measures actual arithmetic in the cost model's unit.  Reported per plan:
predicted vs actual flops/query, whether its answers match the
sequential-QFD baseline, and the headline **regret** — chosen plan's
actual cost over the oracle minimum (1.0 = the planner picked the true
best).

Expected shape: the planner never picks the raw-QFD scan (m*n^2/query is
the ceiling every other plan undercuts), its pick's answers are
baseline-identical, and regret stays O(1) — the closed forms rank plans
correctly.
"""

from __future__ import annotations

import argparse
import functools
import tempfile
from pathlib import Path

import numpy as np

from _common import write_report
from repro.bench import format_table
from repro.datasets import histogram_workload
from repro.models import QFDModel, QMapModel
from repro.models.planning import materialize_plan, plan_query_batch
from repro.planner import ExecutorChoice

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_planner.json"

#: E_A4 profile: 4 bins/channel -> 64-d histograms, fixed paper seed.
M = 1_000
M_SMOKE = 240
N_QUERIES = 10
BINS = 4
N_PIVOTS = 16
CAPACITY = 16
K = 10

#: Snapshots offered to the planner: method x model, the closed-form
#: structures the paper's Table 2 prices (same kwargs as the CLI gate).
SNAPSHOT_GRID = (
    ("pivot-table", "qmap"),
    ("pivot-table", "qfd"),
    ("mtree", "qmap"),
    ("mtree", "qfd"),
)


@functools.lru_cache(maxsize=None)
def _workload(m: int):
    return histogram_workload(m, N_QUERIES, bins_per_channel=BINS, seed=2011)


@functools.lru_cache(maxsize=None)
def _snapshot_dir(m: int) -> str:
    """Build and save the snapshot grid into a per-size scratch catalog."""
    workload = _workload(m)
    tmp = tempfile.mkdtemp(prefix="bench_planner_")
    for method, model_name in SNAPSHOT_GRID:
        model_cls = QMapModel if model_name == "qmap" else QFDModel
        kwargs = (
            {"n_pivots": N_PIVOTS} if method == "pivot-table" else {"capacity": CAPACITY}
        )
        built = model_cls(workload.matrix).build_index(
            method, workload.database, **kwargs
        )
        built.save(str(Path(tmp) / f"{method}_{model_name}.npz"))
    return tmp


def _neighbor_ids(batch_results) -> "list[tuple[int, ...]]":
    return [tuple(int(n.index) for n in result) for result in batch_results]


def _measure(m: int) -> dict:
    """Plan the kNN batch, then oracle-run every considered alternative.

    Every alternative is materialized fresh and run serially over the
    full query batch so the actual-flops counters are deterministic and
    comparable; the oracle is the per-query-actual argmin among the
    alternatives that materialize and answer identically to the
    sequential-QFD baseline.
    """
    workload = _workload(m)
    planned = plan_query_batch(
        workload.matrix,
        workload.database,
        workload.queries,
        k=K,
        index_dir=_snapshot_dir(m),
    )
    baseline = None
    rows = []
    for candidate in planned.choice.considered:
        try:
            execution = materialize_plan(
                candidate.plan,
                workload.matrix,
                workload.database,
                executor=ExecutorChoice(name="serial"),
                batch_size=N_QUERIES,
            )
        except Exception as exc:  # noqa: BLE001 - report, don't abort the sweep
            rows.append({"plan": candidate.name, "error": str(exc)})
            continue
        if execution.index is not None:
            execution.index.reset_query_costs()
        answers = _neighbor_ids(execution.run_batch(workload.queries, k=K))
        if candidate.name == "scan[qfd]":
            baseline = answers
        actual = execution.actual_flops()
        rows.append(
            {
                "plan": candidate.name,
                "predicted_per_query": candidate.cost.per_query_flops,
                "predicted_total": candidate.total_flops,
                "actual_total": actual,
                "actual_per_query": actual / N_QUERIES,
                "chosen": candidate.chosen,
                "answers": answers,
            }
        )
    assert baseline is not None, "scan[qfd] must always be a considered plan"
    for row in rows:
        if "answers" in row:
            row["matches_baseline"] = row.pop("answers") == baseline
    return {"choice": planned.choice, "rows": rows}


def _regret(rows: "list[dict]") -> "tuple[dict, dict]":
    """(chosen row, oracle row): oracle = actual argmin among correct plans."""
    ran = [r for r in rows if "actual_per_query" in r and r["matches_baseline"]]
    chosen = next(r for r in ran if r["chosen"])
    oracle = min(ran, key=lambda r: r["actual_per_query"])
    return chosen, oracle


def test_planner_pick_is_near_oracle() -> None:
    """The acceptance check, also run under plain pytest (smoke size)."""
    measured = _measure(M_SMOKE)
    chosen, oracle = _regret(measured["rows"])
    # Never the raw-QFD scan: everything else undercuts m*n^2 per query.
    assert chosen["plan"] != "scan[qfd]"
    assert chosen["matches_baseline"]
    scan_qfd = next(r for r in measured["rows"] if r["plan"] == "scan[qfd]")
    assert chosen["actual_per_query"] < scan_qfd["actual_per_query"]
    # Regret is bounded: trusting the closed forms costs at
    # most a small constant factor over the run-everything oracle.
    regret = chosen["actual_per_query"] / oracle["actual_per_query"]
    assert regret < 10.0, regret


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"small workload (m={M_SMOKE}), no JSON written (CI liveness check)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"output path (default: {DEFAULT_OUT}; never written in --smoke)",
    )
    args = parser.parse_args()

    m = M_SMOKE if args.smoke else M
    workload = _workload(m)
    print()
    print("=" * 72)
    print("Cost-based planner: predicted pick vs best-of-all-alternatives oracle")
    print(
        f"testbed: {workload.name}, m={m}, {N_QUERIES} held-out queries, "
        f"{K}NN, catalog: {len(SNAPSHOT_GRID)} snapshots "
        f"(p={N_PIVOTS}, capacity={CAPACITY}), Table 2 cost model"
    )
    print("=" * 72)

    measured = _measure(m)
    rows = measured["rows"]
    chosen, oracle = _regret(rows)
    regret = chosen["actual_per_query"] / oracle["actual_per_query"]

    table = []
    for row in sorted(
        rows, key=lambda r: r.get("actual_per_query", float("inf"))
    ):
        if "error" in row:
            table.append([row["plan"], "-", "-", "-", "-", f"error: {row['error']}"])
            continue
        marks = []
        if row["chosen"]:
            marks.append("chosen")
        if row is oracle:
            marks.append("oracle")
        table.append(
            [
                row["plan"],
                f"{row['predicted_per_query']:.4g}",
                f"{row['actual_per_query']:.4g}",
                f"{row['predicted_per_query'] / row['actual_per_query']:.2f}x",
                "yes" if row["matches_baseline"] else "NO",
                ", ".join(marks),
            ]
        )
    print(
        format_table(
            [
                "plan",
                "predicted/query",
                "actual/query",
                "pred/actual",
                "answers ok",
                "",
            ],
            table,
            title="considered alternatives over the full query batch (flops)",
        )
    )
    verdict = "OK" if chosen["plan"] != "scan[qfd]" and regret < 10.0 else "FAILED"
    print(
        f"\npick: {chosen['plan']} at {chosen['actual_per_query']:.4g} "
        f"flops/query; oracle: {oracle['plan']} at "
        f"{oracle['actual_per_query']:.4g} -> regret {regret:.3f}x [{verdict}]"
    )

    report = {
        "benchmark": "planner_regret",
        "config": {
            "m": m,
            "n_queries": N_QUERIES,
            "bins_per_channel": BINS,
            "n_pivots": N_PIVOTS,
            "capacity": CAPACITY,
            "k": K,
            "seed": 2011,
            "smoke": args.smoke,
            "chosen": chosen["plan"],
            "oracle": oracle["plan"],
        },
        "results": [
            {k: v for k, v in row.items()} for row in rows
        ]
        + [
            {
                "plan": "summary",
                "regret": regret,
                "chosen_actual_per_query": chosen["actual_per_query"],
                "oracle_actual_per_query": oracle["actual_per_query"],
            }
        ],
    }

    if args.smoke and args.out is None:
        print("smoke run: machinery OK, no JSON written")
        return
    out = args.out if args.out is not None else DEFAULT_OUT
    write_report(report, out)


if __name__ == "__main__":
    main()
