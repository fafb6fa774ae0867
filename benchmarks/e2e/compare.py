"""Compare two result sets written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the spread
between rounds, the bound from ``BENCHMARK.json`` and a verdict --

* ``ok``          B is not worse than A by more than the bound;
* ``worse``       it is, and the spread is narrower than the bound;
* ``unresolved``  the spread between rounds is wider than the bound, so
                  the two cannot be told apart (unless every round of B
                  reads better than every round of A, which is ``ok``).

Refuses (exit 2) to compare runs over different inputs, core counts or
pinned environment (BLAS threads).  Exit 1 on any ``worse`` row.
"""

from __future__ import annotations

import json
import sys

import ledger


def load(path: str) -> dict:
    """Untraced results of one file, grouped by workload."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    by_workload: dict = {}
    for result in doc["results"]:
        if not result.get("trace"):
            by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def comparable(name: str, runs_a: list, runs_b: list) -> list:
    reasons = []
    for key, get in (
        ("inputs_sha256", lambda r: r["inputs_sha256"]),
        ("cpu_count", lambda r: r["host"]["cpu_count"]),
        ("pinned environment", lambda r: tuple(sorted(r["host"]["pinned_env"].items()))),
    ):
        a, b = {get(r) for r in runs_a}, {get(r) for r in runs_b}
        if a != b:
            reasons.append(f"{name}: {key} differs: {sorted(map(str, a))} vs {sorted(map(str, b))}")
    return reasons


def values(runs: list, metric: str) -> list:
    return [r["metrics"][metric]["value"] for r in runs]


def rounds(runs: list, metric: str) -> list:
    """Per-round (or per-repetition) readings behind *metric*, pooled over runs."""
    out = []
    for r in runs:
        out += r.get("rounds", {}).get(metric) or r.get("repeats", {}).get(metric) or []
    return out


def spread(readings: list) -> float:
    if len(readings) < 2:
        return 0.0
    return (max(readings) - min(readings)) / ledger.median(readings)


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    set_a, set_b = load(argv[0]), load(argv[1])
    declared = ledger.load_declaration()["end_to_end"]
    refused = []
    for name in sorted(set(set_a) | set(set_b)):
        if name not in set_a or name not in set_b:
            refused.append(f"{name}: present in only one of the two sets")
        else:
            refused += comparable(name, set_a[name], set_b[name])
    if refused:
        for reason in refused:
            print(f"refusing to compare -- {reason}", file=sys.stderr)
        return 2

    print(f"{'workload':9s} {'metric':22s} {'A':>12s} {'B':>12s} {'worse by':>8s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    worse = 0
    for name in sorted(set_a):
        for entry in declared:
            metric, bound = entry["name"], entry["bound"]
            a = ledger.median(values(set_a[name], metric))
            b = ledger.median(values(set_b[name], metric))
            sign = 1.0 if entry["better"] == "lower" else -1.0
            worse_by = sign * (b - a) / a
            rounds_a, rounds_b = rounds(set_a[name], metric), rounds(set_b[name], metric)
            noise = max(spread(rounds_a), spread(rounds_b))
            verdict = "ok" if worse_by <= bound else "worse"
            if noise > bound and rounds_a and rounds_b:
                all_better = (
                    max(rounds_b) < min(rounds_a) if sign > 0 else min(rounds_b) > max(rounds_a)
                )
                if not all_better:
                    verdict = "unresolved"
            worse += verdict == "worse"
            print(f"{name:9s} {metric:22s} {a:12.5g} {b:12.5g} {worse_by:+8.1%} "
                  f"{noise:7.1%} {bound:6.0%}  {verdict}")
    print(f"\n{worse} worse row(s)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
