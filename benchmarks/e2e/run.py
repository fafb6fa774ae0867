"""The wall-clock ledger: four pinned workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                  [--trace [0|1]] [--out FILE] [--smoke]

Each workload runs in a fresh child process with BLAS pinned to one
thread; its answers are checked against an oracle computed here, in the
parent, by independent numpy code.  Every metric is printed by name with
its unit; with ``--workload`` the last line of standard output is the one
JSON object the benchmark driver reads.  Exit status is non-zero on any
oracle mismatch, failed operation, or metric missing from the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import ledger

ledger.pin_environment()
ledger.use_program_sources()

import oracle  # noqa: E402  (after the environment pinning: imports numpy)
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170


def run_child(spec, args, trace, workdir, trace_dir):
    """Compute the oracle, run one workload in a fresh process, return its result."""
    inputs = workloads.make_inputs(spec, args.seed)
    # Untraced churn interleaves inserts, so query i sees only the rows
    # inserted before it; the traced passes query the index as built.
    truth = oracle.cached_ground_truth(
        os.path.join(ledger.WORK, "oracle"), inputs, workloads.K,
        first_visible=spec.m if spec.op == "churn" and not trace else None,
    )
    del inputs
    workdir = os.path.join(workdir, f"{spec.name}_{trace}")  # one per child
    os.makedirs(workdir)
    out = os.path.join(workdir, "result.json")
    script = "layers.py" if trace else "measure.py"
    cmd = [
        sys.executable, os.path.join(ledger.HERE, script),
        "--workload", spec.name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--oracle", truth,
        "--workdir", workdir, "--out", out,
    ]
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace-out", os.path.join(trace_dir, f"trace_{spec.name}.json")]
    # subprocess.run kills and reaps the child if the timeout expires.
    done = subprocess.run(cmd, env=os.environ.copy(), timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{spec.name}: child exited with status {done.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def print_metrics(result, declared) -> None:
    bounds = {e["name"]: e for e in declared}
    print(f"\n== {result['workload']}  seed={result['seed']}  "
          f"inputs={result['inputs_sha256'][:12]}  samples={result.get('samples')}")
    for name, got in result["metrics"].items():
        entry = bounds.get(name, {})
        arrow = {"lower": "v", "higher": "^"}.get(entry.get("better"), " ")
        bound = f"  bound {entry['bound']:.0%}" if "bound" in entry else ""
        spread = result.get("rounds", {}).get(name) or result.get("repeats", {}).get(name)
        spread = f"  [{min(spread):.5g} .. {max(spread):.5g}]" if spread else ""
        print(f"  {name:38s} {got['value']:>14.6g} {got['unit']:6s}{arrow}{bound}{spread}")


def main() -> int:
    declaration = ledger.load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"],
                        help="measured phase per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: the traced run (per-layer metrics) instead of the untraced one")
    parser.add_argument("--out", help="write the full results as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; both runs of all four workloads; self-validating")
    args = parser.parse_args()

    os.makedirs(ledger.WORK, exist_ok=True)
    trace_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else ledger.WORK
    selected = [args.workload] if args.workload else names
    passes = (0, 1) if args.smoke and not args.workload else (args.trace,)
    if args.smoke:
        args.seconds = min(args.seconds, 0.3)

    results, problems = [], []
    workdir = tempfile.mkdtemp(prefix="run_", dir=ledger.WORK)
    try:
        for trace in passes:
            declared = declaration["per_layer" if trace else "end_to_end"]
            for name in selected:
                spec = workloads.get_spec(name, args.smoke)
                result = run_child(spec, args, trace, workdir, trace_dir)
                results.append(result)
                print_metrics(result, declared)
                problems += ledger.validate_result(result, declared, f"{name}[trace={trace}]")
                problems += [f"{name}: {e}" for e in result["errors"]]
                if result["failed"]:
                    problems.append(f"{name}: {result['failed']} of "
                                    f"{result['attempted']} operations failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"declaration": declaration, "results": results}, fh, indent=1)
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(f"\n{len(results)} run(s), {len(problems)} problem(s)")

    if args.workload:  # the driver's contract: one JSON object, last line
        result = results[-1]
        declared = declaration["per_layer" if result["trace"] else "end_to_end"]
        print(json.dumps({
            "correct": not problems,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {e["name"]: result["metrics"][e["name"]]
                        for e in declared if e["name"] in result["metrics"]},
        }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
