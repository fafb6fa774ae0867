"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Outside the tier-1 ``testpaths``: it runs all four workloads, untraced and
traced, at tiny sizes, and checks the emitted JSON against BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger  # noqa: E402


def test_smoke_run_matches_declaration(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    declaration = ledger.load_declaration()
    results = json.loads(out.read_text())["results"]
    workloads = [w["name"] for w in declaration["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        runs = [r for r in results if r["trace"] == trace]
        assert [r["workload"] for r in runs] == workloads
        for run in runs:
            label = f"{run['workload']}[trace={trace}]"
            assert ledger.validate_result(run, declaration[key], label) == []
            assert run["failed"] == 0 and run["attempted"] >= 1, run["errors"]
            if trace:
                assert os.path.exists(tmp_path / f"trace_{run['workload']}.json")
    for run in results:
        if not run["trace"]:
            assert run["metrics"]["error_rate"]["value"] == 0
    names = [e["name"] for key in ("end_to_end", "per_layer") for e in declaration[key]]
    assert len(names) == len(set(names))
    assert all(ledger.NAME_RE.match(n) for n in names)
    assert elapsed < 60, f"smoke run took {elapsed:.1f}s"
