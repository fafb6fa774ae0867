"""Benchmark baseline gate (repro.bench.gate) and ``repro explain``.

Covers the :class:`RegressionCheck` semantics and the ``repro bench
check`` CLI: the gate passes against a freshly written baseline, fails
with exit 1 on an injected count regression, exits 2 without a baseline,
and writes no file besides the baseline it is asked to rewrite.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.bench import RegressionCheck, check_regression
from repro.cli import main

#: A tiny-but-real workload so the CLI gate runs in well under a second.
_WORKLOAD_ARGS = ["--size", "80", "--queries", "2", "--k", "3", "--bins", "4"]


def _check_args(tmp_path, *extra: str) -> list[str]:
    return [
        "bench",
        "check",
        *_WORKLOAD_ARGS,
        "--baseline",
        str(tmp_path / "baseline.json"),
        *extra,
    ]


class TestRegressionCheck:
    def test_increase_past_threshold_regresses(self) -> None:
        check = RegressionCheck("m", baseline=100, observed=103, threshold=0.02)
        assert check.relative_change == pytest.approx(0.03)
        assert check.regressed and check.drifted
        assert "REGRESSED" in check.describe()

    def test_zero_threshold_gates_any_increase(self) -> None:
        assert RegressionCheck("m", 100, 101, 0.0).regressed
        assert not RegressionCheck("m", 100, 100, 0.0).regressed

    def test_improvement_drifts_without_regressing(self) -> None:
        check = RegressionCheck("m", baseline=100, observed=90, threshold=0.02)
        assert check.drifted and not check.regressed
        assert "update the baseline" in check.describe()

    def test_zero_baseline_cases(self) -> None:
        assert RegressionCheck("m", 0, 0, 0.0).relative_change == 0.0
        grown = RegressionCheck("m", 0, 5, 0.0)
        assert math.isinf(grown.relative_change) and grown.regressed

    def test_check_regression_missing_metric_is_a_regression(self) -> None:
        checks = check_regression({"kept": 1}, {"kept": 1, "gone": 7})
        by_name = {c.metric: c for c in checks}
        assert not by_name["kept"].regressed
        assert math.isinf(by_name["gone"].observed) and by_name["gone"].regressed

    def test_check_regression_ignores_new_metrics(self) -> None:
        checks = check_regression({"old": 1, "new": 99}, {"old": 1})
        assert [c.metric for c in checks] == ["old"]

    def test_per_metric_threshold_overrides_default(self) -> None:
        checks = check_regression(
            {"loose": 110, "tight": 101},
            {"loose": 100, "tight": 100},
            default_threshold=0.0,
            thresholds={"loose": 0.25},
        )
        by_name = {c.metric: c for c in checks}
        assert not by_name["loose"].regressed
        assert by_name["tight"].regressed


class TestBenchCheckCLI:
    def test_gate_lifecycle(self, tmp_path, capsys) -> None:
        baseline = tmp_path / "baseline.json"

        # No baseline yet: exit 2 with a hint, nothing gated.
        assert main(_check_args(tmp_path)) == 2
        assert "--update-baseline" in capsys.readouterr().err

        # Write the baseline: exit 0, metrics for 3 methods x 2 models,
        # with the pivot table gated in all three bound modes (its
        # +ptolemaic / +best variant keys) plus the planner's auto-pick
        # counters (alternatives / evaluations / transforms).
        assert main(_check_args(tmp_path, "--update-baseline")) == 0
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        assert payload["default_threshold"] == 0.0
        assert len(payload["metrics"]) == 33
        assert "pivot-table+ptolemaic.qfd.query_evaluations" in payload["metrics"]
        assert "pivot-table+best.qmap.build_evaluations" in payload["metrics"]
        assert "planner.auto.alternatives" in payload["metrics"]
        assert "planner.auto.query_evaluations" in payload["metrics"]
        assert payload["workload"]["size"] == 80

        # Same workload, same seed: counts are bit-reproducible -> pass.
        assert main(_check_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "bench check: passed" in out

        # Inject a regression: lower one baseline count so the observed
        # run exceeds it, under the zero default threshold.
        payload["metrics"]["mtree.qfd.query_evaluations"] -= 1
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        assert main(_check_args(tmp_path)) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out

        # The gate reads the baseline and writes nothing else.
        assert sorted(tmp_path.iterdir()) == [baseline]

    def test_workload_mismatch_refuses_to_gate(self, tmp_path, capsys) -> None:
        assert main(_check_args(tmp_path, "--update-baseline")) == 0
        args = _check_args(tmp_path)
        args[args.index("--size") + 1] = "81"
        assert main(args) == 2
        assert "was recorded for workload" in capsys.readouterr().err

    def test_improvement_passes_with_update_hint(self, tmp_path, capsys) -> None:
        baseline = tmp_path / "baseline.json"
        assert main(_check_args(tmp_path, "--update-baseline")) == 0
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        payload["metrics"]["mtree.qfd.query_evaluations"] += 10
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(_check_args(tmp_path)) == 0
        assert "consider --update-baseline" in capsys.readouterr().out


class TestExplainCLI:
    def test_explain_text_and_json_artifact(self, tmp_path, capsys) -> None:
        out_path = tmp_path / "plan.json"
        code = main(
            [
                "explain",
                "--method",
                "mtree",
                "--size",
                "80",
                "--k",
                "3",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "EXPLAIN knn(k=3)" in text and "[OK]" in text
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["totals"]["totals_match"] is True

    def test_explain_range_json_stdout(self, tmp_path, capsys) -> None:
        code = main(
            [
                "explain",
                "--method",
                "pivot-table",
                "--size",
                "80",
                "--radius",
                "0.5",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "range"
        assert payload["totals"]["totals_match"] is True
