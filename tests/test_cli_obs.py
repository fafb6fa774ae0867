"""CLI surface tests for the observability verbs.

Covers the PR's new flags and subcommands end-to-end through
``repro.cli.main``: ``query --serve-metrics/--serve-hold/--timeline-out``,
``explain --timeline-out``, ``trace export``, ``bench watch`` exit codes,
and ``report --diff``.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.bench.history import append_history, history_record
from repro.cli import build_parser, main

_QUERY_BASE = ["query", "--size", "80", "--bins", "2", "--queries", "4", "--k", "3"]


class TestParser:
    def test_query_serve_and_timeline_flags(self) -> None:
        args = build_parser().parse_args(
            _QUERY_BASE
            + [
                "--serve-metrics", "127.0.0.1:0",
                "--serve-hold", "1.5",
                "--timeline-out", "t.json",
            ]
        )
        assert args.serve_metrics == "127.0.0.1:0"
        assert args.serve_hold == 1.5
        assert args.timeline_out == "t.json"

    def test_query_serve_defaults_off(self) -> None:
        args = build_parser().parse_args(["query"])
        assert args.serve_metrics is None
        assert args.serve_hold == 0.0
        assert args.timeline_out is None

    def test_trace_export_defaults(self) -> None:
        args = build_parser().parse_args(["trace", "export"])
        assert args.method == "mtree" and args.model == "qmap"
        assert args.out == "repro_timeline.json"

    def test_bench_watch_defaults(self) -> None:
        args = build_parser().parse_args(["bench", "watch"])
        assert args.history == "BENCH_history.jsonl"
        assert args.window == 10 and args.sigma == 5.0 and args.min_history == 3

    def test_report_diff_takes_two_paths(self) -> None:
        args = build_parser().parse_args(["report", "--diff", "a.jsonl", "b.jsonl"])
        assert args.diff == ["a.jsonl", "b.jsonl"]

    def test_explain_timeline_out(self) -> None:
        args = build_parser().parse_args(["explain", "--timeline-out", "x.json"])
        assert args.timeline_out == "x.json"

    def test_query_profile_and_log_flags(self) -> None:
        args = build_parser().parse_args(
            _QUERY_BASE
            + ["--profile-out", "p.txt", "--profile-hz", "500", "--log-json", "q.jsonl"]
        )
        assert args.profile_out == "p.txt"
        assert args.profile_hz == 500.0
        assert args.log_json == "q.jsonl"

    def test_profile_and_log_default_off(self) -> None:
        args = build_parser().parse_args(["query"])
        assert args.profile_out is None
        assert args.profile_hz == 200.0
        assert args.log_json is None

    def test_explain_profile_out(self) -> None:
        args = build_parser().parse_args(["explain", "--profile-out", "e.json"])
        assert args.profile_out == "e.json" and args.profile_hz == 200.0


class TestServeMetrics:
    def test_query_serves_and_announces_the_endpoint(self, capsys) -> None:
        assert main(_QUERY_BASE + ["--serve-metrics", "127.0.0.1:0"]) == 0
        out = capsys.readouterr().out
        (serving,) = [ln for ln in out.splitlines() if ln.startswith("serving  :")]
        assert "http://127.0.0.1:" in serving
        assert "/metrics" in serving

    def test_serve_hold_announces_and_scrapes(self, capsys) -> None:
        # A tiny hold keeps the server up after the batch; a watcher
        # thread scrapes the endpoint as soon as the hold line confirms
        # the URL has been captured (the subprocess variant of this test
        # lives in benchmarks/ci_scrape_smoke.py).
        import threading

        url_box: list[str] = []
        ready = threading.Event()
        scraped: list[bytes] = []

        real_print = print

        def capture(*args, **kwargs):  # noqa: ANN002, ANN003
            real_print(*args, **kwargs)
            text = " ".join(str(a) for a in args)
            if text.startswith("serving  :"):
                url_box.append(text.split()[2])
                ready.set()

        def scraper() -> None:
            if ready.wait(timeout=10) and url_box:
                with urllib.request.urlopen(
                    f"{url_box[0]}/healthz", timeout=10
                ) as resp:
                    scraped.append(resp.read())

        thread = threading.Thread(target=scraper)
        thread.start()
        import builtins

        original = builtins.print
        builtins.print = capture
        try:
            code = main(
                _QUERY_BASE
                + ["--serve-metrics", "127.0.0.1:0", "--serve-hold", "0.5"]
            )
        finally:
            builtins.print = original
        thread.join(timeout=15)
        assert code == 0
        assert scraped == [b"ok\n"]
        assert "holding  :" in capsys.readouterr().out

    def test_bad_serve_spec_exits_two(self, capsys) -> None:
        assert main(_QUERY_BASE + ["--serve-metrics", "nonsense"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_plan_mode_serves_metrics(self, capsys) -> None:
        # The planned path runs inside the same observed run as every
        # other query command, so the endpoint is up there too (it used
        # to be dropped with an "ignored under --plan" note).
        code = main(
            [
                "query", "--plan", "auto", "--size", "80", "--queries", "2",
                "--k", "3", "--serve-metrics", "127.0.0.1:0",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "serving  : http://127.0.0.1:" in captured.out
        assert "ignored under --plan" not in captured.err


_MISSING = "/nonexistent-dir/out.file"
_REPORT_BASE = ["report", "--size", "80", "--bins", "2"]
_EXPLAIN_BASE = ["explain", "--size", "80", "--bins", "2"]


class TestSinkArgumentsFailFast:
    """A bad sink argument costs nothing: exit 2, one line, no work done."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(_QUERY_BASE + ["--profile-out", "p.txt", "--profile-hz", "0"], id="hz-zero"),
            pytest.param(_QUERY_BASE + ["--profile-out", "p.txt", "--profile-hz", "-5"], id="hz-negative"),
            pytest.param(_QUERY_BASE + ["--serve-metrics", "nonsense"], id="serve-spec"),
            pytest.param(_QUERY_BASE + ["--serve-metrics", "127.0.0.1:99999"], id="serve-port"),
            pytest.param(_QUERY_BASE + ["--trace-out", _MISSING], id="trace-out"),
            pytest.param(_QUERY_BASE + ["--explain-out", _MISSING], id="explain-out"),
            pytest.param(_QUERY_BASE + ["--timeline-out", _MISSING], id="timeline-out"),
            pytest.param(_QUERY_BASE + ["--profile-out", _MISSING], id="profile-out"),
            pytest.param(_QUERY_BASE + ["--log-json", _MISSING], id="log-json"),
            pytest.param(_QUERY_BASE + ["--plan", "auto", "--log-json", _MISSING], id="plan-log-json"),
            pytest.param(_REPORT_BASE + ["--out", _MISSING], id="report-out"),
            pytest.param(_REPORT_BASE + ["--trace-out", _MISSING], id="report-trace-out"),
            pytest.param(_EXPLAIN_BASE + ["--out", _MISSING], id="explain-cmd-out"),
            pytest.param(_EXPLAIN_BASE + ["--timeline-out", _MISSING], id="explain-cmd-timeline-out"),
            pytest.param(
                ["trace", "export", "--size", "80", "--bins", "2", "--out", _MISSING],
                id="trace-export-out",
            ),
        ],
    )
    def test_exits_two_before_the_workload_exists(
        self, argv, capsys, monkeypatch
    ) -> None:
        import repro.datasets

        def never(*args, **kwargs):
            raise AssertionError("the workload was generated before validation")

        monkeypatch.setattr(repro.datasets, "histogram_workload", never)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestTimelineOut:
    def test_query_timeline_out_writes_chrome_trace(self, capsys, tmp_path) -> None:
        target = tmp_path / "timeline.json"
        assert main(_QUERY_BASE + ["--timeline-out", str(target)]) == 0
        out = capsys.readouterr().out
        assert "timeline :" in out
        doc = json.loads(target.read_text())
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} <= {"B", "E", "X", "M"}

    def test_explain_timeline_out(self, capsys, tmp_path) -> None:
        target = tmp_path / "explain_timeline.json"
        code = main(
            [
                "explain", "--method", "mtree", "--size", "100",
                "--k", "5", "--timeline-out", str(target),
            ]
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert any(e.get("cat") == "traversal" for e in doc["traceEvents"])


class TestProfileOut:
    def test_query_profile_out_writes_collapsed_stacks(self, capsys, tmp_path) -> None:
        target = tmp_path / "profile.txt"
        code = main(
            _QUERY_BASE
            + ["--queries", "16", "--profile-out", str(target), "--profile-hz", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile  :" in out
        text = target.read_text()
        for line in text.strip().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1 and ";" in stack

    def test_query_profile_out_json_is_speedscope(self, capsys, tmp_path) -> None:
        target = tmp_path / "profile.json"
        code = main(
            _QUERY_BASE
            + ["--queries", "16", "--profile-out", str(target), "--profile-hz", "2000"]
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        assert doc["profiles"][0]["type"] == "sampled"


class TestLogJson:
    def test_query_log_json_writes_correlated_records(self, capsys, tmp_path) -> None:
        target = tmp_path / "query.jsonl"
        code = main(_QUERY_BASE + ["--log-json", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        assert "log      :" in out
        records = [json.loads(line) for line in target.read_text().splitlines()]
        events = [r["event"] for r in records]
        assert events.count("build") == 1
        assert events.count("query") == 4  # one per --queries
        queries = [r for r in records if r["event"] == "query"]
        assert all("trace_id" in r and "distance_evaluations" in r for r in queries)

    def test_batch_log_shares_one_trace_id(self, capsys, tmp_path) -> None:
        target = tmp_path / "batch.jsonl"
        code = main(_QUERY_BASE + ["--batch", "--log-json", str(target)])
        assert code == 0
        records = [json.loads(line) for line in target.read_text().splitlines()]
        (batch,) = [r for r in records if r["event"] == "batch"]
        queries = [r for r in records if r["event"] == "query"]
        assert len(queries) == 4
        assert {r["trace_id"] for r in queries} == {batch["trace_id"]}
        assert [r["query_index"] for r in queries] == list(range(4))

    def test_logger_restored_after_run(self, tmp_path) -> None:
        from repro.obs import NullLogger, get_logger

        assert main(_QUERY_BASE + ["--log-json", str(tmp_path / "a.jsonl")]) == 0
        assert isinstance(get_logger(), NullLogger)


class TestTraceExport:
    def test_export_writes_a_timeline(self, capsys, tmp_path) -> None:
        target = tmp_path / "trace.json"
        code = main(
            [
                "trace", "export", "--method", "mtree", "--size", "120",
                "--queries", "4", "--k", "3", "--out", str(target),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline :" in out and "costs    :" in out
        doc = json.loads(target.read_text())
        assert doc["traceEvents"]
        # Both lanes present: wall-clock spans and the traversal replay.
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "span" in cats and "traversal" in cats


class TestBenchWatch:
    def _history(self, path, rows) -> None:
        for metrics in rows:
            append_history(history_record("bench-x", metrics), path)

    def test_clean_history_exits_zero(self, capsys, tmp_path) -> None:
        path = tmp_path / "hist.jsonl"
        self._history(path, [{"a.build_evaluations": 10} for _ in range(4)])
        code = main(["bench", "watch", "--history", str(path), "--min-history", "3"])
        assert code == 0
        assert "bench-x" in capsys.readouterr().out

    def test_drift_exits_one(self, capsys, tmp_path) -> None:
        path = tmp_path / "hist.jsonl"
        rows = [{"a.build_evaluations": 10} for _ in range(4)] + [
            {"a.build_evaluations": 11}
        ]
        self._history(path, rows)
        code = main(["bench", "watch", "--history", str(path), "--min-history", "3"])
        assert code == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_insufficient_history_exits_two(self, capsys, tmp_path) -> None:
        path = tmp_path / "hist.jsonl"
        self._history(path, [{"a.x": 1.0}])
        code = main(["bench", "watch", "--history", str(path), "--min-history", "3"])
        assert code == 2

    def test_bad_window_exits_two(self, capsys, tmp_path) -> None:
        path = tmp_path / "hist.jsonl"
        self._history(path, [{"a.x": 1.0}])
        code = main(["bench", "watch", "--history", str(path), "--window", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestReportDiff:
    def _metrics_file(self, path, values: dict[str, float]) -> None:
        entries = [
            {"type": "counter", "name": name, "labels": {}, "value": value}
            for name, value in values.items()
        ]
        path.write_text("\n".join(json.dumps(e) for e in entries) + "\n")

    def test_diff_prints_changed_keys(self, capsys, tmp_path) -> None:
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._metrics_file(a, {"repro_x_total": 5.0, "repro_y_total": 1.0})
        self._metrics_file(b, {"repro_x_total": 9.0, "repro_y_total": 1.0})
        assert main(["report", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "repro_x_total" in out
        assert "1 changed / 2 keys" in out

    def test_diff_out_writes_the_report(self, capsys, tmp_path) -> None:
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._metrics_file(a, {"repro_x_total": 5.0})
        self._metrics_file(b, {"repro_x_total": 5.0})
        target = tmp_path / "diff.txt"
        assert main(["report", "--diff", str(a), str(b), "--out", str(target)]) == 0
        assert "(identical)" in target.read_text()


class TestRegistryRestored:
    def test_serve_and_timeline_restore_the_null_registry(self, tmp_path) -> None:
        from repro.obs import NULL_REGISTRY, get_registry

        target = tmp_path / "t.json"
        assert main(
            _QUERY_BASE
            + ["--serve-metrics", "127.0.0.1:0", "--timeline-out", str(target)]
        ) == 0
        assert get_registry() is NULL_REGISTRY

    def test_bad_spec_still_restores(self) -> None:
        from repro.obs import NULL_REGISTRY, get_registry

        assert main(_QUERY_BASE + ["--serve-metrics", ":::"]) == 2
        assert get_registry() is NULL_REGISTRY
