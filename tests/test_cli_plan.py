"""CLI surface of the planner: `repro query --plan`, `repro index query --plan`.

Pinned behavior:

1. ``--plan auto`` prints the considered-plans header (every alternative
   with predicted cost), executes the argmin, and picks a probe whenever
   a compatible snapshot undercuts the scan;
2. ``--plan <name>`` forces that alternative but keeps the comparison
   visible;
3. ``--explain`` adds per-alternative *actual* costs and writes the
   considered-plans JSON;
4. ``repro index query SNAP --plan auto`` plans against the snapshot's
   directory as the catalog.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_plan")
    for method in ("pivot-table", "mtree"):
        code = main(
            [
                "index", "save", "--method", method,
                "--size", "120", "--queries", "4", "--seed", "3",
                "--out", str(root / method.replace("-", "_")),
            ]
        )
        assert code == 0
    return root


_WORKLOAD_ARGS = ["--size", "120", "--queries", "4", "--seed", "3", "--k", "5"]


class TestParser:
    def test_query_plan_flags(self) -> None:
        args = build_parser().parse_args(["query", "--plan", "auto", "--index-dir", "d"])
        assert args.plan == "auto" and args.index_dir == "d"
        # The planner has one cost model; there is nothing to calibrate.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--plan", "auto", "--calibrate-from", "h"])

    def test_index_query_plan_flag(self) -> None:
        args = build_parser().parse_args(["index", "query", "s.npz", "--plan", "auto"])
        assert args.plan == "auto"


class TestQueryPlan:
    def test_auto_picks_a_probe_and_lists_alternatives(
        self, snapshot_dir, capsys
    ) -> None:
        code = main(
            ["query", "--plan", "auto", "--index-dir", str(snapshot_dir)]
            + _WORKLOAD_ARGS
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "considered plans for knn(k=5)" in out
        # Acceptance: the snapshot beats the scan, so the pick is a probe.
        assert "* probe[" in out and "(chosen)" in out
        assert "2 snapshot(s)" in out
        # At least the two scans and both filter pipelines are listed.
        for name in ("scan[qfd]", "scan[qmap]", "filter-refine[svd"):
            assert name in out

    def test_auto_without_catalog_still_plans(self, capsys) -> None:
        code = main(["query", "--plan", "auto"] + _WORKLOAD_ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "considered plans" in out and "execution:" in out

    def test_forced_plan_stays_visible(self, snapshot_dir, capsys) -> None:
        code = main(
            ["query", "--plan", "scan[qfd]", "--index-dir", str(snapshot_dir)]
            + _WORKLOAD_ARGS
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "* scan[qfd]" in out and "execution: scan[qfd]" in out
        # The cheaper probes are still listed, unchosen.
        assert "probe[pivot-table,qmap]" in out

    def test_unknown_plan_name_fails(self, snapshot_dir, capsys) -> None:
        code = main(
            ["query", "--plan", "scan[warp-drive]", "--index-dir", str(snapshot_dir)]
            + _WORKLOAD_ARGS
        )
        assert code != 0

    def test_explain_reports_actuals_and_writes_json(
        self, snapshot_dir, tmp_path, capsys
    ) -> None:
        out_path = tmp_path / "plan.json"
        code = main(
            [
                "query", "--plan", "auto", "--index-dir", str(snapshot_dir),
                "--explain", "--explain-out", str(out_path),
            ]
            + _WORKLOAD_ARGS
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "flops/query" in out and "actual=" in out
        payload = json.loads(out_path.read_text())
        considered = payload["considered"]
        assert len(considered) >= 3
        assert sum(c["chosen"] for c in considered) == 1
        chosen = next(c for c in considered if c["chosen"])
        assert chosen["actual_per_query_flops"] > 0
        # The chosen probe's EXPLAIN tree rides along.
        assert payload["explain"]["method"] in ("pivot-table", "mtree")

    def test_range_queries_plan_too(self, snapshot_dir, capsys) -> None:
        code = main(
            [
                "query", "--plan", "auto", "--index-dir", str(snapshot_dir),
                "--size", "120", "--queries", "4", "--seed", "3",
                "--radius", "0.4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "considered plans for range(r=0.4)" in out


class TestIndexQueryPlan:
    def test_plans_against_the_snapshot_directory(
        self, snapshot_dir, capsys
    ) -> None:
        snap = snapshot_dir / "pivot_table.npz"
        code = main(["index", "query", str(snap), "--plan", "auto", "--k", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "considered plans" in out
        # Both sibling snapshots are in the catalog, not just the argument.
        assert "probe[pivot-table,qmap]" in out and "probe[mtree,qmap]" in out


class TestSinksUnderPlan:
    """The planned path runs inside the same observed run as `query`:
    no sink flag is silently dropped."""

    def _plan(self, snapshot_dir, *sinks: str) -> list[str]:
        return [
            "query", "--plan", "auto", "--index-dir", str(snapshot_dir),
            *_WORKLOAD_ARGS, *sinks,
        ]

    def test_metrics_export_follows_the_costs(self, snapshot_dir, capsys) -> None:
        assert main(self._plan(snapshot_dir, "--metrics", "table")) == 0
        captured = capsys.readouterr()
        costs, export = captured.out.split("costs    :", 1)
        assert "repro_distance_evaluations_total" in export
        assert captured.err == ""

    def test_every_sink_flag_is_honoured_or_named(
        self, snapshot_dir, tmp_path, capsys
    ) -> None:
        paths = {
            flag: tmp_path / name
            for flag, name in [
                ("--log-json", "log.jsonl"), ("--trace-out", "traces.jsonl"),
                ("--explain-out", "plan.json"), ("--timeline-out", "timeline.json"),
                ("--profile-out", "profile.txt"),
            ]
        }
        sinks = ["--metrics", "prom", "--serve-metrics", "127.0.0.1:0",
                 "--serve-hold", "0.01", "--trace", "--explain", "--profile-hz", "1000"]
        for flag, path in paths.items():
            sinks += [flag, str(path)]
        assert main(self._plan(snapshot_dir, *sinks)) == 0
        out, err = capsys.readouterr()
        # What the planner's executor cannot feed is named, once ...
        (note,) = err.splitlines()
        assert note.startswith("note: --trace/--trace-out ignored under --plan")
        assert not paths.pop("--trace-out").exists()
        assert "trace    :" not in out
        # ... and everything else did what it does without --plan.
        for line in ("serving  :", "holding  :", "profile  :", "log      :",
                     "explain  :", "timeline :", "EXPLAIN knn(k=5)",
                     "repro_distance_evaluations_total"):
            assert line in out, line
        for flag, path in paths.items():
            assert path.stat().st_size > 0, flag

    def test_index_query_plan_honours_them_too(self, snapshot_dir, tmp_path, capsys) -> None:
        log = tmp_path / "log.jsonl"
        code = main(
            ["index", "query", str(snapshot_dir / "mtree.npz"), "--plan", "auto",
             "--k", "5", "--metrics", "jsonl", "--log-json", str(log), "--trace"]
        )
        out, err = capsys.readouterr()
        assert code == 0
        assert "repro_distance_evaluations_total" in out and "log      :" in out
        assert err.startswith("note: --trace ignored under --plan")
        assert any(json.loads(line)["event"] == "plan" for line in log.read_text().splitlines())
