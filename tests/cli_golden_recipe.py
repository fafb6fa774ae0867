"""Shared recipe pinning the command-line surface of ``python -m repro``.

``tests/fixtures/cli_golden.json`` was generated from the commit *before*
``src/repro/cli.py`` became the ``repro.cli`` package (one declaration per
flag, one observed-run context manager, one run-and-report routine);
:mod:`tests.test_cli_golden` replays the recipe and asserts equality.  Two
things are pinned:

* ``surface`` — per sub-command path, every option's flags, ``dest``,
  action class, ``type``, effective default, ``choices``, ``nargs`` and
  ``required``.  Help strings and ``--help`` ordering are not part of the
  surface;
* ``runs`` — exit code and normalized stdout of every invocation in
  ``.github/workflows/ci.yml``, ``docs/api_guide.md``, ``README.md`` and
  ``.claude/skills/verify/SKILL.md`` (at small sizes), plus one
  invocation per sink flag and per ``index`` sub-command.  Durations,
  rates, ports, temp paths, ids and every time- or memory-valued metric
  are masked; every count is kept.

Regenerate (only from a tree whose output is the intended baseline)::

    PYTHONPATH=src python tests/cli_golden_recipe.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from repro.cli import build_parser, main

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "cli_golden.json"
REPO = Path(__file__).resolve().parent.parent

#: One small histogram workload shared by most invocations (8-d, 120 rows).
_W = ["--size", "120", "--bins", "2", "--queries", "4"]

#: ``(id, argv)`` in execution order — later entries read files earlier
#: ones wrote.  ``{tmp}`` is a fresh scratch directory, ``{repo}`` the
#: repository root.
INVOCATIONS: list[tuple[str, list[str]]] = [
    # docs/api_guide.md "command line" block, SKILL.md CLI block
    ("info", ["info"]),
    ("verify", ["verify", "--dim", "8", "--size", "120"]),
    ("compare-mtree", ["compare", "--method", "mtree", "--bins", "2", "--size", "80"]),
    ("compare-sequential",
     ["compare", "--method", "sequential", "--size", "80", "--bins", "2", "--k", "2"]),
    ("query-batch-trace", ["query", *_W, "--batch", "--workers", "2", "--trace", "--k", "10"]),
    ("query-loop", ["query", *_W, "--k", "3"]),
    ("query-radius", ["query", *_W, "--radius", "0.4"]),
    ("query-batch-radius", ["query", *_W, "--batch", "--radius", "0.4", "--trace"]),
    ("query-qfd-mtree", ["query", *_W, "--method", "mtree", "--model", "qfd", "--k", "3"]),
    ("query-sequential", ["query", *_W, "--method", "sequential", "--k", "3"]),
    ("query-mindex", ["query", *_W, "--method", "mindex", "--k", "3"]),
    ("query-bound-best", ["query", *_W, "--bound", "best", "--k", "3", "--trace"]),
    # one invocation per sink flag of `query`
    ("query-trace-out",
     ["query", *_W, "--trace", "--trace-out", "{tmp}/t.jsonl"]),
    ("query-metrics-table", ["query", *_W, "--batch", "--metrics", "table"]),
    ("query-metrics-jsonl", ["query", *_W, "--metrics", "jsonl"]),
    ("query-metrics-prom", ["query", *_W, "--metrics", "prom"]),
    ("query-serve", ["query", *_W, "--serve-metrics", "127.0.0.1:0"]),
    ("query-serve-hold",
     ["query", *_W, "--serve-metrics", "0", "--serve-hold", "0.05"]),
    ("query-log-json", ["query", *_W, "--k", "5", "--log-json", "{tmp}/query_log.jsonl"]),
    ("query-log-json-process",
     ["query", *_W, "--k", "5", "--batch", "--executor", "process", "--workers", "2",
      "--log-json", "{tmp}/batch_log.jsonl"]),
    ("query-log-json-serial",
     ["query", *_W, "--k", "5", "--batch", "--executor", "serial",
      "--log-json", "{tmp}/batch_log_serial.jsonl"]),
    ("query-explain", ["query", *_W, "--explain", "--explain-out", "{tmp}/plan.json"]),
    ("query-explain-radius", ["query", *_W, "--radius", "0.4", "--explain"]),
    ("query-timeline-out", ["query", *_W, "--timeline-out", "{tmp}/timeline.json"]),
    ("query-profile-txt",
     ["query", *_W, "--method", "mtree", "--k", "5",
      "--profile-out", "{tmp}/profile.txt", "--profile-hz", "2000"]),
    ("query-profile-json",
     ["query", *_W, "--method", "mtree", "--k", "5", "--batch",
      "--profile-out", "{tmp}/profile.json", "--profile-hz", "2000"]),
    ("query-every-sink",
     ["query", *_W, "--k", "3", "--batch", "--workers", "2", "--trace",
      "--trace-out", "{tmp}/all_t.jsonl", "--metrics", "prom",
      "--serve-metrics", "0", "--serve-hold", "0.05",
      "--log-json", "{tmp}/all_l.jsonl", "--explain",
      "--explain-out", "{tmp}/all_e.json", "--timeline-out", "{tmp}/all_tl.json",
      "--profile-out", "{tmp}/all_p.txt"]),
    # report
    ("report-prom", ["report", "--method", "pivot-table", *_W, "--metrics", "prom"]),
    ("report-jsonl-qfd",
     ["report", "--method", "mtree", "--model", "qfd", *_W, "--metrics", "jsonl"]),
    ("report-table", ["report", "--method", "mtree", "--model", "qmap", *_W]),
    ("report-out", ["report", *_W, "--metrics", "prom", "--out", "{tmp}/metrics.prom"]),
    ("report-trace-out",
     ["report", *_W, "--metrics", "jsonl", "--trace-out", "{tmp}/traces.jsonl",
      "--out", "{tmp}/a.jsonl"]),
    ("report-log-json",
     ["report", *_W, "--radius", "0.4", "--metrics", "jsonl",
      "--log-json", "{tmp}/report_log.jsonl", "--out", "{tmp}/b.jsonl"]),
    ("report-diff", ["report", "--diff", "{tmp}/x.jsonl", "{tmp}/y.jsonl"]),
    ("report-diff-out",
     ["report", "--diff", "{tmp}/x.jsonl", "{tmp}/x.jsonl", "--out", "{tmp}/diff.txt"]),
    # index lifecycle (ci.yml "Snapshot round-trip", README, api_guide)
    ("index-build", ["index", "build", "--method", "pivot-table", *_W, "--bound", "ptolemaic"]),
    ("index-save-mtree",
     ["index", "save", "--method", "mtree", *_W, "--out", "{tmp}/ci_idx"]),
    ("index-load", ["index", "load", "{tmp}/ci_idx.npz"]),
    ("index-load-no-verify", ["index", "load", "{tmp}/ci_idx.npz", "--no-verify"]),
    ("index-query", ["index", "query", "{tmp}/ci_idx.npz", "--k", "5"]),
    ("index-query-trace", ["index", "query", "{tmp}/ci_idx.npz", "--k", "10", "--trace"]),
    ("index-query-radius",
     ["index", "query", "{tmp}/ci_idx.npz", "--radius", "0.4", "--executor", "thread",
      "--workers", "2"]),
    ("index-query-explain",
     ["index", "query", "{tmp}/ci_idx.npz", "--explain",
      "--explain-out", "{tmp}/iq_plan.json"]),
    ("index-query-sinks",
     ["index", "query", "{tmp}/ci_idx.npz", "--k", "5", "--metrics", "prom",
      "--serve-metrics", "0", "--log-json", "{tmp}/iq_log.jsonl",
      "--trace-out", "{tmp}/iq_t.jsonl"]),
    # ci.yml "Out-of-core build smoke"
    ("index-build-mmap",
     ["index", "build", "--method", "mtree", "--size", "400", "--bins", "2",
      "--store", "mmap", "--out", "{tmp}/mmap_idx"]),
    ("index-load-mmap", ["index", "load", "{tmp}/mmap_idx.npz", "--store", "mmap"]),
    ("index-query-mmap", ["index", "query", "{tmp}/mmap_idx.npz", "--k", "5"]),
    # planner (ci.yml "Planner smoke", api_guide, SKILL.md)
    ("plan-save-pivot",
     ["index", "save", "--method", "pivot-table", *_W, "--seed", "2011",
      "--out", "{tmp}/planner/pivot_table"]),
    ("plan-save-mtree",
     ["index", "save", "--method", "mtree", *_W, "--seed", "2011",
      "--out", "{tmp}/planner/mtree"]),
    ("index-ls", ["index", "ls", "{tmp}/planner"]),
    ("plan-auto-explain",
     ["query", "--plan", "auto", "--index-dir", "{tmp}/planner", *_W, "--k", "10",
      "--seed", "2011", "--explain"]),
    ("plan-forced", ["query", "--plan", "scan[qmap]", *_W, "--k", "10"]),
    ("plan-radius-explain-out",
     ["query", "--plan", "auto", "--index-dir", "{tmp}/planner", *_W, "--seed", "2011",
      "--radius", "0.4", "--explain-out", "{tmp}/planned.json"]),
    ("plan-log-json",
     ["query", "--plan", "auto", *_W, "--k", "5", "--log-json", "{tmp}/plan_log.jsonl"]),
    ("plan-metrics",
     ["query", "--plan", "auto", "--index-dir", "{tmp}/planner", *_W, "--seed", "2011",
      "--k", "5", "--metrics", "table"]),
    ("index-query-plan",
     ["index", "query", "{tmp}/planner/pivot_table.npz", "--plan", "auto", "--k", "10"]),
    # explain (ci.yml "Query EXPLAIN smoke", api_guide, SKILL.md)
    ("explain-mtree-qfd",
     ["explain", "--method", "mtree", "--model", "qfd", "--size", "150", "--bins", "2",
      "--k", "10", "--out", "{tmp}/explain_mtree_qfd.json"]),
    ("explain-pivot-radius",
     ["explain", "--method", "pivot-table", "--model", "qmap", "--size", "150",
      "--bins", "2", "--radius", "0.5", "--out", "{tmp}/explain_pivot_qmap.json"]),
    ("explain-json",
     ["explain", "--method", "pivot-table", "--size", "150", "--bins", "2",
      "--radius", "0.4", "--json", "--max-events", "40"]),
    ("explain-bound-best",
     ["explain", "--method", "pivot-table", "--size", "150", "--bins", "2",
      "--radius", "0.4", "--bound", "best"]),
    ("explain-timeline-out",
     ["explain", "--method", "pivot-table", "--size", "150", "--bins", "2", "--k", "10",
      "--timeline-out", "{tmp}/timeline_explain.json"]),
    ("explain-profile-out",
     ["explain", "--method", "mtree", "--size", "150", "--bins", "2",
      "--query-index", "1", "--sample-every", "2", "--max-events", "50",
      "--profile-out", "{tmp}/explain_profile.json"]),
    # trace export (ci.yml "Timeline export smoke")
    ("trace-export",
     ["trace", "export", "--method", "mtree", *_W, "--k", "10",
      "--out", "{tmp}/timeline_mtree.json"]),
    ("trace-export-radius",
     ["trace", "export", "--method", "pivot-table", "--model", "qfd", *_W,
      "--radius", "0.4", "--bound", "best", "--executor", "thread", "--workers", "2",
      "--out", "{tmp}/timeline_pivot.json"]),
    # bench (ci.yml "Benchmark regression gate", api_guide)
    ("bench-check",
     ["bench", "check", "--baseline", "{repo}/benchmarks/bench_baseline.json"]),
    ("bench-update-baseline",
     ["bench", "check", *_W, "--k", "3", "--baseline", "{tmp}/baseline.json",
      "--update-baseline"]),
    ("bench-check-small",
     ["bench", "check", *_W, "--k", "3", "--baseline", "{tmp}/baseline.json"]),
    ("bench-check-mismatch",
     ["bench", "check", *_W, "--k", "4", "--baseline", "{tmp}/baseline.json"]),
]

_TIME_METRIC = re.compile(
    r"repro_\w*(?:seconds|bytes|per_second|scrapes|samples|rss|cholesky_cache)\w*"
)
_MASKS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"http://([\w.]+):\d+"), r"http://\1:<port>"),
    (re.compile(r"\b\d+(?:\.\d+)?(?:e[-+]?\d+)?(?=m?s\b)"), "<t>"),
    (re.compile(r"-> \d+(?:\.\d+)? queries/s"), "-> <r> queries/s"),
    (re.compile(r"\(\d+(?:\.\d+)?x\)"), "(<x>x)"),
    (re.compile(r'"seconds": [\d.e+-]+'), '"seconds": <t>'),
    (re.compile(r"\b\d+ samples @"), "<n> samples @"),
    (re.compile(r"^numpy \S+$"), "numpy <version>"),
    (re.compile(r" {2,}"), " "),
    (re.compile(r"-{4,}"), "----"),
]
#: Present only when the sampler happened to fire during a millisecond run.
_SOMETIMES_ABSENT = "repro_profile_samples_total"
_VOLATILE_KEYS = ("pid", "seconds", "span_id", "parent_span_id", "trace_id")


def _normalize_json(record: dict) -> str:
    """A registry-export or span JSON line with wall-clock fields dropped."""
    if _TIME_METRIC.fullmatch(str(record.get("name", ""))):
        record = {key: record[key] for key in ("name", "type", "labels") if key in record}
    else:
        record = {k: v for k, v in record.items() if k not in _VOLATILE_KEYS}
    return json.dumps(record, sort_keys=True)


def normalize(text: str, tmp: str) -> list[str]:
    """Mask everything that differs between two runs of the same command."""
    lines: list[str] = []
    for line in text.replace(tmp, "<tmp>").replace(str(REPO), "<repo>").splitlines():
        line = line.rstrip()
        if _SOMETIMES_ABSENT in line:
            continue
        if line.startswith("{") and line.endswith("}"):
            try:
                line = _normalize_json(json.loads(line))
            except ValueError:
                pass
        else:
            metric = _TIME_METRIC.search(line)
            if metric and not line.startswith("#"):
                line = f"{metric.group(0)} <masked>"
            else:
                for pattern, replacement in _MASKS:
                    line = pattern.sub(replacement, line)
        if not lines or line != lines[-1] or "<masked>" not in line:
            lines.append(line)
    return lines


def _describe(parser: argparse.ArgumentParser, action: argparse.Action) -> dict:
    kind = getattr(action.type, "__name__", None) if action.type else None
    return {
        "flags": list(action.option_strings) or [action.dest],
        "dest": action.dest,
        "action": type(action).__name__,
        "type": kind,
        "default": parser.get_default(action.dest),
        "choices": list(action.choices) if action.choices is not None else None,
        "nargs": action.nargs,
        "required": bool(action.required),
    }


def parser_surface(parser: "argparse.ArgumentParser | None" = None) -> dict:
    """``{"sub command path": [option descriptions sorted by dest]}``."""
    surface: dict[str, list] = {}

    def walk(node: argparse.ArgumentParser, path: str) -> None:
        options = []
        for action in node._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, f"{path} {name}".strip())
                options.append({"dest": action.dest, "commands": sorted(action.choices)})
                continue
            options.append(_describe(node, action))
        surface[path or "repro"] = sorted(options, key=lambda o: o["dest"])

    walk(parser or build_parser(), "")
    return surface


def _seed_inputs(tmp: Path) -> None:
    """Hand-written inputs for the commands that only read files."""
    (tmp / "planner").mkdir()
    for name, x_total in (("x.jsonl", 5.0), ("y.jsonl", 9.0)):
        entries = [
            {"type": "counter", "name": "repro_x_total", "labels": {}, "value": x_total},
            {"type": "counter", "name": "repro_y_total", "labels": {"kind": "knn"}, "value": 1.0},
        ]
        (tmp / name).write_text("".join(json.dumps(e) + "\n" for e in entries))


def run_invocations() -> dict:
    """``{id: {"argv", "code", "stdout"}}`` for every recipe invocation."""
    runs: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="cli_golden_") as tmp:
        _seed_inputs(Path(tmp))
        for name, template in INVOCATIONS:
            argv = [part.format(tmp=tmp, repo=REPO) for part in template]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejections
                    code = exc.code
            runs[name] = {
                "argv": template,
                "code": code,
                "stdout": normalize(stdout.getvalue(), tmp),
            }
    return runs


def compute_golden() -> dict:
    return {"surface": parser_surface(), "runs": run_invocations()}


def main_record() -> None:
    first, second = compute_golden(), compute_golden()
    unstable = [k for k in first["runs"] if first["runs"][k] != second["runs"][k]]
    if unstable:
        raise SystemExit(f"normalization leaves run-to-run differences in: {unstable}")
    FIXTURE_PATH.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH} ({len(first['runs'])} runs, {len(first['surface'])} parsers)")


if __name__ == "__main__":
    main_record()
