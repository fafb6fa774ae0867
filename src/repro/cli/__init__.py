"""Command-line interface: ``python -m repro <command>``.

The command reference is the parser's own help (``python -m repro
--help``, :mod:`repro.cli.parser`).  The package is built from three
single-copy pieces:

* :mod:`repro.cli.options` — every shared flag declared once, in groups
  (workload, query kind, executor, sinks, store) that the sub-commands
  attach;
* :class:`repro.obs.ObservedRun` — the one context manager every
  query-running command enters: it validates the sink flags before any
  work, installs registry → logger → profiler → telemetry server, and
  on exit restores them and prints/writes what they collected;
* :mod:`repro.cli.run` — the one run-and-report routine (run the batch,
  print ``wall time`` / ``costs`` / ``trace`` / ``latency``, EXPLAIN
  query 0) behind ``query``, ``index query``, ``--plan``, ``report`` and
  ``trace export``.

:mod:`repro.cli.commands` and :mod:`repro.cli.bench` hold the command
bodies; each sub-parser names its body with ``set_defaults(func=...)``.
"""

from __future__ import annotations

import sys

from ..exceptions import ReproError
from .parser import build_parser

__all__ = ["main", "build_parser"]


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

