"""One observed run: every sink turned on, and off again, in one place.

``use_registry`` / ``use_logger`` / ``SamplingProfiler`` /
``TelemetryServer`` each switch one sink on.  A command-line run, or a
script that wants the same report, needs several at once, in a fixed
order, with a fixed order of output when it ends — and needs all of it
undone when the work raises.  :class:`ObservedRun` is that one place::

    from repro.obs import ObservedRun

    with ObservedRun(metrics="prom", log_json="run.jsonl",
                     profile_out="run.speedscope.json") as run:
        built = QMapModel(A).build_index("mtree", rows)
        built.knn_search_batch(queries, 10)
    # stdout now holds the `profile`, `log` lines and the registry export

The contract:

* **Validate first.**  The constructor checks every argument — sampling
  rate, ``[host:]port`` spec, the parent directory of every output path
  — and raises :class:`ValueError` before anything is installed, so a
  typo costs nothing and loses no results.
* **Install order** on ``__enter__``: metrics registry → JSON-lines
  logger → sampling profiler → telemetry server (which announces itself
  on a flushed ``serving  :`` line).
* **Deactivate** (:meth:`ObservedRun.deactivate`, implied by leaving the
  block): the profiler stops sampling and the previous logger and
  registry are reinstated, so whatever runs next — the EXPLAIN re-run
  of query 0 — is not part of the exported metrics, log or profile.
  The telemetry server keeps serving the registry's final state.
* **Exit order**, after a block that did not raise: ``traces`` file,
  ``profile`` file, ``log`` line, metrics export, ``explain`` (text
  and/or file), ``timeline`` file, ``holding`` (keep the endpoint up
  ``serve_hold`` seconds).  A block that raised gets the same stop and
  restore, and no output.

Layering: imports only the standard library and sibling
:mod:`repro.obs` modules; the per-query trace collector (an engine
type) is handed in by the caller and handed back as ``run.collector``.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any

from .export import export, traces_to_jsonl
from .live import TelemetryServer, parse_serve_spec
from .logging import JsonLinesLogger, set_logger
from .prof import SamplingProfiler
from .registry import MetricsRegistry, set_registry
from .timeline import write_timeline

__all__ = ["ObservedRun", "check_output_path"]


def check_output_path(flag: str, path: "str | Path | None") -> None:
    """Raise :class:`ValueError` unless *path* can be created later.

    Output files are written when a run ends; a missing parent directory
    would otherwise surface only then, after the work whose results the
    file was meant to hold.
    """
    if path is not None and not Path(path).parent.is_dir():
        raise ValueError(f"{flag}: directory {str(Path(path).parent)!r} does not exist")


class ObservedRun:
    """Context manager running a block under the requested sinks.

    The keyword arguments are the sink flags of ``repro query`` (same
    names, ``--log-json`` -> ``log_json``; each off by default), plus:

    registry, live:
        The metrics registry to observe into: *registry* if given, else
        a fresh one when *live* is set or an exit-time sink reads one
        (``metrics``, ``timeline_out``).  It is the active registry
        inside the block.  Without one nothing is installed, and the
        telemetry server and the profiler's phase counts use whichever
        registry is active.
    metrics_out:
        Write the ``metrics`` export to this file instead of stdout.
    collector:
        The caller's per-query trace collector, handed back as
        ``run.collector``; ``trace_out`` writes its records.
    """

    def __init__(
        self,
        *,
        registry: "MetricsRegistry | None" = None,
        live: bool = False,
        metrics: "str | None" = None,
        metrics_out: "str | None" = None,
        serve_metrics: "str | None" = None,
        serve_hold: float = 0.0,
        log_json: "str | None" = None,
        collector: Any = None,
        trace_out: "str | None" = None,
        explain: bool = False,
        explain_out: "str | None" = None,
        timeline_out: "str | None" = None,
        profile_out: "str | None" = None,
        profile_hz: float = 200.0,
    ) -> None:
        if profile_out is not None and not profile_hz > 0:
            raise ValueError(f"--profile-hz must be > 0, got {profile_hz:g}")
        self._address = (
            parse_serve_spec(serve_metrics) if serve_metrics is not None else None
        )
        outputs = {
            "metrics_out": metrics_out,
            "log_json": log_json,
            "trace_out": trace_out,
            "explain_out": explain_out,
            "timeline_out": timeline_out,
            "profile_out": profile_out,
        }
        for name, path in outputs.items():
            check_output_path("--" + name.replace("_", "-"), path)
        if registry is None and (live or metrics is not None or timeline_out is not None):
            registry = MetricsRegistry()
        self.registry = registry
        self.collector = collector
        self.logger: "JsonLinesLogger | None" = None
        self.profiler: "SamplingProfiler | None" = None
        self.server: "TelemetryServer | None" = None
        self._metrics = metrics
        self._serve_hold = serve_hold
        self._explain = explain
        self._profile_hz = profile_hz
        self._out = outputs
        self._active = ExitStack()
        self.set_plan(None)

    @property
    def wants_plan(self) -> bool:
        """Whether any sink will use a plan given to :meth:`set_plan`."""
        out = self._out
        return bool(self._explain or out["explain_out"] or out["timeline_out"])

    def set_plan(
        self,
        plan: Any,
        *,
        text: "str | None" = None,
        document: "str | None" = None,
        note: "str | None" = None,
    ) -> None:
        """Hand over the EXPLAIN of query 0 for the exit-time sinks.

        *plan* (an :class:`~repro.obs.explain.ExplainPlan`, or ``None``
        when the executed plan has no traversal) feeds the timeline;
        ``--explain`` prints *text*, ``--explain-out`` writes *document*
        and tags its line with *note* — all three default to the plan's
        own rendering.
        """
        self._plan = plan
        if plan is not None:
            text = plan.render() if text is None else text
            document = plan.to_json() if document is None else document
            note = f"query 0, {plan.kind}" if note is None else note
        self._plan_text, self._plan_document, self._plan_note = text, document, note or ""

    def __enter__(self) -> "ObservedRun":
        with ExitStack() as installing:  # unwinds if a later install fails
            if self.registry is not None:
                installing.callback(set_registry, set_registry(self.registry))
            if self._out["log_json"] is not None:
                self.logger = JsonLinesLogger(self._out["log_json"])
                installing.callback(self.logger.close)
                installing.callback(set_logger, set_logger(self.logger))
            if self._out["profile_out"] is not None:
                self.profiler = SamplingProfiler(hz=self._profile_hz).start()
                installing.callback(self.profiler.stop)
            if self._address is not None:
                host, port = self._address
                self.server = TelemetryServer(self.registry, host=host, port=port)
                self.server.start()
                # Flushed so a parent process can read the bound URL
                # while the block is still running.
                print(
                    f"serving  : {self.server.url} (GET /metrics /healthz /snapshot.json)",
                    flush=True,
                )
            self._active = installing.pop_all()
        return self

    def deactivate(self) -> None:
        """Stop the profiler and reinstate the previous logger and registry.

        Idempotent.  The telemetry server stays up until the block ends.
        """
        self._active.close()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        try:
            self.deactivate()
            if exc_type is None:
                self._emit()
        finally:
            if self.server is not None:
                self.server.stop()

    def _emit(self) -> None:
        out = self._out
        if self.collector is not None and out["trace_out"] is not None:
            traces = self.collector.traces
            Path(out["trace_out"]).write_text(traces_to_jsonl(traces), encoding="utf-8")
            print(f"traces   : {out['trace_out']} ({len(traces)} records)")
        if self.profiler is not None:
            self.profiler.record_to(self.registry)
            path = self.profiler.write(out["profile_out"])
            kind = "speedscope JSON" if path.suffix.lower() == ".json" else "collapsed stacks"
            print(
                f"profile  : {path} ({self.profiler.sample_count} samples @ "
                f"{self._profile_hz:g}Hz, {kind})",
                flush=True,
            )
        if self.logger is not None:
            print(f"log      : {out['log_json']} ({self.logger.records_written} records)")
        if self._metrics is not None:
            text = export(self.registry, self._metrics)
            if out["metrics_out"] is not None:
                Path(out["metrics_out"]).write_text(text, encoding="utf-8")
                print(f"metrics  : {out['metrics_out']} [{self._metrics}]")
            else:
                print(text, end="" if text.endswith("\n") else "\n")
        if self._explain and self._plan_text is not None:
            print()
            print(self._plan_text)
        if out["explain_out"] is not None and self._plan_document is not None:
            Path(out["explain_out"]).write_text(self._plan_document + "\n", encoding="utf-8")
            print(f"explain  : {out['explain_out']} ({self._plan_note})")
        if out["timeline_out"] is not None:
            spans = self.registry.spans
            path = write_timeline(out["timeline_out"], spans=spans, plan=self._plan)
            n_events = len(self._plan.events) if self._plan is not None else 0
            print(
                f"timeline : {path} ({len(spans)} span(s), {n_events} traversal "
                "event(s)); open in Perfetto or chrome://tracing"
            )
        if self.server is not None and self._serve_hold > 0:
            print(f"holding  : metrics endpoint up for {self._serve_hold:g}s", flush=True)
            try:
                time.sleep(self._serve_hold)
            except KeyboardInterrupt:  # pragma: no cover - ends the hold early
                pass
