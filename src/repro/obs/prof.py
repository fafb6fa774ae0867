"""Zero-dependency sampling profiler with span-phase attribution.

The counters say *how many* distance evaluations each model spends
(Tables 1-2); this profiler says *where the wall-clock goes* — kernel
arithmetic vs tree traversal vs QMap transform vs pickling — by
periodically sampling every thread's Python stack with
:func:`sys._current_frames` from a background thread.  No signals, no
C extensions, no third-party packages, and **off by default**: nothing
in this module runs unless a :class:`SamplingProfiler` is explicitly
started, so the bit-identical count baselines are untouched (the
profiler only ever *reads* frames; it never writes a counter the
experiments check).

Each sample is attributed to the innermost open
:func:`~repro.obs.spans.span` of the sampled thread (via the
cross-thread open-span table) by prefixing the stack with a synthetic
``span:<name>`` frame — so a flamegraph groups first by instrumented
phase (``build/mtree``, ``query/batch/knn``, ``query/chunk/...`` in a
worker) and only then by code path.

Two export formats, both standard:

* **collapsed stacks** (:meth:`SamplingProfiler.collapsed`) — one
  ``frame;frame;frame count`` line per unique stack, the input format of
  Brendan Gregg's ``flamegraph.pl`` and of speedscope's importer;
* **speedscope JSON** (:meth:`SamplingProfiler.speedscope`) — the
  ``"sampled"`` profile type of https://www.speedscope.app, weights in
  seconds.

Surfaced as ``repro query --profile-out`` / ``repro explain
--profile-out`` and the ``REPRO_BENCH_PROFILE`` environment variable in
``benchmarks/_common.py``.

Layering: imports only the standard library and sibling
:mod:`repro.obs` modules.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from typing import Any, Mapping

from .registry import MetricsRegistry, get_registry
from .spans import open_span_for_thread

__all__ = [
    "PROFILE_SAMPLES",
    "SamplingProfiler",
]

#: Counter of profiler samples attributed to each open span phase.
PROFILE_SAMPLES = "repro_profile_samples_total"

#: Label used for samples taken while no span was open on the thread.
_NO_SPAN = "(no span)"


def _frame_name(frame: Any) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__")
    if not module:
        module = Path(code.co_filename).stem or "?"
    return f"{module}.{code.co_name}"


class SamplingProfiler:
    """Periodic whole-process Python stack sampler.

    Parameters
    ----------
    hz:
        Target sampling rate in samples/second (per thread).  The
        sampler is a plain daemon thread waiting on an event, so the
        achieved rate is approximate; each recorded stack is weighted by
        the *configured* period, keeping total weight ≈ wall time.
    max_depth:
        Frames kept per stack (innermost ``max_depth``), bounding memory
        on deeply recursive code.

    Samples are aggregated as ``{stack tuple: count}`` — identical
    stacks cost one dict increment, so hours of profiling stay small.
    The sampler never samples its own thread.
    """

    def __init__(self, hz: float = 200.0, *, max_depth: int = 64) -> None:
        if not hz > 0:
            raise ValueError(f"profiler hz must be > 0, got {hz}")
        if max_depth < 1:
            raise ValueError(f"profiler max_depth must be >= 1, got {max_depth}")
        self.hz = float(hz)
        self.interval = 1.0 / self.hz
        self.max_depth = int(max_depth)
        self._counts: dict[tuple[str, ...], int] = {}
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._sampler_ident: int | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampling thread is currently alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the background sampling thread (idempotent)."""
        if self.running:
            return self
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the sampler thread."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join()
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _loop(self) -> None:
        self._sampler_ident = threading.get_ident()
        while not self._stop_event.wait(self.interval):
            self.sample_once()

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample_once(self, frames: Mapping[int, Any] | None = None) -> int:
        """Take one sample of every thread; returns stacks recorded.

        *frames* injects a ``{thread_ident: frame}`` mapping for tests;
        the default is the live :func:`sys._current_frames`.
        """
        if frames is None:
            frames = sys._current_frames()
        names = {t.ident: t.name for t in threading.enumerate()}
        recorded = 0
        for ident, frame in frames.items():
            if ident == self._sampler_ident:
                continue
            stack = self._stack_of(ident, frame, names.get(ident))
            with self._lock:
                self._counts[stack] = self._counts.get(stack, 0) + 1
            recorded += 1
        return recorded

    def _stack_of(
        self, ident: int, frame: Any, thread_name: str | None
    ) -> tuple[str, ...]:
        frames: list[str] = []
        while frame is not None and len(frames) < self.max_depth:
            frames.append(_frame_name(frame))
            frame = frame.f_back
        frames.reverse()  # root first, the collapsed-stack convention
        open_span = open_span_for_thread(ident)
        phase = f"span:{open_span.name}" if open_span is not None else _NO_SPAN
        root = thread_name or f"thread-{ident}"
        return (root, phase, *frames)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @property
    def sample_count(self) -> int:
        """Total stacks recorded so far."""
        with self._lock:
            return sum(self._counts.values())

    def stacks(self) -> dict[tuple[str, ...], int]:
        """Snapshot of ``{stack (root-first): samples}``."""
        with self._lock:
            return dict(self._counts)

    def phase_counts(self) -> dict[str, int]:
        """Samples per attributed span phase (``span:`` prefix stripped)."""
        out: dict[str, int] = {}
        for stack, count in self.stacks().items():
            phase = stack[1] if len(stack) > 1 else _NO_SPAN
            if phase.startswith("span:"):
                phase = phase[len("span:"):]
            out[phase] = out.get(phase, 0) + count
        return out

    def collapsed(self) -> str:
        """Brendan Gregg collapsed-stack text (``a;b;c count`` lines)."""
        lines = [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.stacks().items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro profile") -> dict[str, Any]:
        """The profile as a speedscope ``"sampled"``-type JSON document."""
        frame_index: dict[str, int] = {}
        samples: list[list[int]] = []
        weights: list[float] = []
        for stack, count in sorted(self.stacks().items()):
            indices = []
            for frame in stack:
                pos = frame_index.setdefault(frame, len(frame_index))
                indices.append(pos)
            samples.append(indices)
            weights.append(count * self.interval)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro.obs.prof",
            "activeProfileIndex": 0,
            "shared": {"frames": [{"name": frame} for frame in frame_index]},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0.0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }

    def write(self, path: "str | Path") -> Path:
        """Write the profile to *path*; format chosen by extension.

        ``.json`` writes speedscope JSON, anything else the collapsed
        text.  Returns the path written.
        """
        target = Path(path)
        if target.suffix.lower() == ".json":
            target.write_text(
                json.dumps(self.speedscope(name=target.stem), indent=1) + "\n",
                encoding="utf-8",
            )
        else:
            target.write_text(self.collapsed(), encoding="utf-8")
        return target

    def record_to(self, registry: MetricsRegistry | None = None) -> None:
        """Mirror per-phase sample counts into a registry counter."""
        reg = registry if registry is not None else get_registry()
        if not reg.enabled:
            return
        counter = reg.counter(
            PROFILE_SAMPLES, "profiler samples attributed to each span phase"
        )
        for phase, count in self.phase_counts().items():
            counter.inc(count, span=phase)
