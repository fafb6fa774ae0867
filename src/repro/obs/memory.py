"""Process memory measurement for the out-of-core experiments.

The scale-up benchmark's claim is about *memory*, not only speed: the
1M x 512-d testbed must run with a peak resident set far below the ~4 GB
a heap-resident float64 copy of the database would cost.  This module is
the one place that reads the process high-water mark, so benches, build
metrics and reports all agree on the number.

``resource.getrusage`` is the primary source (``ru_maxrss`` — reported in
kilobytes on Linux, bytes on macOS).  Where the :mod:`resource` module is
unavailable, a running :mod:`tracemalloc` session is used instead; note
that tracemalloc only sees Python-level allocations (not mapped pages),
so the fallback under-reports — callers can tell which source produced a
number via :func:`peak_rss_source`.
"""

from __future__ import annotations

import os
import sys
import threading

from .registry import MetricsRegistry, get_registry

try:  # pragma: no cover - platform dependent
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

__all__ = [
    "PEAK_RSS",
    "peak_rss_bytes",
    "peak_rss_source",
    "current_rss_bytes",
    "record_memory",
    "RssSampler",
]

#: Gauge of the process peak resident set size in bytes (high-water mark).
PEAK_RSS = "repro_peak_rss_bytes"


def peak_rss_source() -> str:
    """Which measurement backs :func:`peak_rss_bytes` on this platform."""
    if _resource is not None:
        return "getrusage"
    import tracemalloc

    return "tracemalloc" if tracemalloc.is_tracing() else "unavailable"


def peak_rss_bytes() -> int:
    """The process's peak resident set size in bytes (0 when unmeasurable).

    A high-water mark: it never decreases over the process lifetime, so
    phase-accurate measurements run each phase in a fresh (forked)
    process — see ``benchmarks/bench_scale_1m.py``.
    """
    if _resource is not None:
        peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
            return int(peak)
        return int(peak) * 1024
    import tracemalloc  # pragma: no cover - exercised only without resource

    if tracemalloc.is_tracing():  # pragma: no cover
        return int(tracemalloc.get_traced_memory()[1])
    return 0  # pragma: no cover


def current_rss_bytes() -> int:
    """The process's *current* resident set size in bytes (0 unknown).

    Reads ``/proc/self/statm`` (Linux); unlike :func:`peak_rss_bytes`
    this is an instantaneous reading, so a sampler polling it can catch
    transient peaks the phase-boundary high-water reads would place in
    the wrong phase.  On platforms without procfs it returns 0 and
    samplers fall back to the high-water mark.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        pages = int(fields[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return 0


class RssSampler:
    """Background daemon thread sampling resident memory at an interval.

    :func:`record_memory` reads the RSS high-water mark point-in-time at
    phase boundaries, so a transient peak *inside* a phase is attributed
    to whichever phase next asks.  A sampler owns the window instead: it
    polls :func:`current_rss_bytes` every ``interval`` seconds between
    :meth:`start` and :meth:`stop`, tracks the maximum it saw, and
    (when a registry is live) keeps the :data:`PEAK_RSS` gauge fresh so
    a mid-phase ``/metrics`` scrape reports memory, not just counts.

    With the null registry active the sampler spawns no thread at all —
    the non-interference invariant extends to memory sampling.  Use as a
    context manager::

        with RssSampler(0.2, model="qfd", method="mtree", phase="build") as s:
            ...  # build
        print(s.peak_seen, s.samples)
    """

    def __init__(
        self,
        interval: float = 0.2,
        *,
        registry: MetricsRegistry | None = None,
        model: str = "",
        method: str = "",
        phase: str = "build",
    ) -> None:
        if interval <= 0.0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.interval = float(interval)
        self._registry = registry
        self._labels = {"model": model, "method": method, "phase": phase}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._peak = 0
        self._samples = 0

    @property
    def peak_seen(self) -> int:
        """Largest resident set observed by any sample, in bytes."""
        with self._lock:
            return self._peak

    @property
    def samples(self) -> int:
        """Number of samples taken so far."""
        with self._lock:
            return self._samples

    def sample(self) -> int:
        """Take one sample now (also used by the background thread)."""
        rss = current_rss_bytes() or peak_rss_bytes()
        with self._lock:
            self._peak = max(self._peak, rss)
            self._samples += 1
            peak = self._peak
        reg = self._registry if self._registry is not None else get_registry()
        if reg.enabled and peak:
            reg.gauge(
                PEAK_RSS, "process peak resident set size in bytes (high-water mark)"
            ).set(max(peak, peak_rss_bytes()), **self._labels)
        return rss

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "RssSampler":
        if self._thread is not None:
            return self
        reg = self._registry if self._registry is not None else get_registry()
        if not reg.enabled:
            return self  # inert: no thread, no samples, no perturbation
        self._stop.clear()
        self.sample()  # one immediate baseline sample
        self._thread = threading.Thread(
            target=self._run, name="repro-rss-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> int:
        """Stop sampling (taking one final sample) and return the peak."""
        thread = self._thread
        self._thread = None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
            self.sample()
        return self.peak_seen

    def __enter__(self) -> "RssSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def record_memory(
    *,
    registry: MetricsRegistry | None = None,
    model: str = "",
    method: str = "",
    phase: str = "build",
) -> None:
    """Record the current peak RSS.

    A no-op with the null registry.  Labels mirror the distance counters
    so one query joins memory against evaluations per model/method.
    """
    reg = registry if registry is not None else get_registry()
    if not reg.enabled:
        return
    peak = peak_rss_bytes()
    if peak:
        reg.gauge(
            PEAK_RSS, "process peak resident set size in bytes (high-water mark)"
        ).set(peak, model=model, method=method, phase=phase)
