"""Live telemetry: an embedded scrape endpoint and rolling-rate gauges.

Everything else in :mod:`repro.obs` is *post-hoc* — metrics are exported
after a batch finishes.  This module is the continuous half promised by
the roadmap's query-service item:

* :class:`TelemetryServer` — a zero-dependency HTTP server (stdlib
  :class:`~http.server.ThreadingHTTPServer` on a daemon thread) exposing
  the live :class:`~repro.obs.registry.MetricsRegistry` at
  ``GET /metrics`` (Prometheus text exposition), ``GET /healthz`` and
  ``GET /snapshot.json``.  Port 0 auto-assigns a free port, so tests and
  parallel benches never collide.  Every render happens under the
  registry's instrument locks (the same snapshot path the exporters
  use), so a scrape taken mid-batch is internally consistent.
* :class:`WindowedRate` — a bucketed rolling-window rate estimator, and
  a per-registry rate board behind :func:`observe_query_progress` that
  the query-end report feeds.  :func:`sync_rate_gauges`
  (called automatically on every scrape) turns the windows into
  ``repro_window_queries_per_second`` / ``repro_window_distance_
  evaluations_per_second`` gauges, so a scrape during a run of queries
  or batches shows progress instead of a frozen snapshot (a batch feeds
  its window when it ends, not chunk by chunk).

Non-interference: with the :data:`~repro.obs.registry.NULL_REGISTRY`
active, :func:`observe_query_progress` returns after one attribute
check, no rate board is allocated, and a :class:`TelemetryServer` (if
someone starts one anyway) serves an empty exposition without touching
any query state — answers and distance counts stay bit-identical.

Layering: imports only sibling :mod:`repro.obs` modules (registry and
export), never :mod:`repro.mam` / :mod:`repro.models` — the TID251 ban
applies here unchanged.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import urlsplit

from .export import snapshot_dict, to_prometheus
from .registry import MetricsRegistry, get_registry

__all__ = [
    "WINDOW_QUERIES_PER_SECOND",
    "WINDOW_EVALUATIONS_PER_SECOND",
    "TELEMETRY_SCRAPES",
    "WindowedRate",
    "observe_query_progress",
    "sync_rate_gauges",
    "TelemetryServer",
    "parse_serve_spec",
]

#: Gauge of completed queries per second over the rolling window.
WINDOW_QUERIES_PER_SECOND = "repro_window_queries_per_second"

#: Gauge of charged distance evaluations per second over the rolling window.
WINDOW_EVALUATIONS_PER_SECOND = "repro_window_distance_evaluations_per_second"

#: Counter of scrape requests served by the embedded telemetry server.
TELEMETRY_SCRAPES = "repro_telemetry_requests_total"

#: Default rolling-window width in seconds.
DEFAULT_WINDOW_SECONDS = 15.0


class WindowedRate:
    """Events-per-second over a rolling window of the monotonic clock.

    The window is a ring of ``buckets`` equal-width time slots; adding an
    event count lands it in the slot covering *now*, and :meth:`rate`
    sums the slots still inside the window.  Before a full window has
    elapsed the denominator is the elapsed time since the first event
    (clamped to one slot width), so early readings are rates, not
    averages diluted by empty future slots.

    Thread-safe; ``now`` is injectable everywhere for deterministic
    tests (defaults to :func:`time.monotonic`).
    """

    def __init__(
        self,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        *,
        buckets: int = 20,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if window_seconds <= 0.0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.window_seconds = float(window_seconds)
        self._width = self.window_seconds / buckets
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        # slot index -> (absolute bucket number, event count)
        self._slots: list[tuple[int, float]] = [(-1, 0.0)] * buckets
        self._first: float | None = None

    def add(self, count: float, now: float | None = None) -> None:
        """Record *count* events happening at *now*."""
        if count <= 0:
            return
        t = self._clock() if now is None else float(now)
        bucket = int(t / self._width)
        slot = bucket % len(self._slots)
        with self._lock:
            if self._first is None:
                self._first = t
            held, value = self._slots[slot]
            if held != bucket:
                value = 0.0
            self._slots[slot] = (bucket, value + count)

    def total(self, now: float | None = None) -> float:
        """Events currently inside the window."""
        t = self._clock() if now is None else float(now)
        oldest = int(t / self._width) - len(self._slots) + 1
        with self._lock:
            return sum(value for held, value in self._slots if held >= oldest)

    def rate(self, now: float | None = None) -> float:
        """Events per second over the window ending at *now*."""
        t = self._clock() if now is None else float(now)
        with self._lock:
            first = self._first
        if first is None:
            return 0.0
        elapsed = min(self.window_seconds, max(t - first, self._width))
        return self.total(t) / elapsed


class _RateBoard:
    """Per-registry family of :class:`WindowedRate` windows, by label key."""

    def __init__(self, window_seconds: float = DEFAULT_WINDOW_SECONDS) -> None:
        self.window_seconds = float(window_seconds)
        self._lock = threading.Lock()
        self._rates: dict[tuple[str, tuple[tuple[str, str], ...]], WindowedRate] = {}

    def observe(self, name: str, count: float, now: float | None = None, **labels: object) -> None:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            window = self._rates.get(key)
            if window is None:
                window = WindowedRate(self.window_seconds)
                self._rates[key] = window
        window.add(count, now)

    def items(self) -> list[tuple[str, dict[str, str], WindowedRate]]:
        with self._lock:
            entries = list(self._rates.items())
        return [(name, dict(key), window) for (name, key), window in entries]


_RATE_HELP = {
    WINDOW_QUERIES_PER_SECOND: "queries completed per second (rolling window)",
    WINDOW_EVALUATIONS_PER_SECOND: (
        "distance evaluations charged per second (rolling window)"
    ),
}

# Rate boards keyed by registry identity but held weakly, so a dropped
# registry releases its windows.
_boards: "weakref.WeakKeyDictionary[MetricsRegistry, _RateBoard]" = (
    weakref.WeakKeyDictionary()
)
_boards_lock = threading.Lock()


def _board_for(registry: MetricsRegistry) -> _RateBoard:
    with _boards_lock:
        board = _boards.get(registry)
        if board is None:
            board = _RateBoard()
            _boards[registry] = board
        return board


def observe_query_progress(
    queries: int,
    evaluations: int,
    *,
    method: str = "",
    registry: MetricsRegistry | None = None,
    now: float | None = None,
) -> None:
    """Feed completed work into the rolling-rate windows.

    Called by :func:`~repro.obs.instruments.report_queries` as each
    query or batch is reported, so a scrape between them sees live
    throughput.  A no-op (single attribute check) when observability is
    disabled.
    """
    reg = registry if registry is not None else get_registry()
    if not reg.enabled:
        return
    board = _board_for(reg)
    if queries:
        board.observe(WINDOW_QUERIES_PER_SECOND, float(queries), now, method=method)
    if evaluations:
        board.observe(
            WINDOW_EVALUATIONS_PER_SECOND, float(evaluations), now, method=method
        )


def sync_rate_gauges(
    registry: MetricsRegistry | None = None, *, now: float | None = None
) -> None:
    """Materialize every rolling window into its gauge.

    The scrape handlers call this before rendering, so ``/metrics`` and
    ``/snapshot.json`` always carry fresh rates without the hot path
    paying for gauge updates.  A no-op when the registry is disabled or
    has never been fed.
    """
    reg = registry if registry is not None else get_registry()
    if not reg.enabled:
        return
    with _boards_lock:
        board = _boards.get(reg)
    if board is None:
        return
    for name, labels, window in board.items():
        gauge = reg.gauge(name, _RATE_HELP.get(name, ""))
        gauge.set(
            window.rate(now), window=f"{window.window_seconds:g}s", **labels
        )


def parse_serve_spec(spec: str, *, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """Parse a ``[host:]port`` CLI spec into ``(host, port)``.

    ``"0"`` asks the kernel for a free port; ``"0.0.0.0:9100"`` binds all
    interfaces.  (IPv6 literals are not supported — the spec grammar is
    deliberately the minimal one the CLI documents.)
    """
    spec = spec.strip()
    host, _, port_text = spec.rpartition(":")
    if not host:
        host = default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid --serve-metrics spec {spec!r}: want [host:]port") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid --serve-metrics port {port}: want 0..65535")
    return host, port


class _TelemetryHandler(BaseHTTPRequestHandler):
    server_version = "repro-telemetry/1.0"

    # The server is embedded in benches and the CLI; request logging to
    # stderr would corrupt their output streams.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path
        registry = self.server.resolve_registry()  # type: ignore[attr-defined]
        if registry.enabled:
            registry.counter(
                TELEMETRY_SCRAPES, "requests served by the telemetry endpoint"
            ).inc(1, path=path)
        if path == "/healthz":
            self._send(200, "text/plain; charset=utf-8", b"ok\n")
        elif path == "/metrics":
            sync_rate_gauges(registry)
            body = to_prometheus(registry).encode("utf-8")
            self._send(200, "text/plain; version=0.0.4; charset=utf-8", body)
        elif path == "/snapshot.json":
            sync_rate_gauges(registry)
            body = json.dumps(snapshot_dict(registry), sort_keys=True).encode("utf-8")
            self._send(200, "application/json; charset=utf-8", body)
        else:
            self._send(404, "text/plain; charset=utf-8", b"not found\n")


class _TelemetryHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, registry: MetricsRegistry | None) -> None:
        super().__init__(address, _TelemetryHandler)
        self._fixed_registry = registry

    def resolve_registry(self) -> MetricsRegistry:
        # Bound registry when given one, otherwise whatever is active at
        # scrape time — so a server started before `use_registry` still
        # shows the experiment's live registry.
        if self._fixed_registry is not None:
            return self._fixed_registry
        return get_registry()


class TelemetryServer:
    """Serve a registry over HTTP from a background daemon thread.

    ``port=0`` (the default) binds an ephemeral port, published via
    :attr:`address` / :attr:`url` once started.  Use as a context
    manager, or call :meth:`start` / :meth:`stop` explicitly::

        with TelemetryServer(registry) as server:
            print(server.url)         # http://127.0.0.1:PORT
            ...                        # run queries; scrape any time

    With ``registry=None`` the server renders whichever registry is
    active (:func:`~repro.obs.registry.get_registry`) at each request.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._registry = registry
        self._host = host
        self._port = int(port)
        self._server: _TelemetryHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves port 0)."""
        if self._server is None:
            raise RuntimeError("TelemetryServer is not running")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "TelemetryServer":
        if self._server is not None:
            return self
        server = _TelemetryHTTPServer((self._host, self._port), self._registry)
        thread = threading.Thread(
            target=server.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._server = server
        self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        server, thread = self._server, self._thread
        self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
