"""Plain-text reporting of experiment tables and figure series.

The benches print the same rows/series the paper's tables and figures
report; these helpers keep the formatting uniform (fixed-width columns,
explicit units) so the outputs in EXPERIMENTS.md stay readable.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = [
    "format_table",
    "speedup",
    "memory_block",
    "metrics_block",
]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], *, title: str = "") -> str:
    """Render an aligned fixed-width table."""
    str_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def speedup(baseline: float, improved: float) -> float:
    """Baseline-over-improved ratio (how many times faster), inf-safe."""
    if improved <= 0.0:
        return float("inf") if baseline > 0.0 else 1.0
    return baseline / improved


def memory_block() -> dict[str, Any]:
    """Process peak-memory snapshot embedded in every bench report.

    ``peak_rss_bytes`` is the high-water mark of the process resident
    set (``getrusage``; a running ``tracemalloc`` session where the
    :mod:`resource` module is unavailable — ``source`` says which), so
    the scale benches can assert the out-of-core path stayed out of
    core.  Always present, even with observability off.
    """
    from ..obs import peak_rss_bytes, peak_rss_source

    return {
        "peak_rss_bytes": peak_rss_bytes(),
        "source": peak_rss_source(),
    }


def metrics_block(registry: Any = None) -> dict[str, Any]:
    """The ``metrics`` block the ``BENCH_*.json`` reports embed.

    A JSON-able snapshot of *registry* (default: the active one) in the
    :func:`repro.obs.snapshot_dict` shape, plus a ``memory`` key (see
    :func:`memory_block`).  With the null registry active the metric list
    is empty but the keys are present, so report consumers can rely on
    them.
    """
    from ..obs import get_registry, snapshot_dict

    reg = registry if registry is not None else get_registry()
    if not getattr(reg, "enabled", False):
        block: dict[str, Any] = {"metrics": [], "spans": []}
    else:
        block = snapshot_dict(reg)
    block["memory"] = memory_block()
    return block
