"""Exporters: one registry, three machine/human-readable surfaces.

* :func:`to_jsonl` — newline-delimited JSON events (metrics then spans),
  the archival format the benches embed and ``--trace-out`` reuses;
  :func:`load_metrics_jsonl` reads one back and :func:`diff_metrics` /
  :func:`render_diff` compare two (``repro report --diff A B``);
* :func:`to_prometheus` — Prometheus text exposition format
  (``name{labels} value`` with ``# HELP``/``# TYPE`` headers), so a
  production deployment can scrape any experiment verbatim;
* :func:`to_table` — aligned human-readable table for terminals.

Everything here consumes only the snapshot model of
:mod:`repro.obs.registry` (plus duck-typed trace records for
:func:`traces_to_jsonl` and this module's own JSON-lines for
:func:`load_metrics_jsonl`), keeping the package dependency-free.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from .registry import HistogramState, MetricsRegistry

__all__ = [
    "to_jsonl",
    "to_prometheus",
    "to_table",
    "snapshot_dict",
    "traces_to_jsonl",
    "load_metrics_jsonl",
    "MetricDelta",
    "diff_metrics",
    "render_diff",
    "EXPORT_FORMATS",
    "export",
    "ParsedSample",
    "PromParseError",
    "parse_prometheus_text",
]

#: Histogram quantiles surfaced by :func:`to_table` / :func:`snapshot_dict`.
_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def _prom_name(name: str) -> str:
    if _NAME_OK.match(name):
        return name
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name) or "_"


def _prom_label_name(name: str) -> str:
    if _LABEL_OK.match(name):
        return name
    return re.sub(r"[^a-zA-Z0-9_]", "_", name) or "_"


def _prom_label_value(value: str) -> str:
    # Exposition-format label escaping: backslash FIRST (or the escapes
    # introduced for quote/newline would themselves be re-escaped), then
    # double-quote and newline.  The exact inverse lives in the strict
    # parser below and the conformance tests round-trip both directions.
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_help(text: str) -> str:
    # HELP lines escape only backslash and newline (not quotes) — a raw
    # newline would start a bogus exposition line and break scrapes.
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _prom_labels(labels: Mapping[str, str], extra: Mapping[str, str] | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(
        f'{_prom_label_name(k)}="{_prom_label_value(str(v))}"'
        for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _prom_float(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format.

    Histograms follow the standard cumulative-bucket convention
    (``_bucket{le=...}`` / ``_sum`` / ``_count``).  Ends with a trailing
    newline, as the format requires.
    """
    lines: list[str] = []
    for instrument in registry.instruments():
        samples = instrument.samples()
        if not samples:
            continue
        name = _prom_name(instrument.name)
        if instrument.help:
            lines.append(f"# HELP {name} {_prom_help(instrument.help)}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        for sample in samples:
            if sample.histogram is not None:
                lines.extend(_prom_histogram(name, sample.labels, sample.histogram))
            else:
                lines.append(
                    f"{name}{_prom_labels(sample.labels)} {_prom_float(sample.value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def _prom_histogram(
    name: str, labels: Mapping[str, str], state: HistogramState
) -> list[str]:
    lines = []
    cumulative = 0
    for bound, count in zip(state.bounds, state.counts):
        cumulative += count
        le = {"le": _prom_float(bound)}
        lines.append(f"{name}_bucket{_prom_labels(labels, le)} {cumulative}")
    cumulative += state.counts[-1]
    lines.append(f'{name}_bucket{_prom_labels(labels, {"le": "+Inf"})} {cumulative}')
    lines.append(f"{name}_sum{_prom_labels(labels)} {_prom_float(state.total)}")
    lines.append(f"{name}_count{_prom_labels(labels)} {state.count}")
    return lines


def snapshot_dict(registry: MetricsRegistry) -> dict[str, Any]:
    """JSON-able dict of the whole registry (the benches' ``metrics`` block).

    Shape: ``{"metrics": [...], "spans": [...]}`` with one entry per
    sample — counters/gauges carry ``value``, histograms carry
    ``count``/``sum`` plus the non-empty buckets.
    """
    metrics: list[dict[str, Any]] = []
    for sample in registry.snapshot():
        entry: dict[str, Any] = {
            "name": sample.name,
            "type": sample.kind,
            "labels": dict(sample.labels),
        }
        if sample.histogram is not None:
            state = sample.histogram
            entry["count"] = state.count
            entry["sum"] = state.total
            buckets: dict[str, int] = {}
            for bound, count in zip(state.bounds, state.counts):
                if count:
                    buckets[_prom_float(bound)] = count
            if state.counts[-1]:
                buckets["+Inf"] = state.counts[-1]
            entry["buckets"] = buckets
            if state.count:
                entry["quantiles"] = {
                    label: state.quantile(q) for label, q in _QUANTILES
                }
        else:
            entry["value"] = sample.value
        metrics.append(entry)
    spans = [
        {
            "name": record.name,
            "seconds": record.seconds,
            "depth": record.depth,
            "parent": record.parent,
            "status": record.status,
            **({"trace_id": record.trace_id} if record.trace_id else {}),
            **({"span_id": record.span_id} if record.span_id else {}),
            **(
                {"parent_span_id": record.parent_span_id}
                if record.parent_span_id
                else {}
            ),
            **({"pid": record.pid} if record.pid else {}),
            **({"labels": record.labels} if record.labels else {}),
        }
        for record in registry.spans
    ]
    return {"metrics": metrics, "spans": spans}


def to_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per line: every metric sample, then every span."""
    payload = snapshot_dict(registry)
    lines = [json.dumps(entry, sort_keys=True) for entry in payload["metrics"]]
    lines.extend(
        json.dumps({"type": "span", **entry}, sort_keys=True)
        for entry in payload["spans"]
    )
    return "\n".join(lines) + "\n" if lines else ""


def to_table(registry: MetricsRegistry) -> str:
    """Aligned human-readable rendering of the registry."""
    rows: list[tuple[str, str, str, str]] = []
    for sample in registry.snapshot():
        labels = ",".join(f"{k}={v}" for k, v in sorted(sample.labels.items()))
        if sample.histogram is not None:
            state = sample.histogram
            mean = state.total / state.count if state.count else 0.0
            value = f"n={state.count} sum={state.total:.6g} mean={mean:.6g}"
            if state.count:
                value += " " + " ".join(
                    f"{label}={state.quantile(q):.4g}" for label, q in _QUANTILES
                )
        else:
            value = _prom_float(sample.value)
        rows.append((sample.name, sample.kind, labels, value))
    for record in registry.spans:
        indent = "  " * record.depth
        rows.append(
            (
                f"{indent}{record.name}",
                "span",
                record.status,
                f"{record.seconds:.6f}s",
            )
        )
    if not rows:
        return "(no metrics recorded)\n"
    headers = ("metric", "type", "labels", "value")
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def traces_to_jsonl(traces: Iterable[Any]) -> str:
    """Per-query :class:`QueryTrace` records as JSON-lines.

    Duck-typed: any object with a plain attribute ``__dict__`` works; the
    derived ``distance_evaluations`` total is included when present so
    each line is self-describing.
    """
    lines = []
    for trace in traces:
        entry: dict[str, Any] = {"type": "query_trace", **vars(trace)}
        total = getattr(trace, "distance_evaluations", None)
        if total is not None:
            entry["distance_evaluations"] = int(total)
        lines.append(json.dumps(entry, sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# Reading to_jsonl exports back (repro report --diff A B)
# ----------------------------------------------------------------------

def load_metrics_jsonl(path: "str | Path") -> dict[str, float]:
    """Flatten one :func:`to_jsonl` export into ``{key: value}``.

    Keys are ``name{label=value,...}`` for counters/gauges; histograms
    contribute ``...#count`` and ``...#sum``.  Span records are skipped
    (wall times per individual span are not comparable run to run).
    """
    out: dict[str, float] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        entry = json.loads(line)
        if entry.get("type") == "span":
            continue
        name = str(entry.get("name", ""))
        labels = entry.get("labels") or {}
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        key = f"{name}{{{label_text}}}" if label_text else name
        if "value" in entry:
            out[key] = float(entry["value"])
        else:
            out[f"{key}#count"] = float(entry.get("count", 0))
            out[f"{key}#sum"] = float(entry.get("sum", 0.0))
    return out


@dataclass(frozen=True)
class MetricDelta:
    """One key's A-vs-B comparison in :func:`diff_metrics`."""

    key: str
    a: "float | None"
    b: "float | None"

    @property
    def delta(self) -> float:
        return (self.b or 0.0) - (self.a or 0.0)

    @property
    def relative(self) -> float:
        if not self.a:
            return float("inf") if self.delta else 0.0
        return self.delta / self.a


def diff_metrics(
    a: Mapping[str, float], b: Mapping[str, float]
) -> list[MetricDelta]:
    """Key-wise comparison of two flattened metrics maps (changed first)."""
    deltas = [
        MetricDelta(key, a.get(key), b.get(key))
        for key in sorted(set(a) | set(b))
    ]
    return sorted(deltas, key=lambda d: (-abs(d.delta), d.key))


def render_diff(
    deltas: "list[MetricDelta]", *, label_a: str = "A", label_b: str = "B"
) -> str:
    """Aligned table of :func:`diff_metrics` output."""
    changed = [d for d in deltas if d.delta or d.a is None or d.b is None]
    lines = [
        f"metrics diff: {label_a} -> {label_b} "
        f"({len(changed)} changed / {len(deltas)} keys)"
    ]
    if not changed:
        lines.append("  (identical)")
        return "\n".join(lines)
    width = max(len(d.key) for d in changed)

    def cell(value: "float | None") -> str:
        return "-" if value is None else f"{value:g}"

    for d in changed:
        rel = "" if d.a in (None, 0.0) or d.b is None else f"  ({d.relative:+.1%})"
        lines.append(
            f"  {d.key:<{width}}  {cell(d.a):>14} -> {cell(d.b):>14}"
            f"  Δ={d.delta:+g}{rel}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Strict exposition-format parser (conformance checking / scrape smoke)
# ----------------------------------------------------------------------

#: Metric kinds the exposition format admits in ``# TYPE`` lines.
_PROM_KINDS = frozenset({"counter", "gauge", "histogram", "summary", "untyped"})


class PromParseError(ValueError):
    """Raised by :func:`parse_prometheus_text` with a 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ParsedSample:
    """One sample line of a Prometheus text exposition."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float
    line_no: int

    @property
    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)


def _parse_labels(text: str, line_no: int) -> tuple[tuple[tuple[str, str], ...], str]:
    """Parse a ``{...}`` label block character-by-character.

    Returns the sorted label pairs and the remainder of the line.  Unlike
    a regex, this handles escaped quotes/backslashes/newlines inside
    label values exactly per the exposition format.
    """
    assert text[0] == "{"
    i = 1
    pairs: list[tuple[str, str]] = []
    while True:
        if i >= len(text):
            raise PromParseError(line_no, "unterminated label block")
        if text[i] == "}":
            i += 1
            break
        name_match = re.match(r"[a-zA-Z_][a-zA-Z0-9_]*", text[i:])
        if name_match is None:
            raise PromParseError(line_no, f"bad label name at {text[i:]!r}")
        name = name_match.group(0)
        i += len(name)
        if text[i : i + 2] != '="':
            raise PromParseError(line_no, f"label {name!r} must be followed by =\"")
        i += 2
        out: list[str] = []
        while True:
            if i >= len(text):
                raise PromParseError(line_no, f"unterminated value for label {name!r}")
            ch = text[i]
            if ch == '"':
                i += 1
                break
            if ch == "\\":
                if i + 1 >= len(text):
                    raise PromParseError(line_no, "dangling backslash in label value")
                esc = text[i + 1]
                if esc == "\\":
                    out.append("\\")
                elif esc == '"':
                    out.append('"')
                elif esc == "n":
                    out.append("\n")
                else:
                    raise PromParseError(
                        line_no, f"invalid escape \\{esc} in label value"
                    )
                i += 2
            else:
                out.append(ch)
                i += 1
        pairs.append((name, "".join(out)))
        if i < len(text) and text[i] == ",":
            i += 1
    return tuple(sorted(pairs)), text[i:]


def _parse_value(token: str, line_no: int) -> float:
    if token in ("+Inf", "Inf"):
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token in ("NaN", "nan"):
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise PromParseError(line_no, f"bad sample value {token!r}") from None


def parse_prometheus_text(text: str) -> list[ParsedSample]:
    """Strictly parse a Prometheus text exposition into samples.

    A deliberately unforgiving conformance checker used by the tests and
    the CI scrape smoke: it validates metric/label name charsets,
    ``# HELP`` / ``# TYPE`` comment structure, label-value escaping
    (including escaped quotes a naive regex would split on), that every
    sample's family carries a prior ``# TYPE`` declaration (histogram
    samples may use the ``_bucket``/``_sum``/``_count`` suffixes), and
    the required trailing newline.  Raises :class:`PromParseError` with
    the offending line number; returns the samples in document order.
    """
    if text == "":
        return []
    if not text.endswith("\n"):
        raise PromParseError(text.count("\n") + 1, "exposition must end with a newline")
    samples: list[ParsedSample] = []
    types: dict[str, str] = {}
    for line_no, line in enumerate(text.split("\n")[:-1], start=1):
        if line == "":
            continue  # blank separator lines are allowed
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in ("HELP", "TYPE"):
                raise PromParseError(line_no, f"malformed comment line {line!r}")
            if not _NAME_OK.match(parts[2]):
                raise PromParseError(line_no, f"bad metric name {parts[2]!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _PROM_KINDS:
                    raise PromParseError(line_no, f"bad TYPE line {line!r}")
                if parts[2] in types:
                    raise PromParseError(line_no, f"duplicate TYPE for {parts[2]!r}")
                types[parts[2]] = parts[3]
            continue
        name_match = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line)
        if name_match is None:
            raise PromParseError(line_no, f"bad sample line {line!r}")
        name = name_match.group(0)
        rest = line[len(name) :]
        labels: tuple[tuple[str, str], ...] = ()
        if rest.startswith("{"):
            labels, rest = _parse_labels(rest, line_no)
        if not rest.startswith(" "):
            raise PromParseError(line_no, f"missing space before value in {line!r}")
        tokens = rest[1:].split(" ")
        if len(tokens) != 1:
            # We never emit timestamps; reject them so the suite notices
            # if an exporter starts producing multi-token lines.
            raise PromParseError(line_no, f"expected exactly one value in {line!r}")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) in ("histogram", "summary"):
                family = base
                break
        if family not in types:
            raise PromParseError(line_no, f"sample {name!r} has no # TYPE declaration")
        samples.append(ParsedSample(name, labels, _parse_value(tokens[0], line_no), line_no))
    return samples


#: Exporters by CLI name.
EXPORT_FORMATS = {
    "table": to_table,
    "jsonl": to_jsonl,
    "prom": to_prometheus,
}


def export(registry: MetricsRegistry, fmt: str) -> str:
    """Render *registry* in one of :data:`EXPORT_FORMATS`."""
    try:
        renderer = EXPORT_FORMATS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown metrics format {fmt!r}; choose from {sorted(EXPORT_FORMATS)}"
        ) from None
    return renderer(registry)
