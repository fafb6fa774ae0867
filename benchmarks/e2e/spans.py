"""The harness's own in-memory span recorder.

Spans wrap calls into the program's public functions *from outside*; the
program itself is not instrumented.  Each span has a name, start, end,
the span that caused it, and the id of the request it belongs to.  They
stay in memory and are written out once, when the traced run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Span:
    """Context manager recording one interval into its recorder."""

    __slots__ = ("_rec", "_row")

    def __init__(self, rec: "SpanRecorder", name: str, request) -> None:
        self._rec = rec
        self._row = [name, 0.0, 0.0, rec._open[-1] if rec._open else None, request]

    def __enter__(self) -> "Span":
        rec = self._rec
        rec._open.append(len(rec.rows))
        rec.rows.append(self._row)
        self._row[1] = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._row[2] = perf_counter()
        self._rec._open.pop()


class SpanRecorder:
    def __init__(self) -> None:
        self.rows: list = []  # [name, start, end, parent span id, request id]
        self._open: list = []

    def span(self, name: str, request=None) -> Span:
        return Span(self, name, request)

    def durations(self, name: str) -> list:
        """Seconds of every span called *name*, in recording order."""
        return [row[2] - row[1] for row in self.rows if row[0] == name]

    def self_times(self) -> dict:
        """Per span name: total duration minus the part child spans cover."""
        covered = defaultdict(float)
        for row in self.rows:
            if row[3] is not None:
                covered[row[3]] += row[2] - row[1]
        out = defaultdict(float)
        for sid, row in enumerate(self.rows):
            out[row[0]] += (row[2] - row[1]) - covered[sid]
        return dict(out)

    def dump(self, path: str, **header) -> None:
        origin = self.rows[0][1] if self.rows else 0.0
        doc = dict(header)
        doc["columns"] = ["id", "name", "start_us", "end_us", "parent", "request"]
        doc["spans"] = [
            [sid, row[0], round((row[1] - origin) * 1e6, 1),
             round((row[2] - origin) * 1e6, 1), row[3], row[4]]
            for sid, row in enumerate(self.rows)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
