"""Request-scoped trace identity, propagated across executor boundaries.

A :class:`TraceContext` gives one logical request — a query batch, a
single query, an index build — a stable ``trace_id`` that every span,
log record, and worker-process slice produced on its behalf carries, so
a timeline or a JSON-lines log can be filtered down to exactly one
request even when its work fanned out over threads and processes.

Propagation uses the two mechanisms the engine's executors need:

* **same thread** — a :mod:`contextvars` variable, exactly like the
  span stack in :mod:`repro.obs.spans`;
* **thread pool and process pool** — neither inherits the submitter's
  context on its own, so the engine hands the context to every chunk (a
  frozen dataclass of strings: it pickles) and the chunk activates it
  before running; chunk spans then carry the parent's ``trace_id``.

Identifiers follow the W3C trace-context shape (128-bit ``trace_id``,
64-bit ``span_id``, lowercase hex) but are generated with plain
:mod:`uuid` — no wire protocol is implied, only stable correlation keys.

Layering: imports nothing outside the standard library, so every layer
(including :mod:`repro.mam`) may use it.
"""

from __future__ import annotations

import contextvars
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "TraceContext",
    "current_trace_context",
    "activate_trace_context",
    "trace_scope",
    "new_span_id",
]


def _new_trace_id() -> str:
    return uuid.uuid4().hex  # 128 bits, 32 hex chars


def new_span_id() -> str:
    """A fresh 64-bit span identifier (16 lowercase hex chars)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one logical request.

    Attributes
    ----------
    trace_id:
        Shared by everything done on behalf of one request; 32 hex chars.
    span_id:
        The identifier of the span that owns this context — child spans
        (and worker-side spans receiving the context over pickle) use it
        as their parent; 16 hex chars.
    parent_span_id:
        The owning span's own parent, empty at the root.
    """

    trace_id: str
    span_id: str
    parent_span_id: str = ""

    @classmethod
    def new(cls) -> "TraceContext":
        """A fresh root context (new trace_id, new root span_id)."""
        return cls(trace_id=_new_trace_id(), span_id=new_span_id())

    def child(self) -> "TraceContext":
        """A child context: same trace, new span_id, parented here."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_span_id=self.span_id,
        )


_ACTIVE_CONTEXT: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_obs_trace_context", default=None
)


def current_trace_context() -> TraceContext | None:
    """The active :class:`TraceContext` of this thread/context, if any."""
    return _ACTIVE_CONTEXT.get()


@contextmanager
def activate_trace_context(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make *context* the active one for the duration of the block.

    ``None`` deactivates (useful in tests); the previous context is
    restored on exit.  Use this form when the context arrived from
    elsewhere — a pickled chunk payload, a stored request header.
    """
    token = _ACTIVE_CONTEXT.set(context)
    try:
        yield context
    finally:
        _ACTIVE_CONTEXT.reset(token)


@contextmanager
def trace_scope() -> Iterator[TraceContext]:
    """Yield the active context, minting a fresh root when there is none.

    The idempotent entry-point guard: every boundary that starts a
    request (``BuiltIndex`` query methods, ``QueryBatch.run``, a model
    build) wraps itself in ``trace_scope()``; nested boundaries reuse the
    outer request's identity instead of allocating a new one, so one CLI
    query produces exactly one ``trace_id`` end to end.
    """
    existing = _ACTIVE_CONTEXT.get()
    if existing is not None:
        yield existing
        return
    context = TraceContext.new()
    token = _ACTIVE_CONTEXT.set(context)
    try:
        yield context
    finally:
        _ACTIVE_CONTEXT.reset(token)
