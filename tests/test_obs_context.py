"""Trace-context propagation: ids minted once, carried everywhere.

The request-correlation contract of :mod:`repro.obs.context`:

* :func:`trace_scope` is idempotent — the outermost scope mints the root
  context, nested scopes reuse it;
* spans stamp ``trace_id``/``span_id``/``parent_span_id`` from the
  active context and nest parent ids correctly;
* the context crosses thread pools (the engine hands it to every chunk)
  and pickles cleanly for the process executor's chunk payloads.
"""

from __future__ import annotations

import pickle
import re

import numpy as np

from repro.distances import euclidean
from repro.mam import SequentialFile
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    activate_trace_context,
    current_trace_context,
    new_span_id,
    span,
    trace_scope,
    use_registry,
)

_HEX32 = re.compile(r"^[0-9a-f]{32}$")
_HEX16 = re.compile(r"^[0-9a-f]{16}$")


class TestTraceContext:
    def test_new_mints_well_formed_ids(self) -> None:
        ctx = TraceContext.new()
        assert _HEX32.match(ctx.trace_id)
        assert _HEX16.match(ctx.span_id)
        assert ctx.parent_span_id == ""

    def test_child_shares_trace_and_links_parent(self) -> None:
        root = TraceContext.new()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id
        assert child.span_id != root.span_id

    def test_contexts_are_unique(self) -> None:
        ids = {TraceContext.new().trace_id for _ in range(64)}
        assert len(ids) == 64

    def test_new_span_id_format(self) -> None:
        assert _HEX16.match(new_span_id())

    def test_pickle_round_trip(self) -> None:
        ctx = TraceContext.new().child()
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx


class TestScopes:
    def test_no_context_by_default(self) -> None:
        assert current_trace_context() is None

    def test_trace_scope_mints_and_clears(self) -> None:
        with trace_scope() as ctx:
            assert current_trace_context() is ctx
        assert current_trace_context() is None

    def test_nested_scope_reuses_the_root(self) -> None:
        with trace_scope() as outer:
            with trace_scope() as inner:
                assert inner is outer
            # Leaving the inner (no-op) scope keeps the root active.
            assert current_trace_context() is outer

    def test_activate_restores_previous(self) -> None:
        first = TraceContext.new()
        second = TraceContext.new()
        with activate_trace_context(first):
            with activate_trace_context(second):
                assert current_trace_context() is second
            assert current_trace_context() is first
        assert current_trace_context() is None

    def test_activate_none_is_a_no_op(self) -> None:
        with activate_trace_context(None):
            assert current_trace_context() is None


class TestSpanStamping:
    def test_spans_carry_context_ids_and_nest(self) -> None:
        reg = MetricsRegistry()
        with use_registry(reg), trace_scope() as ctx:
            with span("outer"):
                with span("inner"):
                    pass
        inner, outer = reg.spans  # inner closes first
        assert outer.name == "outer" and inner.name == "inner"
        assert outer.trace_id == ctx.trace_id
        assert inner.trace_id == ctx.trace_id
        assert outer.parent_span_id == ctx.span_id
        assert inner.parent_span_id == outer.span_id
        assert _HEX16.match(outer.span_id) and _HEX16.match(inner.span_id)

    def test_spans_without_context_stay_blank(self) -> None:
        reg = MetricsRegistry()
        with use_registry(reg), span("bare"):
            pass
        (record,) = reg.spans
        assert record.trace_id == "" and record.span_id == ""

    def test_thread_pool_inherits_the_context(self) -> None:
        """Pool threads inherit no contextvars: every chunk is handed the
        batch's context, re-rooted at the batch span, and activates it."""
        rng = np.random.default_rng(3)
        am = SequentialFile(rng.uniform(size=(20, 4)), euclidean)
        run_chunk = am._knn_search_batch
        seen: list[str] = []

        def traced_chunk(queries, k, traces):
            with span("task"):
                ctx = current_trace_context()
                seen.append(ctx.trace_id if ctx is not None else "")
            return run_chunk(queries, k, traces)

        am._knn_search_batch = traced_chunk
        reg = MetricsRegistry()
        with use_registry(reg), trace_scope() as ctx:
            am.knn_search_batch(
                rng.uniform(size=(8, 4)), 2, executor="thread", workers=4, chunk_size=1
            )
        assert seen == [ctx.trace_id] * 8
        assert {r.trace_id for r in reg.spans} == {ctx.trace_id}
        (batch,) = [r for r in reg.spans if r.name == "query/batch/knn"]
        # Worker-thread spans hang off the batch span, not off each other.
        tasks = [r for r in reg.spans if r.name == "task"]
        assert len(tasks) == 8
        assert {r.parent_span_id for r in tasks} == {batch.span_id}
