"""Unit tests for the traversal event buffer (repro.obs.events) and for
the ``QueryTrace`` vocabulary that feeds it.

The two design guarantees under test:

1. allocated only for EXPLAIN — a record without the ``events`` detail
   takes the same vocabulary calls, counts what it always counts, and
   skips the detail (``visit`` hands back :data:`ROOT`);
2. exact totals under bounding — ``max_events`` caps and
   ``sample_every`` thins the *recorded* event list only, while the
   per-node and global aggregates stay exact.
"""

from __future__ import annotations

import math

import pytest

from repro.engine.trace import QueryTrace, current_trace, query_trace
from repro.obs import ROOT, EventBuffer, TraversalEvent


def _detailed(**bounds) -> tuple[QueryTrace, EventBuffer]:
    """A record with an event buffer attached, as EXPLAIN opens one."""
    trace, buffer = QueryTrace(), EventBuffer(**bounds)
    trace.events = buffer
    return trace, buffer


class TestRecordVocabulary:
    def test_a_plain_record_carries_no_detail(self) -> None:
        trace = QueryTrace()
        assert trace.events is None
        assert "events" not in vars(trace)  # pickles and exports scalars only

    def test_without_detail_the_vocabulary_only_counts(self) -> None:
        # Must not raise, must not allocate: visit returns ROOT so call
        # sites can thread the token through unconditionally.
        trace = QueryTrace()
        assert trace.visit(ROOT, "leaf") == ROOT
        assert trace.visit(ROOT, "scan", count=0) == ROOT
        trace.lb_check(ROOT, 0.5, 1.0, pruned=False)
        trace.prune(ROOT, 3)
        trace.filter(10, 4)
        trace.refine(4)
        trace.verify(ROOT, 7, 0.25)
        trace.result(ROOT, 7, 0.25)
        trace.charge(calls=1, rows=10)
        assert trace == QueryTrace(
            scalar_evaluations=1, batched_evaluations=10, filter_checked=10,
            filter_hits=4, candidates=4, nodes_visited=1, nodes_pruned=3,
        )
        assert trace.events is None

    def test_with_detail_one_call_feeds_record_and_buffer(self) -> None:
        trace, buf = _detailed()
        trace.charge(calls=2)  # before any node: the detail charges ROOT
        tok = trace.visit(ROOT, "leaf")
        stage = trace.visit(tok, "refine", count=0)
        trace.lb_check(stage, 0.7, 0.5, pruned=True, label="pivot-linf")
        trace.prune(stage, 2, "pivot-linf")
        trace.verify(stage, 3, 0.1)
        trace.result(stage, 3, 0.1)
        trace.charge(rows=5)
        assert (tok, stage) == (0, 1)
        assert (trace.nodes_visited, buf.nodes_entered) == (1, 2)
        assert (trace.nodes_pruned, buf.pruned) == (2, 2)
        assert (buf.lb_checks, buf.candidates_verified, buf.results_added) == (1, 1, 1)
        assert (trace.scalar_evaluations, trace.batched_evaluations) == (2, 5)
        assert (buf.nodes[ROOT].charged_calls, buf.nodes[stage].charged_rows) == (2, 5)
        assert trace.candidates == 0  # refine() counts candidates, verify() is detail

    def test_query_trace_attaches_the_detail_and_restores(self) -> None:
        buffer = EventBuffer()
        with query_trace("knn", 3, events=buffer) as trace:
            assert trace.events is buffer
            assert current_trace() is trace
        assert current_trace() is None

    def test_query_trace_restores_on_exception(self) -> None:
        with pytest.raises(RuntimeError):
            with query_trace("knn", 3, events=EventBuffer()):
                raise RuntimeError("boom")
        assert current_trace() is None


class TestEventBufferRecording:
    def test_enter_node_allocates_sequential_tokens(self) -> None:
        buf = EventBuffer()
        a = buf.enter_node(ROOT, "root-node")
        b = buf.enter_node(a, "child")
        assert (a, b) == (0, 1)
        assert buf.current == b
        assert buf.nodes_entered == 2
        assert buf.nodes[b].parent == a
        assert buf.children_of(ROOT) == [a]
        assert buf.children_of(a) == [b]

    def test_charge_attributes_to_current_node(self) -> None:
        buf = EventBuffer()
        buf.charge(calls=2)  # before any node: charged to ROOT
        tok = buf.enter_node(ROOT, "leaf")
        buf.charge(calls=1, rows=5)
        assert buf.nodes[ROOT].charged_calls == 2
        assert buf.nodes[tok].charged_calls == 1
        assert buf.nodes[tok].charged_rows == 5
        assert buf.charged_calls == 3
        assert buf.charged_rows == 5
        assert buf.charged_total == 8

    def test_charge_with_zero_work_records_nothing(self) -> None:
        buf = EventBuffer()
        buf.charge(calls=0, rows=0)
        assert buf.charged_total == 0

    def test_unknown_node_token_falls_back_to_root(self) -> None:
        buf = EventBuffer()
        buf.lb_check(999, 0.5, 1.0, pruned=True)
        buf.candidate_verify(999, 3, 0.1)
        buf.result_add(999, 3, 0.1)
        buf.prune(999, 2)
        root = buf.nodes[ROOT]
        assert root.lb_checks == 1
        assert root.candidates == 1
        assert root.results == 1
        assert root.pruned == 2

    def test_prune_ignores_nonpositive_counts(self) -> None:
        buf = EventBuffer()
        buf.prune(ROOT, 0)
        buf.prune(ROOT, -4)
        assert buf.pruned == 0
        assert buf.events == []

    def test_events_for_filters_by_node_and_kind(self) -> None:
        buf = EventBuffer()
        tok = buf.enter_node(ROOT, "leaf")
        buf.lb_check(tok, 0.2, 0.5, pruned=False)
        buf.candidate_verify(tok, 1, 0.3)
        buf.result_add(ROOT, 1, 0.3)
        assert [e.kind for e in buf.events_for(tok)] == [
            "node_enter",
            "lb_check",
            "candidate_verify",
        ]
        assert [e.kind for e in buf.events_for(tok, kinds=("lb_check",))] == [
            "lb_check"
        ]
        assert [e.kind for e in buf.events_for(ROOT)] == ["result_add"]

    def test_sequence_numbers_are_global_and_ordered(self) -> None:
        buf = EventBuffer()
        tok = buf.enter_node(ROOT, "n")
        buf.lb_check(tok, 0.1, 0.2, pruned=False)
        buf.prune(tok, 1)
        assert [e.seq for e in buf.events] == [0, 1, 2]


class TestBoundingAndSampling:
    def test_constructor_validates_parameters(self) -> None:
        with pytest.raises(ValueError, match="max_events"):
            EventBuffer(max_events=-1)
        with pytest.raises(ValueError, match="sample_every"):
            EventBuffer(sample_every=0)

    def test_aggregates_exact_past_the_event_cap(self) -> None:
        trace, buf = _detailed(max_events=3)
        tok = trace.visit(ROOT, "scan")
        for i in range(10):
            trace.lb_check(tok, float(i), 5.0, pruned=i > 5)
            trace.charge(calls=1)
        assert len(buf.events) == 3  # node_enter + first two checks
        assert buf.dropped == 8
        # Aggregates never stopped counting.
        assert buf.lb_checks == 10
        assert buf.nodes[tok].lb_checks == 10
        assert buf.charged_calls == trace.scalar_evaluations == 10

    def test_zero_max_events_keeps_exact_aggregates(self) -> None:
        trace, buf = _detailed(max_events=0)
        tok = trace.visit(ROOT, "scan")
        trace.verify(tok, 4, 0.5)
        trace.charge(rows=12)
        assert buf.events == []
        assert buf.dropped == 2
        assert buf.candidates_verified == 1
        assert buf.charged_rows == trace.batched_evaluations == 12

    def test_stride_sampling_thins_high_cardinality_kinds(self) -> None:
        trace, buf = _detailed(sample_every=3)
        tok = trace.visit(ROOT, "scan")
        for i in range(9):
            trace.lb_check(tok, float(i), 10.0, pruned=False)
        recorded = buf.events_for(tok, kinds=("lb_check",))
        assert len(recorded) == 3  # every 3rd of 9
        assert buf.sampled_out == 6
        assert buf.lb_checks == 9  # aggregate stays exact

    def test_structural_kinds_are_never_sampled(self) -> None:
        trace, buf = _detailed(sample_every=100)
        tok = trace.visit(ROOT, "a")
        trace.prune(tok, 2)
        trace.result(tok, 0, 0.1)
        kinds = [e.kind for e in buf.events]
        assert kinds == ["node_enter", "prune", "result_add"]


class TestTraversalEventDict:
    def test_nan_fields_are_omitted(self) -> None:
        ev = TraversalEvent(seq=0, kind="prune", node=2, count=3)
        d = ev.to_dict()
        assert "value" not in d and "threshold" not in d
        assert d == {"seq": 0, "kind": "prune", "node": 2, "count": 3}

    def test_lb_check_always_carries_pruned(self) -> None:
        ev = TraversalEvent(
            seq=1, kind="lb_check", node=0, value=0.4, threshold=0.5, pruned=False
        )
        d = ev.to_dict()
        assert d["pruned"] is False
        assert d["value"] == pytest.approx(0.4)
        assert d["threshold"] == pytest.approx(0.5)

    def test_node_enter_carries_parent(self) -> None:
        ev = TraversalEvent(seq=0, kind="node_enter", node=5, parent=2, label="leaf")
        d = ev.to_dict()
        assert d["parent"] == 2 and d["label"] == "leaf"

    def test_json_roundtrip_has_no_nan(self) -> None:
        import json

        buf = EventBuffer()
        tok = buf.enter_node(ROOT, "n")
        buf.candidate_verify(tok, 1, float("nan"))
        # allow_nan=False raises on any NaN leaking into the payload.
        payload = json.dumps([e.to_dict() for e in buf.events], allow_nan=False)
        assert "NaN" not in payload
        assert math.isnan(buf.events[-1].value)  # the raw event still has it


class TestPerLabelLowerBoundAggregates:
    """lb_labels: exact per-bound-kind (checks, pruned) counts, the data
    behind EXPLAIN's triangle-vs-Ptolemaic side-by-side section."""

    def test_labels_accumulate_checks_and_prunes(self) -> None:
        buf = EventBuffer()
        tok = buf.enter_node(label="pivot-filter")
        buf.lb_check(tok, 1.0, 0.5, pruned=True, label="pivot-linf")
        buf.lb_check(tok, 0.2, 0.5, pruned=False, label="pivot-linf")
        buf.lb_check(tok, 1.4, 0.5, pruned=True, label="pivot-ptolemaic")
        assert buf.lb_labels == {
            "pivot-linf": [2, 1],
            "pivot-ptolemaic": [1, 1],
        }
        assert buf.lb_checks == 3  # the global aggregate still sees all

    def test_unlabeled_checks_do_not_create_entries(self) -> None:
        buf = EventBuffer()
        buf.lb_check(ROOT, 1.0, 0.5, pruned=True)
        assert buf.lb_labels == {}
        assert buf.lb_checks == 1

    def test_labels_stay_exact_under_bounding_and_sampling(self) -> None:
        trace, buf = _detailed(max_events=2, sample_every=7)
        for i in range(100):
            trace.lb_check(ROOT, float(i), 50.0, pruned=i > 50, label="pivot-linf")
        assert buf.lb_labels["pivot-linf"] == [100, 49]
        assert len(buf.events) <= 2

    def test_count_parameter_is_respected(self) -> None:
        buf = EventBuffer()
        buf.lb_check(ROOT, 1.0, 0.5, pruned=True, count=10, label="pivot-best")
        assert buf.lb_labels["pivot-best"] == [10, 10]
