"""Sampling-profiler tests: attribution, formats, and inertness.

The profiler must (1) attribute samples to the sampled thread's open
span, (2) export valid collapsed-stack text and speedscope JSON, and
(3) stay perfectly inert unless started — nothing here may ever move a
distance counter.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.obs import (
    PROFILE_SAMPLES,
    MetricsRegistry,
    SamplingProfiler,
    span,
    use_registry,
)


def _own_frame():
    return sys._current_frames()[threading.get_ident()]


class TestSampling:
    def test_sample_once_records_this_thread(self) -> None:
        profiler = SamplingProfiler(hz=10)
        ident = threading.get_ident()
        recorded = profiler.sample_once({ident: _own_frame()})
        assert recorded == 1
        assert profiler.sample_count == 1
        (stack,) = profiler.stacks()
        # root-first: thread name, phase, outermost frame ... innermost.
        assert stack[0] == threading.current_thread().name
        assert stack[1] == "(no span)"
        assert any("test_obs_prof" in frame for frame in stack[2:])

    def test_samples_attributed_to_open_span(self) -> None:
        profiler = SamplingProfiler(hz=10)
        reg = MetricsRegistry()
        ident = threading.get_ident()
        with use_registry(reg), span("query/batch/knn"):
            profiler.sample_once({ident: _own_frame()})
        assert profiler.phase_counts() == {"query/batch/knn": 1}

    def test_identical_stacks_aggregate(self) -> None:
        profiler = SamplingProfiler(hz=10)
        ident = threading.get_ident()
        frame = _own_frame()
        for _ in range(5):
            profiler.sample_once({ident: frame})
        assert profiler.sample_count == 5
        assert len(profiler.stacks()) == 1

    def test_max_depth_caps_the_stack(self) -> None:
        profiler = SamplingProfiler(hz=10, max_depth=2)
        ident = threading.get_ident()
        profiler.sample_once({ident: _own_frame()})
        (stack,) = profiler.stacks()
        assert len(stack) == 2 + 2  # thread name + phase + 2 frames

    def test_live_thread_sampling(self) -> None:
        with SamplingProfiler(hz=500) as profiler:
            deadline = time.perf_counter() + 1.0
            while profiler.sample_count == 0 and time.perf_counter() < deadline:
                time.sleep(0.01)
        assert profiler.sample_count > 0
        assert not profiler.running

    def test_bad_parameters_rejected(self) -> None:
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(hz=10, max_depth=0)


class TestExports:
    def _sampled(self) -> SamplingProfiler:
        profiler = SamplingProfiler(hz=100)
        ident = threading.get_ident()
        frame = _own_frame()
        for _ in range(3):
            profiler.sample_once({ident: frame})
        return profiler

    def test_collapsed_format(self) -> None:
        text = self._sampled().collapsed()
        assert text.endswith("\n")
        (line,) = text.strip().splitlines()
        stack, count = line.rsplit(" ", 1)
        assert count == "3"
        assert ";" in stack

    def test_collapsed_empty_profile(self) -> None:
        assert SamplingProfiler(hz=10).collapsed() == ""

    def test_speedscope_document(self) -> None:
        profiler = self._sampled()
        doc = profiler.speedscope(name="unit test")
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        (profile,) = doc["profiles"]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"]) == 1
        # Weights are seconds: count * configured interval.
        assert profile["weights"][0] == pytest.approx(3 * profiler.interval)
        n_frames = len(doc["shared"]["frames"])
        assert all(i < n_frames for i in profile["samples"][0])
        json.dumps(doc)  # must be serializable as-is

    def test_write_picks_format_by_extension(self, tmp_path) -> None:
        profiler = self._sampled()
        txt = profiler.write(tmp_path / "profile.txt")
        scope = profiler.write(tmp_path / "profile.json")
        assert txt.read_text().strip().endswith(" 3")
        loaded = json.loads(scope.read_text())
        assert loaded["profiles"][0]["type"] == "sampled"

    def test_record_to_mirrors_phase_counts(self) -> None:
        reg = MetricsRegistry()
        profiler = SamplingProfiler(hz=10)
        ident = threading.get_ident()
        with use_registry(reg), span("build/mtree"):
            profiler.sample_once({ident: _own_frame()})
        profiler.sample_once({ident: _own_frame()})  # outside any span
        profiler.record_to(reg)
        counter = reg.counter(PROFILE_SAMPLES)
        assert counter.value(span="build/mtree") == 1
        assert counter.value(span="(no span)") == 1


class TestInertness:
    def test_not_started_means_no_thread(self) -> None:
        profiler = SamplingProfiler(hz=10)
        assert not profiler.running
        assert profiler.sample_count == 0
        profiler.stop()  # stop before start is a harmless no-op

    def test_profiling_never_perturbs_distance_counts(self) -> None:
        import numpy as np

        from repro.core import random_spd_matrix
        from repro.models import QMapModel

        rng = np.random.default_rng(17)
        matrix = random_spd_matrix(6, rng=rng, condition=6.0)
        data = rng.uniform(0.0, 1.0, size=(60, 6))
        queries = rng.uniform(0.0, 1.0, size=(4, 6))

        def run(profiled: bool):
            built = QMapModel(matrix).build_index("mtree", data, capacity=8)
            built.reset_query_costs()
            if profiled:
                with SamplingProfiler(hz=1000):
                    answers = [built.knn_search(q, 3) for q in queries]
            else:
                answers = [built.knn_search(q, 3) for q in queries]
            return (
                built.query_costs().distance_computations,
                [[(n.index, n.distance) for n in a] for a in answers],
            )

        assert run(False) == run(True)
