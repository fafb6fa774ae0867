"""The QFD sequential scan's certified float32 filter against the plain scan.

``SequentialFile`` under a QFD first rules rows out by an O(n) lower
bound (``mu ||v - q||^2`` less every rounding error), computes the rest in
float32 over a shadow copy and re-evaluates in float64 only the rows the
error bound cannot rule out.  Held here against the unfiltered scan
(``port.compute_many`` over every row, the filter switched off by raising
its size floor): identical ``(index, distance)`` lists bit for bit,
identical charged counts and an identical EXPLAIN event stream — for
k = 1, k >= m, a tie at the k-th distance, range with r = 0 and r = inf,
insert-then-query, the float32 memory-mapped twin, a snapshot round-trip,
a thread-executor batch, a matrix whose ``mu`` prunes nothing and the
512-d benchmark corpus, where the bound must rule out most rows.  The
shadow and its norms are in neither a pickle nor a snapshot.
"""

from __future__ import annotations

import pickle
import sys
import threading
import zipfile

import numpy as np
import pytest

from repro.datasets import histogram_workload
from repro.kernels import gram
from repro.mam import sequential
from repro.models import QFDModel, explain_query, load_built_index

M = 400


@pytest.fixture(scope="module")
def workload():
    """512-d: the filter's size floor is 112 rows there."""
    w = histogram_workload(M, 12, bins_per_channel=8, seed=2011)
    data = w.database.copy()
    data[7] = data[3]  # duplicates: a tie at any k they reach
    data[250] = data[3]
    return w.matrix, data, w.queries


@pytest.fixture()
def unfiltered(monkeypatch):
    """Switch the filter off for the indexes queried inside the block."""

    class Off:
        def __enter__(self):
            monkeypatch.setattr(sequential, "_FILTER_MIN_REFINES", 10**9)

        def __exit__(self, *exc):
            monkeypatch.undo()

    return Off()


def _observed(built, query, **kind):
    """Answer, charged evaluations and EXPLAIN events of one query."""
    plan = explain_query(built, query, **kind)
    return plan.answer, (plan.counter_calls, plan.counter_rows), plan.events


def _assert_same_scan(built, queries, unfiltered, **kind):
    filtered = [_observed(built, q, **kind) for q in queries]
    with unfiltered:
        plain = [_observed(built, q, **kind) for q in queries]
    assert filtered == plain
    return filtered


def _spy_survivors(monkeypatch) -> list[tuple[int, int]]:
    """``(survivors, rows)`` of every pruned scan from now on."""
    seen = []
    survivors = sequential._survivors

    def spy(kernel, query, shadow, *args):
        rows = survivors(kernel, query, shadow, *args)
        seen.append((rows.shape[0], shadow.shape[0]))
        return rows

    monkeypatch.setattr(sequential, "_survivors", spy)
    return seen


class TestTheFilterIsTheScan:
    def test_the_filter_runs(self, workload, monkeypatch) -> None:
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        calls = []
        refine = sequential._refine

        def spy(port, query, rows_data, rows):
            calls.append(rows.shape[0])
            return refine(port, query, rows_data, rows)

        monkeypatch.setattr(sequential, "_refine", spy)
        seen = _spy_survivors(monkeypatch)
        built.knn_search(queries[0], 10)
        assert len(calls) == 1 and 10 <= calls[0] < M // 4
        assert seen[0][1] == M and 10 <= seen[0][0] < M // 2

    @pytest.mark.parametrize("k", [1, 10, M, M + 5])
    def test_knn(self, workload, unfiltered, k) -> None:
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        _assert_same_scan(built, queries, unfiltered, k=k)

    def test_a_tie_at_the_kth_distance(self, workload, unfiltered) -> None:
        matrix, data, _ = workload
        built = QFDModel(matrix).build_index("sequential", data)
        near = data[3] + 1e-4 * (data[11] - data[3])
        plain = built.access_method.distance.compute_many(near, data)
        assert plain[3] == plain[7] == plain[250]
        k = int(np.count_nonzero(plain < plain[3])) + 2  # two of three tied rows
        (answer, _, _), = _assert_same_scan(built, [near], unfiltered, k=k)
        assert [i for i, _ in answer[-2:]] == [3, 7]

    @pytest.mark.parametrize("radius", [0.0, 0.05, 0.2, np.inf])
    def test_range(self, workload, unfiltered, radius) -> None:
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        probes = np.vstack([queries[:6], data[3:4]])  # data[3]: hits at r = 0
        results = _assert_same_scan(built, probes, unfiltered, radius=radius)
        if radius == 0.0:
            assert [i for i, _ in results[-1][0]] == [3, 7, 250]
        if radius == np.inf:
            assert all(len(answer) == M for answer, _, _ in results)

    def test_insert_then_query(self, workload, unfiltered) -> None:
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data[:300])
        built.knn_search(queries[0], 5)  # builds the shadow
        for row in data[300:]:
            built.insert(row)
        shadow = built.access_method._shadow
        assert shadow.shape == (M, data.shape[1])
        assert np.array_equal(shadow, gram.qfd_shadow(data))
        assert np.array_equal(built.access_method._norms, gram.shadow_norms(shadow))
        _assert_same_scan(built, queries, unfiltered, k=10)
        _assert_same_scan(built, queries[:4], unfiltered, radius=0.1)

    def test_float32_mmap_twin(self, workload, unfiltered, tmp_path) -> None:
        matrix, data, queries = workload
        model = QFDModel(matrix)
        heap = model.build_index("sequential", data, store_dtype="float32")
        mmap = model.build_index(
            "sequential", data, store="mmap", store_path=tmp_path / "rows.bin"
        )
        assert mmap.access_method.database.dtype == np.float32
        for kind in ({"k": 10}, {"radius": 0.1}):
            heap_runs = _assert_same_scan(heap, queries, unfiltered, **kind)
            mmap_runs = _assert_same_scan(mmap, queries, unfiltered, **kind)
            assert heap_runs == mmap_runs
        assert mmap.access_method._shadow is None  # the rows are their own
        rows32 = mmap.access_method.database
        assert np.array_equal(mmap.access_method._norms, gram.shadow_norms(rows32))

    def test_snapshot_round_trip(self, workload, unfiltered, tmp_path) -> None:
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        before = built.save(tmp_path / "before.npz")
        built.knn_search(queries[0], 10)
        assert built.access_method._shadow is not None
        after = built.save(tmp_path / "after.npz")
        with zipfile.ZipFile(before) as a, zipfile.ZipFile(after) as b:
            assert a.namelist() == b.namelist()
            assert not any("shadow" in name or "norms" in name for name in b.namelist())
        assert built.access_method.structural_state() == {}
        restored = load_built_index(after)
        assert restored.access_method._shadow is None
        assert restored.access_method._norms is None
        _assert_same_scan(restored, queries, unfiltered, k=10)

    def test_the_shadow_is_not_pickled(self, workload) -> None:
        matrix, data, queries = workload
        am = QFDModel(matrix).build_index("sequential", data).access_method
        cold = len(pickle.dumps(am))
        am.knn_search(queries[0], 3)
        assert am._shadow is not None and am._norms is not None
        payload = pickle.dumps(am)
        assert b"_shadow" not in payload and b"_norms" not in payload
        assert len(payload) < cold + 64  # the counter's totals, not the shadow
        copy = pickle.loads(payload)
        assert "_shadow" not in vars(copy) and copy._shadow is None
        assert "_norms" not in vars(copy) and copy._norms is None
        assert copy.knn_search(queries[1], 3) == am.knn_search(queries[1], 3)
        assert np.array_equal(copy._norms, am._norms)

    def test_thread_executor_batch(self, workload, unfiltered) -> None:
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        knn = built.knn_search_batch(queries, 10, executor="thread", workers=3)
        ranged = built.range_search_batch(queries, 0.1, executor="thread", workers=3)
        filtered_costs = built.query_costs().distance_computations
        fresh = QFDModel(matrix).build_index("sequential", data)
        with unfiltered:
            assert knn == [fresh.knn_search(q, 10) for q in queries]
            assert ranged == [fresh.range_search(q, 0.1) for q in queries]
        assert filtered_costs == fresh.query_costs().distance_computations == 2 * M * len(queries)

    def test_batch_range_equals_single(self, workload) -> None:
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        am = built.access_method
        for radius in (0.0, 0.1, np.inf):
            assert am.range_search_batch(queries, radius) == [
                am.range_search(q, radius) for q in queries
            ]

    def test_a_matrix_whose_mu_prunes_nothing(self, workload, unfiltered, monkeypatch) -> None:
        # lambda_min 1e-8 of the largest: mu ||v - q||^2 is under every cut.
        _, data, queries = workload
        n = data.shape[1]
        basis, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((n, n)))
        matrix = (basis * np.logspace(-8, 0, n)) @ basis.T
        matrix = (matrix + matrix.T) / 2
        built = QFDModel(matrix).build_index("sequential", data)
        seen = _spy_survivors(monkeypatch)
        _assert_same_scan(built, queries[:4], unfiltered, k=10)
        _assert_same_scan(built, queries[:4], unfiltered, radius=0.05)
        assert 0.0 < built.access_method.distance.kernel.mu < 1e-8
        assert seen and all(kept == rows == M for kept, rows in seen)

    def test_the_512d_benchmark_corpus(self, unfiltered, monkeypatch) -> None:
        # The bound must rule out most rows, or the cut has silently switched off.
        w = histogram_workload(4000, 10, bins_per_channel=8, seed=2011)
        built = QFDModel(w.matrix).build_index("sequential", w.database)
        seen = _spy_survivors(monkeypatch)
        _assert_same_scan(built, w.queries, unfiltered, k=10)
        assert len(seen) == len(w.queries)
        assert all(kept <= 0.2 * rows for kept, rows in seen), seen

    def test_racing_first_queries_build_one_shadow(
        self, workload, unfiltered, monkeypatch
    ) -> None:
        # More threads than cores, switching every microsecond: the shadow
        # and its norms are built once, and every racing query gets the
        # unfiltered scan's answer.
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        am = built.access_method
        builds = []
        shadow_of = gram.qfd_shadow

        def counted(rows):
            builds.append(rows.shape[0])
            return shadow_of(rows)

        monkeypatch.setattr(gram, "qfd_shadow", counted)
        barrier = threading.Barrier(6, timeout=60)
        answers: dict[int, list] = {}

        def first_query(pos: int) -> None:
            barrier.wait()
            answers[pos] = am.knn_search(queries[pos], 10)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_query, args=(pos,)) for pos in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert builds == [M]
        monkeypatch.undo()
        shadow, norms = am._shadow, am._norms
        assert am._shadow_buffer is shadow and am._norms_buffer is norms
        assert np.array_equal(norms, gram.shadow_norms(gram.qfd_shadow(data)))
        fresh = QFDModel(matrix).build_index("sequential", data)
        with unfiltered:
            assert [answers[pos] for pos in range(6)] == [
                fresh.knn_search(q, 10) for q in queries[:6]
            ]
