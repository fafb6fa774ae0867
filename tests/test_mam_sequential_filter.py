"""The QFD sequential scan's certified lower bound against the plain scan.

``SequentialFile`` under a QFD rules rows out by an O(n + k) lower bound
(``mu ||v - q||^2 + ||(v - q) W||^2`` less every rounding error),
evaluates a seed of the rows of smallest bound in float64, cuts at the
seed's k-th distance (``r`` for range) and evaluates in float64 only the
rows whose bound is within the cut.  Held here against the unfiltered scan
(``port.compute_many`` over every row, the filter switched off by raising
its size floor): identical ``(index, distance)`` lists bit for bit,
identical charged counts and an identical EXPLAIN event stream — for
k = 1, k >= m, a tie at the k-th distance, range with r = 0 and r = inf,
insert-then-query, the float32 memory-mapped twin, a snapshot round-trip,
a thread-executor batch, racing first queries, a matrix whose ``mu``
prunes nothing, a failed rank-k certificate (the rank-0 bound) and the
512-d benchmark corpus, where the bound must rule out >= 95 % of the
rows.  The shadow, its norms and the projected rows are in neither a
pickle nor a snapshot.
"""

from __future__ import annotations

import pickle
import sys
import threading
import zipfile

import numpy as np
import pytest

from repro.datasets import histogram_workload
from repro.kernels import QFDKernel, gram
from repro.mam import sequential
from repro.models import QFDModel, explain_query, load_built_index

M = 400


@pytest.fixture(scope="module")
def workload():
    """512-d: the bound's size floor is 72 rows there."""
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
    """``(rows evaluated, rows)`` of every bounded scan from now on."""
    seen = []
    survivors = sequential._survivors

    def spy(port, query, data, *args):
        kept = survivors(port, query, data, *args)
        rows = data.shape[0]
        seen.append((rows if kept is None else kept[0].shape[0], rows))
        return kept

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
        # The seed (2k rows), then the rest of the rows within its cut.
        assert len(calls) == 2 and calls[0] == 20 and sum(calls) < M // 4
        assert seen == [(sum(calls), M)]

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
        am = built.access_method
        shadow = am._shadow
        assert shadow.shape == (M, data.shape[1])
        assert np.array_equal(shadow, gram.qfd_shadow(data))
        assert np.array_equal(am._norms, gram.shadow_norms(shadow))
        # Products of other heights (one inserted row is a gemv) may move
        # the last ulp; the bound holds for any order of the sums.
        projected = am.distance.kernel.project(gram.qfd_shadow(data))
        assert am._projected.shape == projected.shape
        assert np.allclose(am._projected, projected, rtol=1e-12, atol=1e-15)
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
        kernel = mmap.access_method.distance.kernel
        assert np.array_equal(mmap.access_method._projected, kernel.project(rows32))

    def test_snapshot_round_trip(self, workload, unfiltered, tmp_path) -> None:
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        before = built.save(tmp_path / "before.npz")
        built.knn_search(queries[0], 10)
        assert built.access_method._shadow is not None
        assert built.access_method._projected is not None
        after = built.save(tmp_path / "after.npz")
        with zipfile.ZipFile(before) as a, zipfile.ZipFile(after) as b:
            assert a.namelist() == b.namelist()
            assert not any(
                word in name for name in b.namelist() for word in ("shadow", "norms", "projected")
            )
        assert built.access_method.structural_state() == {}
        restored = load_built_index(after)
        assert restored.access_method._shadow is None
        assert restored.access_method._norms is None
        assert restored.access_method._projected is None
        _assert_same_scan(restored, queries, unfiltered, k=10)

    def test_the_shadow_is_not_pickled(self, workload) -> None:
        matrix, data, queries = workload
        am = QFDModel(matrix).build_index("sequential", data).access_method
        cold = len(pickle.dumps(am))
        am.knn_search(queries[0], 3)
        assert am._shadow is not None and am._norms is not None
        assert am._projected is not None
        payload = pickle.dumps(am)
        for key in (b"_shadow", b"_norms", b"_projected"):
            assert key not in payload
        assert len(payload) < cold + 64  # the counter's totals, not the shadow
        copy = pickle.loads(payload)
        for key in ("_shadow", "_norms", "_projected"):
            assert key not in vars(copy) and getattr(copy, key) is None
        assert copy.knn_search(queries[1], 3) == am.knn_search(queries[1], 3)
        assert np.array_equal(copy._norms, am._norms)
        assert np.array_equal(copy._projected, am._projected)

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
        # lambda_min 1e-8 of the largest: mu ||v - q||^2 is under every cut,
        # so with the rank-k term off (rank 0) every row is evaluated; with
        # it, the top eigenvalues rule rows out again.
        _, data, queries = workload
        n = data.shape[1]
        basis, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((n, n)))
        matrix = (basis * np.logspace(-8, 0, n)) @ basis.T
        matrix = (matrix + matrix.T) / 2
        for rank in (0, gram._SPECTRAL_RANK):
            with pytest.MonkeyPatch.context() as patch:  # outlives `unfiltered`
                patch.setattr(gram, "_SPECTRAL_RANK", rank)
                seen = _spy_survivors(patch)
                built = QFDModel(matrix).build_index("sequential", data)
                _assert_same_scan(built, queries[:4], unfiltered, k=10)
                _assert_same_scan(built, queries[:4], unfiltered, radius=0.05)
            kernel = built.access_method.distance.kernel
            assert 0.0 < kernel.mu < 1e-8 and kernel.weights.shape == (n, rank)
            assert len(seen) == 8 and all(rows == M for _, rows in seen)
            if rank == 0:
                assert all(kept == M for kept, _ in seen)
            else:
                assert any(kept < M // 2 for kept, _ in seen)

    def test_a_failed_rank_k_certificate_falls_back_to_mu(
        self, workload, unfiltered, monkeypatch
    ) -> None:
        # W doubled: the deflated matrix is indefinite and its certificate
        # fails, so the scan runs on the rank-0 bound, mu = lambda_min_floor.
        matrix, data, queries = workload
        deflation = gram._deflation
        with pytest.MonkeyPatch.context() as patch:  # outlives `unfiltered`
            patch.setattr(gram, "_deflation", lambda sym, shift: 2.0 * deflation(sym, shift))
            seen = _spy_survivors(patch)
            built = QFDModel(matrix).build_index("sequential", data)
            _assert_same_scan(built, queries, unfiltered, k=10)
            _assert_same_scan(built, queries[:4], unfiltered, radius=0.1)
        kernel = built.access_method.distance.kernel
        assert kernel.weights.shape == (data.shape[1], 0)
        assert built.access_method._projected.shape == (M, 0)
        assert kernel.mu == gram.lambda_min_floor(matrix) > 0.0
        assert all(kept < M // 2 for kept, _ in seen[: len(queries)])

    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_the_cut_keeps_what_any_lower_bound_allows(self, workload, k) -> None:
        # Squared distances scaled by random factors in [0, 1) are lower
        # bounds that order the rows unlike the distances, so the seed
        # misses answer rows and the cut alone must keep them; the squared
        # form before its root is the tightest bound, which only the cut's
        # slack keeps where the root rounds down.
        matrix, data, queries = workload
        port = QFDModel(matrix).build_index("sequential", data).access_method.distance
        rng = np.random.default_rng(k)
        for q in queries:
            exact = port.compute_many(q, data)
            kth = np.partition(exact, k - 1)[k - 1]
            diff = gram._flush_subnormals(data - q)
            squared = np.einsum("ij,ij->i", diff @ matrix, diff)
            for bound in (squared, exact * exact * rng.uniform(0.0, 1.0, M)):
                for tighter in (None, lambda rows: bound[rows]):
                    kept = sequential._survivors(port, q, data, bound, tighter, k, np.inf)
                    rows, distances = kept if kept is not None else (np.arange(M), exact)
                    assert np.all(np.diff(rows) > 0)
                    assert np.array_equal(distances, exact[rows])
                    assert set(np.flatnonzero(exact <= kth)) <= set(rows.tolist())

    def test_a_tie_the_seed_splits(self, workload) -> None:
        # Rows 3, 7 and 250 are equal.  Only row 3 enters the seed (its bound
        # halved, the rest of the seed far rows at -inf), so the cut is its
        # distance squared; rows 7 and 250, bounded by their exact squared
        # form, stay only through the cut's slack where the root rounded down.
        matrix, data, _ = workload
        port = QFDModel(matrix).build_index("sequential", data).access_method.distance
        needed = 0
        for t in np.linspace(1e-4, 1e-2, 40):
            near = data[3] + t * (data[11] - data[3])
            exact = port.compute_many(near, data)
            diff = gram._flush_subnormals(data - near)
            bound = np.einsum("ij,ij->i", diff @ matrix, diff)
            needed += exact[3] * exact[3] < bound[7]
            bound[3] *= 0.5
            bound[np.argsort(exact)[-sequential._refine_rows(data.shape[1]) + 1 :]] = -np.inf
            rows, _ = sequential._survivors(port, near, data, bound, None, 1, np.inf)
            assert {3, 7, 250} <= set(rows.tolist())
        assert needed

    def test_the_512d_benchmark_corpus(self, unfiltered, monkeypatch) -> None:
        # The bound must rule out most rows, or the cut has silently switched off.
        w = histogram_workload(4000, 10, bins_per_channel=8, seed=2011)
        built = QFDModel(w.matrix).build_index("sequential", w.database)
        seen = _spy_survivors(monkeypatch)
        _assert_same_scan(built, w.queries, unfiltered, k=10)
        assert len(seen) == len(w.queries)
        assert np.median([kept / rows for kept, rows in seen]) <= 0.05, seen

    def test_racing_first_queries_build_one_shadow(
        self, workload, unfiltered, monkeypatch
    ) -> None:
        # More threads than cores, switching every microsecond: the shadow,
        # its norms, the projected rows and the kernel's W are built once,
        # and every racing query gets the unfiltered scan's answer.
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        am = built.access_method
        builds, projections, floors = [], [], []
        shadow_of, project, floor = gram.qfd_shadow, QFDKernel.project, gram.spectral_floor

        def counted(rows):
            builds.append(rows.shape[0])
            return shadow_of(rows)

        def counted_project(kernel, rows):
            projections.append(rows.shape[0])
            return project(kernel, rows)

        def counted_floor(*args):
            floors.append(1)
            return floor(*args)

        monkeypatch.setattr(gram, "qfd_shadow", counted)
        monkeypatch.setattr(QFDKernel, "project", counted_project)
        monkeypatch.setattr(gram, "spectral_floor", counted_floor)
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
        assert builds == [M] and projections == [M] and floors == [1]
        monkeypatch.undo()
        shadow, norms, projected = am._shadow, am._norms, am._projected
        assert am._shadow_buffer is shadow and am._norms_buffer is norms
        assert am._projected_buffer is projected
        assert np.array_equal(norms, gram.shadow_norms(gram.qfd_shadow(data)))
        assert np.array_equal(projected, am.distance.kernel.project(shadow))
        fresh = QFDModel(matrix).build_index("sequential", data)
        with unfiltered:
            assert [answers[pos] for pos in range(6)] == [
                fresh.knn_search(q, 10) for q in queries[:6]
            ]
