"""The QFD sequential scan's certified filter against the plain scan.

``SequentialFile`` under a QFD tests every row's O(k) sum ``c``, the Gram
form of ``||(v - q) W||^2`` (``W = G V``, ``V`` the L2 filter's basis of
the rows mapped by the Cholesky factor ``G``, fitted by the first
bounded query), against the rank-k stage's cut; reads the
mapped stage's O(n) sum ``s = ||M - q G||^2`` of a seed of the rows of
smallest ``c`` (from the rows mapped by the QFD's Cholesky factor,
float32, each mapped the first time a query reaches it); cuts at ``hi`` of
the seed's k-th ``s`` (``r`` for range), narrows that cut by the rows
whose ``c`` is within it, and evaluates in float64 only those whose ``s``
is within the mapped stage's cut.  Held here against the unfiltered
scan (``port.compute_many`` over every row, the filter switched off by
raising its size floor): identical ``(index, distance)`` lists bit for
bit, identical charged counts and an identical EXPLAIN event stream — for
k = 1, k >= m, a tie at the k-th distance, range with r = 0 and r = inf,
insert-then-query (an inserted row above the norm bound raises it, and
every inserted row is projected on the kept ``W``), the float32
memory-mapped twin, a snapshot round-trip, a thread-executor batch, racing
first queries (which fit ``W`` once and map each row once), queries by
example at the scan's own ``d1`` and ``d10``, a near-singular matrix, a
refused ``V`` (the mapped stage over every row), non-finite and
out-of-range rows (no stage) and the 512-d benchmark corpus, where the
median query evaluates at most 2k rows in float64.  ``W``, the projected
and the mapped rows are in neither a pickle nor a snapshot; a restored
or unpickled copy fits the same ``W`` bit for bit and maps the same
rows; and the cached first-stage operands give the sums the uncached
formula gives, bit for bit.
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
    survivors = sequential._mapped_survivors

    def spy(port, query, data, *args):
        kept = survivors(port, query, data, *args)
        rows = data.shape[0]
        seen.append((rows if kept is None else kept[0].shape[0], rows))
        return kept

    monkeypatch.setattr(sequential, "_mapped_survivors", spy)
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
        # One float64 evaluation, of the rows whose interval can answer.
        assert len(calls) == 1 and 10 <= calls[0] <= 20
        assert seen == [(calls[0], M)]
        mapped = built.access_method._qfd_rows._done
        assert 20 <= np.count_nonzero(mapped) < M // 2  # the seed and the candidates

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

    def test_queries_by_example(self, workload, unfiltered) -> None:
        # Database rows as queries, at the unfiltered scan's own d1 (0: the
        # row itself and its duplicates) and d10: (index, distance) pairs
        # compared exactly, kNN and range.
        matrix, data, _ = workload
        built = QFDModel(matrix).build_index("sequential", data)
        plain = QFDModel(matrix).build_index("sequential", data)
        for row in (3, 7, 11, 120, 399):
            query = data[row]
            with unfiltered:
                want = plain.knn_search(query, 10)
                radii = (want[0].distance, want[-1].distance)
                ranged = [plain.range_search(query, r) for r in radii]
            assert (want[0].distance, want[0].index) == (0.0, 3 if row in (3, 7) else row)
            assert built.knn_search(query, 10) == want
            assert [built.range_search(query, r) for r in radii] == ranged

    def test_insert_then_query(self, workload, unfiltered) -> None:
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data[:300])
        built.knn_search(queries[0], 5)  # projects the rows, maps some
        for row in data[300:]:
            built.insert(row)
        rows = built.access_method._qfd_rows
        assert rows.size == M and not rows._done[300:M].any()
        kernel = built.access_method.distance.kernel
        # W is the one the first query fitted to the first 300 rows; the
        # inserted rows are projected on it.  Products of other heights (one
        # inserted row is a gemv) may move the last ulp; the stages hold
        # for any order of the sums.
        weights = rows.fitted[1]
        assert np.array_equal(weights, kernel.fit(data[:300])[1])
        projected, squares, v_norm = gram.qfd_project(weights, data)
        assert np.allclose(rows._projected[:M], projected, rtol=1e-12, atol=1e-15)
        assert np.allclose(rows._squares[:M], squares, rtol=1e-12, atol=0)
        assert rows.v_norm == v_norm  # the largest row's own sum
        _assert_same_scan(built, queries, unfiltered, k=10)
        _assert_same_scan(built, queries[:4], unfiltered, radius=0.1)
        assert rows._done[300:M].any()  # inserted rows are mapped on demand

    def test_an_insert_above_the_norm_bound(self, workload, unfiltered) -> None:
        # A row longer than every stored one raises V before it is counted,
        # and the mapped stage's error bound when it is mapped.
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        built.knn_search(queries[0], 10)
        rows = built.access_method._qfd_rows
        before, mapped_before = rows.v_norm, rows.m_error
        far = 3.0 * data[int(np.argmax(np.einsum("ij,ij->i", data, data)))]
        built.insert(far)
        assert rows.size == M + 1 and rows.v_norm > before
        assert rows.v_norm == gram.qfd_project(rows.fitted[1], far[None, :])[2]
        _assert_same_scan(built, np.vstack([queries, far]), unfiltered, k=10)
        _assert_same_scan(built, [far, 0.5 * far], unfiltered, radius=0.05)
        assert rows._done[M] and rows.m_error > mapped_before  # far answers itself

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
        rows32 = mmap.access_method.database
        kernel = mmap.access_method.distance.kernel
        rows = mmap.access_method._qfd_rows
        for got, want in zip(rows.fitted[:2], heap.access_method._qfd_rows.fitted[:2]):
            assert np.array_equal(got, want)
        projected, squares, v_norm = gram.qfd_project(rows.fitted[1], rows32)
        assert np.array_equal(rows._projected, projected)
        assert np.array_equal(rows._squares, squares) and rows.v_norm == v_norm
        done = np.flatnonzero(rows._done)
        assert np.array_equal(rows._mapped[done], kernel.map(rows32[done])[0])

    def test_snapshot_round_trip(self, workload, unfiltered, tmp_path) -> None:
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        before = built.save(tmp_path / "before.npz")
        built.knn_search(queries[0], 10)
        assert built.access_method._qfd_rows._done.any()
        after = built.save(tmp_path / "after.npz")
        with zipfile.ZipFile(before) as a, zipfile.ZipFile(after) as b:
            assert a.namelist() == b.namelist()
            assert not any(
                word in name for name in b.namelist() for word in ("mapped", "projected")
            )
        assert built.access_method.structural_state() == {}
        restored = load_built_index(after)
        assert restored.access_method._qfd_rows is None
        restored.knn_search(queries[0], 10)
        # The restored scan fits W anew, bit for bit the original's, and
        # the same query maps the same candidate rows.
        original, copy = built.access_method._qfd_rows, restored.access_method._qfd_rows
        for got, want in zip(copy.fitted[:2], original.fitted[:2]):
            assert np.array_equal(got, want)
        assert copy.fitted[2] == original.fitted[2]
        assert np.array_equal(copy._done, original._done)
        _assert_same_scan(restored, queries, unfiltered, k=10)

    def test_the_mapped_rows_are_not_pickled(self, workload) -> None:
        matrix, data, queries = workload
        am = QFDModel(matrix).build_index("sequential", data).access_method
        cold = len(pickle.dumps(am))
        am.knn_search(queries[0], 3)
        assert am._qfd_rows is not None and am._qfd_rows._done.any()
        payload = pickle.dumps(am)
        for key in (b"_qfd_rows", b"_QFDRows", b"_mapped", b"_projected"):
            assert key not in payload
        assert len(payload) < cold + 64  # the counter's totals, not the rows
        copy = pickle.loads(payload)
        assert "_qfd_rows" not in vars(copy) and copy._qfd_rows is None
        assert copy.knn_search(queries[0], 3) == am.knn_search(queries[0], 3)
        # The copy's W and the rows its first query maps are the
        # original's, bit for bit.
        for got, want in zip(copy._qfd_rows.fitted[:2], am._qfd_rows.fitted[:2]):
            assert np.array_equal(got, want)
        assert np.array_equal(copy._qfd_rows._done, am._qfd_rows._done)
        assert np.array_equal(copy._qfd_rows._projected, am._qfd_rows._projected)
        assert copy._qfd_rows.v_norm == am._qfd_rows.v_norm

    def test_the_first_stage_cache_is_the_formula(self, workload) -> None:
        # The projected rows and their norm bound are made once; the sums
        # and the cut they give are, bit for bit, those recomputed from the
        # rows.
        matrix, data, queries = workload
        am = QFDModel(matrix).build_index("sequential", data).access_method
        am.knn_search(queries[0], 10)
        kernel, rows = am.distance.kernel, am._qfd_rows
        flushed = gram._flush_subnormals(data)
        squares = np.einsum("ij,ij->i", flushed, flushed)
        assert rows.v_norm == gram._norm_up(squares.max(), 2 * data.shape[1])
        fitted = kernel.fit(data)
        for q in queries:
            (cached, cached_cut), _ = rows.stages(kernel, q, data)
            projected, p_squares, v_norm = gram.qfd_project(fitted[1], data)
            fresh, fresh_cut = kernel.stages(q, fitted, v_norm)[0](projected, p_squares)
            assert np.array_equal(cached, fresh)
            assert all(cached_cut(r) == fresh_cut(r) for r in (0.0, 0.01, 1.0))

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
        # lambda_min 1e-8 of the largest, so lambda_min ||v - q||^2 would be
        # under every cut.  The basis of the mapped rows still rules rows out
        # before any is mapped, and the intervals leave a few.
        _, data, queries = workload
        n = data.shape[1]
        basis, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((n, n)))
        matrix = (basis * np.logspace(-8, 0, n)) @ basis.T
        matrix = (matrix + matrix.T) / 2
        with pytest.MonkeyPatch.context() as patch:  # outlives `unfiltered`
            seen = _spy_survivors(patch)
            built = QFDModel(matrix).build_index("sequential", data)
            _assert_same_scan(built, queries[:4], unfiltered, k=10)
            _assert_same_scan(built, queries[:4], unfiltered, radius=0.05)
        rows = built.access_method._qfd_rows
        assert rows.fitted[1].shape == (n, gram._PROJECTION_RANK)
        assert len(seen) == 8 and all(total == M for _, total in seen)
        assert np.count_nonzero(rows._done) < M
        assert all(kept < M // 4 for kept, _ in seen[:4])

    def test_a_failed_rank_k_certificate_runs_the_mapped_stage(
        self, workload, unfiltered, monkeypatch
    ) -> None:
        # V refused: there is no rank-k term, so every row is a candidate,
        # the first query maps them all, and the intervals pick the rows.
        matrix, data, queries = workload
        with pytest.MonkeyPatch.context() as patch:  # outlives `unfiltered`
            patch.setattr(gram, "l2_basis_certified", lambda basis: False)
            seen = _spy_survivors(patch)
            built = QFDModel(matrix).build_index("sequential", data)
            _assert_same_scan(built, queries, unfiltered, k=10)
            _assert_same_scan(built, queries[:4], unfiltered, radius=0.1)
        rows = built.access_method._qfd_rows
        assert rows.fitted[1].shape == (data.shape[1], 0)
        assert rows._projected.shape == (M, 0) and rows._done.all()
        assert all(kept <= 20 for kept, _ in seen[: len(queries)])

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e300, 1e39])
    def test_a_non_finite_row_switches_the_stages_off(
        self, workload, unfiltered, monkeypatch, value
    ) -> None:
        # One norm bound for every row: a NaN or infinite row, or one whose
        # norm overflows, leaves no stage at all, and every query is the
        # unbounded scan.  A finite row of 1e39 widens every cut past the
        # other rows' distances: only that row itself is ruled out.
        matrix, data, queries = workload
        data = data.copy()
        data[5, 0] = value
        built = QFDModel(matrix).build_index("sequential", data)
        seen = _spy_survivors(monkeypatch)
        _assert_same_scan(built, queries[:4], unfiltered, k=10)
        _assert_same_scan(built, queries[:4], unfiltered, radius=0.1)
        rows = built.access_method._qfd_rows
        if value == 1e39:
            assert np.isfinite(rows.v_norm) and not rows._done[5]
            assert seen and all(kept >= M - 1 for kept, _ in seen)
        else:
            assert not np.isfinite(rows.v_norm) and not seen

    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_the_cut_keeps_what_any_lower_bound_allows(self, workload, k) -> None:
        # Squared distances scaled by random factors in [0, 1) are lower
        # bounds that order the rows unlike the distances, so the seed
        # misses answer rows and the cut alone must keep them; mapped sums
        # equal to the squared form before its root are the tightest, which
        # only the cut's slack keeps where the root rounds down.  Loose sums
        # are the form scaled by factors in [0.5, 2]: lo_cut(R) = 2 R and
        # hi(s) = 2 s.
        matrix, data, queries = workload
        port = QFDModel(matrix).build_index("sequential", data).access_method.distance
        rng = np.random.default_rng(k)
        for q in queries:
            exact = port.compute_many(q, data)
            kth = np.partition(exact, k - 1)[k - 1]
            diff = gram._flush_subnormals(data - q)
            squared = np.einsum("ij,ij->i", diff @ matrix, diff)
            loose = squared * rng.uniform(0.5, 2.0, M)
            for c in (squared, exact * exact * rng.uniform(0.0, 1.0, M)):
                for s, scale in ((squared, 1.0), (loose, 2.0)):
                    def squares(rows, s=s, scale=scale):
                        return s[rows], lambda r: scale * r, lambda x: scale * x

                    bound = (c, lambda r: r)
                    kept = sequential._mapped_survivors(port, q, data, bound, squares, k, np.inf)
                    rows, distances = kept if kept is not None else (np.arange(M), exact)
                    assert np.all(np.diff(rows) > 0)
                    assert np.array_equal(distances, exact[rows])
                    assert set(np.flatnonzero(exact <= kth)) <= set(rows.tolist())

    def test_a_tie_the_seed_splits(self, workload) -> None:
        # Rows 3, 7 and 250 are equal.  Only row 3 enters the seed (its bound
        # -inf, the rest of the seed a far row), so the cut is its distance
        # squared; rows 7 and 250, bounded and bracketed by their exact
        # squared form, stay only through the cut's slack where the root
        # rounded down.
        matrix, data, _ = workload
        port = QFDModel(matrix).build_index("sequential", data).access_method.distance
        needed = 0
        for t in np.linspace(1e-4, 1e-2, 40):
            near = data[3] + t * (data[11] - data[3])
            exact = port.compute_many(near, data)
            diff = gram._flush_subnormals(data - near)
            squared = np.einsum("ij,ij->i", diff @ matrix, diff)
            needed += exact[3] * exact[3] < squared[7]
            c = squared.copy()
            c[3] = -np.inf
            c[np.argmax(exact)] = -np.inf

            def squares(rows, squared=squared):
                return squared[rows], lambda r: r, lambda x: x

            bound = (c, lambda r: r)
            rows, _ = sequential._mapped_survivors(port, near, data, bound, squares, 1, np.inf)
            assert {3, 7, 250} <= set(rows.tolist())
        assert needed

    def test_the_512d_benchmark_corpus(self, unfiltered, monkeypatch) -> None:
        # The mechanism: the median query evaluates at most 2k rows in
        # float64 (the seed-and-mu chain evaluated about 59).
        w = histogram_workload(4000, 20, bins_per_channel=8, seed=2011)
        built = QFDModel(w.matrix).build_index("sequential", w.database)
        seen = _spy_survivors(monkeypatch)
        _assert_same_scan(built, w.queries, unfiltered, k=10)
        assert len(seen) == len(w.queries)
        assert np.median([kept for kept, _ in seen]) <= 20, seen

    def test_racing_first_queries_map_each_row_once(
        self, workload, unfiltered, monkeypatch
    ) -> None:
        # More threads than cores, switching every microsecond: W and the
        # projected rows are built once, every row a query reaches is
        # mapped once, and every racing query gets the unfiltered scan's
        # answer.
        matrix, data, queries = workload
        built = QFDModel(matrix).build_index("sequential", data)
        am = built.access_method
        projections, mapped, fits = [], [], []
        project, map_rows, fit = gram.qfd_project, QFDKernel.map, QFDKernel.fit

        def counted_project(weights, rows):
            projections.append(rows.shape[0])
            return project(weights, rows)

        def counted_map(kernel, rows):
            mapped.append(rows.shape[0])
            return map_rows(kernel, rows)

        def counted_fit(kernel, rows):
            fits.append(rows.shape[0])
            return fit(kernel, rows)

        monkeypatch.setattr(gram, "qfd_project", counted_project)
        monkeypatch.setattr(QFDKernel, "map", counted_map)
        monkeypatch.setattr(QFDKernel, "fit", counted_fit)
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
        rows = am._qfd_rows
        assert projections == [M] and fits == [M]
        assert sum(mapped) == np.count_nonzero(rows._done) > 0  # each row once
        monkeypatch.undo()
        kernel = am.distance.kernel
        # The raced W is the one a single first query fits, bit for bit.
        fitted = kernel.fit(data)
        for got, want in zip(rows.fitted[:2], fitted[:2]):
            assert np.array_equal(got, want)
        assert np.array_equal(rows._projected, gram.qfd_project(fitted[1], data)[0])
        done = np.flatnonzero(rows._done)
        want_mapped, want_error = kernel.map(data[done])
        assert np.allclose(rows._mapped[done], want_mapped, rtol=1e-6, atol=0)
        # One bound over rows mapped in several calls (other gemm heights
        # round M differently): it covers every stored row's error.
        assert np.isclose(rows.m_error, want_error, rtol=1e-5, atol=0)
        exact = data[done].astype(np.longdouble) @ kernel.factor.astype(np.longdouble)
        error = np.sqrt(np.sum((rows._mapped[done] - exact) ** 2, axis=1))
        assert float(error.max()) <= rows.m_error
        fresh = QFDModel(matrix).build_index("sequential", data)
        with unfiltered:
            assert [answers[pos] for pos in range(6)] == [
                fresh.knn_search(q, 10) for q in queries[:6]
            ]
