"""Property tests of the distance-kernel layer (:mod:`repro.kernels`).

Randomized checks over random SPD matrices: the QFD kernels and query
context must agree with the scalar quadratic form to tight absolute
tolerance, be one arithmetic (the difference form, bit for bit wherever
they are reached from), hold the metric postulates exactly (zero
self-distance, exact symmetry), and the QMap-space L2 kernels must agree
with the QFD kernels — the paper's central Lemma, here exercised through
the batched forms.
"""

from __future__ import annotations

import importlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qfd import QuadraticFormDistance
from repro.core.qmap import QMap
from repro.distances import CountingDistance, euclidean
from repro.kernels import (
    L2Kernel,
    QFDKernel,
    cached_cholesky,
    cholesky_cache_info,
    clear_cholesky_cache,
    l2_cross,
    l2_one_to_many,
    l2_pairwise,
    qfd_one_to_many,
    qfd_pairwise,
    resolve_kernel,
)

TOL = 1e-9


def _spd_matrix(rng: np.random.Generator, dim: int, *, jitter: float = 0.5) -> np.ndarray:
    """Random symmetric positive-definite matrix with controlled conditioning."""
    basis = rng.normal(size=(dim, dim))
    return basis @ basis.T + jitter * np.eye(dim)


def _rows(rng: np.random.Generator, m: int, dim: int) -> np.ndarray:
    return rng.normal(size=(m, dim))


@st.composite
def qfd_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    dim = draw(st.integers(min_value=2, max_value=12))
    m = draw(st.integers(min_value=1, max_value=24))
    rng = np.random.default_rng(seed)
    matrix = _spd_matrix(rng, dim)
    return matrix, _rows(rng, m, dim), rng.normal(size=dim)


class TestGramVsScalar:
    """QFD kernel distances agree with the scalar quadratic form to 1e-9."""

    @settings(max_examples=60, deadline=None)
    @given(qfd_cases())
    def test_one_to_many_matches_scalar(self, case) -> None:
        matrix, rows, q = case
        qfd = QuadraticFormDistance(matrix)
        got = qfd_one_to_many(matrix, q, rows)
        want = np.array([qfd(q, row) for row in rows])
        np.testing.assert_allclose(got, want, atol=TOL, rtol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(qfd_cases())
    def test_pairwise_matches_scalar(self, case) -> None:
        matrix, rows, _ = case
        qfd = QuadraticFormDistance(matrix)
        got = qfd_pairwise(matrix, rows)
        m = rows.shape[0]
        for i in range(m):
            for j in range(m):
                assert got[i, j] == pytest.approx(qfd(rows[i], rows[j]), abs=TOL)

    @settings(max_examples=60, deadline=None)
    @given(qfd_cases())
    def test_query_context_matches_scalar(self, case) -> None:
        matrix, rows, q = case
        qfd = QuadraticFormDistance(matrix)
        ctx = QFDKernel(matrix).bind(q)
        many = ctx.many(rows)
        for pos, row in enumerate(rows):
            want = qfd(q, row)
            assert many[pos] == pytest.approx(want, abs=TOL)
            assert ctx.one(row) == pytest.approx(want, abs=TOL)

    @settings(max_examples=40, deadline=None)
    @given(qfd_cases())
    def test_cross_matches_scalar(self, case) -> None:
        matrix, rows, q = case
        qfd = QuadraticFormDistance(matrix)
        rows_b = np.vstack([q, rows[0]])
        got = QFDKernel(matrix).cross(rows, rows_b)
        for i in range(rows.shape[0]):
            for j in range(rows_b.shape[0]):
                assert got[i, j] == pytest.approx(qfd(rows[i], rows_b[j]), abs=TOL)


class TestOneArithmetic:
    """Every QFD evaluation is :func:`qfd_one_to_many`, wherever it is reached
    from — which is why a vector bound on a write path needs no special
    case: it stores what the scan computes."""

    @settings(max_examples=60, deadline=None)
    @given(qfd_cases())
    def test_bound_context_is_the_scan_bit_for_bit(self, case) -> None:
        matrix, rows, q = case
        qfd = QuadraticFormDistance(matrix)
        ctx = QFDKernel(matrix).bind(q)
        want = qfd.one_to_many(q, rows)
        assert np.array_equal(ctx.many(rows), want)
        assert np.array_equal(QFDKernel(matrix).one_to_many(q, rows), want)
        for pos, row in enumerate(rows):
            assert ctx.one(row) == qfd.one_to_many(q, row[None, :])[0]

    @settings(max_examples=40, deadline=None)
    @given(qfd_cases())
    def test_pairwise_and_cross_rows_are_one_to_many_rows(self, case) -> None:
        matrix, rows, q = case
        kernel = QFDKernel(matrix)
        pw = kernel.pairwise(rows)
        assert np.array_equal(pw, QuadraticFormDistance(matrix).pairwise(rows))
        for i in range(rows.shape[0] - 1):
            assert np.array_equal(pw[i, i + 1 :], qfd_one_to_many(matrix, rows[i], rows[i + 1 :]))
        others = np.vstack([q, rows[-1]])
        cross = kernel.cross(others, rows)
        for i, row in enumerate(others):
            assert np.array_equal(cross[i], qfd_one_to_many(matrix, row, rows))

    def test_near_singular_pairwise_is_bit_symmetric_with_a_zero_diagonal(self) -> None:
        rng = np.random.default_rng(11)
        dim = 24
        basis = rng.normal(size=(dim, dim))
        matrix = basis @ basis.T + 1e-12 * np.eye(dim)
        rows = _rows(rng, 50, dim)
        rows[7] = rows[31]
        rows[12] = rows[40] * (1.0 + 1e-12)
        for pw in (qfd_pairwise(matrix, rows), QuadraticFormDistance(matrix).pairwise(rows)):
            assert np.array_equal(pw, pw.T)
            assert np.all(np.diag(pw) == 0.0) and pw[7, 31] == 0.0
            assert np.all(np.isfinite(pw)) and np.all(pw >= 0.0)


class TestMetricPostulates:
    """Exact zeros and exact symmetry hold for every QFD kernel form."""

    @settings(max_examples=60, deadline=None)
    @given(qfd_cases())
    def test_identical_rows_give_exact_zero(self, case) -> None:
        matrix, rows, _ = case
        q = rows[0].copy()
        got = qfd_one_to_many(matrix, q, rows)
        assert got[0] == 0.0
        ctx = QFDKernel(matrix).bind(q)
        assert ctx.many(rows)[0] == 0.0
        assert ctx.one(rows[0]) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(qfd_cases())
    def test_pairwise_diagonal_zero_and_symmetric(self, case) -> None:
        matrix, rows, _ = case
        got = qfd_pairwise(matrix, rows)
        assert np.all(np.diag(got) == 0.0)
        assert np.array_equal(got, got.T)

    @settings(max_examples=60, deadline=None)
    @given(qfd_cases())
    def test_duplicate_rows_give_exact_zero_off_diagonal(self, case) -> None:
        matrix, rows, _ = case
        doubled = np.vstack([rows, rows[0]])
        got = qfd_pairwise(matrix, doubled)
        assert got[0, -1] == 0.0 and got[-1, 0] == 0.0

    def test_near_singular_matrix_stays_nonnegative(self) -> None:
        # Regression: a barely-PD matrix; no kernel may return NaN or a
        # negative distance, and self-distances stay exactly zero.
        rng = np.random.default_rng(7)
        dim = 16
        basis = rng.normal(size=(dim, dim))
        matrix = basis @ basis.T + 1e-10 * np.eye(dim)
        rows = _rows(rng, 40, dim)
        rows[5] = rows[17]  # exact duplicate across the batch
        pw = qfd_pairwise(matrix, rows)
        assert np.all(np.isfinite(pw)) and np.all(pw >= 0.0)
        assert pw[5, 17] == 0.0 and np.all(np.diag(pw) == 0.0)
        o2m = qfd_one_to_many(matrix, rows[5], rows)
        assert np.all(np.isfinite(o2m)) and np.all(o2m >= 0.0)
        assert o2m[5] == 0.0 and o2m[17] == 0.0
        assert np.array_equal(pw, QuadraticFormDistance(matrix).pairwise(rows))


class TestQMapLemma:
    """L2 in the mapped space equals QFD in the source space (Lemma 1)."""

    @settings(max_examples=60, deadline=None)
    @given(qfd_cases())
    def test_l2_kernels_match_qfd_kernels_after_transform(self, case) -> None:
        matrix, rows, q = case
        qmap = QMap(matrix)
        mapped_rows = qmap.transform_batch(rows)
        mapped_q = qmap.transform(q)
        np.testing.assert_allclose(
            l2_one_to_many(mapped_q, mapped_rows),
            qfd_one_to_many(matrix, q, rows),
            atol=1e-7,
            rtol=1e-7,
        )
        np.testing.assert_allclose(
            l2_pairwise(mapped_rows), qfd_pairwise(matrix, rows), atol=1e-7, rtol=1e-7
        )
        np.testing.assert_allclose(
            l2_cross(mapped_rows, mapped_q.reshape(1, -1)),
            QFDKernel(matrix).cross(rows, q.reshape(1, -1)),
            atol=1e-7,
            rtol=1e-7,
        )

    @settings(max_examples=40, deadline=None)
    @given(qfd_cases())
    def test_l2_context_matches_qfd_context(self, case) -> None:
        matrix, rows, q = case
        qmap = QMap(matrix)
        l2_ctx = L2Kernel().bind(qmap.transform(q))
        qfd_ctx = QFDKernel(matrix).bind(q)
        np.testing.assert_allclose(
            l2_ctx.many(qmap.transform_batch(rows)),
            qfd_ctx.many(rows),
            atol=1e-7,
            rtol=1e-7,
        )


class TestResolveKernel:
    def test_qfd_resolves_through_counting_wrapper(self) -> None:
        matrix = _spd_matrix(np.random.default_rng(0), 4)
        qfd = QuadraticFormDistance(matrix)
        kernel = resolve_kernel(CountingDistance(qfd))
        assert isinstance(kernel, QFDKernel)
        assert kernel.matrix is qfd.matrix

    def test_euclidean_resolves_to_l2(self) -> None:
        assert isinstance(resolve_kernel(euclidean), L2Kernel)
        assert isinstance(resolve_kernel(CountingDistance(euclidean)), L2Kernel)

    def test_unknown_metric_resolves_to_none(self) -> None:
        assert resolve_kernel(lambda u, v: 0.0) is None

    def test_counting_distance_auto_vectorizes_known_metrics(self) -> None:
        counter = CountingDistance(euclidean)
        rng = np.random.default_rng(3)
        rows = _rows(rng, 8, 5)
        got = counter.one_to_many(rows[0], rows)
        want = np.array([euclidean(rows[0], r) for r in rows])
        np.testing.assert_allclose(got, want, atol=TOL, rtol=0.0)
        assert counter.stats.batch_rows == 8


class TestCholeskyCache:
    def test_equal_matrices_share_one_factorization(self) -> None:
        clear_cholesky_cache()
        matrix = _spd_matrix(np.random.default_rng(11), 6)
        first = cached_cholesky(matrix)
        second = cached_cholesky(matrix.copy())  # equal content, new object
        assert first is second
        info = cholesky_cache_info()
        assert info["entries"] == 1
        assert info["misses"] == 1 and info["hits"] == 1
        assert not first.flags.writeable
        np.testing.assert_allclose(first @ first.T, matrix, atol=1e-9)

    def test_distinct_matrices_get_distinct_factors(self) -> None:
        clear_cholesky_cache()
        rng = np.random.default_rng(12)
        a = cached_cholesky(_spd_matrix(rng, 5))
        b = cached_cholesky(_spd_matrix(rng, 5))
        assert a is not b
        assert cholesky_cache_info()["entries"] == 2

    def test_qmap_uses_the_cache(self) -> None:
        clear_cholesky_cache()
        matrix = _spd_matrix(np.random.default_rng(13), 6)
        assert QMap(matrix).matrix is QMap(matrix.copy()).matrix

    def test_concurrent_misses_factor_each_key_exactly_once(self, monkeypatch) -> None:
        """Regression: N threads racing on the same cold key used to run N
        factorizations (all but one thrown away). The in-flight registry
        must de-duplicate them — one factorization per distinct matrix."""
        # repro.core re-exports the cholesky *function* under the same
        # name, so reach the submodule through importlib.
        chol_mod = importlib.import_module("repro.core.cholesky")
        from repro.kernels import cholesky_cache

        clear_cholesky_cache()
        rng = np.random.default_rng(21)
        matrices = [_spd_matrix(rng, 6) for _ in range(3)]
        factored: list[bytes] = []
        record_lock = threading.Lock()
        real = chol_mod.cholesky

        def counting(matrix, **kwargs):
            with record_lock:
                factored.append(np.ascontiguousarray(matrix).tobytes())
            return real(matrix, **kwargs)

        monkeypatch.setattr(chol_mod, "cholesky", counting)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results: list[list[np.ndarray]] = [[] for _ in range(n_threads)]
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                barrier.wait()  # release everyone onto the cold cache at once
                for matrix in matrices:
                    results[slot].append(cholesky_cache.cached_cholesky(matrix.copy()))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(factored) == len(matrices)  # one factorization per key
        assert len({blob for blob in factored}) == len(matrices)
        info = cholesky_cache_info()
        assert info["misses"] == len(matrices)
        for pos in range(len(matrices)):
            shared = results[0][pos]
            assert all(results[slot][pos] is shared for slot in range(n_threads))

    def test_waiters_recover_when_the_owner_fails(self, monkeypatch) -> None:
        """If the owning thread's factorization raises, waiters must retake
        the miss path (not hang, not cache a broken entry)."""
        # repro.core re-exports the cholesky *function* under the same
        # name, so reach the submodule through importlib.
        chol_mod = importlib.import_module("repro.core.cholesky")
        from repro.kernels import cholesky_cache

        clear_cholesky_cache()
        matrix = _spd_matrix(np.random.default_rng(22), 5)
        attempts: list[int] = []
        attempt_lock = threading.Lock()
        real = chol_mod.cholesky

        def flaky(m, **kwargs):
            with attempt_lock:
                attempts.append(1)
                first = len(attempts) == 1
            if first:
                raise RuntimeError("synthetic factorization failure")
            return real(m, **kwargs)

        monkeypatch.setattr(chol_mod, "cholesky", flaky)
        barrier = threading.Barrier(4)
        outcomes: list[object] = []
        out_lock = threading.Lock()

        def worker() -> None:
            barrier.wait()
            try:
                out = cholesky_cache.cached_cholesky(matrix)
            except RuntimeError as exc:
                out = exc
            with out_lock:
                outcomes.append(out)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert all(not t.is_alive() for t in threads)  # nobody hangs
        failures = [o for o in outcomes if isinstance(o, RuntimeError)]
        factors = [o for o in outcomes if isinstance(o, np.ndarray)]
        assert len(failures) == 1 and len(factors) == 3
        assert all(f is factors[0] for f in factors)
        np.testing.assert_allclose(factors[0] @ factors[0].T, matrix, atol=1e-9)


class TestCountingDistanceThreadSafety:
    def test_concurrent_counts_and_reads_are_consistent(self) -> None:
        # Satellite (a): `stats`/`count` snapshot under the lock, so a
        # reader can never observe a calls/batch_rows pair mid-update.
        counter = CountingDistance(euclidean)
        rows = np.zeros((10, 3))
        stop = threading.Event()
        bad: list[tuple[int, int]] = []

        def reader() -> None:
            while not stop.is_set():
                snap = counter.stats
                # Writers always add calls and rows through the same
                # add_counts call below, so a torn read shows rows != calls.
                if snap.batch_rows != snap.calls:
                    bad.append((snap.calls, snap.batch_rows))

        def writer() -> None:
            for _ in range(2000):
                counter.add_counts(calls=1, batch_rows=1)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        watcher = threading.Thread(target=reader)
        watcher.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        watcher.join()
        assert not bad
        assert counter.stats.calls == 8000 and counter.stats.batch_rows == 8000
        assert counter.count == 16000


def _l2_pairwise_before(rows: np.ndarray) -> np.ndarray:
    """``l2_pairwise`` as it stood before its in-place form, verbatim."""
    rows = np.asarray(rows, dtype=np.float64)
    row_norms = np.einsum("ij,ij->i", rows, rows)
    cross = rows @ rows.T
    sq = row_norms[:, None] + row_norms[None, :] - (cross + cross.T)
    np.fill_diagonal(sq, 0.0)
    suspect = sq <= 1e-12 * (row_norms[:, None] + row_norms[None, :])
    np.fill_diagonal(suspect, False)
    ii, jj = np.nonzero(np.triu(suspect, 1))
    if ii.size:
        diff = rows[ii] - rows[jj]
        exact = np.einsum("ij,ij->i", diff, diff)
        sq[ii, jj] = exact
        sq[jj, ii] = exact
    return np.sqrt(np.maximum(sq, 0.0))


class TestL2PairwiseFloats:
    """The split's pairwise matrix keeps its floats bit for bit (its
    arithmetic is the Gram form's, whose error budget is owned elsewhere):
    every size a node split meets, float32 rows, and duplicates, which take
    the exact recheck."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 17, 33])
    def test_random_rows(self, n) -> None:
        rng = np.random.default_rng(n)
        for dim in (4, 64):
            rows = rng.dirichlet(np.full(dim, 0.05), size=n)
            assert np.array_equal(l2_pairwise(rows), _l2_pairwise_before(rows))
            rows32 = rows.astype(np.float32)
            assert np.array_equal(l2_pairwise(rows32), _l2_pairwise_before(rows32))

    def test_duplicates_take_the_recheck(self) -> None:
        rng = np.random.default_rng(3)
        rows = rng.random((17, 64))
        rows[[4, 9, 16]] = rows[2]  # exact duplicates: Gram noise, rechecked to 0
        rows[11] = rows[5] * (1 + 1e-9)  # a near-duplicate below the threshold
        norms = np.einsum("ij,ij->i", rows, rows)
        gram_sq = norms[:, None] + norms[None, :] - 2.0 * (rows @ rows.T)
        # Every duplicate pair and the near one fall under the recheck.
        assert (gram_sq[2, [4, 9, 16]] <= 1e-12 * 2 * norms[2]).all()
        assert gram_sq[5, 11] <= 1e-12 * (norms[5] + norms[11])
        got = l2_pairwise(rows)
        assert np.array_equal(got, _l2_pairwise_before(rows))
        assert (got[2, [4, 9, 16]] == 0.0).all() and (got[[4, 9, 16], 2] == 0.0).all()
        assert np.array_equal(got, got.T) and (np.diagonal(got) == 0.0).all()
