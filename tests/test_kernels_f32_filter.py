"""The certified lower bound of the QFD scan (``gram.qfd_lower_bound``).

For every row the bound is ``mu ||v - q||^2 + ||(v - q) W||^2`` less every
rounding error, ``||v - q||`` from the rows' float32 shadow and ``v W``
from the rows projected once; ``gram.spectral_floor`` certifies
``(A + A^T) / 2 - W W^T - mu I`` positive semi-definite.  It must never
exceed ``d64``, the squared distance the float64 path computes; a row
whose bound is not finite gets ``-inf`` and is kept.  Pinned here:

* the rank-k bound holds on Hafner ``1 - D/d_max`` matrices, near-singular
  SPD matrices, matrices scaled over 1e-6 ... 1e6 with negative
  off-diagonals, matrices symmetric only within ``is_symmetric``'s
  tolerance (and far from symmetric), rows with float32-subnormal
  entries, zero and duplicate rows, a float32 store's unflushed rows and
  rows or queries beyond float32 range (always kept);
* ``mu`` never exceeds ``eigvalsh(A_sym - W W^T)``'s smallest eigenvalue,
  and a failed rank-k certificate gives exactly the rank-0 bound;
* on the benchmark corpus the rank-k bound rules out >= 95 % of the rows
  at kNN's cut;
* the rank-0 bound ``mu ||v - q||^2 - errors`` it falls back to holds
  over the same inputs, and ``mu`` never exceeds ``eigvalsh``'s smallest
  eigenvalue — ``0.0`` when the certificate fails;
* the shadow, its norms, the projected rows and the bound take the
  untiled call's bits, and no caller array is written.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QMap, QuadraticFormDistance, is_symmetric
from repro.core.matrices import prototype_similarity_matrix
from repro.datasets import histogram_workload
from repro.kernels import QFDKernel, gram, resolve_kernel

F32_TINY = float(np.finfo(np.float32).tiny)
F32_MAX = float(np.finfo(np.float32).max)


def _d64(matrix: np.ndarray, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The float64 path's squared distances, before its clamp and root."""
    with np.errstate(all="ignore"):
        diff = gram._flush_subnormals(np.asarray(rows, dtype=np.float64) - q, inplace=True)
        return np.einsum("ij,ij->i", diff @ matrix, diff)


def _spectral(
    matrix: np.ndarray, q: np.ndarray, rows: np.ndarray, *, rows_exact: bool = False
) -> tuple[np.ndarray, QFDKernel]:
    """``(bound, kernel)`` of the rank-k bound, asserting ``bound <= d64``
    on every row — the rank-k term alone (no shadow) too — and ``mu <=
    lambda_min(A_sym - W W^T)`` (unless ``mu`` is ``0.0``: nothing
    certified, and every bound at most ``0``)."""
    kernel = QFDKernel(matrix)
    shadow = rows if rows_exact else gram.qfd_shadow(rows)
    norms, projected = gram.shadow_norms(shadow), kernel.project(shadow)
    bound = kernel.lower_bound(q, shadow, norms, projected, rows_exact=rows_exact)
    alone = kernel.lower_bound(q, None, norms, projected, rows_exact=rows_exact)
    want = _d64(matrix, q, rows)
    if kernel.mu == 0.0:
        assert kernel.weights.shape[1] == 0
        want = np.maximum(want, 0.0)  # the float64 path's clamp
    for got in (bound, alone):
        assert not np.isnan(got).any() and not (got == np.inf).any()
        over = got > want
        assert not over.any(), float(np.max(got[over] - want[over]))
    assert kernel.mu == 0.0 or 0.0 < kernel.mu <= _deflated_min(matrix, kernel.weights)
    return bound, kernel


def _deflated_min(matrix: np.ndarray, weights: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((matrix + matrix.T) / 2 - weights @ weights.T)[0])


def _matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "hafner":
        return prototype_similarity_matrix(rng.uniform(0.0, 100.0, size=(n, 3))).matrix
    if kind == "skewed":
        # A + eps (B - B^T), symmetric only within is_symmetric's tolerance.
        matrix = _matrix("hafner", n, rng)
        skew = rng.uniform(-1.0, 1.0, size=(n, n))
        return matrix + 1e-10 * (skew - skew.T) * np.abs(matrix)
    if kind == "near-singular":
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        matrix = (basis * np.logspace(-12, 0, n)) @ basis.T
        return (matrix + matrix.T) / 2
    # SPD with negative off-diagonals, then scaled so entries span 1e-6 ... 1e6.
    raw = rng.standard_normal((n, n))
    spd = raw @ raw.T + n * np.eye(n)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    return spd * scale[:, None] * scale[None, :]


#: (row, column, value) injections: float32 subnormals, values at and near
#: float32 ``tiny``, zeros and values beyond float32 range.
SPECIAL = st.sampled_from(
    [1e-45, 7e-46, 3e-39, 1.1e-38, F32_TINY, -2e-40, 0.0, -0.0, 1e-300, 5e-324]
)


class TestTheBoundHolds:
    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["hafner", "near-singular", "scaled", "skewed"]),
        n=st.sampled_from([3, 8, 27, 64]),
        m=st.integers(1, 40),
        scale=st.sampled_from([1.0, 1e-20, 1e10]),
        injected=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 10_000), SPECIAL), max_size=30
        ),
        alpha=st.sampled_from([1e-3, 0.1, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_row_is_certified_or_flagged(
        self, seed, kind, n, m, scale, injected, alpha
    ) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix(kind, n, rng)
        rows = rng.dirichlet(np.full(n, alpha), size=m + 1) * scale
        for r, c, value in injected:
            rows[r % (m + 1), c % n] = value
        q, rows = rows[0], rows[1:]
        rows[rng.integers(0, m)] = 0.0  # a zero row
        rows[rng.integers(0, m)] = q  # the query itself: d = 0
        rows[rng.integers(0, m)] = rows[rng.integers(0, m)]  # a duplicate
        bound, _ = _spectral(matrix, q, rows)
        assert np.isfinite(bound).all()  # nothing here leaves float32 range

    @given(seed=st.integers(0, 100_000), n=st.sampled_from([3, 8, 64]))
    @settings(max_examples=40, deadline=None)
    def test_rows_beyond_float32_range_are_flagged(self, seed, n) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix("hafner", n, rng)
        rows = rng.dirichlet(np.ones(n), size=9)
        q, rows = rows[0], rows[1:]
        huge = rng.choice(8, size=3, replace=False)
        rows[huge[0], 0] = 1e39
        rows[huge[1], n - 1] = -3.5e38
        rows[huge[2]] = 1e300
        bound, _ = _spectral(matrix, q, rows)
        assert (bound[huge] == -np.inf).all()
        assert np.isfinite(np.delete(bound, huge)).all()

    def test_a_query_beyond_float32_range_flags_every_row(self) -> None:
        rng = np.random.default_rng(5)
        matrix = _matrix("hafner", 8, rng)
        rows = rng.dirichlet(np.ones(8), size=6)
        q = rows[0].copy()
        q[3] = 2 * F32_MAX
        bound, _ = _spectral(matrix, q, rows)
        assert (bound == -np.inf).all()

    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["hafner", "scaled", "skewed"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_float32_rows_are_their_own_shadow(self, seed, kind) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix(kind, 27, rng)
        rows = rng.dirichlet(np.full(27, 1e-3), size=31)
        rows[:, :3] = [3e-40, 1e-45, 2e-39]  # float32 subnormals, kept by the store
        rows32 = rows.astype(np.float32)
        assert np.count_nonzero(np.abs(rows32) < F32_TINY) > 31 * 3 - 31  # unflushed
        _spectral(matrix, rows[0], rows32, rows_exact=True)

    def test_the_skewed_kind_passes_is_symmetric(self) -> None:
        rng = np.random.default_rng(17)
        for n in (3, 8, 27, 64):
            matrix = _matrix("skewed", n, rng)
            assert is_symmetric(matrix) and not np.array_equal(matrix, matrix.T)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_a_matrix_far_from_symmetric(self, seed) -> None:
        # Only A_sym = (A + A^T) / 2 enters x A x^T, and the radius bounds
        # the columns' sums as well as the rows'.
        rng = np.random.default_rng(seed)
        skew = rng.uniform(-1.0, 1.0, size=(27, 27))
        matrix = _matrix("hafner", 27, rng) + skew - skew.T
        matrix[:, 4] += 30.0  # one heavy column, and its mirror row
        matrix[4, :] -= 30.0
        rows = rng.dirichlet(np.full(27, 0.1), size=25)
        bound, kernel = _spectral(matrix, rows[0], rows[1:])
        assert np.isfinite(bound).all() and kernel.weights.shape[1] > 0

    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["hafner", "near-singular", "scaled", "skewed"]),
        n=st.sampled_from([2, 3, 8, 27, 64, 100]),
    )
    @settings(max_examples=80, deadline=None)
    def test_mu_is_certified_on_the_deflated_matrix(self, seed, kind, n) -> None:
        matrix = _matrix(kind, n, np.random.default_rng(seed))
        weights, mu = gram.spectral_floor(matrix)
        assert weights.shape[0] == n and weights.shape[1] <= gram._SPECTRAL_RANK
        assert mu == 0.0 or 0.0 < mu <= _deflated_min(matrix, weights)
        if kind == "hafner":  # well-conditioned: the rank-k certificate holds
            assert weights.shape[1] > 0 and mu > 0.0

    def test_a_failed_rank_k_certificate_gives_the_rank_0_bound(self, monkeypatch) -> None:
        matrix = _matrix("hafner", 64, np.random.default_rng(6))
        deflation = gram._deflation
        monkeypatch.setattr(gram, "_deflation", lambda sym, shift: 2.0 * deflation(sym, shift))
        kernel = QFDKernel(matrix)
        assert kernel.weights.shape == (64, 0)
        assert kernel.mu == gram.lambda_min_floor(matrix) > 0.0  # not 0.0
        rows = np.random.default_rng(6).dirichlet(np.full(64, 0.1), size=30)
        shadow = gram.qfd_shadow(rows)
        norms = gram.shadow_norms(shadow)
        got = kernel.lower_bound(rows[0], shadow, norms, kernel.project(shadow))
        want = gram.qfd_lower_bound(
            gram.lambda_min_floor(matrix), gram.abs_sum_radius(matrix), rows[0], shadow, norms
        )
        assert np.array_equal(got, want)

    def test_an_indefinite_matrix_certifies_nothing(self) -> None:
        matrix = _matrix("hafner", 27, np.random.default_rng(8))
        matrix[0, 0] = -1.0
        weights, mu = gram.spectral_floor(matrix)
        assert weights.shape == (27, 0) and mu == 0.0

    def test_the_benchmark_corpus_at_512d(self) -> None:
        w = histogram_workload(1500, 4, bins_per_channel=8, seed=2011)
        for q in w.queries:
            bound, kernel = _spectral(w.matrix, q, w.database)
            assert kernel.weights.shape == (512, gram._SPECTRAL_RANK)
            # O(n + k) per row, and it rules out almost every row at kNN's cut.
            kth = np.partition(_d64(w.matrix, q, w.database), 9)[9]
            assert np.count_nonzero(bound > kth) >= 0.95 * bound.shape[0]


class TestTheKernel:
    def test_radius_bounds_the_spectral_norm(self) -> None:
        rng = np.random.default_rng(3)
        for kind in ("hafner", "near-singular", "scaled"):
            matrix = _matrix(kind, 24, rng)
            radius = QFDKernel(matrix).radius
            assert radius >= np.max(np.abs(np.linalg.eigvalsh(np.abs(matrix))))
            assert radius >= np.linalg.norm(matrix, 2)

    def test_radius_bounds_a_column_heavy_matrix(self) -> None:
        # Not symmetric: its largest row sum is 2, its spectral norm ~sqrt(24).
        matrix = np.eye(24)
        matrix[:, 0] = 1.0
        assert QFDKernel(matrix).radius >= np.linalg.norm(matrix, 2)

    def test_matrix_and_shadow_are_flushed_float32(self) -> None:
        # The shadow is float32, flushed of float32 subnormals, and the
        # matrix's W projects it in float64, where none of it is subnormal.
        rows = np.array([[1e-40, -1e-42, F32_TINY, 0.5]])
        shadow = gram.qfd_shadow(rows)
        assert shadow.dtype == np.float32
        assert shadow.tolist() == [[0.0, 0.0, F32_TINY, 0.5]]
        kernel = QFDKernel(_matrix("hafner", 4, np.random.default_rng(2)))
        assert kernel.weights.shape[1] > 0 and kernel.weights.dtype == np.float64
        projected = kernel.project(shadow)
        assert projected.dtype == np.float64
        assert np.array_equal(projected, shadow.astype(np.float64) @ kernel.weights)

    def test_flush_takes_the_arrays_own_tiny(self) -> None:
        x = np.array([1e-40, F32_TINY, -1e-39, 1e-300], dtype=np.float32)
        assert gram._flush_subnormals(x).tolist() == [0.0, F32_TINY, 0.0, 0.0]
        y = np.array([1e-40, 1e-310])
        assert gram._flush_subnormals(y).tolist() == [1e-40, 0.0]

    def test_caller_arrays_are_never_written(self) -> None:
        w = histogram_workload(300, 2, bins_per_channel=4, seed=7)
        rows, q = w.database.copy(), w.queries[0].copy()
        kernel = QFDKernel(w.matrix)
        shadow = gram.qfd_shadow(rows)
        norms, projected = gram.shadow_norms(shadow), kernel.project(shadow)
        operands = rows, q, shadow, norms, projected, kernel.weights
        before = [x.tobytes() for x in operands]
        kernel.lower_bound(q, shadow, norms, projected)
        assert [x.tobytes() for x in operands] == before

    def test_tiles_give_the_untiled_bits(self, monkeypatch) -> None:
        w = histogram_workload(700, 2, bins_per_channel=4, seed=13)
        kernel = QFDKernel(w.matrix)

        def bound_of(rows):
            shadow = gram.qfd_shadow(rows)
            norms, projected = gram.shadow_norms(shadow), kernel.project(shadow)
            bound = kernel.lower_bound(w.queries[1], shadow, norms, projected)
            return shadow, norms, projected, bound

        want = bound_of(w.database)
        monkeypatch.setattr(gram, "_TILE_ROWS", 256)
        for got, ref in zip(bound_of(w.database), want):
            assert np.array_equal(got, ref)


def _lambda_min(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((matrix + matrix.T) / 2)[0])


def _bound(
    matrix: np.ndarray, q: np.ndarray, rows: np.ndarray, *, rows_exact: bool = False
) -> tuple[np.ndarray, float]:
    """``(bound, mu)`` of the rank-0 bound (what a failed rank-k
    certificate leaves), asserting ``bound <= d64`` on every row."""
    mu = gram.lambda_min_floor(matrix)
    shadow = rows if rows_exact else gram.qfd_shadow(rows)
    bound = gram.qfd_lower_bound(
        mu, gram.abs_sum_radius(matrix), q, shadow, gram.shadow_norms(shadow),
        rows_exact=rows_exact,
    )
    want = _d64(matrix, q, rows)
    assert not np.isnan(bound).any() and not (bound == np.inf).any()
    over = bound > want
    assert not over.any(), float(np.max(bound[over] - want[over]))
    return bound, mu


class TestTheLowerBound:
    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["hafner", "near-singular", "scaled", "skewed"]),
        n=st.sampled_from([2, 3, 8, 27, 64]),
        m=st.integers(1, 40),
        scale=st.sampled_from([1.0, 1e-20, 1e10]),
        injected=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 10_000), SPECIAL), max_size=30
        ),
        alpha=st.sampled_from([1e-3, 0.1, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_no_row_is_bounded_above_its_distance(
        self, seed, kind, n, m, scale, injected, alpha
    ) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix(kind, n, rng)
        rows = rng.dirichlet(np.full(n, alpha), size=m + 1) * scale
        for r, c, value in injected:
            rows[r % (m + 1), c % n] = value
        q, rows = rows[0], rows[1:]
        rows[rng.integers(0, m)] = 0.0  # a zero row
        rows[rng.integers(0, m)] = q  # the query itself: d = 0
        rows[rng.integers(0, m)] = rows[rng.integers(0, m)]  # a duplicate
        bound, mu = _bound(matrix, q, rows)
        assert np.isfinite(bound).all()  # nothing here leaves float32 range
        assert 0.0 <= mu <= _lambda_min(matrix)

    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["hafner", "near-singular", "scaled", "skewed"]),
        n=st.sampled_from([2, 3, 8, 27, 64, 100]),
    )
    @settings(max_examples=80, deadline=None)
    def test_mu_is_certified(self, seed, kind, n) -> None:
        matrix = _matrix(kind, n, np.random.default_rng(seed))
        lam = _lambda_min(matrix)
        mu = gram.lambda_min_floor(matrix)
        assert 0.0 <= mu <= lam
        if kind == "hafner":  # well-conditioned: the estimate is halved, not lost
            assert mu >= lam / 4

    def test_the_qfd_factor_spares_a_factorization(self, monkeypatch) -> None:
        matrix = _matrix("hafner", 27, np.random.default_rng(4))
        kernel = resolve_kernel(QuadraticFormDistance(matrix))
        assert kernel._factor is not None
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        assert 0.0 < kernel.mu <= _lambda_min(matrix)
        assert len(calls) == 1 and kernel._factor is None  # the certificate alone
        copy = pickle.loads(pickle.dumps(kernel))
        assert copy._filter_operands is None  # mu is rebuilt, not shipped
        assert copy.mu == kernel.mu and len(calls) == 3

    def test_the_factor_is_neither_pickled_nor_held_twice(self) -> None:
        matrix = _matrix("hafner", 64, np.random.default_rng(5))
        qfd = QuadraticFormDistance(matrix)
        assert np.array_equal(qfd.cholesky_factor, np.linalg.cholesky(matrix))
        payload = pickle.dumps(qfd)
        assert len(payload) < matrix.nbytes + 1024
        assert pickle.loads(payload).cholesky_factor is None
        qmap = QMap(qfd)  # the transform's B is the same factor: one copy
        assert qfd.cholesky_factor is qmap.matrix

    def test_a_failed_certificate_gives_zero(self, monkeypatch) -> None:
        matrix = _matrix("hafner", 27, np.random.default_rng(6))
        lam = _lambda_min(matrix)
        monkeypatch.setattr(gram, "_lambda_min_estimate", lambda factor, sym: 4 * lam)
        assert gram.lambda_min_floor(matrix) == 0.0
        rows = np.random.default_rng(6).dirichlet(np.ones(27), size=20)
        bound, mu = _bound(matrix, rows[0], rows[1:])
        assert mu == 0.0 and (bound <= 0.0).all()  # prunes nothing

    def test_an_indefinite_matrix_gives_zero(self) -> None:
        matrix = _matrix("hafner", 27, np.random.default_rng(8))
        matrix[0, 0] = -1.0
        assert gram.lambda_min_floor(matrix) == 0.0

    @given(seed=st.integers(0, 100_000), n=st.sampled_from([3, 8, 64]))
    @settings(max_examples=40, deadline=None)
    def test_rows_beyond_float32_range_are_kept(self, seed, n) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix("hafner", n, rng)
        rows = rng.dirichlet(np.ones(n), size=9)
        q, rows = rows[0], rows[1:]
        huge = rng.choice(8, size=3, replace=False)
        rows[huge[0], 0] = 1e39
        rows[huge[1], n - 1] = -3.5e38
        rows[huge[2]] = 1e300
        bound, _ = _bound(matrix, q, rows)
        assert (bound[huge] == -np.inf).all()
        assert np.isfinite(np.delete(bound, huge)).all()

    def test_a_query_beyond_float32_range_keeps_every_row(self) -> None:
        rng = np.random.default_rng(5)
        matrix = _matrix("hafner", 8, rng)
        rows = rng.dirichlet(np.ones(8), size=6)
        q = rows[0].copy()
        q[3] = 2 * F32_MAX
        bound, _ = _bound(matrix, q, rows)
        assert (bound == -np.inf).all()

    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["hafner", "scaled", "skewed"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_float32_stores_unflushed_rows(self, seed, kind) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix(kind, 27, rng)
        rows = rng.dirichlet(np.full(27, 1e-3), size=31)
        rows[:, :3] = [3e-40, 1e-45, 2e-39]  # float32 subnormals, kept by the store
        rows32 = rows.astype(np.float32)
        assert np.count_nonzero(np.abs(rows32) < F32_TINY) > 31 * 3 - 31  # unflushed
        _bound(matrix, rows[0], rows32, rows_exact=True)

    def test_the_benchmark_corpus_at_512d(self) -> None:
        w = histogram_workload(1500, 4, bins_per_channel=8, seed=2011)
        lam = _lambda_min(w.matrix)
        for q in w.queries:
            bound, mu = _bound(w.matrix, q, w.database)
            assert lam / 4 <= mu <= lam
            # O(n) per row, and still it rules out most rows at kNN's cut.
            kth = np.partition(_d64(w.matrix, q, w.database), 9)[9]
            assert np.count_nonzero(bound > kth) > 0.8 * bound.shape[0]

    def test_norms_are_float64_sums_of_the_shadow(self, monkeypatch) -> None:
        rows = np.random.default_rng(1).dirichlet(np.full(64, 1e-3), size=300)
        shadow = gram.qfd_shadow(rows)
        want = np.einsum("ij,ij->i", shadow.astype(np.float64), shadow.astype(np.float64))
        assert np.allclose(gram.shadow_norms(shadow), want, rtol=1e-15, atol=0)
        monkeypatch.setattr(gram, "_TILE_ROWS", 64)
        assert np.allclose(gram.shadow_norms(shadow), want, rtol=1e-15, atol=0)
        assert gram.shadow_norms(shadow).dtype == np.float64
