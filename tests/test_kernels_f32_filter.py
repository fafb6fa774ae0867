"""The certified float32 filter of the QFD scan (``gram.qfd_filter``).

For every row the filter returns ``s``, the float32 squared QFD over the
row's float32 shadow, and ``delta``, a proven bound on ``|s - d64|`` where
``d64`` is the squared distance the float64 path computes.  A row whose
``s`` or ``delta`` is not finite certifies nothing and is flagged for
re-evaluation.  Pinned here:

* the bound holds on Hafner ``1 - D/d_max`` matrices, near-singular SPD
  matrices, matrices scaled over 1e-6 ... 1e6 with negative
  off-diagonals, matrices symmetric only within ``is_symmetric``'s
  tolerance (and far from symmetric), rows with float32-subnormal
  entries, zero and duplicate rows, and rows beyond float32 range
  (always flagged), over one to four column blocks of the upper-triangle
  product, uneven widths included;
* an entry whose ``A_ij + A_ji`` overflows float32 flags the rows it
  touches;
* the 512-d plan does at most 0.6 n^2 multiply-adds per row;
* a float32 store's rows are their own shadow (``rows_exact``);
* the filter's row chunks give the unsplit call's bits;
* on the benchmark corpus the bound is loose yet decides almost every row;
* the O(n) lower bound ``mu ||v - q||^2 - errors`` that runs before the
  filter never exceeds the float64 path's squared distance, over the same
  matrices and rows (and a float32 store's unflushed rows), a row beyond
  float32 range gets ``-inf``, and ``mu`` never exceeds ``eigvalsh``'s
  smallest eigenvalue — ``0.0`` when the certificate fails.
"""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np
import pytest
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


def _certify(
    matrix: np.ndarray, q: np.ndarray, rows: np.ndarray, *, rows_exact: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(s, delta, flagged)``, asserting ``|s - d64| <= delta`` on every
    row that is not flagged."""
    kernel = QFDKernel(matrix)
    shadow = rows if rows_exact else gram.qfd_shadow(rows)
    s, delta = kernel.filter(q, shadow, rows_exact=rows_exact)
    flagged = ~(np.isfinite(s) & np.isfinite(delta))
    want = _d64(matrix, q, rows)
    kept = ~flagged
    assert np.all(delta[kept] >= 0.0)
    gap = np.abs(s[kept] - want[kept])
    assert np.all(gap <= delta[kept]), float(np.max(gap / delta[kept]))
    return s, delta, flagged


def _blocks(n: int, count: int):
    """Patch the filter's column blocks to about *count* (2-4 for any
    ``count > 1``, one for ``count == 1``) for kernels made inside."""
    return mock.patch.object(gram, "_TRIANGLE_COLS", max(1, n // count))


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
        blocks=st.integers(1, 4),
        m=st.integers(1, 40),
        scale=st.sampled_from([1.0, 1e-20, 1e10]),
        injected=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 10_000), SPECIAL), max_size=30
        ),
        alpha=st.sampled_from([1e-3, 0.1, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_row_is_certified_or_flagged(
        self, seed, kind, n, blocks, m, scale, injected, alpha
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
        with _blocks(n, blocks):
            _, _, flagged = _certify(matrix, q, rows)
        assert not flagged.any()  # nothing here leaves float32 range

    @given(
        seed=st.integers(0, 100_000), n=st.sampled_from([3, 8, 64]), blocks=st.integers(1, 4)
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_beyond_float32_range_are_flagged(self, seed, n, blocks) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix("hafner", n, rng)
        rows = rng.dirichlet(np.ones(n), size=9)
        q, rows = rows[0], rows[1:]
        huge = rng.choice(8, size=3, replace=False)
        rows[huge[0], 0] = 1e39
        rows[huge[1], n - 1] = -3.5e38
        rows[huge[2]] = 1e300
        with _blocks(n, blocks):
            _, _, flagged = _certify(matrix, q, rows)
        assert flagged[huge].all()

    def test_a_query_beyond_float32_range_flags_every_row(self) -> None:
        rng = np.random.default_rng(5)
        matrix = _matrix("hafner", 8, rng)
        rows = rng.dirichlet(np.ones(8), size=6)
        q = rows[0].copy()
        q[3] = 2 * F32_MAX
        _, _, flagged = _certify(matrix, q, rows)
        assert flagged.all()

    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["hafner", "scaled", "skewed"]),
        blocks=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_float32_rows_are_their_own_shadow(self, seed, kind, blocks) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix(kind, 27, rng)
        rows = rng.dirichlet(np.full(27, 1e-3), size=31)
        rows[:, :3] = [3e-40, 1e-45, 2e-39]  # float32 subnormals, kept by the store
        rows32 = rows.astype(np.float32)
        with _blocks(27, blocks):
            _certify(matrix, rows[0], rows32, rows_exact=True)

    def test_the_skewed_kind_passes_is_symmetric(self) -> None:
        rng = np.random.default_rng(17)
        for n in (3, 8, 27, 64):
            matrix = _matrix("skewed", n, rng)
            assert is_symmetric(matrix) and not np.array_equal(matrix, matrix.T)

    @given(seed=st.integers(0, 100_000), blocks=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_a_matrix_far_from_symmetric(self, seed, blocks) -> None:
        # x T x^T = x A x^T for any A: the triangle sums both halves, and
        # the radius bounds the columns' sums as well as the rows'.
        rng = np.random.default_rng(seed)
        matrix = _matrix("hafner", 27, rng) + rng.uniform(-1.0, 1.0, size=(27, 27))
        matrix[:, 4] += 30.0  # one heavy column
        rows = rng.dirichlet(np.full(27, 0.1), size=25)
        with _blocks(27, blocks):
            _, _, flagged = _certify(matrix, rows[0], rows[1:])
        assert not flagged.any()

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_an_overflowing_pair_sum_is_flagged(self, blocks) -> None:
        # A_01 and A_10 are float32-finite; their sum, T_01, is not.
        rng = np.random.default_rng(23)
        matrix = _matrix("hafner", 8, rng)
        matrix[0, 1] = matrix[1, 0] = 2e38
        rows = rng.dirichlet(np.ones(8), size=12)
        rows[3, :2] = 0.0  # a row the entry does not touch
        q = rows[0].copy()
        q[:2] = 0.0
        with _blocks(8, blocks):
            assert np.isinf(QFDKernel(matrix).triangle32[0, 1])
            _, _, flagged = _certify(matrix, q, rows)
        touched = (rows[:, 0] != 0.0) & (rows[:, 1] != 0.0)
        assert touched.sum() == 11 and flagged[touched].all()

    def test_the_benchmark_corpus_at_512d(self) -> None:
        w = histogram_workload(1500, 4, bins_per_channel=8, seed=2011)
        for q in w.queries:
            s, delta, flagged = _certify(w.matrix, q, w.database)
            assert not flagged.any()
            # Loose by orders of magnitude, and still decisive: the kNN
            # cut of the scan leaves a few percent of the rows undecided.
            upper = np.partition(s + delta, 9)[9]
            assert np.count_nonzero(s - delta <= upper) < 0.05 * s.shape[0]


class TestTheTriangle:
    @pytest.mark.parametrize("n", [3, 8, 27, 64])
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_patched_blocks_cover_the_triangle(self, n, count) -> None:
        matrix = _matrix("skewed", n, np.random.default_rng(n))
        with _blocks(n, count):
            triangle, blocks = gram.qfd_triangle(matrix)
        assert 2 <= len(blocks) <= 4
        stops = [block.shape[0] for block in blocks]
        widths = [block.shape[1] for block in blocks]
        assert stops[-1] == n and sum(widths) == n
        assert stops == list(np.cumsum(widths))
        for block, stop, width in zip(blocks, stops, widths):
            assert block.flags.c_contiguous
            assert np.array_equal(block, triangle[:stop, stop - width : stop])

    def test_widths_may_be_uneven(self) -> None:
        with _blocks(27, 4):
            _, blocks = gram.qfd_triangle(np.eye(27))
        assert [block.shape[1] for block in blocks] == [6, 7, 7, 7]

    def test_the_triangle_is_built_from_both_halves(self) -> None:
        matrix = _matrix("skewed", 8, np.random.default_rng(2))
        want = np.triu(matrix + matrix.T, 1) + np.diag(np.diagonal(matrix))
        got = QFDKernel(matrix).triangle32
        assert np.array_equal(got, want.astype(np.float32))
        assert not np.any(np.tril(got, -1))

    @pytest.mark.parametrize("n, count", [(64, 1), (127, 1), (128, 2), (512, 8)])
    def test_block_count(self, n, count) -> None:
        _, blocks = gram.qfd_triangle(np.eye(n))
        assert len(blocks) == count

    def test_the_512d_plan_does_a_fraction_of_the_full_product(self) -> None:
        w = histogram_workload(20, 1, bins_per_channel=8, seed=3)
        n = w.matrix.shape[0]
        blocks = QFDKernel(w.matrix)._operands()[1]
        macs_per_row = sum(block.size for block in blocks)
        assert macs_per_row <= 0.6 * n * n


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
        matrix = np.eye(3) + np.array([[0, 1e-40, 0], [1e-40, 0, 0], [0, 0, 0]])
        kernel = QFDKernel(matrix)
        assert kernel.triangle32.dtype == np.float32
        assert kernel.triangle32[0, 1] == 0.0 and kernel.triangle32[0, 0] == 1.0
        rows = np.array([[1e-40, -1e-42, F32_TINY, 0.5]])
        shadow = gram.qfd_shadow(rows)
        assert shadow.dtype == np.float32
        assert shadow.tolist() == [[0.0, 0.0, F32_TINY, 0.5]]

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
        before = rows.tobytes(), q.tobytes(), shadow.tobytes()
        kernel.filter(q, shadow)
        assert (rows.tobytes(), q.tobytes(), shadow.tobytes()) == before

    @pytest.mark.parametrize("bins, m", [(8, 513), (4, 300)])
    def test_chunks_give_the_unsplit_bits(self, monkeypatch, bins, m) -> None:
        w = histogram_workload(m, 2, bins_per_channel=bins, seed=11)
        kernel = QFDKernel(w.matrix)
        shadow = gram.qfd_shadow(w.database)
        want = kernel.filter(w.queries[0], shadow)
        rows32 = w.database.astype(np.float32)
        want_exact = kernel.filter(w.queries[0], rows32, rows_exact=True)
        monkeypatch.setattr(gram, "_SPLIT_WORKERS", 4)
        monkeypatch.setattr(gram, "_FILTER_CHUNK_MACS", 1 << 16)
        assert len(gram._split(m, w.matrix.shape[0], gram._FILTER_CHUNK_MACS)) == 4
        for got, ref in zip(kernel.filter(w.queries[0], shadow), want):
            assert np.array_equal(got, ref)
        got_exact = kernel.filter(w.queries[0], rows32, rows_exact=True)
        for got, ref in zip(got_exact, want_exact):
            assert np.array_equal(got, ref)

    def test_tiles_give_the_untiled_bits(self, monkeypatch) -> None:
        w = histogram_workload(700, 2, bins_per_channel=4, seed=13)
        kernel = QFDKernel(w.matrix)
        want_shadow = gram.qfd_shadow(w.database)
        want = kernel.filter(w.queries[1], want_shadow)
        monkeypatch.setattr(gram, "_TILE_ROWS", 256)
        shadow = gram.qfd_shadow(w.database)
        assert np.array_equal(shadow, want_shadow)
        for got, ref in zip(kernel.filter(w.queries[1], shadow), want):
            assert np.array_equal(got, ref)


def _lambda_min(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((matrix + matrix.T) / 2)[0])


def _bound(
    matrix: np.ndarray, q: np.ndarray, rows: np.ndarray, *, rows_exact: bool = False
) -> tuple[np.ndarray, float]:
    """``(bound, mu)``, asserting ``bound <= d64`` on every row."""
    kernel = QFDKernel(matrix)
    shadow = rows if rows_exact else gram.qfd_shadow(rows)
    bound = kernel.lower_bound(q, shadow, gram.shadow_norms(shadow), rows_exact=rows_exact)
    want = _d64(matrix, q, rows)
    assert not np.isnan(bound).any() and not (bound == np.inf).any()
    over = bound > want
    assert not over.any(), float(np.max(bound[over] - want[over]))
    return bound, kernel.mu


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
