"""The certified rank-k stage of the QFD scan (``gram.qfd_stages``' ``rank``)
and the certificates behind both of its stages.

Per row the rank-k stage computes ``c = S - 2 P g + G``, the Gram form of
``||P - q W||^2``, from the rows projected once (``gram.qfd_project``),
and per query a cut: a row with ``c > cut(R)`` must have ``d64 > R``,
``d64`` the squared distance the float64 path computes.  ``W = fl(G V)``
(``gram.qfd_weights``): ``G`` the QFD's Cholesky factor and ``V`` the L2
filter's basis of the rows mapped by it, certified ``||V||_2 <= 1`` by
``gram.l2_basis_certified``.  Every error term reads one norm bound for
all rows, so a non-finite row leaves no stage at all.  The mapped stage
tests ``s = ||M - q G||^2`` over the rows mapped by the Cholesky factor
and stored as float32 (held in ``test_kernels_qfd_mapped.py``).  Pinned
here:

* the rank-k cut is conservative (``c <= cut(d64)`` on every row) on
  Hafner ``1 - D/d_max`` matrices, near-singular SPD matrices, matrices
  scaled over 1e-6 ... 1e6 with negative off-diagonals, matrices
  symmetric only within ``is_symmetric``'s tolerance (and far from
  symmetric), rows with float32 and float64 subnormal entries, zero and
  duplicate rows, a float32 store's unflushed rows and rows beyond float32
  range;
* ``W`` is ``G V`` for a certified ``V``, and a refused ``V`` (a basis the
  certificate fails, or one forced to fail) leaves no rank-k term: ``c`` is
  0 and rules nothing out;
* on the benchmark corpus the rank-k cut rules out >= 95 % of the rows at
  kNN's cut, and the mapped stage leaves about k of the rows it keeps;
* the mapped stage's cuts hold on the same inputs in 2- to 64-d, and a row
  whose map leaves float32 range leaves no mapped stage;
* the projected rows, their norm bound and ``c`` take the untiled call's
  bits, and no caller array is written.
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
from repro.mam import SequentialFile

F32_TINY = float(np.finfo(np.float32).tiny)
F32_MAX = float(np.finfo(np.float32).max)


def _d64(matrix: np.ndarray, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The float64 path's squared distances, before its clamp and root."""
    with np.errstate(all="ignore"):
        diff = gram._flush_subnormals(np.asarray(rows, dtype=np.float64) - q, inplace=True)
        return np.einsum("ij,ij->i", diff @ matrix, diff)


def _conservative(cut, sums: np.ndarray, want: np.ndarray) -> None:
    """No row is ruled out at its own ``d64``: ``sums <= cut(max(d64, 0))``,
    so for every ``R`` a row above ``cut(R)`` has ``d64 > R`` (the cut is
    non-decreasing).  No sum is NaN."""
    assert not np.isnan(sums).any()
    over = [(s, cut(max(d, 0.0))) for s, d in zip(sums, want) if s > cut(max(d, 0.0))]
    assert not over, over[:3]


def _stages(kernel: QFDKernel, q: np.ndarray, rows: np.ndarray) -> tuple:
    """``(fitted, projected, squares, stages)``: *kernel*'s rank-k operand
    fitted to *rows*, the rows projected on it and the stages of *q* over
    them (``None`` when nothing is certain), as a scan's first query makes
    them."""
    fitted = kernel.fit(rows)
    projected, squares, v_norm = gram.qfd_project(fitted[1], rows)
    return fitted, projected, squares, kernel.stages(q, fitted, v_norm)


def _spectral(
    matrix: np.ndarray, q: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, object, tuple]:
    """``(c, cut, fitted)`` of the rank-k stage, asserting the cut
    conservative on every row and ``W`` the product ``G V`` of a certified
    ``V`` (with no rank-k term, ``c`` is 0).  The kernel is handed the
    factor of ``A_sym``, so a matrix far from symmetric has stages too."""
    kernel = QFDKernel(matrix, np.linalg.cholesky((matrix + matrix.T) / 2))
    fitted, projected, squares, (rank, _) = _stages(kernel, q, rows)
    c, cut = rank(projected, squares)
    basis, weights, _ = fitted
    if weights.shape[1]:
        assert gram.l2_basis_certified(basis)
        assert np.array_equal(weights, kernel.factor @ basis)
    else:
        assert (c == 0.0).all()
    _conservative(cut, c, _d64(matrix, q, rows))
    return c, cut, fitted


def _intervals(matrix: np.ndarray, q: np.ndarray, rows: np.ndarray) -> tuple | None:
    """``(s, lo_cut, hi, d64)`` of the mapped stage through the kernel a
    QFD's scan holds, asserting ``lo_cut`` conservative and ``hi(s) >=
    d64`` on every row; ``None`` where no mapped stage is certain."""
    kernel = resolve_kernel(QuadraticFormDistance(matrix))
    mapped, m_error = kernel.map(rows)
    assert mapped.dtype == np.float32 and isinstance(m_error, float)
    stages = _stages(kernel, q, rows)[3]
    found = None if stages is None else stages[1](mapped, m_error)
    if found is None:
        return None
    s, lo_cut, hi = found
    want = _d64(matrix, q, rows)
    _conservative(lo_cut, s, want)
    under = [(hi(x), d) for x, d in zip(s, want) if not hi(x) >= d]
    assert not under, under[:3]
    return s, lo_cut, hi, want


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
        c, _, _ = _spectral(matrix, q, rows)
        assert np.isfinite(c).all()  # nothing here leaves float64 range

    @given(seed=st.integers(0, 100_000), n=st.sampled_from([3, 8, 64]))
    @settings(max_examples=40, deadline=None)
    def test_rows_beyond_float32_range_are_flagged(self, seed, n) -> None:
        # The rank-k stage reads float64 rows: its cut holds on rows beyond
        # float32 range.  The mapped stage reads the float32 mapped rows: a
        # row whose map leaves float32 range leaves none.  A row whose norm
        # overflows leaves no stage at all.
        rng = np.random.default_rng(seed)
        matrix = _matrix("hafner", n, rng)
        rows = rng.dirichlet(np.ones(n), size=9)
        q, rows = rows[0], rows[1:]
        huge = rng.choice(8, size=3, replace=False)
        rows[huge[0], 0] = 1e39
        rows[huge[1], n - 1] = -3.5e38
        c, _, _ = _spectral(matrix, q, rows)
        assert np.isfinite(c).all()
        assert _intervals(matrix, q, rows) is None
        rows[huge[2]] = 1e300
        assert _stages(QFDKernel(matrix), q, rows)[3] is None

    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["hafner", "scaled", "skewed"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_float32_rows_are_their_own_shadow(self, seed, kind) -> None:
        # A float32 store needs no copy: its rows, float32 subnormals kept,
        # upcast exactly to the float64 rows both stages read.
        rng = np.random.default_rng(seed)
        matrix = _matrix(kind, 27, rng)
        rows = rng.dirichlet(np.full(27, 1e-3), size=31)
        rows[:, :3] = [3e-40, 1e-45, 2e-39]  # float32 subnormals, kept by the store
        rows32 = rows.astype(np.float32)
        assert np.count_nonzero(np.abs(rows32) < F32_TINY) > 31 * 3 - 31  # unflushed
        _, _, (_, weights, _) = _spectral(matrix, rows[0], rows32)
        got = gram.qfd_project(weights, rows32)
        for got, want in zip(got, gram.qfd_project(weights, rows32.astype(np.float64))):
            assert np.array_equal(got, want)

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
        c, _, (_, weights, _) = _spectral(matrix, rows[0], rows[1:])
        assert np.isfinite(c).all() and weights.shape[1] > 0

    def test_a_failed_rank_k_certificate_gives_the_rank_0_bound(self, monkeypatch) -> None:
        # A refused V leaves no rank-k term: every c is 0, under every cut,
        # which rules nothing out (the scan then tests every row in the
        # mapped stage).
        matrix = _matrix("hafner", 64, np.random.default_rng(6))
        monkeypatch.setattr(gram, "l2_basis_certified", lambda basis: False)
        kernel = QFDKernel(matrix)
        rows = np.random.default_rng(6).dirichlet(np.full(64, 0.1), size=30)
        (basis, weights, (w_norm, delta)), projected, squares, stages = _stages(
            kernel, rows[0], rows
        )
        assert basis.shape == weights.shape == (64, 0) and kernel.factor is not None
        assert w_norm == delta == 0.0 and projected.shape == (30, 0)
        c, cut = stages[0](projected, squares)
        assert np.array_equal(c, np.zeros(30)) and cut(0.0) > 0.0

    def test_an_indefinite_matrix_certifies_nothing(self) -> None:
        # No Cholesky factor: no map, so neither W = G V nor mapped rows.
        matrix = _matrix("hafner", 27, np.random.default_rng(8))
        matrix[0, 0] = -1.0
        kernel = QFDKernel(matrix)
        assert kernel.factor is None and kernel.radius >= 1.0

    def test_the_benchmark_corpus_at_512d(self) -> None:
        w = histogram_workload(1500, 4, bins_per_channel=8, seed=2011)
        for q in w.queries:
            c, cut, (_, weights, _) = _spectral(w.matrix, q, w.database)
            assert weights.shape == (512, gram._PROJECTION_RANK)
            # O(k) per row, and it rules out almost every row at kNN's cut.
            kth = np.partition(_d64(w.matrix, q, w.database), 9)[9]
            assert np.count_nonzero(c > cut(kth)) >= 0.95 * c.shape[0]


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
        # The float32 rows the scan keeps are the mapped ones: the rows,
        # flushed of float64 subnormals, times the Cholesky factor, cast to
        # float32; the projected rows are the flushed rows times W, float64.
        rows = np.array([[1e-310, -5e-324, F32_TINY, 0.5]])
        flushed = np.array([[0.0, 0.0, F32_TINY, 0.5]])
        kernel = QFDKernel(_matrix("hafner", 4, np.random.default_rng(2)))
        _, weights, _ = kernel.fit(rows)
        assert weights.shape[1] > 0 and weights.dtype == np.float64
        projected, _, _ = gram.qfd_project(weights, rows)
        assert projected.dtype == np.float64
        assert np.array_equal(projected, flushed @ weights)
        mapped, _ = kernel.map(rows)
        assert mapped.dtype == np.float32
        assert np.array_equal(mapped, (flushed @ kernel.factor).astype(np.float32))

    def test_flush_takes_the_arrays_own_tiny(self) -> None:
        x = np.array([1e-40, F32_TINY, -1e-39, 1e-300], dtype=np.float32)
        assert gram._flush_subnormals(x).tolist() == [0.0, F32_TINY, 0.0, 0.0]
        y = np.array([1e-40, 1e-310])
        assert gram._flush_subnormals(y).tolist() == [1e-40, 0.0]

    def test_caller_arrays_are_never_written(self) -> None:
        w = histogram_workload(300, 2, bins_per_channel=4, seed=7)
        rows, q = w.database.copy(), w.queries[0].copy()
        kernel = QFDKernel(w.matrix)
        fitted, projected, squares, (rank, mapped_stage) = _stages(kernel, q, rows)
        mapped, m_error = kernel.map(rows)
        basis, weights, _ = fitted
        operands = rows, q, projected, squares, mapped, basis, weights, kernel.factor
        before = [x.tobytes() for x in operands]
        rank(projected, squares)
        mapped_stage(mapped, m_error)
        kernel.map(rows)
        kernel.fit(rows)
        gram.qfd_project(weights, rows)
        assert [x.tobytes() for x in operands] == before

    def test_tiles_give_the_untiled_bits(self, monkeypatch) -> None:
        w = histogram_workload(700, 2, bins_per_channel=4, seed=13)
        kernel = QFDKernel(w.matrix)

        def bound_of(rows):
            fitted, projected, squares, (rank, mapped_stage) = _stages(kernel, w.queries[1], rows)
            mapped, m_error = kernel.map(rows)
            c, _ = rank(projected, squares)
            s, _, _ = mapped_stage(mapped, m_error)
            return fitted[1], projected, squares, c, mapped, m_error, s

        want = bound_of(w.database)
        monkeypatch.setattr(gram, "_TILE_ROWS", 256)
        for got, ref in zip(bound_of(w.database), want):
            assert np.array_equal(got, ref)


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
        # Neither stage rules a row out at its own d64, and the mapped
        # stage's hi stays at or over it.
        rng = np.random.default_rng(seed)
        matrix = _matrix(kind, n, rng)
        rows = rng.dirichlet(np.full(n, alpha), size=m + 1) * scale
        for r, c, value in injected:
            rows[r % (m + 1), c % n] = value
        q, rows = rows[0], rows[1:]
        rows[rng.integers(0, m)] = 0.0  # a zero row
        rows[rng.integers(0, m)] = q  # the query itself: d = 0
        rows[rng.integers(0, m)] = rows[rng.integers(0, m)]  # a duplicate
        _spectral(matrix, q, rows)
        assert _intervals(matrix, q, rows) is not None

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
        rows = np.random.default_rng(4).dirichlet(np.ones(27), size=40)
        fitted = kernel.fit(rows)
        assert fitted[1].shape[1] > 0 and kernel.radius > 0.0
        assert not calls  # the map's G and W = G V are the QFD's own factor
        assert kernel.factor is kernel._factor
        copy = pickle.loads(pickle.dumps(kernel))
        assert copy._filter_operands is None and copy._factor is None  # rebuilt, not shipped
        assert np.array_equal(copy.factor, kernel.factor) and len(calls) == 1
        for got, want in zip(copy.fit(rows)[:2], fitted[:2]):
            assert np.array_equal(got, want)

    def test_the_factor_is_neither_pickled_nor_held_twice(self) -> None:
        matrix = _matrix("hafner", 64, np.random.default_rng(5))
        qfd = QuadraticFormDistance(matrix)
        assert np.array_equal(qfd.cholesky_factor, np.linalg.cholesky(matrix))
        payload = pickle.dumps(qfd)
        assert len(payload) < matrix.nbytes + 1024
        assert pickle.loads(payload).cholesky_factor is None
        qmap = QMap(qfd)  # the transform's B is the same factor: one copy
        assert qfd.cholesky_factor is qmap.matrix
        assert resolve_kernel(qfd).factor is qfd.cholesky_factor  # and the scan's G

    def test_a_failed_certificate_gives_zero(self, monkeypatch) -> None:
        # A basis 2^-20 above orthonormal has ||V||_2 > 1, which Gershgorin
        # cannot prove <= 1: V is refused, and c prunes nothing.
        matrix = _matrix("hafner", 27, np.random.default_rng(6))
        monkeypatch.setattr(gram, "_SHRINK", 1.0 + 2.0**-20)
        rows = np.random.default_rng(6).dirichlet(np.ones(27), size=20)
        c, cut, (basis, weights, _) = _spectral(matrix, rows[0], rows[1:])
        assert basis.shape == weights.shape == (27, 0)
        assert (c <= cut(0.0)).all()  # prunes nothing

    def test_an_indefinite_matrix_gives_zero(self) -> None:
        # A scan over a kernel without a factor keeps no rows: no stage.
        matrix = _matrix("hafner", 27, np.random.default_rng(8))
        matrix[0, 0] = -1.0
        rows = np.random.default_rng(8).dirichlet(np.ones(27), size=20)
        scan = SequentialFile(rows, QuadraticFormDistance(np.eye(27)))
        assert scan._mapped_rows(QFDKernel(matrix)) is None and scan._qfd_rows is None

    @given(seed=st.integers(0, 100_000), n=st.sampled_from([3, 8, 64]))
    @settings(max_examples=40, deadline=None)
    def test_rows_beyond_float32_range_are_kept(self, seed, n) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix("hafner", n, rng)
        rows = rng.dirichlet(np.ones(n), size=9)
        q, rows = rows[0], rows[1:]
        huge = rng.choice(8, size=2, replace=False)
        rows[huge[0], 0] = 1e39  # G_00 = 1: maps to 1e39, beyond float32
        assert _intervals(matrix, q, rows) is None  # no mapped stage
        rows[huge[0], 0] = 1.0
        assert _intervals(matrix, q, rows) is not None
        rows[huge[1]] = 1e300  # no stage at all
        assert _stages(QFDKernel(matrix), q, rows)[3] is None

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
        _intervals(matrix, rows[0], rows32)

    def test_the_benchmark_corpus_at_512d(self) -> None:
        # Both stages: of the rows the rank-k cut keeps at kNN's cut, the
        # mapped stage leaves about the k nearest.
        w = histogram_workload(1500, 4, bins_per_channel=8, seed=2011)
        for q in w.queries:
            c, cut, _ = _spectral(w.matrix, q, w.database)
            kth = np.partition(_d64(w.matrix, q, w.database), 9)[9]
            kept = np.flatnonzero(~(c > cut(kth)))
            s, lo_cut, _, _ = _intervals(w.matrix, q, w.database[kept])
            assert np.count_nonzero(~(s > lo_cut(kth))) <= 12 < kept.shape[0]
