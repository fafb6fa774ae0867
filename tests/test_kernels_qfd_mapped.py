"""The certified mapped stage of the QFD scan (``gram.qfd_stages``' ``mapped``).

A row ``v`` is mapped by the QFD's Cholesky factor ``G`` and stored as
float32 (``gram.qfd_map``, the QMap image, with one error bound ``e`` for
all rows); the mapped stage then gives, in O(n) per row, ``s = ||M - q
G||^2`` and per query ``lo_cut`` and ``hi``: a row with ``s > lo_cut(R)``
has ``d64 > R``, and ``hi(s) >= d64`` — ``d64`` the squared distance the
float64 path computes (``qfd_one_to_many`` before its clamp and square
root).  Pinned here:

* ``lo_cut`` conservative and ``hi(s) >= d64`` over 8- and 64-d Hafner,
  near-singular, scaled and asymmetric-within-1e-9 SPD matrices, the 512-d
  benchmark matrix, float32 and float64 rows, duplicates, ``v = q``, zero
  rows, float32 and float64 subnormal entries, and scales from 1e-150 to
  1e150;
* a row or query whose map leaves float32 or float64 range leaves no
  mapped stage (``None``), never a NaN;
* ``K``, the factor term (``gram.qfd_factor_terms``), covers ``G G^T -
  A_sym`` as measured in extended precision, and ``F`` covers ``||G||_F``:
  a form error term without the Cholesky backward error fails here;
* on the benchmark corpus the intervals are narrow enough that the rows
  within the 10th distance's cut are about the 10 nearest.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QuadraticFormDistance, is_symmetric
from repro.datasets import histogram_workload
from repro.kernels import gram, resolve_kernel

from .test_kernels_f32_filter import SPECIAL, _d64, _intervals, _matrix, _spectral

EXTENDED = np.finfo(np.longdouble).eps < 2.0**-60


class TestTheIntervalHolds:
    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["hafner", "near-singular", "scaled", "skewed"]),
        n=st.sampled_from([8, 64]),
        m=st.integers(1, 30),
        scale=st.sampled_from([1e-150, 1e-20, 1.0, 1e10, 1e150]),
        injected=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 10_000), SPECIAL), max_size=20
        ),
        alpha=st.sampled_from([1e-3, 0.1, 1.0]),
        float32=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_row_is_bracketed(
        self, seed, kind, n, m, scale, injected, alpha, float32
    ) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix(kind, n, rng)
        rows = rng.dirichlet(np.full(n, alpha), size=m + 1) * scale
        for r, c, value in injected:
            rows[r % (m + 1), c % n] = value
        q, rows = rows[0], rows[1:]
        rows[rng.integers(0, m)] = 0.0  # a zero row
        rows[rng.integers(0, m)] = q  # the query itself: d64 = 0
        rows[rng.integers(0, m)] = rows[rng.integers(0, m)]  # a duplicate
        if float32 and scale <= 1e10:
            rows = rows.astype(np.float32)  # a float32 store, subnormals kept
        found = _intervals(matrix, q, rows)
        if scale == 1.0:  # nothing leaves float32 range: every row is bounded
            assert found is not None
        _spectral(matrix, q, rows)  # and the rank-k stage's cut, at every scale

    def test_the_skewed_kind_passes_is_symmetric(self) -> None:
        rng = np.random.default_rng(17)
        for n in (8, 64):
            matrix = _matrix("skewed", n, rng)
            assert is_symmetric(matrix) and not np.array_equal(matrix, matrix.T)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_512d_hafner_matrix(self, seed) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix("hafner", 512, rng)
        rows = rng.dirichlet(np.full(512, 1e-3), size=40)
        rows[5] = rows[0]
        s, lo_cut, hi, want = _intervals(matrix, rows[0], rows)
        assert s[0] <= lo_cut(0.0) and hi(s[0]) >= 0.0 and want[0] == want[5] == 0.0
        c, cut, _ = _spectral(matrix, rows[0], rows)
        assert c[0] <= cut(0.0) and c[5] <= cut(0.0)

    def test_rows_and_queries_beyond_float32_range_are_unbounded(self) -> None:
        rng = np.random.default_rng(5)
        matrix = _matrix("hafner", 8, rng)
        rows = rng.dirichlet(np.ones(8), size=6)
        assert _intervals(matrix, rows[0], rows) is not None
        q = rows[0].copy()
        q[3] = 1e300  # the query's norm overflows: nothing is certain
        assert _intervals(matrix, q, rows) is None
        rows[2, 0] = 1e39  # maps beyond float32: stored as inf, e not finite
        mapped, m_error = resolve_kernel(QuadraticFormDistance(matrix)).map(rows)
        assert np.isinf(mapped[2]).any() and m_error == np.inf
        assert _intervals(matrix, rows[0], rows) is None
        rows[2, 0], rows[3] = 0.5, 1e300  # beyond float64 in its norm
        assert _intervals(matrix, rows[0], rows) is None

    def test_the_benchmark_corpus_at_512d(self) -> None:
        # O(n) per row, and tight: the rows the stage keeps within the
        # 10th hi's cut are the 10 nearest, give or take a tie; every row is
        # ruled out 1e-4 below its distance and hi is within 1e-4 above it.
        w = histogram_workload(1500, 4, bins_per_channel=8, seed=2011)
        for q in w.queries:
            s, lo_cut, hi, want = _intervals(w.matrix, q, w.database)
            kth = hi(float(np.partition(s, 9)[9]))
            assert np.count_nonzero(~(s > lo_cut(kth))) <= 12
            assert all(x > lo_cut(d * (1 - 1e-4)) for x, d in zip(s, want))
            assert all(hi(x) < d * (1 + 1e-4) for x, d in zip(s, want))


class TestTheFactorTerms:
    @pytest.mark.skipif(not EXTENDED, reason="needs an extended-precision longdouble")
    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["hafner", "near-singular", "scaled", "skewed"]),
        n=st.sampled_from([8, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_terms_cover_the_factor(self, seed, kind, n) -> None:
        matrix = _matrix(kind, n, np.random.default_rng(seed))
        self._assert_covered(matrix)

    @pytest.mark.skipif(not EXTENDED, reason="needs an extended-precision longdouble")
    def test_the_terms_cover_the_benchmark_factor(self) -> None:
        self._assert_covered(histogram_workload(10, 1, bins_per_channel=8, seed=2011).matrix)

    @staticmethod
    def _assert_covered(matrix: np.ndarray) -> None:
        factor = QuadraticFormDistance(matrix).cholesky_factor
        f_norm, form = gram.qfd_factor_terms(matrix, factor)
        wide = factor.astype(np.longdouble)
        sym = (matrix.astype(np.longdouble) + matrix.T.astype(np.longdouble)) / 2
        gap = (wide @ wide.T - sym).astype(np.float64)
        assert np.linalg.norm(gap, 2) <= form
        assert float(np.sqrt(np.sum(wide * wide))) <= f_norm

    def test_a_symmetric_matrix_has_no_skew_term(self) -> None:
        matrix = _matrix("hafner", 64, np.random.default_rng(3))
        factor = np.linalg.cholesky(matrix)
        _, form = gram.qfd_factor_terms(matrix, factor)
        skewed = matrix.copy()
        skewed[0, 1] += 1e-9
        _, wider = gram.qfd_factor_terms(skewed, factor)
        assert 0.0 < form < wider and wider - form >= 0.5e-9

    def test_the_map_is_the_qmap_transform_in_float32(self) -> None:
        w = histogram_workload(50, 1, bins_per_channel=4, seed=3)
        kernel = resolve_kernel(QuadraticFormDistance(w.matrix))
        mapped, _ = kernel.map(w.database)
        flushed = gram._flush_subnormals(w.database)
        assert np.array_equal(mapped, (flushed @ kernel.factor).astype(np.float32))


def _terms(matrix: np.ndarray, q: np.ndarray, rows: np.ndarray) -> dict | None:
    """Every float both stages read for *q* over *rows*, and every error
    term their cuts are made of, as ``gram.qfd_stages`` makes them."""
    kernel = resolve_kernel(QuadraticFormDistance(matrix))
    radius, factor, (f_norm, form) = kernel._operands()
    fitted = kernel.fit(rows)
    basis, weights, (w_norm, delta) = fitted
    projected, p_squares, v_norm = gram.qfd_project(weights, rows)
    mapped, m_error = kernel.map(rows)
    n, k = weights.shape
    q_norm = float(gram._norm_up(float(q @ q), n))
    if not np.isfinite(v_norm + q_norm + m_error):
        return None
    flushed = gram._flush_subnormals(q)
    g, g_map = flushed @ weights, flushed @ factor
    g_squares = float(g @ g)
    big_x = (v_norm + q_norm) * gram._HIGH
    spread = gram._float64_error(big_x, radius, n) * gram._HIGH
    return {
        "kernel": kernel, "n": n, "k": k, "factor": factor, "fitted": fitted,
        "basis": basis, "weights": weights, "w_norm": w_norm, "delta": delta,
        "projected": projected, "p_squares": p_squares, "v_norm": v_norm,
        "mapped": mapped, "m_error": m_error, "q_norm": q_norm, "g": g, "g_map": g_map,
        "g_squares": g_squares, "big_x": big_x, "spread": spread, "form": form,
        "gram": gram._gram_error(k, g_squares),
        "rank_error": gram._rank_error(v_norm, q_norm, np.sqrt(n) * gram._TINY64, w_norm, n, k),
        "q_error": gram._product_error(q_norm, f_norm, n),
        "v_error": gram._product_error(v_norm, f_norm, n),
        "form_spread": (form * big_x * big_x + spread) * gram._HIGH,
    }


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x * x, axis=-1))


class TestTheCutsAreDerived:
    """Each error term of a cut covers the error it names, measured against
    extended precision, and each cut is made of those terms as
    ``gram.qfd_stages`` derives it: dropping a term fails here even where
    its slack is too small for the end-to-end tests to see."""

    @pytest.mark.skipif(not EXTENDED, reason="needs an extended-precision longdouble")
    @given(
        seed=st.integers(0, 100_000),
        kind=st.sampled_from(["hafner", "near-singular", "scaled", "skewed"]),
        n=st.sampled_from([8, 64]),
        scale=st.sampled_from([1e-160, 1e-150, 1e-20, 1.0, 1e10, 1e150]),
        alpha=st.sampled_from([1e-3, 0.1, 1.0]),
        zero_query=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_each_term_covers_its_error(self, seed, kind, n, scale, alpha, zero_query) -> None:
        rng = np.random.default_rng(seed)
        matrix = _matrix(kind, n, rng)
        rows = rng.dirichlet(np.full(n, alpha), size=12) * scale
        q = np.zeros(n) if zero_query else rows[0]
        rows[1], rows[2], rows[3] = q, 0.0, rows[4]  # v = q, a zero row, a duplicate
        t = _terms(matrix, q, rows)
        if t is None:
            return
        wide, tiny = np.longdouble, gram._TINY64
        x = rows.astype(wide) - q.astype(wide)
        # T64: the float64 path against x A x^T.
        form = np.einsum("ij,ij->i", x @ matrix.astype(wide), x)
        assert (np.abs(_d64(matrix, q, rows) - form) <= t["spread"]).all()
        # e_q and e: the query map and the rows' map, its product and store.
        exact_map = rows.astype(wide) @ t["factor"].astype(wide)
        q_map = q.astype(wide) @ t["factor"].astype(wide)
        assert _norms(t["g_map"] - q_map) <= t["q_error"]
        product = gram._flush_subnormals(rows) @ t["factor"]
        assert (_norms(product - exact_map) <= t["v_error"]).all()
        assert (_norms(t["mapped"] - exact_map) <= t["m_error"]).all()
        # s: the float64 sum of squares of fl(M - g_G) brackets ||M - g_G||.
        true = _norms(t["mapped"].astype(wide) - t["g_map"].astype(wide))
        y = t["mapped"] - t["g_map"]
        s = np.einsum("ij,ij->i", y, y)
        gamma, w = gram._gamma(n, gram._U64), gram._U64
        under = 2 * n * tiny
        assert (np.sqrt(np.maximum(s - under, 0) / (1 + gamma)) * (1 - w) <= true).all()
        assert (true <= np.sqrt((s + under) / (1 - gamma)) / (1 - w)).all()
        # K X^2: ||x G||^2 exceeds x A x^T by at most K ||x||^2 <= K X^2.
        x_norms = _norms(x)
        assert (x_norms <= t["big_x"]).all()
        lifted = _norms(x @ t["factor"].astype(wide)) ** 2
        assert (lifted - form <= t["form"] * x_norms * x_norms).all()
        if not t["k"]:
            return
        # delta: fl(G V) against G V; F_W: ||W||_F; V: ||V||_2 <= 1.
        basis = t["basis"].astype(wide)
        exact_weights = t["factor"].astype(wide) @ basis
        assert np.sqrt(np.sum((t["weights"] - exact_weights) ** 2)) <= t["delta"]
        assert np.sqrt(np.sum(t["weights"].astype(wide) ** 2)) <= t["w_norm"]
        assert np.linalg.norm(t["basis"], 2) <= 1.0
        # The chain: ||x W|| <= ||x G|| ||V||_2 + delta ||x||.
        weights = t["weights"].astype(wide)
        chain = np.sqrt(lifted) + t["delta"] * x_norms
        assert (_norms(x @ weights) <= chain).all()
        # E: ||P - g|| against ||x W||; a and b: the Gram form against ||P - g||^2.
        gap = _norms(t["projected"].astype(wide) - t["g"].astype(wide))
        assert (np.abs(gap - _norms(x @ weights)) <= t["rank_error"]).all()
        c = t["projected"] @ (-2.0 * t["g"]) + t["p_squares"] + t["g_squares"]
        a, b = t["gram"]
        assert ((c.astype(wide) - b) / (1 + 2 * a) <= gap * gap).all()

    def test_the_cuts_are_their_formulas(self) -> None:
        w = histogram_workload(300, 3, bins_per_channel=4, seed=5)
        high, low = gram._HIGH, gram._LOW
        for q in (w.queries[0], np.zeros(w.dim), w.database[7]):
            t = _terms(w.matrix, q, w.database)
            rank, mapped = t["kernel"].stages(q, t["fitted"], t["v_norm"])
            c, cut = rank(t["projected"], t["p_squares"])
            s, lo_cut, hi = mapped(t["mapped"], t["m_error"])
            n, (a, b) = t["n"], t["gram"]
            e = (t["m_error"] + t["q_error"]) * high
            shrink = (1 - gram._U64) / np.sqrt(1 + gram._gamma(n, gram._U64)) * low
            grow = high / ((1 - gram._U64) * np.sqrt(1 - gram._gamma(n, gram._U64)))
            # The rank cut's E + delta X and D = K X^2 + T64 (the mapped
            # stage's form_spread).
            rank_error = (t["rank_error"] + t["delta"] * t["big_x"]) * high
            assert t["delta"] > 0.0 and t["form"] > 0.0
            for r in (0.0, 1e-6, 0.01, 0.3, 4.0):
                y = (rank_error + np.sqrt((r + t["form_spread"]) * high) * high) * high
                assert cut(r) == (y * y * (1 + 2 * a) * high + b) * high
                z = (np.sqrt((r + t["form_spread"]) * high) * high + e) / shrink * high
                assert lo_cut(r) == (z * z * high + 2 * n * gram._TINY64) * high
            for x in (0.0, float(s[3]), float(s.max())):
                z = (np.sqrt(x + 2 * n * gram._TINY64) * grow + e) * high
                assert hi(x) == (z * z * high + t["form_spread"]) * high
        # The map's e: the float32 store's term and the product's, at the
        # largest rows.
        u, root_n = gram._U32, np.sqrt(n)
        m_squares = np.einsum("ij,ij->i", t["mapped"], t["mapped"], dtype=np.float64)
        m_norm = gram._norm_up(m_squares.max(), n)
        store = u * (m_norm + root_n * gram._TINY32) / (1 - u) + root_n * gram._TINY32
        assert t["m_error"] == float((store + t["v_error"]) * high)
