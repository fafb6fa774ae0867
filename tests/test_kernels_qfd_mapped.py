"""The certified interval of the QFD scan's mapped rows (``gram.qfd_interval``).

A row ``v`` is mapped by the QFD's Cholesky factor ``G`` and stored as
float32 (``gram.qfd_map``, the QMap image); ``qfd_interval`` then gives,
in O(n) per row, ``[lo, hi]`` around ``d64`` — the squared distance the
float64 path computes (``qfd_one_to_many`` before its clamp and square
root) — or ``(-inf, inf)`` where nothing is certain.  Pinned here:

* ``lo <= d64 <= hi`` over 8- and 64-d Hafner, near-singular, scaled and
  asymmetric-within-1e-9 SPD matrices, the 512-d benchmark matrix, float32
  and float64 rows, duplicates, ``v = q``, zero rows, float32 and float64
  subnormal entries, and scales from 1e-150 to 1e150;
* a row or query whose map leaves float32 or float64 range gets
  ``(-inf, inf)``, never a NaN;
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

from .test_kernels_f32_filter import SPECIAL, _intervals, _matrix

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
        lo, hi, want = _intervals(matrix, q, rows)
        if scale == 1.0:  # nothing leaves float32 range: every row is bounded
            assert np.isfinite(lo).all() and np.isfinite(hi).all()

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
        lo, hi, want = _intervals(matrix, rows[0], rows)
        assert lo[0] <= 0.0 <= hi[0] and want[0] == 0.0 and want[5] == 0.0

    def test_rows_and_queries_beyond_float32_range_are_unbounded(self) -> None:
        rng = np.random.default_rng(5)
        matrix = _matrix("hafner", 8, rng)
        rows = rng.dirichlet(np.ones(8), size=6)
        rows[2, 0] = 1e39  # maps beyond float32: stored as inf
        rows[3] = 1e300  # beyond float64 in its norm
        lo, hi, _ = _intervals(matrix, rows[0], rows)
        assert (lo[[2, 3]] == -np.inf).all() and (hi[[2, 3]] == np.inf).all()
        assert np.isfinite(np.delete(lo, [2, 3])).all()
        q = rows[0].copy()
        q[3] = 1e300  # the query's norm overflows: nothing is certain
        lo, hi, _ = _intervals(matrix, q, rows)
        assert (lo == -np.inf).all() and (hi == np.inf).all()

    def test_the_benchmark_corpus_at_512d(self) -> None:
        # O(n) per row, and tight: the rows an interval keeps within the
        # 10th distance's cut are the 10 nearest, give or take a tie.
        w = histogram_workload(1500, 4, bins_per_channel=8, seed=2011)
        for q in w.queries:
            lo, hi, want = _intervals(w.matrix, q, w.database)
            kth = np.partition(hi, 9)[9]
            assert np.count_nonzero(lo <= kth) <= 12
            assert np.max((hi - lo) / np.maximum(want, 1e-300)) < 1e-4


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
        _, v_norm, _ = kernel.project(w.database)
        mapped, _ = kernel.map(w.database, v_norm)
        flushed = gram._flush_subnormals(w.database)
        assert np.array_equal(mapped, (flushed @ kernel.factor).astype(np.float32))
