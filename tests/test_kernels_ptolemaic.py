"""Tests for repro.kernels.ptolemaic — the Ptolemaic pivot lower bound.

The vectorized forms must reproduce the scalar reference **bit-for-bit**
(the Gram-kernel discipline: same per-pair multiply/subtract/abs/divide
floats, exact max reduction), the bound must never exceed the true
distance on a Ptolemaic metric (L2 — and hence QFD/QMap), and degenerate
zero-distance pivot pairs must be dropped rather than divided by.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import euclidean, euclidean_one_to_many
from repro.kernels import (
    ptolemaic_bound_scalar,
    ptolemaic_bounds,
    valid_pivot_pairs,
)


def _setting(seed: int, m: int, p: int, dim: int):
    """Database rows, pivot rows, query, and the three distance inputs."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, size=(m, dim))
    pivot_rows = rng.uniform(0.0, 1.0, size=(p, dim))
    query = rng.uniform(0.0, 1.0, size=dim)
    table = np.column_stack(
        [euclidean_one_to_many(pivot_rows[j], data) for j in range(p)]
    )
    query_vector = euclidean_one_to_many(query, pivot_rows)
    pair = np.zeros((p, p))
    for i in range(p):
        pair[i] = euclidean_one_to_many(pivot_rows[i], pivot_rows)
    return data, query, table, query_vector, pair


@st.composite
def ptolemaic_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    m = draw(st.integers(min_value=1, max_value=40))
    p = draw(st.integers(min_value=2, max_value=8))
    dim = draw(st.integers(min_value=2, max_value=10))
    return _setting(seed, m, p, dim)


class TestBitIdentity:
    @given(case=ptolemaic_cases())
    @settings(max_examples=40, deadline=None)
    def test_vectorized_equals_scalar_bitwise(self, case) -> None:
        _, _, table, qv, pair = case
        pairs = valid_pivot_pairs(pair)
        batched = ptolemaic_bounds(table, qv, pair, pairs)
        for row_idx in range(table.shape[0]):
            scalar = ptolemaic_bound_scalar(table[row_idx], qv, pair, pairs)
            assert batched[row_idx] == scalar  # exact, not approx

    @given(case=ptolemaic_cases(), s=st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_matrix_columns_equal_per_query_bounds_bitwise(self, case, s) -> None:
        _, _, table, qv, pair = case
        pairs = valid_pivot_pairs(pair)
        # s slightly perturbed copies of the query vector as a batch, each
        # bounded on its own over the pivot-major layout the pivot table
        # holds (one contiguous row per pivot, passed as its (m, p) view).
        qvs = np.stack([qv * (1.0 + 0.01 * i) for i in range(s)])
        pivot_major = np.ascontiguousarray(table.T)
        matrix = np.column_stack(
            [ptolemaic_bounds(pivot_major.T, qvs[col], pair, pairs) for col in range(s)]
        )
        for col in range(s):
            for row_idx in range(table.shape[0]):
                scalar = ptolemaic_bound_scalar(table[row_idx], qvs[col], pair, pairs)
                assert matrix[row_idx, col] == scalar

    def test_blocked_pair_axis_is_still_bitwise(self, monkeypatch) -> None:
        """Force a tiny pair block so multiple blocks are exercised."""
        from repro.kernels import ptolemaic as mod

        _, _, table, qv, pair = _setting(7, 30, 8, 6)
        pairs = valid_pivot_pairs(pair)
        whole = ptolemaic_bounds(table, qv, pair, pairs)
        monkeypatch.setattr(mod, "_BLOCK_FLOATS", 1)
        blocked = mod.ptolemaic_bounds(table, qv, pair, pairs)
        assert np.array_equal(whole, blocked)


class TestBoundValidity:
    @given(case=ptolemaic_cases())
    @settings(max_examples=40, deadline=None)
    def test_bound_never_exceeds_true_l2_distance(self, case) -> None:
        data, query, table, qv, pair = case
        pairs = valid_pivot_pairs(pair)
        lb = ptolemaic_bounds(table, qv, pair, pairs)
        true = euclidean_one_to_many(query, data)
        # L2 is Ptolemaic; a tiny slack absorbs the rounding of the
        # precomputed pivot distances feeding the bound.
        assert np.all(lb <= true + 1e-9)

    def test_query_on_a_pivot_makes_the_bound_exact(self) -> None:
        """With q == p1 the pair (p1, pj) bound collapses to exactly
        d(v, p1): the numerator is d(p1,pj) * d(v,p1) and the denominator
        cancels it — the Ptolemaic bound is tight where the triangle bound
        already is, and tighter elsewhere."""
        data, _, table, _, pair = _setting(3, 20, 4, 5)
        pairs = valid_pivot_pairs(pair)
        qv = pair[0]  # the first pivot as the query: d(q, p_j) = d(p1, p_j)
        lb = ptolemaic_bounds(table, qv, pair, pairs)
        true = table[:, 0]  # d(v, p1)
        np.testing.assert_allclose(lb, true, rtol=1e-12, atol=1e-12)


class TestDegeneratePairs:
    def test_rejects_non_square_matrix(self) -> None:
        with pytest.raises(ValueError):
            valid_pivot_pairs(np.zeros((3, 4)))

    def test_zero_distance_pairs_are_dropped(self) -> None:
        pair = np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
        ii, jj = valid_pivot_pairs(pair)
        assert list(zip(ii.tolist(), jj.tolist())) == [(0, 2), (1, 2)]

    def test_all_duplicate_pivots_degrade_to_zero_bound(self) -> None:
        pair = np.zeros((3, 3))
        ii, jj = valid_pivot_pairs(pair)
        assert ii.size == 0
        table = np.abs(np.random.default_rng(0).normal(size=(6, 3)))
        qv = np.ones(3)
        lb = ptolemaic_bounds(table, qv, pair, (ii, jj))
        assert np.array_equal(lb, np.zeros(6))
        rows = np.stack([ptolemaic_bounds(table, q, pair, (ii, jj)) for q in (qv, 2 * qv)])
        assert np.array_equal(rows, np.zeros((2, 6)))
        assert ptolemaic_bound_scalar(table[0], qv, pair, (ii, jj)) == 0.0

    def test_empty_table(self) -> None:
        pair = np.array([[0.0, 1.0], [1.0, 0.0]])
        pairs = valid_pivot_pairs(pair)
        lb = ptolemaic_bounds(np.empty((0, 2)), np.ones(2), pair, pairs)
        assert lb.shape == (0,)


class TestOutAccumulator:
    def test_out_is_max_merged(self) -> None:
        _, _, table, qv, pair = _setting(11, 25, 5, 4)
        pairs = valid_pivot_pairs(pair)
        fresh = ptolemaic_bounds(table, qv, pair, pairs)
        seed_values = np.linspace(0.0, fresh.max() * 1.5, table.shape[0])
        out = seed_values.copy()
        merged = ptolemaic_bounds(table, qv, pair, pairs, out=out)
        assert merged is out
        assert np.array_equal(merged, np.maximum(seed_values, fresh))

    def test_matrix_out_is_max_merged(self) -> None:
        _, _, table, qv, pair = _setting(12, 25, 5, 4)
        pairs = valid_pivot_pairs(pair)
        qvs = np.stack([qv, qv * 1.1])
        fresh = np.stack([ptolemaic_bounds(table, q, pair, pairs) for q in qvs])
        seed_values = np.full((2, table.shape[0]), float(np.median(fresh)))
        out = seed_values.copy()
        for row, q in zip(out, qvs):  # each stacked row is its query's accumulator
            assert ptolemaic_bounds(table, q, pair, pairs, out=row) is row
        assert np.array_equal(out, np.maximum(seed_values, fresh))
