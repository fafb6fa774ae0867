"""The certified L2 projection bound never rules out a row within its radius.

:func:`repro.kernels.gram.l2_lower_bound` gives, per row, ``||P - q W||^2``
and a cut ``S(r)``: a row whose value exceeds ``S(r)`` must have an
:func:`~repro.kernels.gram.l2_one_to_many` float above ``r``.  So at its own
float distance ``d`` no row may exceed ``S(d)``; held here under hypothesis
over 8-, 64- and 512-d rows, float32 and float64 stores, duplicates, zero
rows, rows within a few ulps of the query and scales from 1e-150 to 1e150,
with a basis fitted to the rows and one drawn at random.  A basis whose
``||W||_2 <= 1`` cannot be proven is refused, by the certificate and by the
filter that would read it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QMap
from repro.datasets import histogram_workload
from repro.distances import euclidean
from repro.kernels import gram
from repro.mam.base import DistancePort
from repro.mam.projection import SCAN_FLOOR, ProjectionFilter


@st.composite
def rows_and_query(draw):
    dim = draw(st.sampled_from([8, 64, 512]))
    m = draw(st.integers(1, 40))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # float32 holds neither extreme: there a tiny scale is all subnormal
    scales = [1.0, 1e-8, 1e8] + ([1e-150, 1e150] if dtype is np.float64 else [1e-40])
    scale = draw(st.sampled_from(scales))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.full(dim, 0.2), size=m) * scale
    if draw(st.booleans()):
        rows[rng.integers(m)] = 0.0
    if m > 2 and draw(st.booleans()):
        rows[1] = rows[0]  # a duplicate
    rows = rows.astype(dtype)
    pick = draw(st.sampled_from(["row", "near", "far", "zero"]))
    if pick == "zero":
        q = np.zeros(dim)
    else:
        q = rows[rng.integers(m)].astype(np.float64)
        if pick != "row":
            step = 1e-15 if pick == "near" else 1.0
            q = q + step * scale * rng.standard_normal(dim) / dim
    own_basis = draw(st.booleans())
    return rows, q, own_basis, rng


def _basis(rows: np.ndarray, own: bool, rng: np.random.Generator) -> np.ndarray:
    if own:
        basis = gram.l2_basis(rows)
        if basis.shape[1]:
            return basis
    dim = rows.shape[1]
    q, _ = np.linalg.qr(rng.standard_normal((dim, min(32, dim))))
    return q * gram._SHRINK


@settings(max_examples=200, deadline=None)
@given(rows_and_query())
def test_no_row_exceeds_the_cut_at_its_own_distance(case) -> None:
    rows, q, own, rng = case
    basis = _basis(rows, own, rng)
    assert gram.l2_basis_certified(basis)
    projected, norm = gram.l2_project(basis, rows)
    squares, cut = gram.l2_lower_bound(basis, projected, norm, q)
    distances = gram.l2_one_to_many(q, rows)
    for value, d in zip(squares.tolist(), distances.tolist()):
        assert not value > cut(d), (value, cut(d), d)
    assert cut(np.inf) == np.inf


def test_the_cut_is_tight_enough_to_prune() -> None:
    """Not vacuous: on the 512-d corpus mapped by QMap, most rows are ruled
    out at the 10th distance."""
    workload = histogram_workload(2000, 10, bins_per_channel=8, seed=2011)
    rows = QMap(workload.matrix).transform_batch(workload.database)
    basis = gram.l2_basis(rows)
    projected, norm = gram.l2_project(basis, rows)
    kept = []
    for q in rows[:10]:
        squares, cut = gram.l2_lower_bound(basis, projected, norm, q)
        d10 = np.partition(gram.l2_one_to_many(q, rows), 9)[9]
        kept.append(np.count_nonzero(~(squares > cut(d10))))
    assert np.median(kept) < 0.1 * rows.shape[0]


class TestCertificate:
    def test_a_fitted_basis_is_orthonormal_and_certified(self) -> None:
        rows = np.random.default_rng(4).dirichlet(np.full(128, 0.3), size=600)
        basis = gram.l2_basis(rows)
        assert basis.shape == (128, gram._PROJECTION_RANK)
        assert gram.l2_basis_certified(basis)
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        assert np.array_equal(basis, gram.l2_basis(rows))  # the same rows, the same W

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda w: w * (1.0 + 1e-9),  # just over ||W||_2 = 1
            lambda w: w * 2.0,
            lambda w: np.where(np.arange(w.size).reshape(w.shape) == 5, np.nan, w),
            lambda w: w[:, :0],
        ],
    )
    def test_a_basis_that_is_not_proven_is_refused(self, tamper) -> None:
        rng = np.random.default_rng(5)
        rows = rng.dirichlet(np.full(128, 0.3), size=1100)
        basis = gram.l2_basis(rows)
        bad = tamper(basis)
        assert not gram.l2_basis_certified(bad)
        # The filter that would read it rebuilds the basis from the rows.
        made = ProjectionFilter.over(DistancePort(euclidean), rows, SCAN_FLOOR, bad)
        assert made is not None and np.array_equal(made.basis, basis)

    def test_non_finite_rows_switch_the_filter_off(self) -> None:
        rows = np.random.default_rng(6).dirichlet(np.full(128, 0.3), size=1100)
        rows[7, 3] = np.nan
        assert gram.l2_basis(rows).shape == (128, 0)
        assert ProjectionFilter.over(DistancePort(euclidean), rows, SCAN_FLOOR) is None
        # With a basis fitted elsewhere, a projected NaN row rules nothing out.
        made = ProjectionFilter.over(
            DistancePort(euclidean), rows, SCAN_FLOOR, gram.l2_basis(rows[8:])
        )
        squares, cut = made.bound(rows[0], np.arange(20), rows)
        assert not np.any(squares > cut(0.0))
