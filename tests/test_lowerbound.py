"""Tests for repro.lowerbound — SVD reduction, projection bound, filter-refine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.color import rgb_bin_prototypes
from repro.core import QuadraticFormDistance
from repro.datasets import clustered_histograms
from repro.exceptions import DimensionMismatchError, QueryError
from repro.lowerbound import (
    FilterRefineScan,
    ProjectionBound,
    SVDReduction,
    average_color_bound,
)
from repro.mam import SequentialFile

from .helpers import assert_same_neighbors


@pytest.fixture(scope="module")
def data():
    return clustered_histograms(250, 4, themes=6, rng=np.random.default_rng(71))


@pytest.fixture(scope="module")
def qfd(hafner_matrix_64):
    return QuadraticFormDistance(hafner_matrix_64)


class TestSVDReduction:
    def test_contractive(self, qfd, data) -> None:
        red = SVDReduction(qfd, 8)
        mapped = red.transform_batch(data[:30])
        for i in range(5):
            for j in range(5, 25):
                exact = qfd(data[i], data[j])
                assert red.lower_bound(mapped[i], mapped[j]) <= exact + 1e-9

    def test_exact_at_full_rank(self, qfd, data) -> None:
        red = SVDReduction(qfd, qfd.dim)
        u, v = data[0], data[1]
        bound = red.lower_bound(red.transform(u), red.transform(v))
        assert bound == pytest.approx(qfd(u, v), abs=1e-9)

    def test_tightness_improves_with_k(self, qfd, data) -> None:
        """The paper's critique: bounds loosen as target dim shrinks."""
        u, v = data[0], data[1]
        exact = qfd(u, v)
        bounds = []
        for k in (2, 8, 32, 64):
            red = SVDReduction(qfd, k)
            bounds.append(red.lower_bound(red.transform(u), red.transform(v)))
        assert all(b1 <= b2 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] == pytest.approx(exact, abs=1e-9)

    def test_spectrum_coverage_monotone(self, qfd) -> None:
        covers = [SVDReduction(qfd, k).spectrum_coverage for k in (1, 8, 64)]
        assert covers == sorted(covers)
        assert covers[-1] == pytest.approx(1.0)

    def test_map_shape(self, qfd) -> None:
        red = SVDReduction(qfd, 5)
        assert red.map_matrix.shape == (64, 5)
        assert red.k == 5 and red.source_dim == 64

    def test_rejects_bad_k(self, qfd) -> None:
        with pytest.raises(QueryError):
            SVDReduction(qfd, 0)
        with pytest.raises(QueryError):
            SVDReduction(qfd, 65)

    def test_one_to_many_matches_scalar(self, qfd, data) -> None:
        red = SVDReduction(qfd, 6)
        mapped = red.transform_batch(data[:10])
        q = red.transform(data[20])
        vec = red.lower_bound_one_to_many(q, mapped)
        scalar = [red.lower_bound(q, row) for row in mapped]
        assert np.allclose(vec, scalar)


class TestProjectionBound:
    def test_average_color_is_contractive(self, qfd, data) -> None:
        bound = average_color_bound(qfd, rgb_bin_prototypes(4))
        mapped = bound.transform_batch(data[:30])
        for i in range(5):
            for j in range(5, 25):
                exact = qfd(data[i], data[j])
                assert bound.lower_bound(mapped[i], mapped[j]) <= exact + 1e-9

    def test_scale_is_optimal(self, qfd, data) -> None:
        """Scaling the map up by 1% must break contraction somewhere —
        i.e. the computed constant is tight, not merely safe."""
        bound = average_color_bound(qfd, rgb_bin_prototypes(4))
        # The extremal direction is the eigenvector of the generalized
        # problem; random histogram pairs may not hit it, so test on the
        # eigen-direction directly.
        proj = rgb_bin_prototypes(4).T
        import scipy.linalg

        x = scipy.linalg.solve(qfd.matrix, proj.T, assume_a="pos")
        gram = proj @ x
        lam, vecs = np.linalg.eigh((gram + gram.T) / 2.0)
        # Pull the extremal z back into histogram space: z = A^{-1} P^T y.
        y = vecs[:, -1]
        z = x @ y
        exact = np.sqrt(max(float(z @ qfd.matrix @ z), 0.0))
        mapped = bound.transform(z) - bound.transform(np.zeros_like(z))
        assert np.linalg.norm(mapped) == pytest.approx(exact, rel=1e-6)

    def test_k_is_projection_rows(self, qfd) -> None:
        bound = average_color_bound(qfd, rgb_bin_prototypes(4))
        assert bound.k == 3

    def test_rejects_mismatched_projection(self, qfd) -> None:
        with pytest.raises(DimensionMismatchError):
            ProjectionBound(qfd, np.ones((3, 10)))

    def test_rejects_zero_projection(self, qfd) -> None:
        from repro.exceptions import MatrixError

        with pytest.raises(MatrixError):
            ProjectionBound(qfd, np.zeros((3, 64)))


class TestFilterRefineScan:
    def test_knn_exact(self, qfd, data) -> None:
        scan = SequentialFile(data, qfd)
        for k in (4, 16, 64):
            fr = FilterRefineScan(data, SVDReduction(qfd, k))
            q = data[0] * 0.9 + data[1] * 0.1
            assert_same_neighbors(fr.knn_search(q, 5), scan.knn_search(q, 5), tol=1e-7)

    def test_range_exact(self, qfd, data) -> None:
        scan = SequentialFile(data, qfd)
        fr = FilterRefineScan(data, SVDReduction(qfd, 8))
        q = data[3]
        nn = scan.knn_search(q, 20)
        radius = (nn[-2].distance + nn[-1].distance) / 2.0
        assert_same_neighbors(fr.range_search(q, radius), scan.range_search(q, radius), tol=1e-7)

    def test_stats_recorded(self, qfd, data) -> None:
        fr = FilterRefineScan(data, SVDReduction(qfd, 8))
        fr.knn_search(data[0], 5)
        stats = fr.last_stats
        assert stats is not None
        assert stats.hits == 5
        assert stats.candidates >= 5
        assert 0.0 < stats.candidate_ratio <= 1.0

    def test_smaller_k_more_false_positives(self, qfd, data) -> None:
        """The paper's Section 2.3.1 drawback, quantified."""
        q = data[0]
        candidates = []
        for k in (2, 16, 64):
            fr = FilterRefineScan(data, SVDReduction(qfd, k))
            fr.knn_search(q, 5)
            candidates.append(fr.last_stats.candidates)
        assert candidates[0] >= candidates[1] >= candidates[2]

    def test_rejects_bad_queries(self, qfd, data) -> None:
        fr = FilterRefineScan(data, SVDReduction(qfd, 8))
        with pytest.raises(QueryError):
            fr.knn_search(data[0], 0)
        with pytest.raises(QueryError):
            fr.range_search(data[0], -1.0)

    def test_avg_color_bound_pluggable(self, qfd, data) -> None:
        scan = SequentialFile(data, qfd)
        fr = FilterRefineScan(data, average_color_bound(qfd, rgb_bin_prototypes(4)))
        q = data[5]
        assert_same_neighbors(fr.knn_search(q, 5), scan.knn_search(q, 5), tol=1e-7)


class TestOneFloat:
    """A baseline's scalar bound is its batched bound's float, row for row
    (``np.linalg.norm`` differed on 359 of 2 000 rows)."""

    @pytest.mark.parametrize("k", [3, 8, 32])
    def test_svd_scalar_equals_batched(self, qfd, data, k) -> None:
        red = SVDReduction(qfd, k)
        mapped = red.transform_batch(data)
        for q in mapped[:8]:
            batched = red.lower_bound_one_to_many(q, mapped)
            assert [red.lower_bound(q, row) for row in mapped] == batched.tolist()

    def test_average_color_scalar_equals_batched(self, qfd, data) -> None:
        bound = average_color_bound(qfd, rgb_bin_prototypes(4))
        mapped = bound.transform_batch(data)
        for q in mapped[:8]:
            batched = bound.lower_bound_one_to_many(q, mapped)
            assert [bound.lower_bound(q, row) for row in mapped] == batched.tolist()
