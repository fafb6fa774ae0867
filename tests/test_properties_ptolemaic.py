"""Property-based tests (hypothesis) for the Ptolemaic bound modes.

Four properties pin the tentpole:

(a) the Ptolemaic lower bound never exceeds the true distance, under
    both the raw QFD and its QMap embedding (the QFD is Ptolemaic);
(b) range and kNN answers are bit-identical across the three bound
    modes — the bound changes work, never results;
(c) a snapshot round-trip restores the pivot-pair matrix with zero
    distance evaluations;
(d) EXPLAIN charged totals equal the CountingDistance delta exactly in
    every bound mode.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QuadraticFormDistance, random_spd_matrix
from repro.core.qmap import QMap
from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.kernels import ptolemaic_bounds, valid_pivot_pairs
from repro.mam import BOUND_MODES, PivotTable
from repro.models import QFDModel, QMapModel, explain_query

DIM = 6


def _workload(seed: int, m: int):
    rng = np.random.default_rng(seed)
    matrix = random_spd_matrix(DIM, rng=rng, condition=6.0)
    data = rng.uniform(0.0, 1.0, size=(m, DIM))
    query = rng.uniform(0.0, 1.0, size=DIM)
    return matrix, data, query


class TestBoundIsValid:
    """(a) Ptolemaic bound <= true distance on QFD and QMap."""

    @given(
        seed=st.integers(0, 100_000),
        m=st.integers(4, 60),
        p=st.integers(2, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_qfd_and_qmap(self, seed, m, p) -> None:
        matrix, data, query = _workload(seed, m)
        qfd = QuadraticFormDistance(matrix)
        qmap = QMap(matrix)
        mapped = qmap.transform_batch(data)
        mapped_q = qmap.transform(query)
        for name, dist, rows, q in (
            ("qfd", qfd, data, query),
            ("qmap", euclidean, mapped, mapped_q),
        ):
            pivots = list(range(min(p, m)))
            table = np.column_stack(
                [[dist(rows[j], row) for row in rows] for j in pivots]
            )
            qv = np.array([dist(q, rows[j]) for j in pivots])
            pair = np.array(
                [[dist(rows[i], rows[j]) for j in pivots] for i in pivots]
            )
            pairs = valid_pivot_pairs(pair)
            lb = ptolemaic_bounds(table, qv, pair, pairs)
            true = np.array([dist(q, row) for row in rows])
            assert np.all(lb <= true + 1e-9), name


class TestAnswersInvariantAcrossModes:
    """(b) identical results whatever the bound computes."""

    @given(
        seed=st.integers(0, 100_000),
        m=st.integers(8, 80),
        p=st.integers(2, 10),
        k=st.integers(1, 8),
        radius=st.floats(0.0, 1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_range_and_knn_bit_identical(self, seed, m, p, k, radius) -> None:
        _, data, query = _workload(seed, m)
        tables = {
            bound: PivotTable(
                data, euclidean, n_pivots=min(p, m), bound=bound,
                rng=np.random.default_rng(seed),
            )
            for bound in BOUND_MODES
        }
        reference_range = tables["triangle"].range_search(query, radius)
        reference_knn = tables["triangle"].knn_search(query, k)
        for bound in ("ptolemaic", "best"):
            assert tables[bound].range_search(query, radius) == reference_range
            assert tables[bound].knn_search(query, k) == reference_knn


class TestSnapshotRoundTrip:
    """(c) pivot-pair matrix restored at zero distance evaluations."""

    @given(
        seed=st.integers(0, 100_000),
        m=st.integers(4, 60),
        p=st.integers(2, 8),
    )
    @settings(max_examples=20, deadline=None)
    def test_state_restores_pair_matrix_for_free(self, seed, m, p) -> None:
        _, data, query = _workload(seed, m)
        # Both sides evaluate through the same one-to-many form: a scalar-
        # only port refines with a different (ulp-apart) arithmetic.
        pt = PivotTable(
            data, CountingDistance(euclidean, one_to_many=euclidean_one_to_many),
            n_pivots=min(p, m), bound="ptolemaic", rng=np.random.default_rng(seed),
        )
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        restored = PivotTable.from_state(data, counter, pt.structural_state())
        assert counter.count == 0
        assert restored.bound == "ptolemaic"
        assert np.array_equal(restored.pivot_pair_matrix, pt.pivot_pair_matrix)
        assert restored.knn_search(query, 3) == pt.knn_search(query, 3)


class TestExplainChargesExactly:
    """(d) charged totals == counter delta, in every mode, both models."""

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=5, deadline=None)
    def test_all_modes_and_models(self, seed) -> None:
        matrix, data, _ = _workload(seed, 40)
        queries = np.random.default_rng(seed + 1).uniform(0.0, 1.0, size=(1, DIM))
        for model_cls in (QFDModel, QMapModel):
            for bound in BOUND_MODES:
                built = model_cls(matrix).build_index(
                    "pivot-table", data, n_pivots=4, bound=bound
                )
                for kwargs in ({"k": 5}, {"radius": 0.4}):
                    plan = explain_query(built, queries[0], **kwargs)
                    assert plan.totals_match, (
                        f"{model_cls.__name__}/{bound}/{kwargs}: charged "
                        f"{plan.charged_total} != counter {plan.counter_total}"
                    )
