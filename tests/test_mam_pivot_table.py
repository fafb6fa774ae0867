"""Tests for repro.mam.pivot_table and repro.mam.pivots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.qmap import QMap
from repro.datasets import clustered_histograms, histogram_workload
from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.engine.trace import query_trace
from repro.exceptions import QueryError
from repro.mam import PIVOT_METHODS, PivotTable, SequentialFile, select_pivots
from repro.mam.base import DistancePort
from repro.mam.pivot_table import _HEAD_PIVOTS

from .helpers import SpyPort, assert_same_neighbors, run_together
from .pivot_reference import lower_bounds, query_vector


@pytest.fixture(scope="module")
def data():
    return clustered_histograms(300, 4, themes=6, rng=np.random.default_rng(31))


class TestPivotSelection:
    @pytest.mark.parametrize("method", PIVOT_METHODS)
    def test_returns_p_distinct_pivots(self, method, data) -> None:
        port = DistancePort(euclidean, one_to_many=euclidean_one_to_many)
        pivots = select_pivots(data, 8, port, method=method)
        assert len(pivots) == 8
        assert len(set(pivots)) == 8
        assert all(0 <= i < len(data) for i in pivots)

    def test_maxmin_spreads_pivots(self, data) -> None:
        """Farthest-first pivots must be pairwise farther apart than random
        ones on average."""
        port = DistancePort(euclidean, one_to_many=euclidean_one_to_many)
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        maxmin = select_pivots(data, 6, port, method="maxmin", rng=rng1)
        random_ = select_pivots(data, 6, port, method="random", rng=rng2)

        def mean_pairwise(idx: list[int]) -> float:
            rows = data[idx]
            total, count = 0.0, 0
            for i in range(len(idx)):
                for j in range(i + 1, len(idx)):
                    total += euclidean(rows[i], rows[j])
                    count += 1
            return total / count

        assert mean_pairwise(maxmin) > mean_pairwise(random_)

    def test_sample_restriction(self, data) -> None:
        port = DistancePort(euclidean, one_to_many=euclidean_one_to_many)
        rng = np.random.default_rng(2)
        sample_rng = np.random.default_rng(2)
        sample = sample_rng.choice(len(data), size=50, replace=False)
        pivots = select_pivots(data, 5, port, method="maxmin", sample_size=50, rng=rng)
        assert set(pivots) <= set(int(i) for i in sample)

    def test_selection_charges_distances(self, data) -> None:
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        port = DistancePort(counter)
        select_pivots(data, 5, port, method="maxmin")
        assert counter.count > 0

    def test_random_selection_is_free(self, data) -> None:
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        port = DistancePort(counter)
        select_pivots(data, 5, port, method="random")
        assert counter.count == 0

    def test_invalid_method(self, data) -> None:
        port = DistancePort(euclidean)
        with pytest.raises(QueryError):
            select_pivots(data, 3, port, method="magic")

    def test_invalid_p(self, data) -> None:
        port = DistancePort(euclidean)
        with pytest.raises(QueryError):
            select_pivots(data, 0, port)
        with pytest.raises(QueryError):
            select_pivots(data, len(data) + 1, port)

    def test_sample_smaller_than_p(self, data) -> None:
        port = DistancePort(euclidean)
        with pytest.raises(QueryError):
            select_pivots(data, 10, port, sample_size=5)


class TestDuplicateVectorSelection:
    """Regression: repeated database vectors must not yield duplicate
    pivots — two copies of the same vector waste a pivot for the triangle
    bound and zero the denominator of the Ptolemaic one."""

    @pytest.fixture(scope="class")
    def dup_data(self):
        base = clustered_histograms(30, 4, themes=4, rng=np.random.default_rng(17))
        return np.repeat(base, 4, axis=0)  # 120 rows, each vector x4

    @pytest.mark.parametrize("method", PIVOT_METHODS)
    def test_pivots_are_content_distinct(self, method, dup_data) -> None:
        port = DistancePort(euclidean, one_to_many=euclidean_one_to_many)
        for seed in range(5):
            pivots = select_pivots(
                dup_data, 8, port, method=method, rng=np.random.default_rng(seed)
            )
            assert len(pivots) == 8
            rows = dup_data[pivots]
            for i in range(8):
                for j in range(i + 1, 8):
                    assert not np.array_equal(rows[i], rows[j]), (
                        f"{method}/seed {seed}: pivots {pivots[i]} and "
                        f"{pivots[j]} hold the same vector"
                    )

    def test_random_selection_stays_free_on_duplicates(self, dup_data) -> None:
        counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        port = DistancePort(counter)
        select_pivots(dup_data, 8, port, method="random", rng=np.random.default_rng(0))
        assert counter.count == 0  # the dedup works on raw rows, not distances

    @pytest.mark.parametrize("method", PIVOT_METHODS)
    def test_fewer_distinct_vectors_than_p_still_honors_p(self, method) -> None:
        base = clustered_histograms(3, 2, themes=3, rng=np.random.default_rng(5))
        data = np.repeat(base, 4, axis=0)  # 12 rows, only 3 distinct
        port = DistancePort(euclidean, one_to_many=euclidean_one_to_many)
        pivots = select_pivots(
            data, 5, port, method=method, rng=np.random.default_rng(1)
        )
        # The requested count survives; the 3 distinct vectors all appear.
        assert len(pivots) == 5 and len(set(pivots)) == 5
        distinct = {tuple(data[i]) for i in pivots}
        assert len(distinct) == 3

class TestPivotTable:
    def test_table_shape_and_content(self, data) -> None:
        pt = PivotTable(data, euclidean, n_pivots=6)
        assert pt.table.shape == (len(data), 6)
        # Column j holds d(o_i, pivot_j).
        for col, piv in enumerate(pt.pivot_indices[:3]):
            assert pt.table[piv, col] == pytest.approx(0.0, abs=1e-12)

    def test_table_read_only(self, data) -> None:
        pt = PivotTable(data, euclidean, n_pivots=4)
        with pytest.raises(ValueError):
            pt.table[0, 0] = 1.0

    def test_explicit_pivots(self, data) -> None:
        pt = PivotTable(data, euclidean, pivots=[0, 5, 9])
        assert pt.pivot_indices == [0, 5, 9]
        assert pt.n_pivots == 3

    def test_explicit_pivots_validated(self, data) -> None:
        with pytest.raises(QueryError):
            PivotTable(data, euclidean, pivots=[len(data)])
        with pytest.raises(QueryError):
            PivotTable(data, euclidean, pivots=[])

    def test_pivot_count_clamped(self) -> None:
        small = clustered_histograms(5, 2, rng=np.random.default_rng(1))
        pt = PivotTable(small, euclidean, n_pivots=100)
        assert pt.n_pivots == 5

    def test_more_pivots_filter_better(self, data) -> None:
        """More pivots -> tighter L∞ bound -> fewer refinement distances."""
        q = data[0]
        evals = []
        for p in (2, 8, 32):
            counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
            pt = PivotTable(data, counter, n_pivots=p, rng=np.random.default_rng(3))
            counter.reset()
            pt.knn_search(q, 5)
            evals.append(counter.count - p)  # subtract query-to-pivot cost
        assert evals[2] <= evals[0]

    def test_exactness_all_pivot_methods(self, data) -> None:
        scan = SequentialFile(data, euclidean)
        for method in PIVOT_METHODS:
            pt = PivotTable(data, euclidean, n_pivots=8, pivot_method=method)
            for q in data[:2]:
                assert_same_neighbors(
                    pt.knn_search(q, 6), scan.knn_search(q, 6), label=method
                )

    def test_candidates_for_radius(self, data) -> None:
        pt = PivotTable(data, euclidean, n_pivots=8)
        q = data[0] * 0.99 + 0.01 / data.shape[1]
        all_cands = pt.candidates_for_radius(q, 1e6)
        assert all_cands == len(data)
        few = pt.candidates_for_radius(q, 1e-6)
        assert few < all_cands

    def test_candidates_rejects_negative_radius(self, data) -> None:
        pt = PivotTable(data, euclidean, n_pivots=4)
        with pytest.raises(QueryError):
            pt.candidates_for_radius(data[0], -1.0)

    def test_candidates_rejects_malformed_query(self, data) -> None:
        """Regression: a wrong-dimension query used to surface as a numpy
        broadcast error from the pivot scan instead of a QueryError."""
        pt = PivotTable(data, euclidean, n_pivots=4)
        with pytest.raises(QueryError, match="malformed range query"):
            pt.candidates_for_radius(np.ones(data.shape[1] + 3), 0.5)
        with pytest.raises(QueryError):
            pt.candidates_for_radius(np.ones((2, data.shape[1])), 0.5)

    def test_single_pivot(self, data) -> None:
        scan = SequentialFile(data, euclidean)
        pt = PivotTable(data, euclidean, n_pivots=1)
        q = data[10]
        assert_same_neighbors(pt.knn_search(q, 4), scan.knn_search(q, 4))


def _l2_counter() -> CountingDistance:
    return CountingDistance(euclidean, one_to_many=euclidean_one_to_many)


def two_loop_reference(data, p, **selection):
    """The build as it was before the columns were kept: select, then
    evaluate every pivot's distance vector again.  Returns the pivots, the
    ``m x p`` table and the counter both loops charged."""
    counter = _l2_counter()
    port = DistancePort(counter)
    pivots = select_pivots(data, p, port, **selection)
    table = np.stack([port.many(data[j], data) for j in pivots]).T
    return pivots, table, counter


class TestPivotColumnsEvaluatedOnce:
    """Whole-database max-min selection hands its distance vectors to the
    table instead of recomputing them; nothing charged or stored moves."""

    M, P = 2000, 12

    @pytest.fixture(scope="class")
    def big(self):
        return clustered_histograms(self.M, 4, themes=10, rng=np.random.default_rng(77))

    def test_default_build_evaluates_each_pivot_once(self, big) -> None:
        counter = _l2_counter()
        port = SpyPort(counter)
        pt = PivotTable(big, port, n_pivots=self.P, rng=np.random.default_rng(3))
        assert port.sizes.count(self.M) == self.P  # 2 P before
        assert counter.stats.batch_rows == 2 * self.P * self.M
        assert counter.stats.calls == 0
        pivots, table, ref = two_loop_reference(
            big, self.P, method="maxmin", rng=np.random.default_rng(3)
        )
        assert pt.pivot_indices == pivots
        assert np.array_equal(pt.structural_state()["table"], table)
        assert counter.stats == ref.stats

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pivot_sample": 300},
            {"pivot_method": "random"},
            {"pivot_method": "spread"},
            {"pivot_method": "spread", "pivot_sample": 300},
            {"bound": "ptolemaic"},
        ],
        ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_other_builds_unchanged(self, big, kwargs) -> None:
        counter = _l2_counter()
        port = SpyPort(counter)
        pt = PivotTable(big, port, n_pivots=self.P, rng=np.random.default_rng(4), **kwargs)
        assert port.sizes.count(self.M) == self.P
        pivots, table, ref = two_loop_reference(
            big,
            self.P,
            method=kwargs.get("pivot_method", "maxmin"),
            sample_size=kwargs.get("pivot_sample"),
            rng=np.random.default_rng(4),
        )
        assert pt.pivot_indices == pivots
        assert pt.structural_state()["table"].tobytes() == table.tobytes()
        pair_rows = self.P * (self.P - 1) // 2 if "bound" in kwargs else 0
        assert counter.stats.batch_rows == ref.stats.batch_rows + pair_rows
        assert counter.stats.calls == ref.stats.calls == 0

    def test_explicit_pivots_unchanged(self, big) -> None:
        counter = _l2_counter()
        port = SpyPort(counter)
        chosen = [5, 1999, 17, 400]
        pt = PivotTable(big, port, pivots=chosen)
        assert port.sizes == [self.M] * 4
        assert counter.stats.batch_rows == 4 * self.M
        want = np.stack([euclidean_one_to_many(big[j], big) for j in chosen]).T
        assert pt.structural_state()["table"].tobytes() == want.tobytes()

    def test_duplicate_rows_fall_back_and_keep_their_columns(self) -> None:
        base = clustered_histograms(3, 2, themes=3, rng=np.random.default_rng(5))
        data = np.repeat(base, 4, axis=0)  # 12 rows, 3 distinct: maxmin runs dry
        counter = _l2_counter()
        port = SpyPort(counter)
        pt = PivotTable(data, port, n_pivots=5, rng=np.random.default_rng(1))
        assert port.sizes == [12] * 5
        pivots, table, ref = two_loop_reference(
            data, 5, method="maxmin", rng=np.random.default_rng(1)
        )
        assert pt.pivot_indices == pivots
        assert pt.structural_state()["table"].tobytes() == table.tobytes()
        assert counter.stats == ref.stats

    def test_select_pivots_is_what_it_was(self, big) -> None:
        """Public signature and return value: indices only, selection cost only."""
        counter = _l2_counter()
        pivots = select_pivots(big, self.P, DistancePort(counter), rng=np.random.default_rng(3))
        assert isinstance(pivots, list) and len(pivots) == self.P
        assert counter.stats.batch_rows == self.P * self.M


class TestStagedFilterPhysicalWork:
    """The staged filter does the sequential loop's logical work with less
    physical work: a few pivots bound every object, the rest only the
    survivors; refinement evaluates hardly a row it does not charge."""

    M, P, K = 2000, 32, 10

    @pytest.fixture(scope="class")
    def mapped(self):
        workload = histogram_workload(self.M, 12, bins_per_channel=8, seed=2011)
        qmap = QMap(workload.matrix)
        return qmap.transform_batch(workload.database), qmap.transform_batch(workload.queries)

    @pytest.fixture()
    def table(self, mapped):
        port = SpyPort(_l2_counter())
        return PivotTable(mapped[0], port, n_pivots=self.P, rng=np.random.default_rng(3))

    def test_bound_kernels_touch_the_head_rows_and_the_survivors_columns(
        self, table, mapped, monkeypatch
    ) -> None:
        m, p, k, head = self.M, self.P, self.K, _HEAD_PIVOTS
        stages: list[tuple[int, int, int]] = []
        merge_terms = PivotTable._merge_terms

        def spy(self, out, qv, lo, hi, objects=None, mode=None):
            stages.append((lo, hi, m if objects is None else int(objects.size)))
            return merge_terms(self, out, qv, lo, hi, objects, mode)

        monkeypatch.setattr(PivotTable, "_merge_terms", spy)
        touched = allowed = 0
        for query in mapped[1]:
            stages.clear()
            table.knn_search(query, k)
            assert stages[0] == (0, head, m)  # every object, the first few pivots
            assert all(stage[:2] == (head, p) for stage in stages[1:])
            # What the first stage leaves within the cap, then within r0.
            qv = query_vector(table, query)
            full = lower_bounds(table, qv)
            partial = np.abs(table.table[:, :head] - qv[:head]).max(axis=1)
            cap = full[np.argpartition(partial, k - 1)[:k]].max()
            first = np.lexsort((np.arange(m), full))[:k]
            r0 = euclidean_one_to_many(query, table.database[first]).max()
            survivors = k + int(np.count_nonzero(partial <= max(cap, r0)))
            assert sum(stage[2] for stage in stages[1:]) == survivors
            touched += sum((hi - lo) * n for lo, hi, n in stages)
            allowed += head * m + (p - head) * survivors
        assert touched <= allowed < 0.5 * len(mapped[1]) * p * m  # the parent: p m per query

    def test_refinement_rows_binds_and_charges(self, table, mapped) -> None:
        port = table.distance
        physical = charged = 0
        for query in mapped[1]:
            port.sizes.clear()
            port.charges.clear()
            binds = port.binds
            with query_trace("knn", self.K) as trace:
                table.knn_search(query, self.K)
            assert port.binds == binds + 1
            # The pivot distances as batched rows, the refinement as one
            # charge of scalar calls.
            assert port.charges == [(0, self.P), (trace.candidates, 0)]
            assert port.sizes[0] == self.P
            physical += sum(port.sizes[1:])
            charged += trace.candidates
        assert charged <= physical <= 1.1 * charged  # the parent: 1.29 x

    def test_queries_leave_no_state_on_the_index(self, table, mapped) -> None:
        def state():
            return {
                name: (id(value), value.tobytes() if isinstance(value, np.ndarray) else None)
                for name, value in vars(table).items()
            }

        before = state()
        expected = [table.knn_search(q, self.K) for q in mapped[1]]
        table.range_search(mapped[1][0], expected[0][-1].distance)
        table.candidates_for_radius(mapped[1][0], expected[0][-1].distance)
        assert state() == before
        # Three threads on the one index, finely interleaved.
        answers: dict[int, list] = {}

        def worker(slot: int):
            return lambda: answers.update(
                {slot: [table.knn_search(q, self.K) for q in mapped[1]]}
            )

        run_together(*(worker(slot) for slot in range(3)))
        assert [answers[slot] for slot in range(3)] == [expected] * 3
