"""The pivot table against its one-object-at-a-time twin.

Every answer, charge and filter / refine count of
:class:`~repro.mam.pivot_table.PivotTable` must be what
:mod:`tests.pivot_reference` computes from the full bounds of every object
— whatever the library does to avoid computing them.  The corpus is drawn
on a coarse grid, so duplicate rows, tied bounds, tied distances and zero
vectors are the common case rather than the corner.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import random_spd_matrix
from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.engine.trace import query_trace
from repro.mam import BOUND_MODES, PivotTable
from repro.models import QFDModel, QMapModel

from .pivot_reference import Spent, reference_candidates, reference_knn, reference_range

DIM = 5


def grid_rows(rng: np.random.Generator, m: int) -> np.ndarray:
    """*m* rows on a three-level grid: a zero vector, duplicates, ties."""
    rows = rng.integers(0, 3, size=(m, DIM)) / 2.0
    rows[rng.integers(m)] = 0.0
    return rows


def l2_table(rows, p, bound, *, build_on=None) -> PivotTable:
    """A table over the counted L2 port, optionally grown by inserts."""
    distance = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
    first = rows if build_on is None else rows[:build_on]
    table = PivotTable(first, distance, pivots=list(range(min(p, len(first)))), bound=bound)
    for row in rows[len(first):]:
        table.insert(row)
    return table


def check_against_reference(table, query, k: int, radius: float) -> None:
    counter = table.distance.counter
    with query_trace("knn", k) as trace:
        got = table.knn_search(query, k)
    expected, spent = reference_knn(table, query, k)
    assert [(n.distance, n.index) for n in got] == [(n.distance, n.index) for n in expected]
    assert Spent.of(trace) == spent

    with query_trace("range", radius) as trace:
        got = table.range_search(query, radius)
    expected, spent = reference_range(table, query, radius)
    assert [(n.distance, n.index) for n in got] == [(n.distance, n.index) for n in expected]
    assert Spent.of(trace) == spent

    before = counter.stats.calls, counter.stats.batch_rows
    assert table.candidates_for_radius(query, radius) == reference_candidates(table, query, radius)
    after = counter.stats.calls, counter.stats.batch_rows
    assert after == (before[0], before[1] + table.n_pivots)  # the pivot distances, no refinement


@pytest.mark.parametrize("bound", BOUND_MODES)
class TestAgainstReference:
    @given(
        seed=st.integers(0, 100_000),
        m=st.integers(1, 70),
        p=st.integers(1, 12),
        k=st.integers(1, 80),
        inserted=st.booleans(),
        rank=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_l2_port_fresh_and_after_inserts(self, bound, seed, m, p, k, inserted, rank) -> None:
        rng = np.random.default_rng(seed)
        rows = grid_rows(rng, m)
        table = l2_table(rows, p, bound, build_on=max(1, m // 2) if inserted else None)
        # A grid point (often a stored row: distance and bound ties), a
        # stored row itself, and a point off the grid.
        for query in (grid_rows(rng, 1)[0], rows[rng.integers(m)], rng.uniform(0, 1, DIM)):
            distances = np.sort(euclidean_one_to_many(query, rows))
            # Radius 0, and a radius that *is* a distance (a tie at the edge).
            for radius in (0.0, float(distances[min(rank, m - 1)])):
                check_against_reference(table, query, k, radius)

    @given(seed=st.integers(0, 100_000), m=st.integers(2, 50), k=st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_float32_mmap_store_under_both_models(self, bound, seed, m, k) -> None:
        rng = np.random.default_rng(seed)
        matrix = random_spd_matrix(DIM, rng=rng, condition=6.0)
        rows = grid_rows(rng, m)
        for model in (QMapModel(matrix), QFDModel(matrix)):
            built = model.build_index(
                "pivot-table", rows, store="mmap", block_rows=7, n_pivots=min(6, m), bound=bound
            )
            table = built.access_method
            assert table.database.dtype == np.float32
            for query in (rows[rng.integers(m)], rng.uniform(0, 1, DIM)):
                mapped = built._map_query(query)
                radius = table.distance.compute_many(mapped, table.database[m // 2 : m // 2 + 1])
                check_against_reference(table, mapped, k, float(radius[0]))

    def test_fewer_pivots_than_any_stage_one(self, bound) -> None:
        """p = 1, 2, 3: every pivot is a first-stage pivot, the second stage
        reduces over nothing."""
        rng = np.random.default_rng(5)
        rows = grid_rows(rng, 40)
        for p in (1, 2, 3):
            table = l2_table(rows, p, bound)
            for k in (1, 7, 40):
                check_against_reference(table, rng.uniform(0, 1, DIM), k, 0.6)

    def test_all_rows_equal(self, bound) -> None:
        """Every bound ties, every distance ties: the index order decides."""
        rows = np.full((25, DIM), 0.5)
        table = l2_table(rows, 4, bound)
        for query in (rows[0], np.zeros(DIM)):
            for k in (1, 3, 25):
                check_against_reference(table, query, k, 0.0)
            assert [n.index for n in table.knn_search(query, 3)] == [0, 1, 2]
