"""Query by example: every QMap index answers a database row as the scan does.

A database row as the query, at the radius the QMap sequential scan itself
reports for it — ``d1`` (the row's distance to itself, a rounding residue
of the query's transform) and ``d10`` — is the prune boundary in its
sharpest form: a covering radius, a parent distance or a vantage median is
then compared with a query distance that equals it up to the last bits.
Every access method must return the scan's ``(index, distance)`` pairs
exactly, floats included, which holds only if the distances it stores and
the ones its query computes are one arithmetic
(:func:`repro.kernels.gram.l2_one_to_many`).

Workload: the ``tree64`` corpus (64-d histograms, seed 2011) at m = 5 000,
200 evenly spaced database rows as queries.

The pivot table and the M-index compare their triangle bound ``|d(q, p) -
d(o, p)|`` with the radius plus a derived rounding margin
(:meth:`repro.mam.pivot_table.PivotTable.bound_limit`); without it they
missed the query's own row at ``d1`` on 45 of the 200 queries.

:class:`TestRouterMemberLine` is the M-tree's sharpest case: a query on the
line from a routing object ``p`` through the member ``o`` at its covering
radius, ``q = o + 1e-6 (o - p)``, with ``r`` the kernel's own ``d(q, o)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import histogram_workload
from repro.distances import euclidean
from repro.kernels import l2_one_to_many
from repro.mam import MTree
from repro.models import QMapModel

M = 5000
N_QUERIES = 200

METHODS = ["mtree", "paged-mtree", "vptree", "sat", "gnat", "pivot-table", "mindex"]


def _pairs(neighbors) -> list[tuple[int, float]]:
    return sorted((n.index, n.distance) for n in neighbors)


@pytest.fixture(scope="module")
def by_example():
    """The model, the queries, and the scan's answers at ``d1`` and ``d10``."""
    workload = histogram_workload(M, 1, bins_per_channel=4, seed=2011)
    model = QMapModel(workload.matrix)
    scan = model.build_index("sequential", workload.database)
    queries = workload.database[np.linspace(0, M - 1, N_QUERIES).astype(int)]
    cases = []
    for query in queries:
        knn = scan.knn_search(query, 10)
        for radius in (knn[0].distance, knn[-1].distance):
            cases.append((query, radius, _pairs(scan.range_search(query, radius))))
    return model, workload.database, cases


@pytest.mark.parametrize("method", METHODS)
def test_range_answers_equal_the_scans(by_example, method) -> None:
    model, database, cases = by_example
    built = model.build_index(method, database)
    wrong = []
    for pos, (query, radius, want) in enumerate(cases):
        got = _pairs(built.range_search(query, radius))
        if got != want:
            which = "d1" if pos % 2 == 0 else "d10"
            wrong.append((pos // 2, which, sorted(set(want) ^ set(got))[:2]))
    assert not wrong, f"{method}: {len(wrong)} of {len(cases)} answers differ: {wrong[:3]}"


def _routers(node) -> list:
    """``(routing object index, subtree)`` for every routing entry."""
    if node.is_leaf:
        return []
    out = []
    for pos, child in enumerate(node.children):
        out.append((int(node.index[pos]), child))
        out += _routers(child)
    return out


def _members(node) -> list[int]:
    if node.is_leaf:
        return [int(i) for i in node.index]
    return [i for child in node.children for i in _members(child)]


class TestRouterMemberLine:
    @given(seed=st.integers(0, 1_000))
    @example(seed=0)  # five of its 117 routers lost their farthest member on the Gram form
    @settings(max_examples=8, deadline=None)
    def test_the_member_at_the_covering_radius_is_found(self, seed) -> None:
        workload = histogram_workload(400, 1, bins_per_channel=4, seed=seed)
        data = QMapModel(workload.matrix).qmap.transform_batch(workload.database)
        tree = MTree(data, euclidean, capacity=8, rng=np.random.default_rng(seed))
        missed = []
        for router, subtree in _routers(tree._root):
            members = np.array(_members(subtree))
            member = int(members[np.argmax(l2_one_to_many(data[router], data[members]))])
            query = data[member] + 1e-6 * (data[member] - data[router])
            radius = float(l2_one_to_many(query, data[member][None])[0])
            if member not in {n.index for n in tree.range_search(query, radius)}:
                missed.append((router, member))
        assert not missed, f"{len(missed)} members at the covering radius missed: {missed[:3]}"
