"""The QMap refines behind the certified projection filter.

Under an L2 port (the QMap model), :class:`~repro.mam.sequential.SequentialFile`
and :class:`~repro.mam.pivot_table.PivotTable` rule rows out with
``||(v - q) W||`` less its rounding
(:class:`~repro.mam.projection.ProjectionFilter`) and evaluate in float64
only the rest.  Held here against the same indexes with the filter switched
off: identical ``(index, distance)`` lists bit for bit, identical charged
counts and EXPLAIN events — the QMap twin of
``tests/test_mam_sequential_filter.py`` for the scan, and the pivot table
against its one-object-at-a-time twin (``tests/pivot_reference.py``) in
every bound mode — plus inserts, the float32 memory-mapped twin, the
thread executor, racing first queries, a refused certificate, snapshot
round trips with the basis, without it and with a tampered one, and the
512-d benchmark corpus, where the scan must evaluate <= 5 % of the rows.
The pivot table's own floor (4 000 rows of 256 dimensions) is lowered to
the scan's for its tests, so both refines run over one small corpus.
"""

from __future__ import annotations

import contextlib
import pickle
import sys
import threading
import zipfile

import numpy as np
import pytest

from repro.datasets import histogram_workload
from repro.engine.trace import query_trace
from repro.kernels import gram
from repro.mam import BOUND_MODES, SequentialFile, pivot_table, projection, sequential
from repro.models import QFDModel, QMapModel, explain_query, load_built_index
from repro.persistence import read_snapshot, save_index

from .pivot_reference import Spent, reference_knn, reference_range

M = 1200  # above the scan's 1 024-row floor
BINS = 6  # 216-d: above its 128-d floor


@pytest.fixture(scope="module")
def workload():
    w = histogram_workload(M, 12, bins_per_channel=BINS, seed=2011)
    data = w.database.copy()
    data[7] = data[3]  # duplicates: a tie at any k they reach
    data[250] = data[3]
    return w.matrix, data, w.queries


@contextlib.contextmanager
def unfiltered(*built):
    """The indexes' projection filter off inside the block."""
    saved = [(b.access_method, vars(b.access_method).get("_projection")) for b in built]
    for am, _ in saved:
        am._projection = False if isinstance(am, SequentialFile) else None
    try:
        yield
    finally:
        for am, value in saved:
            if value is None and isinstance(am, SequentialFile):
                del am._projection
            else:
                am._projection = value


def _observed(built, query, **kind):
    """Answer, charged evaluations and EXPLAIN events of one query."""
    plan = explain_query(built, query, **kind)
    return plan.answer, (plan.counter_calls, plan.counter_rows), plan.events


def _spent(built, query, **kind):
    """Answer and trace counts of one query, sinks off."""
    search = built.knn_search if "k" in kind else built.range_search
    parameter = kind.get("k", kind.get("radius"))
    with query_trace("", 0.0) as trace:
        answer = search(query, parameter)
    return [(n.index, n.distance) for n in answer], Spent.of(trace)


def _assert_same(built, queries, *, explain=True, **kind):
    observe = _observed if explain else _spent
    filtered = [observe(built, q, **kind) for q in queries]
    with unfiltered(built):
        plain = [observe(built, q, **kind) for q in queries]
    assert filtered == plain
    return filtered


def _spy_survivors(monkeypatch) -> list[tuple[int, int]]:
    """``(rows evaluated, rows)`` of every bounded scan from now on."""
    seen = []
    survivors = sequential._survivors

    def spy(port, query, data, *args, **kwargs):
        kept = survivors(port, query, data, *args, **kwargs)
        rows = data.shape[0]
        seen.append((rows if kept is None else kept[0].shape[0], rows))
        return kept

    monkeypatch.setattr(sequential, "_survivors", spy)
    return seen


def _radii(built, queries) -> list[float]:
    """The scan's own 1st and 10th distances of the queries: radii at
    which a row lies exactly on the boundary."""
    out = []
    for q in queries[:4]:
        knn = built.knn_search(q, 10)
        out += [knn[0].distance, knn[-1].distance]
    return out


class TestTheScan:
    def test_the_filter_runs(self, workload, monkeypatch) -> None:
        matrix, data, queries = workload
        built = QMapModel(matrix).build_index("sequential", data)
        seen = _spy_survivors(monkeypatch)
        for q in queries:
            built.knn_search(q, 10)
        assert len(seen) == len(queries)
        assert np.median([kept for kept, _ in seen]) < M // 4

    @pytest.mark.parametrize("k", [1, 10, M, M + 5])
    def test_knn(self, workload, k) -> None:
        matrix, data, queries = workload
        built = QMapModel(matrix).build_index("sequential", data)
        _assert_same(built, queries, k=k)

    def test_a_tie_at_the_kth_distance(self, workload) -> None:
        matrix, data, _ = workload
        built = QMapModel(matrix).build_index("sequential", data)
        near = data[3] + 1e-4 * (data[11] - data[3])
        plain = built.access_method.distance.compute_many(built._map_query(near), built.access_method.database)
        assert plain[3] == plain[7] == plain[250]
        k = int(np.count_nonzero(plain < plain[3])) + 2  # two of three tied rows
        (answer, _, _), = _assert_same(built, [near], k=k)
        assert [i for i, _ in answer[-2:]] == [3, 7]

    def test_range(self, workload) -> None:
        matrix, data, queries = workload
        built = QMapModel(matrix).build_index("sequential", data)
        probes = np.vstack([queries[:4], data[3:4]])  # data[3]: a self-query
        for radius in [0.0, *_radii(built, probes), np.inf]:
            results = _assert_same(built, probes, radius=radius)
            if radius == np.inf:
                assert all(len(answer) == M for answer, _, _ in results)

    def test_insert_then_query(self, workload) -> None:
        matrix, data, queries = workload
        built = QMapModel(matrix).build_index("sequential", data[:1100])
        built.knn_search(queries[0], 5)  # builds the filter
        am = built.access_method
        filter_ = am._projection
        assert isinstance(filter_, projection.ProjectionFilter)
        for row in data[1100:]:
            built.insert(row)
        assert am._projection is filter_ and filter_.size == M
        assert filter_._done[:M].sum() == 1100  # the new rows wait for a query
        _assert_same(built, queries[:1], k=10)
        assert filter_._done[:M].all()
        mapped = am.database
        # Products of other heights may move the last ulp.
        fresh, norm = gram.l2_project(filter_.basis, mapped)
        assert np.allclose(filter_._projected[:M], fresh, rtol=1e-12, atol=1e-15)
        assert filter_._norm >= norm * (1 - 1e-12)
        _assert_same(built, queries, k=10)
        _assert_same(built, queries[:4], radius=_radii(built, queries)[3])

    def test_float32_mmap_twin(self, workload, tmp_path) -> None:
        matrix, data, queries = workload
        model = QMapModel(matrix)
        heap = model.build_index("sequential", data, store_dtype="float32")
        mmap = model.build_index("sequential", data, store="mmap", store_path=tmp_path / "rows.bin")
        assert mmap.access_method.database.dtype == np.float32
        for kind in ({"k": 10}, {"radius": _radii(heap, queries)[3]}):
            assert _assert_same(heap, queries, **kind) == _assert_same(mmap, queries, **kind)
        assert isinstance(mmap.access_method._projection, projection.ProjectionFilter)

    def test_snapshot_and_pickle_leave_the_filter_out(self, workload, tmp_path) -> None:
        matrix, data, queries = workload
        built = QMapModel(matrix).build_index("sequential", data)
        before = built.save(tmp_path / "before.npz")
        cold = len(pickle.dumps(built.access_method))
        built.knn_search(queries[0], 10)
        assert built.access_method._projection
        after = built.save(tmp_path / "after.npz")
        with zipfile.ZipFile(before) as a, zipfile.ZipFile(after) as b:
            assert a.namelist() == b.namelist()
        assert built.access_method.structural_state() == {}
        payload = pickle.dumps(built.access_method)
        assert b"_projection" not in payload and len(payload) < cold + 64
        copy = pickle.loads(payload)
        assert "_projection" not in vars(copy)
        assert copy.knn_search(queries[1], 3) == built.access_method.knn_search(queries[1], 3)
        restored = load_built_index(after)
        assert "_projection" not in vars(restored.access_method)
        _assert_same(restored, queries, k=10)

    def test_thread_executor_batch(self, workload) -> None:
        matrix, data, queries = workload
        built = QMapModel(matrix).build_index("sequential", data)
        radius = _radii(QMapModel(matrix).build_index("sequential", data), queries)[3]
        knn = built.knn_search_batch(queries, 10, executor="thread", workers=3)
        ranged = built.range_search_batch(queries, radius, executor="thread", workers=3)
        costs = built.query_costs().distance_computations
        fresh = QMapModel(matrix).build_index("sequential", data)
        with unfiltered(fresh):
            # One matrix product maps the batch, a loop maps query by query.
            for got, want in zip(knn, [fresh.knn_search(q, 10) for q in queries]):
                assert [n.index for n in got] == [n.index for n in want]
            assert [[n.index for n in a] for a in ranged] == [
                [n.index for n in fresh.range_search(q, radius)] for q in queries
            ]
        assert costs == fresh.query_costs().distance_computations == 2 * M * len(queries)

    def test_a_refused_certificate_is_the_plain_scan(self, workload, monkeypatch) -> None:
        matrix, data, queries = workload
        monkeypatch.setattr(gram, "l2_basis_certified", lambda basis: False)
        seen = _spy_survivors(monkeypatch)
        built = QMapModel(matrix).build_index("sequential", data)
        want = [built.knn_search(q, 10) for q in queries]
        assert built.access_method._projection is False and not seen
        monkeypatch.undo()
        fresh = QMapModel(matrix).build_index("sequential", data)
        assert [fresh.knn_search(q, 10) for q in queries] == want
        assert fresh.access_method._projection

    def test_the_512d_benchmark_corpus(self, monkeypatch) -> None:
        # The bound must rule out most rows, or the cut has silently switched off.
        w = histogram_workload(4000, 10, bins_per_channel=8, seed=2011)
        built = QMapModel(w.matrix).build_index("sequential", w.database)
        seen = _spy_survivors(monkeypatch)
        _assert_same(built, w.queries, k=10)
        assert len(seen) == len(w.queries)
        assert np.median([kept / rows for kept, rows in seen]) <= 0.05, seen

    def test_racing_first_queries_build_one_filter(self, workload, monkeypatch) -> None:
        matrix, data, queries = workload
        built = QMapModel(matrix).build_index("sequential", data)
        am = built.access_method
        mapped = [built._map_query(q) for q in queries[:6]]
        builds = []
        basis_of = gram.l2_basis

        def counted(rows):
            builds.append(rows.shape[0])
            return basis_of(rows)

        monkeypatch.setattr(gram, "l2_basis", counted)
        barrier = threading.Barrier(6, timeout=60)
        answers: dict[int, list] = {}

        def first_query(pos: int) -> None:
            barrier.wait()
            answers[pos] = am.knn_search(mapped[pos], 10)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_query, args=(pos,)) for pos in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert builds == [M]
        fresh = QMapModel(matrix).build_index("sequential", data)
        with unfiltered(fresh):
            assert [answers[pos] for pos in range(6)] == [
                fresh.access_method.knn_search(q, 10) for q in mapped
            ]


def _pivot_table(matrix, data, bound, **kwargs):
    return QMapModel(matrix).build_index("pivot-table", data, n_pivots=12, bound=bound, **kwargs)


@pytest.fixture
def pivot_floor_lowered(monkeypatch):
    """The pivot table's filter on from the scan's floor, inside the test."""
    monkeypatch.setattr(pivot_table, "PIVOT_FLOOR", projection.SCAN_FLOOR)


@pytest.mark.usefixtures("pivot_floor_lowered")
@pytest.mark.parametrize("bound", BOUND_MODES)
class TestThePivotTable:
    def test_against_the_reference_and_unfiltered(self, workload, bound) -> None:
        matrix, data, queries = workload
        built = _pivot_table(matrix, data, bound)
        table = built.access_method
        assert table._projection is not None
        probes = np.vstack([queries[:6], data[3:4]])
        for query in probes:
            mapped = built._map_query(query)
            for k in (1, 10, 50):
                got = _spent(table, mapped, k=k)
                expected, spent = reference_knn(table, mapped, k)
                assert got == ([(n.index, n.distance) for n in expected], spent)
            knn = table.knn_search(mapped, 10)
            for radius in (0.0, knn[0].distance, knn[-1].distance):
                got = _spent(table, mapped, radius=radius)
                expected, spent = reference_range(table, mapped, radius)
                assert got == ([(n.index, n.distance) for n in expected], spent)
        for kind in ({"k": 10}, {"radius": _radii(built, queries)[3]}):
            _assert_same(built, probes, **kind)
            _assert_same(built, probes, explain=False, **kind)

    def test_fewer_rows_evaluated_than_charged(self, workload, bound, monkeypatch) -> None:
        matrix, data, queries = workload
        built = _pivot_table(matrix, data, bound)
        port = built.access_method.distance
        rows = []
        compute = type(port).compute_many
        monkeypatch.setattr(
            type(port), "compute_many", lambda self, q, r: rows.append(len(r)) or compute(self, q, r)
        )
        evaluated = []
        for q in queries:
            rows.clear()
            _, spent = _spent(built, q, k=10)
            evaluated.append((sum(rows[1:]), spent.scalar_evaluations))
        assert sum(e for e, _ in evaluated) < 0.8 * sum(c for _, c in evaluated)

    def test_inserts_extend_the_projected_rows(self, workload, bound) -> None:
        matrix, data, queries = workload
        built = _pivot_table(matrix, data[:1100], bound)
        for row in data[1100:]:
            built.insert(row)
        table = built.access_method
        assert table._projection.size == M
        _assert_same(built, queries, explain=False, k=10)
        for q in queries[:3]:
            mapped = built._map_query(q)
            expected, spent = reference_knn(table, mapped, 10)
            assert _spent(table, mapped, k=10) == ([(n.index, n.distance) for n in expected], spent)

    def test_snapshot_round_trips(self, workload, bound, tmp_path) -> None:
        matrix, data, queries = workload
        built = _pivot_table(matrix, data, bound)
        basis = built.access_method._projection.basis
        path = built.save(tmp_path / "table.npz")
        assert np.array_equal(read_snapshot(path).state["basis"], basis)
        want = [_spent(built, q, k=10) for q in queries]
        tampered = {
            "kept": lambda w: w,
            "missing": None,
            "scaled": lambda w: 2.0 * w,
            "nan": lambda w: np.where(np.arange(w.size).reshape(w.shape) == 3, np.nan, w),
            "reshaped": lambda w: w[:-1],
        }
        for name, tamper in tampered.items():
            snapshot = read_snapshot(path)
            state = dict(snapshot.state)
            if tamper is None:
                del state["basis"]
            else:
                state["basis"] = tamper(state["basis"])
            table = type(built.access_method).from_state(
                snapshot.database, built.access_method.distance, state
            )
            assert np.array_equal(table._projection.basis, basis), name
            got = [_spent(table, built._map_query(q), k=10) for q in queries]
            assert [g[0] for g in got] == [w[0] for w in want], name
            assert [g[1] for g in got] == [w[1] for w in want], name
        restored = load_built_index(path)
        assert [_spent(restored, q, k=10) for q in queries] == want


def test_no_filter_where_it_does_not_pay(workload, tmp_path, monkeypatch) -> None:
    """QFD ports, short rows and small databases keep the plain refine and
    a snapshot without a basis: the pivot table below its own floor — the
    corpus the scan filters — and below the scan's."""
    matrix, data, _ = workload
    small = histogram_workload(300, 1, bins_per_channel=8, seed=1)
    short = histogram_workload(M, 1, bins_per_channel=4, seed=1)
    below = [QMapModel(matrix).build_index("pivot-table", data, n_pivots=8)]
    monkeypatch.setattr(pivot_table, "PIVOT_FLOOR", projection.SCAN_FLOOR)
    for built in below + [
        QFDModel(matrix).build_index("pivot-table", data, n_pivots=8),
        QMapModel(small.matrix).build_index("pivot-table", small.database, n_pivots=8),
        QMapModel(short.matrix).build_index("pivot-table", short.database, n_pivots=8),
    ]:
        assert built.access_method._projection is None
        state = read_snapshot(save_index(built.access_method, tmp_path / "t")).state
        assert "basis" not in state


def test_the_pivot_table_filters_from_its_floor() -> None:
    w = histogram_workload(projection.PIVOT_FLOOR[0], 4, bins_per_channel=8, seed=2011)
    model = QMapModel(w.matrix)
    assert model.build_index("pivot-table", w.database, n_pivots=16).access_method._projection
    fewer = model.build_index("pivot-table", w.database[1:], n_pivots=16)
    assert fewer.access_method._projection is None
