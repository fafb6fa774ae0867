"""One cost record per query changes *how* evaluations are accounted,
never *what* any sink reports.

``tests/fixtures/accounting_parity.json`` holds, for every cell of the
matrix in :mod:`tests.accounting_parity_recipe`, what each sink saw on the
commit *before* ``QueryTrace`` became the single per-query cost record.
Replaying the recipe must reproduce it exactly, with every answer equal to
the sequential scan's.  The second test guards the point of the single
record: with every sink off, a query's accounting costs O(1) context
lookups and counter-lock acquisitions for every method, however many
evaluations it decides — and with the sinks on, the finished record is
reported through one routine, once.  The third holds the registry's
cumulative counters to the model's own across every way a query can end.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.engine import batch as engine_batch
from repro.engine import trace as engine_trace
from repro.models import QFDModel, QMapModel
from repro.models import base as models_base
from repro.obs import (
    DISTANCE_EVALUATIONS,
    TRANSFORMS,
    JsonLinesLogger,
    MetricsRegistry,
    use_logger,
    use_registry,
)
from repro.obs import context as obs_context
from repro.obs import spans as obs_spans

from .accounting_parity_recipe import (
    FIXTURE_PATH,
    METHODS,
    compute_parity,
    parity_radii,
    parity_workload,
)
TOL = 1e-8
K_GUARD = 5

#: Methods whose answers are checked for soundness only, not completeness.
#: Empty: every method returns the scan's answer.  (The SAT was here while
#: it hung an object under the closest neighbor *promoted so far*, which
#: let its hyperplane bound discard a true neighbor.)
INCOMPLETE: set[str] = set()


def test_every_cell_matches_the_recorded_baseline() -> None:
    stored = json.loads(FIXTURE_PATH.read_text())
    workload = parity_workload()
    assert parity_radii(workload) == stored["radii"]
    scans = {
        "qfd": QFDModel(workload.matrix).build_index("sequential", workload.database),
        "qmap": QMapModel(workload.matrix).build_index("sequential", workload.database),
    }

    truth: dict = {}

    def checks(built, kind):
        scan = scans[built.model_name]

        def check(pos: int, parameter: float, answer) -> None:
            # Exact up to the order of last-ulp ties (the 8-d histograms
            # hold near-duplicates, and a Gram-form kernel rounds them
            # differently from the scan): the distance profile is the
            # scan's, and every reported object is at its reported distance.
            label = f"{built.model_name}/{built.method_name} {kind} q{pos}"
            key = (built.model_name, pos)
            if key not in truth:
                everything = scan.knn_search(workload.queries[pos], workload.database.shape[0])
                truth[key] = (everything, {n.index: n.distance for n in everything})
            ranked, by_index = truth[key]
            if kind == "knn":
                expected = ranked[: int(parameter)]
            else:
                expected = [n for n in ranked if n.distance <= parameter]
            for got in answer:
                assert abs(got.distance - by_index[got.index]) <= TOL, label
            if built.method_name in INCOMPLETE:
                return
            assert len(answer) == len(expected), label
            for got, want in zip(answer, expected):
                assert abs(got.distance - want.distance) <= TOL, label

        return check

    fresh = json.loads(json.dumps(compute_parity(checks)))
    assert set(fresh["cells"]) == set(stored["cells"])
    for key, want in stored["cells"].items():
        for kind, modes in want.items():
            for mode, recorded in modes.items():
                assert fresh["cells"][key][kind][mode] == recorded, f"{key} {kind}: {mode} drifted"


class _CountingVar:
    """Stands in for a module-level ``ContextVar``, counting ``get`` calls."""

    def __init__(self, var, tally: list) -> None:
        self._var = var
        self._tally = tally

    def get(self, *default):
        self._tally.append(self._var.name)
        return self._var.get(*default)

    def set(self, value):
        return self._var.set(value)

    def reset(self, token) -> None:
        self._var.reset(token)


class _CountingLock:
    """Stands in for a ``CountingDistance`` lock, counting acquisitions."""

    def __init__(self, lock, tally: list) -> None:
        self._lock = lock
        self._tally = tally

    def __enter__(self):
        self._tally.append("lock")
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


_REGISTRY_METHODS = sorted({name: kwargs for name, kwargs in METHODS.values()}.items())


@pytest.fixture(scope="module")
def guard_data():
    rng = np.random.default_rng(11)
    data = rng.uniform(0.0, 1.0, size=(600, 8))
    matrix = np.eye(8) + 0.3 * np.ones((8, 8))
    model, q = QMapModel(matrix), rng.uniform(0.0, 1.0, size=8)
    # A radius holding 80 objects: every method then refines at least those.
    radius = model.build_index("sequential", data).knn_search(q, 80)[-1].distance
    return model, data, q, radius


@pytest.mark.parametrize("kind", ["knn", "range"])
@pytest.mark.parametrize("method,kwargs", _REGISTRY_METHODS, ids=[m for m, _ in _REGISTRY_METHODS])
def test_accounting_is_per_query(method, kwargs, kind, guard_data, monkeypatch) -> None:
    """With sinks off a query costs O(1) ContextVar lookups and counter
    locks — not one per evaluation (the pivot table used to make 5 314
    lookups and 1 770 lock acquisitions for one kNN query).  With the
    registry and the logger on, a single query enters the report routine
    exactly once and a batch once, and nothing outside that routine writes
    a per-query series or a ``"query"`` / ``"batch"`` log record."""
    model, data, q, radius = guard_data
    built = model.build_index(method, data, **kwargs)
    counter = built._counter
    gets: list[str] = []
    locks: list[str] = []
    for module, name in (
        (engine_trace, "_ACTIVE_TRACE"),
        (obs_context, "_ACTIVE_CONTEXT"),
        (obs_spans, "_SPAN_STACK"),
    ):
        monkeypatch.setattr(module, name, _CountingVar(getattr(module, name), gets))
    before = counter.count
    monkeypatch.setattr(counter, "_lock", _CountingLock(counter._lock, locks))
    if kind == "knn":
        built.knn_search(q, 64)
    else:
        built.range_search(q, radius)
    monkeypatch.undo()
    evaluations = counter.count - before
    assert evaluations > 60, "the query must be worth counting"
    assert len(gets) <= 8, gets
    assert len(locks) <= 2, locks

    reports: list[tuple[int, dict]] = []

    def silent_report(records, **labels) -> None:
        reports.append((len(records), labels))

    monkeypatch.setattr(models_base, "report_queries", silent_report)
    monkeypatch.setattr(engine_batch, "report_queries", silent_report)
    registry, stream = MetricsRegistry(), io.StringIO()
    batch = np.stack([q, q[::-1], q])
    with JsonLinesLogger(stream) as logger, use_registry(registry), use_logger(logger):
        if kind == "knn":
            built.knn_search(q, 64)
            built.knn_search_batch(batch, 64)
        else:
            built.range_search(q, radius)
            built.range_search_batch(batch, radius)
    monkeypatch.undo()
    (single, single_labels), (batched, batch_labels) = reports
    assert (single, batched) == (1, 3)
    assert single_labels["kind"] == batch_labels["kind"] == kind
    assert "executor" not in single_labels and batch_labels["executor"] == "serial"
    assert {single_labels["model"], batch_labels["model"]} == {"qmap"}
    assert (single_labels["transforms"], batch_labels["transforms"]) == (1, 3)
    written = {sample.name for sample in registry.snapshot()}
    assert not {n for n in written if n.startswith(("repro_quer", "repro_batch_"))}, written
    events = {json.loads(line)["event"] for line in stream.getvalue().splitlines()}
    assert not events & {"query", "batch"}, events
    close = getattr(built.access_method, "close", None)
    if close is not None:
        close()


def _mid_search_failure(access_method):
    """Make the next kNN search evaluate normally, then raise."""
    search = access_method._knn_search

    def failing(query, k):
        search(query, k)
        raise RuntimeError("boom")

    access_method._knn_search = failing
    return lambda: access_method.__dict__.pop("_knn_search")


def test_cumulative_counters_grow_by_what_query_costs_grows() -> None:
    """``repro_distance_evaluations_total{phase="query"}`` and
    ``repro_transforms_total{phase="query"}`` are fed from the finished
    records, so they track ``BuiltIndex.query_costs()`` step for step —
    single query, batch under every executor, insert, failing query,
    counter reset — also when the active registry is swapped mid-run
    (what the delta-sync's per-registry baselines existed for)."""
    workload = parity_workload()
    built = QMapModel(workload.matrix).build_index("mtree", workload.database, capacity=6)
    q, queries = workload.queries[0], workload.queries
    registries = [MetricsRegistry(), MetricsRegistry()]

    def exported() -> tuple[int, int]:
        totals = {DISTANCE_EVALUATIONS: 0, TRANSFORMS: 0}
        for registry in registries:
            for sample in registry.snapshot():
                if sample.name in totals and sample.labels.get("phase") == "query":
                    assert sample.labels["model"] == "qmap"
                    assert sample.labels["method"] == "mtree"
                    totals[sample.name] += int(sample.value)
        return totals[DISTANCE_EVALUATIONS], totals[TRANSFORMS]

    def failing(call):
        def step() -> None:
            restore = _mid_search_failure(built.access_method)
            try:
                with pytest.raises(RuntimeError, match="boom"):
                    call()
            finally:
                restore()

        return step

    steps = [
        lambda: built.knn_search(q, K_GUARD),
        lambda: built.knn_search_batch(queries, K_GUARD, executor="serial"),
        lambda: built.knn_search_batch(queries, K_GUARD, executor="thread", workers=2),
        lambda: built.knn_search_batch(queries, K_GUARD, executor="process", workers=2),
        lambda: built.insert(workload.database[3]),
        failing(lambda: built.knn_search(q, K_GUARD)),
        failing(lambda: built.knn_search_batch(queries, K_GUARD)),
        built.reset_query_costs,
        lambda: built.range_search(q, 0.3),
        lambda: built.insert(workload.database[4]),
    ]
    grown = [0, 0]
    for position, step in enumerate(steps):
        if step == built.reset_query_costs:
            step()
            continue
        before = built.query_costs()
        with use_registry(registries[position % 2]):
            step()
        after = built.query_costs()
        grown[0] += after.distance_computations - before.distance_computations
        grown[1] += after.transforms - before.transforms
        assert exported() == tuple(grown), f"step {position}"
    assert grown[0] > 0 and grown[1] == 1 + 3 * len(queries) + 1 + 1 + len(queries) + 1 + 1
    assert all(registry.snapshot() for registry in registries)
