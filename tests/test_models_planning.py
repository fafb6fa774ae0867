"""The materializing half of the planner (`repro.models.planning`).

Pinned invariants:

1. planning is free — restoring a probed snapshot costs zero
   evaluations;
2. a materialized probe answers the *planned* workload: a snapshot whose
   archived QFD matrix (or shape) disagrees is refused, not silently
   traversed;
3. ``plan_query_batch`` end to end: the chosen plan's answers equal the
   sequential baseline's, forced plans included, every plan family
   charges the counts it charged under the flops-priced planner, and
   per-alternative actual costs are measured in Table 2's unit.
"""

from __future__ import annotations

import numpy as np
import pytest

from .helpers import assert_same_neighbors
from repro.core import random_spd_matrix
from repro.datasets import histogram_workload
from repro.exceptions import QueryError, StorageError
from repro.models import QFDModel, QMapModel, load_built_index
from repro.models.lifecycle import load_catalog
from repro.models.planning import (
    PlanExecution,
    alternative_actual_flops,
    materialize_plan,
    plan_query_batch,
)
from repro.persistence import read_snapshot
from repro.planner import DirectScan, ExecutorChoice, FilterRefine


@pytest.fixture(scope="module")
def workload():
    return histogram_workload(150, 5, bins_per_channel=4, seed=9)


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory, workload):
    root = tmp_path_factory.mktemp("planned")
    QMapModel(workload.matrix).build_index(
        "pivot-table", workload.database, n_pivots=8
    ).save(str(root / "pivot.npz"))
    QMapModel(workload.matrix).build_index(
        "mtree", workload.database, capacity=16
    ).save(str(root / "mtree.npz"))
    return root


@pytest.fixture(scope="module")
def family_dir(tmp_path_factory, workload):
    """One snapshot per probed family: both models, in-memory and paged."""
    root = tmp_path_factory.mktemp("families")
    for model_cls, model_name in ((QMapModel, "qmap"), (QFDModel, "qfd")):
        model = model_cls(workload.matrix)
        model.build_index("pivot-table", workload.database, n_pivots=8).save(
            str(root / f"pivot_{model_name}.npz")
        )
        model.build_index("mtree", workload.database, capacity=16).save(
            str(root / f"mtree_{model_name}.npz")
        )
    QMapModel(workload.matrix).build_index(
        "paged-mtree", workload.database, capacity=16
    ).save(str(root / "paged_qmap.npz"))
    return root


@pytest.fixture(scope="module")
def baseline(workload):
    index = QFDModel(workload.matrix).build_index("sequential", workload.database)
    return [index.knn_search(q, 5) for q in workload.queries]


class TestMaterialize:
    def test_direct_scan_builds_sequential(self, workload) -> None:
        execution = materialize_plan(
            DirectScan(model="qmap"), workload.matrix, workload.database
        )
        assert execution.index is not None
        assert execution.index.method_name == "sequential"
        assert execution.index.model_name == "qmap"

    def test_probe_restores_without_evaluations(
        self, workload, snapshot_dir
    ) -> None:
        planned = plan_query_batch(
            workload.matrix, workload.database, workload.queries,
            k=5, index_dir=str(snapshot_dir),
            force="probe[pivot-table,qmap]",
        )
        execution = planned.execution
        assert execution.index is not None
        assert execution.index.build_costs.distance_computations == 0
        assert execution.index.query_costs().distance_computations == 0

    def test_probe_refuses_foreign_matrix(self, workload, tmp_path) -> None:
        """Invariant 2: a matrix mismatch is an error, not a wrong answer."""
        other = random_spd_matrix(64, rng=np.random.default_rng(1), condition=4.0)
        QMapModel(other).build_index(
            "pivot-table", workload.database, n_pivots=8
        ).save(str(tmp_path / "foreign.npz"))
        with pytest.raises(StorageError, match="matrix disagrees"):
            plan_query_batch(
                workload.matrix, workload.database, workload.queries,
                k=5, index_dir=str(tmp_path),
                force="probe[pivot-table,qmap]",
            )

    def test_probe_refuses_wrong_database_shape(
        self, workload, snapshot_dir
    ) -> None:
        node_choice = plan_query_batch(
            workload.matrix, workload.database, workload.queries,
            k=5, index_dir=str(snapshot_dir),
        ).choice
        probe = node_choice.alternative("probe[pivot-table,qmap]").plan
        with pytest.raises(StorageError, match="rows"):
            materialize_plan(probe, workload.matrix, workload.database[:-10])

    def test_filter_refine_avg_color_needs_a_cube(self) -> None:
        matrix = random_spd_matrix(20, rng=np.random.default_rng(2), condition=4.0)
        database = np.abs(np.random.default_rng(3).normal(size=(30, 20)))
        with pytest.raises(QueryError, match="color-cube"):
            materialize_plan(
                FilterRefine(lower_bound="avg_color", rank=3), matrix, database
            )


class TestPlanQueryBatch:
    def test_needs_exactly_one_of_k_and_radius(self, workload) -> None:
        for kwargs in ({}, {"k": 5, "radius": 0.5}):
            with pytest.raises(QueryError):
                plan_query_batch(
                    workload.matrix, workload.database, workload.queries, **kwargs
                )

    def test_auto_pick_beats_scan_and_matches_baseline(
        self, workload, snapshot_dir, baseline
    ) -> None:
        planned = plan_query_batch(
            workload.matrix, workload.database, workload.queries,
            k=5, index_dir=str(snapshot_dir),
        )
        # Acceptance: with snapshots on offer the pick is non-sequential.
        assert planned.plan_name.startswith("probe[")
        assert len(planned.choice.considered) >= 3
        results = planned.execution.run_batch(workload.queries, k=5)
        for got, expected in zip(results, baseline):
            assert_same_neighbors(got, expected, label=planned.plan_name)

    def test_every_forced_alternative_matches_baseline(
        self, workload, snapshot_dir, baseline
    ) -> None:
        """The planner changes where evaluations go, never the answers."""
        choice = plan_query_batch(
            workload.matrix, workload.database, workload.queries,
            k=5, index_dir=str(snapshot_dir),
        ).choice
        for candidate in choice.considered:
            planned = plan_query_batch(
                workload.matrix, workload.database, workload.queries,
                k=5, index_dir=str(snapshot_dir), force=candidate.name,
            )
            assert planned.plan_name == candidate.name
            results = planned.execution.run_batch(workload.queries, k=5)
            for got, expected in zip(results, baseline):
                assert_same_neighbors(got, expected, label=candidate.name)

    def test_range_planning_builds_a_range_spec(self, workload) -> None:
        planned = plan_query_batch(
            workload.matrix, workload.database, workload.queries, radius=0.4
        )
        assert planned.spec.kind == "range" and planned.spec.param == 0.4
        assert planned.plan_name == "scan[qmap]"

    def test_executor_override_wins(self, workload) -> None:
        planned = plan_query_batch(
            workload.matrix, workload.database, workload.queries,
            k=5, executor=ExecutorChoice(name="thread", workers=2),
        )
        assert planned.execution.executor.name == "thread"

    def test_no_plan_asks_for_a_pool_on_its_own(self, workload) -> None:
        """A wide batch used to get a thread-pool hint the ledger prices
        at 0.48-0.68x serial; every considered plan now runs serially."""
        wide = np.repeat(workload.queries, 8, axis=0)[:32]
        planned = plan_query_batch(workload.matrix, workload.database, wide, k=5)
        assert planned.execution.executor.name == "serial"

    def test_every_family_forced_charges_what_it_charged(
        self, workload, family_dir, baseline
    ) -> None:
        """Ranking by rule instead of by flops moves no forced plan: each
        family answers like the baseline and charges the distance
        evaluations and query transforms it charged when the planner
        priced plans by Table 2's closed forms."""
        charged = {
            "scan[qfd]": (750, 0),
            "scan[qmap]": (750, 5),
            "probe[pivot-table,qfd]": (92, 0),
            "probe[pivot-table,qmap]": (92, 5),
            "probe[mtree,qfd]": (142, 0),
            "probe[mtree,qmap]": (142, 5),
            "probe[paged-mtree,qmap]": (142, 5),
            "filter-refine[svd,k=16]": (38, 0),
            "filter-refine[avg_color,k=3]": (61, 0),
        }
        auto = plan_query_batch(
            workload.matrix, workload.database, workload.queries,
            k=5, index_dir=str(family_dir),
        )
        assert auto.plan_name == "probe[pivot-table,qmap]"
        assert sorted(c.name for c in auto.choice.considered) == sorted(charged)
        for name, counts in charged.items():
            planned = plan_query_batch(
                workload.matrix, workload.database, workload.queries,
                k=5, index_dir=str(family_dir), force=name,
            )
            results = planned.execution.run_batch(workload.queries, k=5)
            for got, expected in zip(results, baseline):
                assert_same_neighbors(got, expected, label=name)
            costs = planned.execution.query_costs()
            assert (costs.distance_computations, costs.transforms) == counts, name

    def test_filter_refine_reports_stats_and_flops(self, workload) -> None:
        planned = plan_query_batch(
            workload.matrix, workload.database, workload.queries,
            k=5, force="filter-refine[svd,k=16]",
        )
        planned.execution.run_batch(workload.queries, k=5)
        assert len(planned.execution.stats) == len(workload.queries)
        costs = planned.execution.query_costs()
        assert costs.distance_computations == sum(
            s.candidates for s in planned.execution.stats
        )
        assert planned.execution.actual_flops() > 0


class TestAlternativeActuals:
    def test_actuals_cover_alternatives_and_skip_the_unloadable(
        self, workload, tmp_path
    ) -> None:
        QMapModel(workload.matrix).build_index(
            "pivot-table", workload.database, n_pivots=8
        ).save(str(tmp_path / "pivot.npz"))
        planned = plan_query_batch(
            workload.matrix, workload.database, workload.queries,
            k=5, index_dir=str(tmp_path),
        )
        (tmp_path / "pivot.npz").unlink()  # deleted between plan and explain
        actuals = alternative_actual_flops(
            planned.choice, workload.matrix, workload.database,
            workload.queries[0], k=5,
        )
        assert "probe[pivot-table,qmap]" not in actuals
        assert actuals["scan[qfd]"] > actuals["scan[qmap]"]
        # The raw-QFD scan's actual is exactly its closed form: m * n^2.
        m, n = workload.database.shape
        assert actuals["scan[qfd]"] == pytest.approx(m * n * n)


class TestLifecycle:
    def test_load_built_index_accepts_a_parsed_snapshot(
        self, workload, snapshot_dir
    ) -> None:
        """The double-read fix: a parsed snapshot restores with no re-open."""
        path = snapshot_dir / "pivot.npz"
        snapshot = read_snapshot(path)
        from_snapshot = load_built_index(snapshot)
        from_path = load_built_index(str(path))
        assert from_snapshot.method_name == from_path.method_name == "pivot-table"
        query = workload.queries[0]
        assert_same_neighbors(
            from_snapshot.knn_search(query, 5), from_path.knn_search(query, 5)
        )

    def test_load_catalog_is_the_models_layer_entrypoint(
        self, snapshot_dir
    ) -> None:
        catalog = load_catalog(snapshot_dir)
        assert len(catalog) == 2 and not catalog.warnings


class TestPlanExecutionGuards:
    def test_run_batch_needs_exactly_one_parameter(self, workload) -> None:
        execution = materialize_plan(
            DirectScan(model="qfd"), workload.matrix, workload.database
        )
        assert isinstance(execution, PlanExecution)
        with pytest.raises(QueryError):
            execution.run_batch(workload.queries)
        with pytest.raises(QueryError):
            execution.run_batch(workload.queries, k=5, radius=0.5)
