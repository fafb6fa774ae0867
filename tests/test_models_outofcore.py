"""Out-of-core model builds: mmap vs heap twins, counts, snapshots.

Model-level contract of the out-of-core data path: where the rows live is
not a second arithmetic.  An index built over a memory-mapped float32
store must return *bit-identical* answers and charge *exactly* the same
logical distance counts as its heap twin over the same float32-rounded
rows, for every access method under both models; snapshot restores stay
at zero distance evaluations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.color import rgb_bin_prototypes
from repro.core import prototype_similarity_matrix
from repro.datasets import clustered_histograms
from repro.exceptions import IndexStateError
from repro.models import QFDModel, QMapModel, load_built_index
from repro.models.base import MAM_REGISTRY, SAM_REGISTRY

from .helpers import assert_same_neighbors

BINS = 2  # 2 bins/channel -> dim 8: small enough for exhaustive sweeps
DIM = BINS**3


def _matrix():
    return prototype_similarity_matrix(rgb_bin_prototypes(BINS)).matrix


def _data(n: int, seed: int) -> np.ndarray:
    return clustered_histograms(n, BINS, rng=np.random.default_rng(seed))


def _method_kwargs(method: str, seed: int = 1) -> dict:
    base = {
        "sequential": {},
        "disk-sequential": {"cache_pages": 8},
        "pivot-table": {"n_pivots": 6},
        "mtree": {"capacity": 6},
        "paged-mtree": {"capacity": 6, "cache_pages": 8},
        "vptree": {"leaf_size": 6},
        "gnat": {"arity": 4, "leaf_size": 8},
        "mindex": {"n_pivots": 5},
        "sat": {},
        "rtree": {"capacity": 6},
        "xtree": {"capacity": 6},
        "vafile": {"bits": 4},
    }[method]
    if method in ("pivot-table", "mtree", "paged-mtree", "vptree", "gnat", "mindex", "sat"):
        base = dict(base, rng=np.random.default_rng(seed))
    return base


ALL_CASES = [(QFDModel, m) for m in sorted(MAM_REGISTRY)] + [
    (QMapModel, m) for m in sorted(MAM_REGISTRY) + sorted(SAM_REGISTRY)
]


def _case_id(case) -> str:
    model_cls, method = case
    return f"{model_cls.name}-{method}"


def _build_twins(model_cls, method, data):
    """The two twins: heap over float32-rounded rows, and mmap."""
    model = model_cls(_matrix())
    heap = model.build_index(method, data, store_dtype="float32", **_method_kwargs(method))
    mmap = model.build_index(method, data, store="mmap", **_method_kwargs(method))
    return heap, mmap


def _assert_twins_agree(case, data, queries, k) -> None:
    """Equal build charges, then per query ``tol=0`` answers and equal charges."""
    model_cls, method = case
    heap, mmap = _build_twins(model_cls, method, data)
    assert (
        heap.build_costs.distance_computations == mmap.build_costs.distance_computations
    ), f"{method}: build charges diverged across store backends"
    for i, q in enumerate(queries):
        heap.reset_query_costs()
        mmap.reset_query_costs()
        assert_same_neighbors(
            mmap.knn_search(q, k), heap.knn_search(q, k), tol=0.0,
            label=f"{method} mmap-vs-heap q{i}",
        )
        assert (
            heap.query_costs().distance_computations
            == mmap.query_costs().distance_computations
        ), f"{method}: query charges diverged between heap twin and mmap"


@pytest.mark.parametrize("case", ALL_CASES, ids=_case_id)
class TestMmapHeapTwinEquivalence:
    """Bitwise answers and exactly equal charges across the two stores."""

    def test_results_and_counts(self, case) -> None:
        _assert_twins_agree(case, _data(60, seed=3), _data(4, seed=4), 5)

    def test_range_query_parity(self, case) -> None:
        model_cls, method = case
        heap, mmap = _build_twins(model_cls, method, _data(48, seed=5))
        q = _data(1, seed=6)[0]
        # A radius wide enough to return a non-trivial ball everywhere.
        radius = heap.knn_search(q, 8)[-1].distance * (1 + 1e-9)
        heap.reset_query_costs()
        mmap.reset_query_costs()
        assert_same_neighbors(
            mmap.range_search(q, radius), heap.range_search(q, radius), tol=0.0,
            label=f"{method} range",
        )
        assert (
            heap.query_costs().distance_computations
            == mmap.query_costs().distance_computations
        )


@pytest.mark.parametrize("case", ALL_CASES, ids=_case_id)
class TestChargedCountProperty:
    """Hypothesis: answers and charges agree across the stores for any seed and k."""

    @given(seed=st.integers(0, 1_000), k=st.integers(1, 6))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_counts_equal_across_paths(self, case, seed, k) -> None:
        _assert_twins_agree(case, _data(28, seed=seed), _data(1, seed=seed + 1), k)


class TestSnapshotRoundTrip:
    """mmap-backed build -> save -> load at zero distance evaluations."""

    @pytest.mark.parametrize(
        "model_cls, method",
        [(QFDModel, "mtree"), (QMapModel, "pivot-table"), (QMapModel, "vafile")],
        ids=lambda v: getattr(v, "name", v),
    )
    @pytest.mark.parametrize("restore_store", ["heap", "mmap"])
    def test_zero_eval_restore_is_bit_identical(
        self, model_cls, method, restore_store, tmp_path
    ) -> None:
        data = _data(64, seed=11)
        queries = _data(3, seed=12)
        model = model_cls(_matrix())
        built = model.build_index(method, data, store="mmap", **_method_kwargs(method))
        path = built.save(tmp_path / "index.qrsnap")
        # Either store runs the same arithmetic over the same float32 rows.
        loaded = load_built_index(path, store=restore_store)
        assert loaded.build_costs.distance_computations == 0
        assert loaded.build_costs.transforms == 0
        for q in queries:
            assert_same_neighbors(
                loaded.knn_search(q, 5),
                built.knn_search(q, 5),
                tol=0.0,
                label=f"{method} restore={restore_store}",
            )

    def test_cli_equivalent_store_path_spill(self, tmp_path) -> None:
        """store_path pins the mapping to a named file, like --store-path."""
        data = _data(40, seed=13)
        built = QFDModel(_matrix()).build_index(
            "sequential", data, store="mmap", store_path=tmp_path / "rows.bin"
        )
        assert (tmp_path / "rows.bin").exists()
        q = _data(1, seed=14)[0]
        assert len(built.knn_search(q, 3)) == 3


class TestOutOfCoreStaticity:
    def test_mmap_backed_index_rejects_insert(self) -> None:
        built = QFDModel(_matrix()).build_index(
            "sequential", _data(24, seed=31), store="mmap"
        )
        with pytest.raises(IndexStateError):
            built.insert(_data(1, seed=32)[0])
