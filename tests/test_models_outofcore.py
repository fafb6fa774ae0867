"""Out-of-core model builds: mmap vs heap twins, counts, snapshots.

Model-level contract of the out-of-core data path (ISSUE tentpole +
satellite d): an index built over a memory-mapped float32 store with
blocked kernels must return *bit-identical* answers and charge *exactly*
the same logical distance counts as its in-heap twin, for every access
method under both models; snapshot restores stay at zero distance
evaluations; and the parallel M-tree bulk-load is deterministic in the
worker count.
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
BLOCK = 13  # deliberately not a divisor of any test database size


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


def _build_three(model_cls, method, data, *, block_rows=BLOCK, **extra):
    """The three twins: heap f32 unblocked, heap f32 blocked, mmap blocked."""
    model = model_cls(_matrix())
    plain = model.build_index(
        method, data, store_dtype="float32", **_method_kwargs(method), **extra
    )
    heap = model.build_index(
        method,
        data,
        store_dtype="float32",
        block_rows=block_rows,
        **_method_kwargs(method),
        **extra,
    )
    mmap = model.build_index(
        method, data, store="mmap", block_rows=block_rows, **_method_kwargs(method), **extra
    )
    return plain, heap, mmap


@pytest.mark.parametrize("case", ALL_CASES, ids=_case_id)
class TestMmapHeapTwinEquivalence:
    """Bitwise answers and exactly equal charges across the three paths."""

    def test_results_and_counts(self, case) -> None:
        model_cls, method = case
        data = _data(60, seed=3)
        queries = _data(4, seed=4)
        plain, heap, mmap = _build_three(model_cls, method, data)
        assert (
            plain.build_costs.distance_computations
            == heap.build_costs.distance_computations
            == mmap.build_costs.distance_computations
        ), f"{method}: build charges diverged across store backends"
        for k, q in enumerate(queries):
            for built in (plain, heap, mmap):
                built.reset_query_costs()
            r_plain = plain.knn_search(q, 5)
            r_heap = heap.knn_search(q, 5)
            r_mmap = mmap.knn_search(q, 5)
            # The mmap path and its blocked heap twin are bit-identical.
            assert_same_neighbors(
                r_mmap, r_heap, tol=0.0, label=f"{method} mmap-vs-heap q{k}"
            )
            # The unblocked build agrees up to kernel-path ulps.  Its
            # *charges* may differ: a prune threshold can sit within an
            # ulp of a bound, and the two kernel paths land on opposite
            # sides (the prune_slack discipline keeps answers exact
            # either way).
            assert_same_neighbors(
                r_plain, r_mmap, tol=1e-7, label=f"{method} plain-vs-mmap q{k}"
            )
            assert (
                heap.query_costs().distance_computations
                == mmap.query_costs().distance_computations
            ), f"{method}: query charges diverged between heap twin and mmap"

    def test_range_query_parity(self, case) -> None:
        model_cls, method = case
        data = _data(48, seed=5)
        q = _data(1, seed=6)[0]
        plain, heap, mmap = _build_three(model_cls, method, data)
        # A radius wide enough to return a non-trivial ball everywhere.
        radius = plain.knn_search(q, 8)[-1].distance * (1 + 1e-9)
        r_heap = heap.range_search(q, radius)
        r_mmap = mmap.range_search(q, radius)
        assert_same_neighbors(r_mmap, r_heap, tol=0.0, label=f"{method} range")
        assert {n.index for n in plain.range_search(q, radius)} == {
            n.index for n in r_mmap
        }


def _assert_counts_equal_across_paths(case, seed, b1, b2, k) -> None:
    """Heap twin at tiling ``b1`` vs mmap at tiling ``b2``: the
    blocked kernels are bit-identical across tilings, so answers AND
    charged counts must match exactly even for different block sizes.
    The unblocked build shares build charges (structural) and
    answers; its pruning-dependent query charges may sit an ulp away
    (see TestMmapHeapTwinEquivalence).  QMap pins ``b2 = b1``: its
    streamed *transform* is a gemm, which is chunk-sensitive — the
    heap twin mirrors the mmap chunking rather than the reverse."""
    model_cls, method = case
    if model_cls is QMapModel:
        b2 = b1
    data = _data(28, seed=seed)
    q = _data(1, seed=seed + 1)[0]
    model = model_cls(_matrix())
    plain = model.build_index(
        method, data, store_dtype="float32", **_method_kwargs(method)
    )
    heap = model.build_index(
        method, data, store_dtype="float32", block_rows=b1, **_method_kwargs(method)
    )
    mmap = model.build_index(
        method, data, store="mmap", block_rows=b2, **_method_kwargs(method)
    )
    assert (
        plain.build_costs.distance_computations
        == heap.build_costs.distance_computations
        == mmap.build_costs.distance_computations
    )
    for built in (plain, heap, mmap):
        built.reset_query_costs()
    results = [built.knn_search(q, k) for built in (plain, heap, mmap)]
    assert_same_neighbors(results[2], results[1], tol=0.0, label=method)
    assert_same_neighbors(results[0], results[2], tol=1e-7, label=method)
    assert (
        heap.query_costs().distance_computations
        == mmap.query_costs().distance_computations
    ), f"{method}: counts diverged between tilings b1={b1}, b2={b2}"


@pytest.mark.parametrize("case", ALL_CASES, ids=_case_id)
class TestChargedCountProperty:
    """Hypothesis: charges are invariant in seed, tiling, and k."""

    @given(
        seed=st.integers(0, 1_000),
        b1=st.integers(1, 40),
        b2=st.integers(1, 40),
        k=st.integers(1, 6),
    )
    # Derandomized: a fresh random draw per run let one known defect (the
    # SAT case pinned below) fail tier-1 for an unrelated change.
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_counts_equal_across_paths(self, case, seed, b1, b2, k) -> None:
        _assert_counts_equal_across_paths(case, seed, b1, b2, k)


@pytest.mark.xfail(
    strict=True,
    reason="the SAT's neighbor assignment flips between tilings: the SAT defect, ROADMAP item 5",
)
def test_counts_equal_across_paths_known_sat_counterexample() -> None:
    """The draw that falsified ``[qfd-sat]`` above; stays visible until the
    SAT is fixed, when this turns into an unexpected pass."""
    _assert_counts_equal_across_paths((QFDModel, "sat"), seed=102, b1=1, b2=1, k=1)


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
        built = model.build_index(
            method, data, store="mmap", block_rows=BLOCK, **_method_kwargs(method)
        )
        path = built.save(tmp_path / "index.qrsnap")
        # Same tiling on restore: the heap twin then runs the identical
        # blocked arithmetic over the same float32-rounded rows.
        loaded = load_built_index(path, store=restore_store, block_rows=BLOCK)
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
            "sequential",
            data,
            store="mmap",
            store_path=tmp_path / "rows.bin",
            block_rows=BLOCK,
        )
        assert (tmp_path / "rows.bin").exists()
        q = _data(1, seed=14)[0]
        assert len(built.knn_search(q, 3)) == 3


class TestOutOfCoreStaticity:
    def test_mmap_backed_index_rejects_insert(self) -> None:
        built = QFDModel(_matrix()).build_index(
            "sequential", _data(24, seed=31), store="mmap", block_rows=BLOCK
        )
        with pytest.raises(IndexStateError):
            built.insert(_data(1, seed=32)[0])
