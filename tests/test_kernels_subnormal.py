"""Subnormal operands and the QFD-regime kernels (PR 21).

``clustered_histograms`` draws ``Dirichlet(alpha ~ 1e-3)`` rows, so about
1 % of every synthetic corpus is float64 subnormals, and each multiply-add
that meets one takes an x86 microcode assist.  The QFD entry points flush
them (``repro.kernels.gram._flush_subnormals``) before their first BLAS
product.  Pinned here:

* the generator still emits subnormals (the cause — "fixing" it would
  re-hash every fixture and benchmark input);
* every flushed entry point returns the parent's bits, with the parent's
  arithmetic written inline as the reference;
* no caller array is ever written;
* ``QMap.transform`` / ``transform_batch`` flush too (PR 22) — the one
  place a *stored* bit moves: mapped entries below 1e-290, by less than
  1e-300, and no distance, answer or count with them.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qfd import QuadraticFormDistance
from repro.core.qmap import QMap
from repro.datasets import histogram_workload
from repro.kernels import gram
from repro.models import QFDModel, QMapModel

from .helpers import assert_same_neighbors

TINY = np.finfo(np.float64).tiny


#: (flat position in a 12 x 64 batch, value, negate?) triples: subnormals,
#: zero, and values at and just above ``tiny``.
INJECTED = st.lists(
    st.tuples(
        st.integers(0, 12 * 64 - 1),
        st.sampled_from(
            [
                5e-324,
                1e-310,
                float(np.nextafter(TINY, 0.0)),
                TINY,
                float(np.nextafter(TINY, 1.0)),
                3e-308,
                0.0,
            ]
        ),
        st.booleans(),
    ),
    max_size=200,
)


def _is_subnormal(x: np.ndarray) -> np.ndarray:
    return (np.abs(x) < TINY) & (x != 0.0)


# ---------------------------------------------------------------------------
# The parent commit's arithmetic, verbatim minus the flush: the references.
# ---------------------------------------------------------------------------


def _ref_one_to_many(a, q, rows):
    diff = rows - q
    return np.sqrt(np.maximum(np.einsum("ij,ij->i", diff @ a, diff), 0.0))


def _ref_pairwise(a, rows):
    cross = rows @ a @ rows.T
    norms = np.diag(cross)
    sq = norms[:, None] + norms[None, :] - (cross + cross.T)
    np.fill_diagonal(sq, 0.0)
    return np.sqrt(np.maximum(sq, 0.0))


def _ref_row_norms(a, rows):
    rows = np.asarray(rows, dtype=np.float64)
    return np.einsum("ij,ij->i", rows @ a, rows)


def _ref_squared_diff(a, q, rows):
    diff = np.asarray(rows, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return np.einsum("ij,ij->i", diff @ a, diff)


def _ref_squared_one_to_many(a, q, rows):
    q = np.asarray(q, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    q_a = q @ a
    q_norm = float(q_a @ q)
    norms = _ref_row_norms(a, rows)
    sq = q_norm + norms - 2.0 * (rows @ q_a)
    suspect = np.flatnonzero(sq <= gram.RECHECK_REL * (q_norm + norms))
    if suspect.size:
        sq[suspect] = _ref_squared_diff(a, q, rows[suspect])
    return np.maximum(sq, 0.0)


def _ref_squared_pairwise(a, rows):
    rows = np.asarray(rows, dtype=np.float64)
    g = rows @ a
    norms = np.einsum("ij,ij->i", g, rows)
    cross = g @ rows.T
    sq = norms[:, None] + norms[None, :] - (cross + cross.T)
    np.fill_diagonal(sq, 0.0)
    suspect = sq <= gram.RECHECK_REL * (norms[:, None] + norms[None, :])
    np.fill_diagonal(suspect, False)
    ii, jj = np.nonzero(np.triu(suspect, 1))
    if ii.size:
        diff = rows[ii] - rows[jj]
        exact = np.einsum("ij,ij->i", diff @ a, diff)
        sq[ii, jj] = exact
        sq[jj, ii] = exact
    return np.maximum(sq, 0.0)


def _ref_cross(a, rows_a, rows_b):
    rows_a = np.asarray(rows_a, dtype=np.float64)
    rows_b = np.asarray(rows_b, dtype=np.float64)
    g = rows_a @ a
    norms_a = np.einsum("ij,ij->i", g, rows_a)
    norms_b = _ref_row_norms(a, rows_b)
    sq = norms_a[:, None] + norms_b[None, :] - 2.0 * (g @ rows_b.T)
    suspect = sq <= gram.RECHECK_REL * (norms_a[:, None] + norms_b[None, :])
    ii, jj = np.nonzero(suspect)
    if ii.size:
        diff = rows_a[ii] - rows_b[jj]
        sq[ii, jj] = np.einsum("ij,ij->i", diff @ a, diff)
    return np.sqrt(np.maximum(sq, 0.0))


def _assert_all_entry_points_match(a, q, rows):
    """``np.array_equal`` (not ``allclose``) for every flushed entry point.

    ``rows[-1]`` duplicates ``rows[0]`` in every caller, so each Gram-form
    function also walks its cancellation recheck.
    """
    qfd = QuadraticFormDistance(a)
    half = len(rows) // 2
    pairs = [
        (qfd.one_to_many(q, rows), _ref_one_to_many(a, q, rows)),
        (qfd.one_to_many(rows[0], rows), _ref_one_to_many(a, rows[0], rows)),
        (qfd.pairwise(rows), _ref_pairwise(a, rows)),
        (gram.qfd_row_norms(a, rows), _ref_row_norms(a, rows)),
        (gram._qfd_squared_diff(a, q, rows), _ref_squared_diff(a, q, rows)),
        (gram.qfd_squared_one_to_many(a, q, rows), _ref_squared_one_to_many(a, q, rows)),
        (
            gram.qfd_squared_one_to_many(a, rows[0], rows),
            _ref_squared_one_to_many(a, rows[0], rows),
        ),
        (gram.qfd_squared_pairwise(a, rows), _ref_squared_pairwise(a, rows)),
        (gram.qfd_cross(a, rows[:half], rows), _ref_cross(a, rows[:half], rows)),
    ]
    for i, (got, want) in enumerate(pairs):
        assert np.array_equal(got, want, equal_nan=True), f"entry point #{i} moved a bit"


@pytest.fixture(scope="module", params=[4, 8], ids=["64d", "512d"])
def matrix(request) -> np.ndarray:
    """The Hafner QFD matrix at 64-d and 512-d."""
    return histogram_workload(8, 1, bins_per_channel=request.param, seed=3).matrix


def _dirichlet_rows(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Dirichlet(1e-3) rows — the corpus tail at its worst — plus one duplicate."""
    rows = rng.dirichlet(np.full(dim, 1e-3), size=count)
    rows[-1] = rows[0]
    return rows


class TestTheGeneratorEmitsSubnormals:
    def test_benchmark_corpus_fraction(self) -> None:
        """1.04 % at the ``scan512`` recipe: the cause, pinned with the data."""
        w = histogram_workload(1000, 20, bins_per_channel=8, seed=2011)
        fraction = float(np.mean(_is_subnormal(w.database)))
        assert 0.005 < fraction < 0.02
        assert w.database[w.database > 0.0].min() < 1e-320


class TestBitIdenticalToTheParentFormulas:
    def test_dirichlet_rows(self, matrix: np.ndarray) -> None:
        rng = np.random.default_rng(21)
        rows = _dirichlet_rows(rng, matrix.shape[0], 40)
        assert _is_subnormal(rows).any()
        for q in rng.dirichlet(np.full(matrix.shape[0], 1e-3), size=3):
            _assert_all_entry_points_match(matrix, q, rows)

    def test_benchmark_corpus(self, matrix: np.ndarray) -> None:
        bins = round(matrix.shape[0] ** (1 / 3))
        w = histogram_workload(120, 3, bins_per_channel=bins, seed=2011)
        rows = np.vstack([w.database, w.database[:1]])
        for q in w.queries:
            _assert_all_entry_points_match(w.matrix, q, rows)

    @given(
        seed=st.integers(0, 10_000),
        scale=st.sampled_from([1.0, 1e-140, 1e-160, 1e-300]),
        injected=INJECTED,
    )
    @settings(max_examples=80, deadline=None)
    def test_injected_subnormals_zeros_and_near_tiny(self, seed, scale, injected) -> None:
        """Subnormals, +-0 and values just above ``tiny`` at random positions.

        *scale* shrinks whole rows until they have no normal mass left
        (``1e-300``) and until the results themselves are subnormal
        (``1e-160``): there the flushed terms are no longer below half an
        ulp of a *normal* accumulator, but both sides underflow alike.
        """
        a = histogram_workload(8, 1, bins_per_channel=4, seed=3).matrix
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.full(64, 1e-3), size=12) * scale
        q = rng.dirichlet(np.full(64, 1e-3)) * scale
        for position, value, negative in injected:
            rows.reshape(-1)[position] = -value if negative else value
        rows[-1] = rows[0]
        _assert_all_entry_points_match(a, q, rows)


class TestEdgeCases:
    def test_identical_vectors_are_exactly_zero(self, matrix: np.ndarray) -> None:
        rows = _dirichlet_rows(np.random.default_rng(5), matrix.shape[0], 6)
        qfd = QuadraticFormDistance(matrix)
        assert qfd.one_to_many(rows[2], rows)[2] == 0.0
        assert gram.qfd_one_to_many(matrix, rows[2], rows)[2] == 0.0
        assert gram.qfd_squared_pairwise(matrix, rows)[0, -1] == 0.0
        assert gram.qfd_cross(matrix, rows[:2], rows)[1, 1] == 0.0

    def test_all_subnormal_diff_is_a_finite_zero(self, matrix: np.ndarray) -> None:
        dim = matrix.shape[0]
        q = np.full(dim, 0.25)
        rows = q + np.zeros((3, dim))
        q_small = np.zeros(dim)
        rows_small = np.full((3, dim), 1e-310)
        qfd = QuadraticFormDistance(matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got in (
                qfd.one_to_many(q, rows),
                qfd.one_to_many(q_small, rows_small),
                gram._qfd_squared_diff(matrix, q_small, rows_small),
                gram.qfd_row_norms(matrix, rows_small),
                gram.qfd_one_to_many(matrix, q_small, rows_small),
            ):
                assert np.array_equal(got, np.zeros(3))

    def test_nan_stays_nan(self, matrix: np.ndarray) -> None:
        rows = _dirichlet_rows(np.random.default_rng(6), matrix.shape[0], 5)
        rows[1, 3] = np.nan
        qfd = QuadraticFormDistance(matrix)
        d = qfd.one_to_many(rows[0], rows)
        assert np.isnan(d[1]) and np.isfinite(np.delete(d, 1)).all()
        norms = gram.qfd_row_norms(matrix, rows)
        assert np.isnan(norms[1]) and np.isfinite(np.delete(norms, 1)).all()

    def test_float32_rows(self, matrix: np.ndarray) -> None:
        """A float32 subnormal upcasts to a float64 normal: nothing to flush."""
        rng = np.random.default_rng(7)
        rows = _dirichlet_rows(rng, matrix.shape[0], 16).astype(np.float32)
        rows[2, :4] = np.float32(1e-40)  # float32 subnormal
        q = rows[5].astype(np.float64)
        assert np.array_equal(gram.qfd_row_norms(matrix, rows), _ref_row_norms(matrix, rows))
        assert np.array_equal(
            gram.qfd_squared_one_to_many(matrix, q, rows),
            _ref_squared_one_to_many(matrix, q, rows),
        )
        assert np.array_equal(gram.qfd_cross(matrix, rows[:4], rows), _ref_cross(matrix, rows[:4], rows))
        assert np.array_equal(
            QuadraticFormDistance(matrix).one_to_many(q, rows),
            _ref_one_to_many(matrix, q, rows.astype(np.float64)),
        )


class TestNoCallerArrayIsWritten:
    def test_read_only_arguments_keep_their_bytes(self, matrix: np.ndarray) -> None:
        rng = np.random.default_rng(8)
        rows = _dirichlet_rows(rng, matrix.shape[0], 20)
        q = rng.dirichlet(np.full(matrix.shape[0], 1e-3))
        assert _is_subnormal(rows).any() and _is_subnormal(q).any()
        rows.setflags(write=False)
        q.setflags(write=False)
        before = rows.tobytes(), q.tobytes()
        qfd = QuadraticFormDistance(matrix)
        qfd.one_to_many(q, rows)
        qfd.pairwise(rows)
        gram.qfd_row_norms(matrix, rows)
        gram.qfd_squared_one_to_many(matrix, q, rows)
        gram.qfd_squared_pairwise(matrix, rows)
        gram.qfd_cross(matrix, rows[:7], rows)
        assert (rows.tobytes(), q.tobytes()) == before

    def test_helper_copies_unless_told_the_array_is_private(self) -> None:
        x = np.array([[1.0, np.nextafter(TINY, 0.0), -0.0], [-5e-324, TINY, np.nan]])
        raw = x.tobytes()
        flushed = gram._flush_subnormals(x)
        assert flushed is not x and x.tobytes() == raw
        want = np.array([[1.0, 0.0, -0.0], [0.0, TINY, np.nan]])
        assert flushed.tobytes() == want.tobytes()  # -0.0 and NaN untouched
        clean = np.array([0.5, 0.0, TINY])
        assert gram._flush_subnormals(clean) is clean  # nothing to flush: no copy
        assert gram._flush_subnormals(x, inplace=True) is x
        assert x.tobytes() == want.tobytes()


def _assert_transform_contract(qmap: QMap, rows: np.ndarray) -> None:
    """Flushed ``transform_batch`` vs the parent's ``rows @ B``."""
    raw = rows @ qmap.matrix
    got = qmap.transform_batch(rows)
    moved = got != raw
    if moved.any():
        assert np.abs(raw[moved]).max() < 1e-290
        assert np.abs(got - raw)[moved].max() < 1e-300
    # One vector and its row of the batch: a gemv against a gemm, as close
    # as the two were before either was flushed.
    for i in range(0, rows.shape[0], max(1, rows.shape[0] // 5)):
        parent_gap = np.abs(rows[i] @ qmap.matrix - raw[i]).max()
        gap = np.abs(qmap.transform(rows[i]) - got[i]).max()
        assert gap <= max(parent_gap, 1e-300)


class TestTheTransformIsFlushed:
    def test_benchmark_corpus(self, matrix: np.ndarray) -> None:
        """~1 % of the entries subnormal; at 512-d, more rows than one tile."""
        bins = round(matrix.shape[0] ** (1 / 3))
        w = histogram_workload(2500, 3, bins_per_channel=bins, seed=2011)
        assert _is_subnormal(w.database).any()
        _assert_transform_contract(QMap(w.matrix), w.database)

    def test_tiles_do_not_show(self, matrix: np.ndarray) -> None:
        """Any row count maps to the bits of one product over flushed rows —
        also one, two or three rows past a tile, which as a tile of their
        own would take BLAS's small-matrix path."""
        from repro.core.qmap import _TILE_FLOATS

        dim = matrix.shape[0]
        tile = _TILE_FLOATS // dim
        rows = _dirichlet_rows(np.random.default_rng(11), dim, 2 * tile + 3)
        qmap = QMap(matrix)
        want = gram._flush_subnormals(rows) @ qmap.matrix
        for count in (0, 1, 3, tile, tile + 1, tile + 3, 2 * tile + 1, 2 * tile + 3):
            got = qmap.transform_batch(rows[:count])
            assert got.shape == (count, dim) and got.flags.c_contiguous
            if count > 3:  # a batch of 1-3 rows is itself a small-matrix product
                assert np.array_equal(got, want[:count]), count
            else:
                assert np.array_equal(got, gram._flush_subnormals(rows[:count]) @ qmap.matrix)

    @given(
        seed=st.integers(0, 10_000),
        scale=st.sampled_from([1.0, 1e-140, 1e-160, 1e-300]),
        injected=INJECTED,
    )
    @settings(max_examples=60, deadline=None)
    def test_injected_subnormals_zeros_and_near_tiny(self, seed, scale, injected) -> None:
        a = histogram_workload(8, 1, bins_per_channel=4, seed=3).matrix
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.full(64, 1e-3), size=12) * scale
        for position, value, negative in injected:
            rows.reshape(-1)[position] = -value if negative else value
        _assert_transform_contract(QMap(a), rows)

    def test_models_still_agree_on_200_queries(self) -> None:
        """``TestModelEquivalence``'s contract on the subnormal-bearing corpus."""
        w = histogram_workload(600, 200, bins_per_channel=4, seed=2011)
        assert _is_subnormal(w.database).any() and _is_subnormal(w.queries).any()
        built = [
            model(w.matrix).build_index(
                "pivot-table", w.database, n_pivots=8, rng=np.random.default_rng(1)
            )
            for model in (QFDModel, QMapModel)
        ]
        assert built[0].build_costs.distance_computations == (
            built[1].build_costs.distance_computations
        )
        for q in w.queries:
            answers = []
            for index in built:
                index.reset_query_costs()
                answers.append(index.knn_search(q, 8))
            assert_same_neighbors(*answers, tol=1e-7)
            assert built[0].query_costs().distance_computations == (
                built[1].query_costs().distance_computations
            )

    def test_a_stored_row_is_found_at_the_distance_it_was(self, matrix: np.ndarray) -> None:
        """Self-queries: the parent's distance (``0.0`` where it was ``0.0``)."""
        bins = round(matrix.shape[0] ** (1 / 3))
        w = histogram_workload(150, 1, bins_per_channel=bins, seed=2011)
        index = QMapModel(w.matrix).build_index("sequential", w.database)
        b = QMap(w.matrix).matrix
        mapped = w.database @ b  # the parent's stored rows
        for i in range(0, 150, 7):
            diff = mapped - w.database[i] @ b
            parent = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            got = index.knn_search(w.database[i], 1)[0]
            assert got.distance == parent.min() and parent[got.index] == parent.min()
        # A batch maps its queries with the product that mapped the rows.
        batch = index.knn_search_batch(w.database[:20], 1)
        assert [answer[0].distance for answer in batch] == [0.0] * 20

    def test_no_caller_array_is_written(self, matrix: np.ndarray) -> None:
        rows = _dirichlet_rows(np.random.default_rng(8), matrix.shape[0], 1500)
        assert _is_subnormal(rows).any()
        rows.setflags(write=False)
        before = rows.tobytes()
        qmap = QMap(matrix)
        qmap.transform_batch(rows)
        qmap.transform(rows[3])
        assert rows.tobytes() == before

    def test_out_of_core_builds_map_to_the_in_ram_rows(self, tmp_path) -> None:
        """A chunked (``block_rows``) float64 mmap build stores the heap build's bits."""
        w = histogram_workload(700, 2, bins_per_channel=4, seed=2011)
        model = QMapModel(w.matrix)
        heap = model.build_index("sequential", w.database)
        spilled = model.build_index(
            "sequential", w.database, store="mmap", store_dtype="float64",
            store_path=str(tmp_path / "mapped.bin"), block_rows=97,
        )
        assert np.array_equal(
            np.asarray(spilled.access_method.database), heap.access_method.database
        )
        for q in w.queries:
            assert_same_neighbors(spilled.knn_search(q, 5), heap.knn_search(q, 5), tol=0.0)
