"""Kernel row tiles: one arithmetic, wherever the rows live.

Every kernel function that takes a database-sized operand —
``gram.qfd_row_norms`` and ``gram.qfd_one_to_many`` (so
``QuadraticFormDistance.one_to_many``, the QFD query context and the second
operand of ``QFDKernel.cross``) — reads it in the row tiles of
``gram.row_tiles`` (``gram._TILE_ROWS`` rows, patched small here), and
upcasts float32 rows (a memory-mapped store) one tile at a time.  Pinned:

* float32 rows give, bit for bit, what their float64 copy gives, for every
  kernel function at every tile height — so an mmap index is its heap
  twin over the same rounded rows;
* a database spanning several tiles gives the floats of one tile.  The one
  tile shape that does not is a single row: numpy evaluates a one-row
  product as a matrix-vector call, another BLAS kernel.  The tilings below
  leave no one-row tile;
* with the tile constant patched small, model answers and charged counts
  do not move, and a float32 scan never holds an ``m x n`` float64 copy.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import random_spd_matrix
from repro.core.qfd import QuadraticFormDistance
from repro.datasets import clustered_histograms
from repro.distances import euclidean_one_to_many
from repro.kernels import L2Kernel, QFDKernel, gram, row_tiles
from repro.models import QFDModel, QMapModel

from .helpers import assert_same_neighbors

N = 58  # 58 = 14 * 4 + 2 = 8 * 7 + 2: no tiling below leaves a one-row tile
DIM = 9
TILES = [4, 7, 64, 8192]


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(42)
    matrix = random_spd_matrix(DIM, condition=50.0, rng=rng)
    rows = rng.normal(size=(N, DIM)).astype(np.float32)
    others = rng.normal(size=(11, DIM)).astype(np.float32)
    q = rng.normal(size=DIM)
    return matrix, rows, others, q


def _tiled(monkeypatch, call) -> list[np.ndarray]:
    """*call()* once per tile height of :data:`TILES`."""
    out = []
    for tile in TILES:
        monkeypatch.setattr(gram, "_TILE_ROWS", tile)
        out.append(call())
    return out


def _all_equal(results) -> None:
    for got in results[1:]:
        assert got.dtype == np.float64
        assert np.array_equal(got, results[0])


def test_row_tiles_partition_exactly(monkeypatch) -> None:
    assert gram._TILE_ROWS == 8192
    assert row_tiles(0) == []
    assert row_tiles(10) == [slice(0, 8192)]
    monkeypatch.setattr(gram, "_TILE_ROWS", 4)
    assert row_tiles(10) == [slice(0, 4), slice(4, 8), slice(8, 12)]
    assert np.concatenate([np.arange(10)[t] for t in row_tiles(10)]).tolist() == list(range(10))


class TestBlockSizeInvariance:
    """Same floats out for every tile height, on float32 rows and their copy."""

    def test_qfd_row_norms(self, setup, monkeypatch) -> None:
        matrix, rows, _, _ = setup
        heap = rows.astype(np.float64)
        _all_equal(
            _tiled(monkeypatch, lambda: gram.qfd_row_norms(matrix, rows))
            + _tiled(monkeypatch, lambda: gram.qfd_row_norms(matrix, heap))
        )

    def test_l2_row_norms(self, setup) -> None:
        _, rows, _, _ = setup
        _all_equal([gram.l2_row_norms(rows), gram.l2_row_norms(rows.astype(np.float64))])

    def test_qfd_one_to_many(self, setup, monkeypatch) -> None:
        matrix, rows, _, q = setup
        qfd = QuadraticFormDistance(matrix)
        heap = rows.astype(np.float64)
        _all_equal(
            _tiled(monkeypatch, lambda: qfd.one_to_many(q, rows))
            + _tiled(monkeypatch, lambda: qfd.one_to_many(q, heap))
        )

    def test_qfd_one_to_many_with_precomputed_norms(self, setup) -> None:
        """Norms handed to the QFD context change nothing: every entry point
        is the scan's difference form."""
        matrix, rows, _, q = setup
        kernel = QFDKernel(matrix)
        norms = kernel.row_norms(rows)
        context = kernel.bind(q)
        _all_equal([
            QuadraticFormDistance(matrix).one_to_many(q, rows),
            kernel.one_to_many(q, rows),
            context.many(rows, norms),
            context.many(rows),
            context.many(rows.astype(np.float64)),
        ])

    def test_l2_one_to_many(self, setup, monkeypatch) -> None:
        _, rows, _, q = setup
        results = []
        for tile in (1, 7, N):  # elementwise: even a one-row tile keeps its floats
            monkeypatch.setattr(gram, "_L2_TILE_FLOATS", tile * DIM)
            results += [
                gram.l2_one_to_many(q, rows),
                euclidean_one_to_many(q, rows),
                euclidean_one_to_many(q, rows.astype(np.float64)),
            ]
        _all_equal(results)

    def test_qfd_cross(self, setup, monkeypatch) -> None:
        matrix, rows, others, _ = setup
        heap = rows.astype(np.float64)
        _all_equal(
            _tiled(monkeypatch, lambda: QFDKernel(matrix).cross(others, rows))
            + _tiled(monkeypatch, lambda: QFDKernel(matrix).cross(others, heap))
        )

    def test_l2_cross(self, setup) -> None:
        _, rows, others, _ = setup
        _all_equal([
            gram.l2_cross(others, rows),
            gram.l2_cross(others.astype(np.float64), rows.astype(np.float64)),
        ])

    def test_qfd_pairwise(self, setup) -> None:
        matrix, rows, _, _ = setup
        heap = rows.astype(np.float64)
        results = [gram.qfd_pairwise(matrix, rows), gram.qfd_pairwise(matrix, heap)]
        _all_equal(results)
        assert np.array_equal(results[0], results[0].T)
        assert np.all(np.diag(results[0]) == 0.0)

    def test_l2_pairwise(self, setup) -> None:
        _, rows, _, _ = setup
        results = [gram.l2_pairwise(rows), gram.l2_pairwise(rows.astype(np.float64))]
        _all_equal(results)
        assert np.array_equal(results[0], results[0].T)

    def test_float32_tiles_equal_heap_float64_copy(self, setup, monkeypatch) -> None:
        """The memmap-vs-heap contract, over every kernel entry point a
        model reaches, at every tile height — a one-row tile included."""
        matrix, rows, others, q = setup
        heap, others64 = rows.astype(np.float64), others.astype(np.float64)
        qfd = QuadraticFormDistance(matrix)
        qfd_kernel, l2_kernel = QFDKernel(matrix), L2Kernel()
        for tile in [1] + TILES:
            monkeypatch.setattr(gram, "_TILE_ROWS", tile)
            for f32, f64 in [
                (qfd.one_to_many(q, rows), qfd.one_to_many(q, heap)),
                (qfd_kernel.row_norms(rows), qfd_kernel.row_norms(heap)),
                (qfd_kernel.one_to_many(q, rows), qfd_kernel.one_to_many(q, heap)),
                (qfd_kernel.bind(q).many(rows), qfd_kernel.bind(q).many(heap)),
                (qfd_kernel.pairwise(rows), qfd_kernel.pairwise(heap)),
                (qfd_kernel.cross(others, rows), qfd_kernel.cross(others64, heap)),
                (l2_kernel.one_to_many(q, rows), l2_kernel.one_to_many(q, heap)),
                (l2_kernel.bind(q).many(rows), l2_kernel.bind(q).many(heap)),
                (l2_kernel.pairwise(rows), l2_kernel.pairwise(heap)),
                (l2_kernel.cross(others, rows), l2_kernel.cross(others64, heap)),
            ]:
                assert f32.dtype == np.float64
                assert np.array_equal(f32, f64)


class TestTileSplit:
    """A QFD scan split into row tiles gives the one tile's floats."""

    @pytest.mark.parametrize("n, m", [(512, 37), (512, 129), (64, 1031)])
    def test_every_chunk_count_gives_the_serial_floats(self, n, m, monkeypatch) -> None:
        """Histogram rows with float64 subnormals (the flush path), split into
        one to four tiles of two rows or more, at 512-d and 64-d."""
        rng = np.random.default_rng(n + m)
        rows = rng.dirichlet(np.full(n, 1e-3), size=m)
        q = rng.dirichlet(np.full(n, 1e-3))
        matrix = random_spd_matrix(n, condition=50.0, rng=np.random.default_rng(n))
        results = []
        for chunks in (1, 2, 3, 4):
            monkeypatch.setattr(gram, "_TILE_ROWS", -(-m // chunks))
            tiles = row_tiles(m)
            assert len(tiles) == chunks and min(len(range(m)[t]) for t in tiles) > 1
            results += [
                gram.qfd_one_to_many(matrix, q, rows),
                gram.qfd_one_to_many(matrix, q, rows.astype(np.float32)),
            ]
        _all_equal(results[0::2])
        _all_equal(results[1::2])
        assert np.array_equal(
            results[1], gram.qfd_one_to_many(matrix, q, rows.astype(np.float32).astype(np.float64))
        )


class TestBlockInvarianceProperty:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 40),
        dim=st.integers(1, 8),
        b1=st.integers(2, 50),
        b2=st.integers(2, 50),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_one_to_many_any_two_tilings_agree(self, seed, n, dim, b1, b2) -> None:
        assume(n % b1 != 1 and n % b2 != 1)  # no one-row (matrix-vector) tile
        rng = np.random.default_rng(seed)
        matrix = random_spd_matrix(dim, condition=10.0, rng=rng)
        rows = rng.normal(size=(n, dim)).astype(np.float32)
        others = rng.normal(size=(3, dim))
        q = rng.normal(size=dim)
        qfd = QuadraticFormDistance(matrix)
        results = []
        with pytest.MonkeyPatch.context() as patch:
            for tile in (b1, b2):
                patch.setattr(gram, "_TILE_ROWS", tile)
                results.append(
                    (
                        qfd.one_to_many(q, rows),
                        gram.qfd_row_norms(matrix, rows),
                        QFDKernel(matrix).cross(others, rows),
                    )
                )
        for first, second in zip(*results):
            assert np.array_equal(first, second)


def _clustered(n: int, seed: int) -> np.ndarray:
    return clustered_histograms(n, 2, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("store", ["heap", "mmap"])
@pytest.mark.parametrize(
    "method, kwargs",
    [
        ("sequential", {}),
        ("pivot-table", {"n_pivots": 6}),
        ("mtree", {"capacity": 6}),
        ("mtree", {"capacity": 6, "bulk_load": True}),
    ],
    ids=["sequential", "pivot-table", "mtree", "mtree-bulk"],
)
@pytest.mark.parametrize("model_cls", [QFDModel, QMapModel], ids=["qfd", "qmap"])
def test_many_tiles_answer_and_charge_like_one(
    model_cls, method, kwargs, store, monkeypatch
) -> None:
    """A 60-row database in 16-row tiles (the last one 12 rows) builds,
    answers and charges exactly like the same database in one tile."""
    from repro.color import rgb_bin_prototypes
    from repro.core import prototype_similarity_matrix

    model = model_cls(prototype_similarity_matrix(rgb_bin_prototypes(2)).matrix)
    data, queries = _clustered(60, 3), _clustered(5, 4)
    store_kwargs = {"store": "mmap"} if store == "mmap" else {"store_dtype": "float32"}
    runs = []
    for tile in (8192, 16):
        monkeypatch.setattr(gram, "_TILE_ROWS", tile)
        rng = {"rng": np.random.default_rng(1)} if method != "sequential" else {}
        built = model.build_index(method, data, **store_kwargs, **kwargs, **rng)
        built.reset_query_costs()
        answers = [built.knn_search(q, 7) for q in queries]
        runs.append((built.build_costs.distance_computations, answers, built.query_costs()))
    (build_one, answers_one, costs_one), (build_many, answers_many, costs_many) = runs
    assert build_one == build_many
    for got, want in zip(answers_many, answers_one):
        assert_same_neighbors(got, want, tol=0.0)
    assert costs_one.distance_computations == costs_many.distance_computations


def test_a_float32_scan_never_holds_a_float64_copy(monkeypatch) -> None:
    """Both models' scans over float32 rows peak far below the ``m x n``
    float64 copy (what the mmap store exists to avoid)."""
    rng = np.random.default_rng(9)
    rows = rng.random((16000, 64)).astype(np.float32)
    q = rng.random(64)
    matrix = random_spd_matrix(64, condition=10.0, rng=rng)
    qfd = QuadraticFormDistance(matrix)
    monkeypatch.setattr(gram, "_TILE_ROWS", 256)
    for scan in (
        lambda: qfd.one_to_many(q, rows),
        lambda: gram.qfd_row_norms(matrix, rows),
        lambda: euclidean_one_to_many(q, rows),
    ):
        scan()  # warm any lazy import before measuring
        tracemalloc.start()
        scan()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < rows.nbytes // 2  # an upcast copy alone is 2 * rows.nbytes


class TestGramFloat32Accumulation:
    """float32 inputs accumulate in float64 in every kernel function."""

    def test_all_gram_functions_coerce_to_float64(self, setup) -> None:
        matrix, rows, others, q = setup
        heap = rows.astype(np.float64)
        pairs = [
            (gram.qfd_row_norms(matrix, rows), gram.qfd_row_norms(matrix, heap)),
            (gram.l2_row_norms(rows), gram.l2_row_norms(heap)),
            (gram.qfd_one_to_many(matrix, q, rows), gram.qfd_one_to_many(matrix, q, heap)),
            (gram.l2_one_to_many(q, rows), gram.l2_one_to_many(q, heap)),
            (gram.qfd_pairwise(matrix, rows), gram.qfd_pairwise(matrix, heap)),
            (gram.l2_pairwise(rows), gram.l2_pairwise(heap)),
            (
                QFDKernel(matrix).cross(others, rows),
                QFDKernel(matrix).cross(others.astype(np.float64), heap),
            ),
            (
                gram.l2_cross(others, rows),
                gram.l2_cross(others.astype(np.float64), heap),
            ),
        ]
        for got, expected in pairs:
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)

    def test_float32_inputs_do_not_drift(self) -> None:
        """Close float32 pairs, the cancellation-hostile regime: the QFD
        kernel upcasts before subtracting, so the result matches the exact
        difference form to full float64 round-off."""
        rng = np.random.default_rng(7)
        dim = 16
        matrix = random_spd_matrix(dim, condition=100.0, rng=rng)
        base = rng.normal(size=dim)
        # Close pairs: the cancellation-hostile regime.
        rows = (base + 1e-4 * rng.normal(size=(64, dim))).astype(np.float32)
        q = base.astype(np.float32).astype(np.float64)
        got = gram.qfd_one_to_many(matrix, q, rows)
        exact = np.sqrt(
            [
                max(float((r - q) @ matrix @ (r - q)), 0.0)
                for r in rows.astype(np.float64)
            ]
        )
        assert np.allclose(got, exact, rtol=1e-7, atol=1e-10)
