"""The one difference-form L2 one-to-many (``gram.l2_one_to_many``).

``euclidean_one_to_many`` and ``L2Kernel.one_to_many`` delegate to it.
More rows than one tile stream through a reused difference buffer instead
of an ``m x n`` temporary.  Tile heights are forced by patching the tile
constant ``gram._L2_TILE_FLOATS``.  Pinned here:

* every float is ``np.array_equal`` to the one-shot form
  ``sqrt(einsum(diff, diff))`` written inline, at every tile boundary;
* a call of at most one tile runs that one-shot form itself — which is
  all an M-tree's query loop ever makes;
* the big temporary is gone, and no caller array is written.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.distances import CountingDistance, euclidean, euclidean_one_to_many
from repro.exceptions import DimensionMismatchError
from repro.kernels import L2Kernel, gram
from repro.mam import MTree


def one_shot(q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The parent commit's arithmetic, verbatim."""
    diff = np.asarray(rows, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def tile_rows(dim: int) -> int:
    return gram._L2_TILE_FLOATS // dim


def force_tile_rows(monkeypatch, rows: int, dim: int) -> None:
    """Make :func:`gram.l2_one_to_many` stream *rows*-row tiles of *dim*-d rows."""
    monkeypatch.setattr(gram, "_L2_TILE_FLOATS", rows * dim)


ENTRY_POINTS = {
    "gram": gram.l2_one_to_many,
    "kernel": L2Kernel().one_to_many,
    "euclidean": euclidean_one_to_many,
}


@pytest.fixture(scope="module", params=[64, 512], ids=["64d", "512d"])
def corpus(request) -> tuple[np.ndarray, np.ndarray]:
    """8000 mapped-space-like rows (mixed signs and magnitudes) and a query."""
    rng = np.random.default_rng(request.param)
    rows = rng.standard_normal((8000, request.param)) * rng.random((8000, 1))
    return rng.standard_normal(request.param), rows


class TestBitIdenticalToTheOneShotForm:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_row_counts_around_the_tile(self, corpus, entry) -> None:
        q, rows = corpus
        tile = tile_rows(rows.shape[1])
        assert 1 < tile < 8000
        for count in (0, 1, tile - 1, tile, tile + 1, 2 * tile, 8000):
            got = ENTRY_POINTS[entry](q, rows[:count])
            assert got.dtype == np.float64 and got.shape == (count,)
            assert np.array_equal(got, one_shot(q, rows[:count])), (entry, count)

    @pytest.mark.parametrize("block_rows", [1, 7, 100, 4096, 8000, 9000])
    def test_explicit_block_rows(self, corpus, block_rows, monkeypatch) -> None:
        """Any tile height, forced through the constant, gives the same floats."""
        q, rows = corpus
        want = one_shot(q, rows[:3000])
        force_tile_rows(monkeypatch, block_rows, rows.shape[1])
        for kernel in ENTRY_POINTS.values():
            assert np.array_equal(kernel(q, rows[:3000]), want)

    def test_block_rows_must_be_positive(self, corpus, monkeypatch) -> None:
        """A tile constant narrower than one row still streams one row per tile."""
        q, rows = corpus
        monkeypatch.setattr(gram, "_L2_TILE_FLOATS", rows.shape[1] // 2)
        assert np.array_equal(gram.l2_one_to_many(q, rows[:50]), one_shot(q, rows[:50]))

    def test_float32_rows(self, corpus) -> None:
        q, rows = corpus
        rows32 = rows.astype(np.float32)
        want = one_shot(q, rows32)
        for kernel in ENTRY_POINTS.values():
            assert np.array_equal(kernel(q, rows32), want)
        assert np.array_equal(gram.l2_one_to_many(q.astype(np.float32), rows32),
                              one_shot(q.astype(np.float32), rows32))

    def test_read_only_memmap_rows(self, corpus, tmp_path, monkeypatch) -> None:
        q, rows = corpus
        for dtype in (np.float32, np.float64):
            path = tmp_path / f"rows_{np.dtype(dtype).name}.bin"
            rows.astype(dtype).tofile(path)
            mapped = np.memmap(path, dtype=dtype, mode="r", shape=rows.shape)
            want = one_shot(q, np.asarray(mapped))
            for kernel in ENTRY_POINTS.values():
                assert np.array_equal(kernel(q, mapped), want)
            with monkeypatch.context() as patch:
                force_tile_rows(patch, 13, rows.shape[1])
                assert np.array_equal(gram.l2_one_to_many(q, mapped), want)

    def test_non_contiguous_views(self, corpus) -> None:
        q, rows = corpus
        every_other_row = rows[::2]
        assert not every_other_row.flags.c_contiguous
        every_other_column = rows[:, ::2]
        for kernel in ENTRY_POINTS.values():
            assert np.array_equal(kernel(q, every_other_row), one_shot(q, every_other_row))
            assert np.array_equal(
                kernel(q[::2], every_other_column), one_shot(q[::2], every_other_column)
            )


class TestASingleTileRunsTheOneShotLines:
    def test_no_buffer_is_allocated_within_one_tile(self, corpus, monkeypatch) -> None:
        q, rows = corpus
        tile = tile_rows(rows.shape[1])
        want = one_shot(q, rows[:tile])

        def no_buffer(*args, **kwargs):
            raise AssertionError("a single-tile call reached the tiled loop")

        monkeypatch.setattr(gram.np, "empty", no_buffer)
        got = gram.l2_one_to_many(q, rows[:tile])
        with pytest.raises(AssertionError, match="tiled loop"):
            gram.l2_one_to_many(q, rows[: tile + 1])
        monkeypatch.undo()
        assert np.array_equal(got, want)

    def test_an_mtree_query_loop_never_leaves_one_tile(self, monkeypatch) -> None:
        """``tree64``'s shape: 64-d rows, capacity 16, frontier blocks of
        up to 16 nodes — every kernel call of a query is a single tile."""
        rng = np.random.default_rng(64)
        rows = rng.standard_normal((3000, 64))
        tree = MTree(
            rows, CountingDistance(euclidean, one_to_many=euclidean_one_to_many), capacity=16
        )
        sizes: list[int] = []
        kernel = gram.l2_one_to_many

        def spy(q, block, **kwargs):
            sizes.append(int(block.shape[0]))
            return kernel(q, block, **kwargs)

        monkeypatch.setattr(gram, "l2_one_to_many", spy)
        for q in rng.standard_normal((20, 64)):
            tree.knn_search(q, 10)
        assert sizes and max(sizes) <= 17 * 16 < tile_rows(64)


class TestTheTemporaryIsGone:
    def test_peak_allocation_of_a_database_scan(self) -> None:
        rng = np.random.default_rng(5)
        rows = rng.random((8000, 512))
        q = rng.random(512)
        for kernel in ENTRY_POINTS.values():
            kernel(q, rows[:300])  # warm any lazy import before measuring
            tracemalloc.start()
            kernel(q, rows)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak < rows.nbytes // 4  # the one-shot form peaks at rows.nbytes

    def test_read_only_arguments_keep_their_bytes(self, corpus) -> None:
        q, rows = corpus
        q, rows = q.copy(), rows.copy()
        q.setflags(write=False)
        rows.setflags(write=False)
        before = q.tobytes(), rows.tobytes()
        for kernel in ENTRY_POINTS.values():
            kernel(q, rows)
            kernel(q, rows[:5])
        assert (q.tobytes(), rows.tobytes()) == before


class TestEuclideanOneToManyStillValidates:
    def test_wrong_width_batch(self) -> None:
        with pytest.raises(DimensionMismatchError):
            euclidean_one_to_many(np.zeros(8), np.zeros((4, 9)))
        with pytest.raises(DimensionMismatchError):
            euclidean_one_to_many(np.zeros((2, 8)), np.zeros((4, 8)))

    def test_a_single_vector_is_a_one_row_batch(self) -> None:
        got = euclidean_one_to_many([0.0, 3.0], [4.0, 0.0])
        assert got.tolist() == [5.0]
