"""Snapshot format version 2: member codecs, damage, crash safety, version 1.

* Member codecs: an entry is stored *plain* (``<key>.npy``, the bytes
  ``np.save`` writes) or *byte-plane shuffled* (``<key>.shuffled``), chosen
  once per member from its first 1 MiB block, and every array layout the
  writer can be handed decodes bit-identically.
* Damage: an empty, truncated or bit-flipped archive, a short or overlong
  member body and an object-dtype header all end in a ``StorageError``
  naming the path; one flipped byte anywhere never decodes to different
  arrays.
* Crash safety: a save that dies after its first member leaves the
  previous archive byte-identical and no temporary file behind.
* Version 1: the two committed v1 snapshots (``tests/fixtures/
  snapshots_v1``, written by ``repro index save`` before format 2) read,
  probe and restore, answering and charging exactly like a fresh build.
"""

from __future__ import annotations

import contextlib
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cli.run import index_kwargs
from repro.datasets import histogram_workload
from repro.exceptions import StorageError
from repro.models import QMapModel, load_built_index
from repro.persistence import (
    FORMAT_VERSION,
    IndexSnapshot,
    probe_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.persistence import format as snapshot_format

from .helpers import npy_bytes, rewrite_archive

V1_DIR = Path(__file__).parent / "fixtures" / "snapshots_v1"
BLOCK_ITEMS = (1 << 20) // 8  # float64 items in one member block


def _matrix(dim: int = 6) -> np.ndarray:
    idx = np.arange(dim)
    return np.exp(-0.4 * np.abs(np.subtract.outer(idx, idx)))


def _entries(snapshot: IndexSnapshot) -> dict:
    out = {
        "database": snapshot.database,
        "method": np.str_(snapshot.method),
        "method_version": np.int64(snapshot.method_version),
    }
    out.update({f"state__{key}": value for key, value in snapshot.state.items()})
    out.update({f"meta__{key}": value for key, value in snapshot.meta.items()})
    return out


def _assert_bit_identical(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key, value in want.items():
        mine, theirs = np.asarray(got[key]), np.asarray(value)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), key
        assert mine.tobytes(order="A") == theirs.tobytes(order="A"), key


def _snapshot(**meta: np.ndarray) -> IndexSnapshot:
    return IndexSnapshot(
        method="sequential",
        method_version=1,
        database=np.random.default_rng(3).random((40, 6)),
        state={},
        meta=meta,
    )


def _sparse(n: int, seed: int = 4) -> np.ndarray:
    """Random floats, 60 % exact zeros: the plain form deflates smaller."""
    rng = np.random.default_rng(seed)
    values = rng.random(n)
    values[rng.random(n) < 0.6] = 0.0
    return values


def _names(path) -> list[str]:
    with zipfile.ZipFile(path) as archive:
        return archive.namelist()


@pytest.fixture(scope="module")
def built_path(tmp_path_factory) -> str:
    """A small QMap pivot-table snapshot, saved through the model."""
    data = np.random.default_rng(1).random((30, 6))
    built = QMapModel(_matrix()).build_index("pivot-table", data, n_pivots=4)
    return built.save(tmp_path_factory.mktemp("built") / "pivot")


class TestMemberCodecs:
    def test_markers_are_plain_and_float_rows_shuffled(self, tmp_path) -> None:
        path = write_snapshot(_snapshot(), tmp_path / "codecs")
        names = _names(path)
        assert {"kind.npy", "format_version.npy", "method.npy", "database.shuffled"} <= set(names)
        with np.load(path) as archive:
            # A version 1 reader still sees the markers, and the shuffled
            # rows only as raw bytes, never as (wrong) floats.
            assert int(archive["format_version"]) == FORMAT_VERSION == 2
            assert "database" not in archive.files
            assert isinstance(archive["database.shuffled"], bytes)

    def test_a_plain_member_holds_what_np_save_writes(self, tmp_path) -> None:
        sparse = _sparse(4000)
        path = write_snapshot(_snapshot(sparse=sparse, ids=np.arange(4000)), tmp_path / "p")
        assert "meta__ids.shuffled" in _names(path)
        with zipfile.ZipFile(path) as archive:
            assert archive.read("meta__sparse.npy") == npy_bytes(sparse)

    @pytest.mark.parametrize("first, rest, suffix", [
        ("smooth", "sparse", "shuffled"),
        ("sparse", "smooth", "npy"),
    ])
    def test_the_first_block_decides_for_the_whole_member(
        self, first, rest, suffix, tmp_path
    ) -> None:
        parts = {
            "smooth": np.linspace(0.0, 1.0, BLOCK_ITEMS),
            "sparse": _sparse(BLOCK_ITEMS + 1000),
        }
        values = np.concatenate([parts[first], parts[rest]])
        path = write_snapshot(_snapshot(values=values), tmp_path / "rule")
        assert f"meta__values.{suffix}" in _names(path)
        assert read_snapshot(path).meta["values"].tobytes() == values.tobytes()

    @pytest.mark.parametrize("layout", [
        "multi-block", "float32", "fortran", "strided", "0-d", "empty",
        "strings", "bool", "big-endian", "int64",
    ])
    def test_every_layout_decodes_bit_identically(self, layout, tmp_path) -> None:
        rng = np.random.default_rng(5)
        value = {
            "multi-block": np.cumsum(rng.random(2 * BLOCK_ITEMS + 777)),
            "float32": rng.random((3000, 7)).astype(np.float32),
            "fortran": np.asfortranarray(rng.random((300, 9))),
            "strided": rng.random((50, 8))[::3, 1::2],
            "0-d": np.float64(0.25),
            "empty": np.zeros((0, 5)),
            "strings": np.array(["qmap", "pivot-table", ""]),
            "bool": rng.random(100) < 0.5,
            "big-endian": rng.random(500).astype(">f8"),
            "int64": np.arange(-300, 300, dtype=np.int64),
        }[layout]
        path = write_snapshot(_snapshot(value=value), tmp_path / "layout")
        got = read_snapshot(path).meta["value"]
        assert got.dtype == np.asarray(value).dtype and got.shape == np.shape(value)
        assert got.tobytes() == np.asarray(value).tobytes()
        assert got.flags.fnc == np.asarray(value).flags.fnc  # Fortran order kept


def _flip_database_byte(path: str) -> None:
    """Flip one byte in the middle of the database member's deflated data."""
    blob = bytearray(Path(path).read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = next(i for i in archive.infolist() if i.filename.startswith("database."))
    names, extra = struct.unpack("<HH", blob[info.header_offset + 26 : info.header_offset + 30])
    blob[info.header_offset + 30 + names + extra + info.compress_size // 2] ^= 0x40
    Path(path).write_bytes(bytes(blob))


def _database_member(members: dict) -> str:
    return next(name for name in members if name.startswith("database."))


DAMAGE = {
    "flipped database byte": _flip_database_byte,
    "truncated archive": lambda path: Path(path).write_bytes(
        Path(path).read_bytes()[: Path(path).stat().st_size // 2]
    ),
    "empty file": lambda path: Path(path).write_bytes(b""),
    "short member body": lambda path: rewrite_archive(
        path, lambda m: m.update({(k := _database_member(m)): m[k][:-8]})
    ),
    "trailing bytes": lambda path: rewrite_archive(
        path, lambda m: m.update({(k := _database_member(m)): m[k] + bytes(8)})
    ),
    "object-dtype header": lambda path: rewrite_archive(
        path, lambda m: m.update({"meta__evil.npy": npy_bytes(np.array([1, None], dtype=object))})
    ),
}


class TestDamagedArchives:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    @pytest.mark.parametrize("reader", [read_snapshot, load_built_index])
    def test_damage_is_a_storage_error_naming_the_path(
        self, damage, reader, built_path, tmp_path
    ) -> None:
        path = str(tmp_path / "damaged.npz")
        Path(path).write_bytes(Path(built_path).read_bytes())
        DAMAGE[damage](path)
        with pytest.raises(StorageError) as caught:
            reader(path)
        assert path in str(caught.value)

    @given(position=st.integers(min_value=0), mask=st.integers(1, 255))
    @settings(max_examples=300, deadline=None)
    def test_one_flipped_byte_never_decodes_to_different_arrays(
        self, built_path, position, mask
    ) -> None:
        blob = bytearray(Path(built_path).read_bytes())
        blob[position % len(blob)] ^= mask
        target = Path(built_path).with_name("flipped.npz")
        target.write_bytes(bytes(blob))
        with contextlib.suppress(StorageError):
            probe_snapshot(target)
        try:
            got = read_snapshot(target)
        except StorageError:
            return
        _assert_bit_identical(_entries(got), _entries(read_snapshot(built_path)))


class TestCrashSafeSave:
    def test_a_save_dying_after_one_member_keeps_the_old_archive(
        self, monkeypatch, tmp_path
    ) -> None:
        path = write_snapshot(_snapshot(), tmp_path / "snap")
        before = Path(path).read_bytes()
        written: list[str] = []

        def dying(zf, key, arr) -> None:
            if written:
                raise OSError("disk full")
            written.append(key)
            real_write_member(zf, key, arr)

        real_write_member = snapshot_format._write_member
        monkeypatch.setattr(snapshot_format, "_write_member", dying)
        with pytest.raises(OSError, match="disk full"):
            write_snapshot(_snapshot(extra=np.arange(9)), path)
        assert written == ["kind"]
        assert Path(path).read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snap.npz"]


@pytest.fixture(scope="module")
def v1_workload():
    """The recipe the v1 fixtures were saved with (``repro index save``)."""
    return histogram_workload(200, 5, bins_per_channel=2, seed=2011)


class TestVersion1Snapshots:
    @pytest.mark.parametrize("method", ["pivot-table", "mtree"])
    def test_v1_fixture_reads_probes_and_restores_like_a_fresh_build(
        self, method, v1_workload
    ) -> None:
        path = V1_DIR / f"{method.replace('-', '_')}.npz"
        with zipfile.ZipFile(path) as archive:
            assert all(name.endswith(".npy") for name in archive.namelist())
        probe = probe_snapshot(path)
        assert probe.format_version == 1 and probe.method == method
        fresh = QMapModel(v1_workload.matrix).build_index(
            method, v1_workload.database, **index_kwargs(method)
        )
        snapshot = read_snapshot(path)
        _assert_bit_identical(
            {"database": snapshot.database, **snapshot.state},
            {"database": fresh.access_method.database, **fresh.access_method.structural_state()},
        )
        restored = load_built_index(path)
        assert restored.build_costs.distance_computations == 0
        for query in v1_workload.queries:
            answers = []
            for built in (restored, fresh):
                built.reset_query_costs()
                knn = built.knn_search(query, 10)
                hits = built.range_search(query, knn[4].distance)
                answers.append((knn, hits, built.query_costs().distance_computations))
            assert answers[0] == answers[1]

    def test_index_ls_shows_format_1(self, capsys) -> None:
        assert main(["index", "ls", str(V1_DIR)]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 2
        assert all(row.split()[6] == "1" for row in rows)
