"""Snapshot format version 3: member codecs, blocks, damage, crash safety, versions 1-2.

* Member codecs: an entry is stored *plain* (``<key>.npy``, the bytes
  ``np.save`` writes) or *byte-plane shuffled* (``<key>.shuffled``), chosen
  once per member from its first 1 MiB block, and every array layout the
  writer can be handed decodes bit-identically.
* Blocks: a member of two or more blocks is a STORED entry of independent
  zlib blocks behind a block table, deflated and inflated on a thread
  pool; its stored bytes do not depend on the pool size, and a probe
  inflates none of them.
* Damage: an empty, truncated or bit-flipped archive, a short or overlong
  member body, an object-dtype header and every inconsistency of a block
  table all end in a ``StorageError`` naming the path, with no pool thread
  left running; one flipped byte anywhere never decodes to different
  arrays.
* Crash safety: a save that dies after its first member leaves the
  previous archive byte-identical and no temporary file behind.
* Versions 1 and 2: the committed snapshots (``tests/fixtures/
  snapshots_v1`` and ``snapshots_v2``, written by ``repro index save``
  before formats 2 and 3) read, probe and restore, answering and charging
  exactly like a fresh build.
"""

from __future__ import annotations

import contextlib
import os
import struct
import sys
import threading
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
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
V2_DIR = Path(__file__).parent / "fixtures" / "snapshots_v2"
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


def _blocks_snapshot() -> IndexSnapshot:
    """Two members of three blocks each (one plain, one shuffled), 64 KB on disk."""
    rows = np.zeros((700, 512))
    rows[:, :6] = np.random.default_rng(6).random((700, 6))
    smooth = np.linspace(0.0, 1.0, 2 * BLOCK_ITEMS + 5)
    return IndexSnapshot(
        method="sequential", method_version=1, database=rows, state={}, meta={"smooth": smooth}
    )


@pytest.fixture(scope="module")
def blocks_path(tmp_path_factory) -> str:
    return write_snapshot(_blocks_snapshot(), tmp_path_factory.mktemp("blocks") / "blocks")


class TestMemberCodecs:
    def test_markers_are_plain_and_float_rows_shuffled(self, tmp_path) -> None:
        path = write_snapshot(_snapshot(), tmp_path / "codecs")
        names = _names(path)
        assert {"kind.npy", "format_version.npy", "method.npy", "database.shuffled"} <= set(names)
        with np.load(path) as archive:
            # A version 1 reader still sees the markers, and the shuffled
            # rows only as raw bytes, never as (wrong) floats.
            assert int(archive["format_version"]) == FORMAT_VERSION == 3
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


class TestBlocks:
    def test_a_longer_member_is_a_stored_block_table_then_zlib_blocks(self, blocks_path) -> None:
        snapshot = _blocks_snapshot()
        longer = {"database": snapshot.database, "meta__smooth": snapshot.meta["smooth"]}
        with zipfile.ZipFile(blocks_path) as archive:
            infos = {info.filename.partition(".")[0]: info for info in archive.infolist()}
            names = {info.filename for info in infos.values()}
            assert names >= {"database.npy", "meta__smooth.shuffled"}
            for key, info in infos.items():
                stored = info.compress_type == zipfile.ZIP_STORED
                assert stored == (key in longer), key  # one block stays a format 2 member
            for key, value in longer.items():
                shuffled = infos[key].filename.endswith(".shuffled")
                npy, items = npy_bytes(value), np.ravel(value)
                deflated = []
                for start in range(0, items.size, BLOCK_ITEMS):
                    block = items[start : start + BLOCK_ITEMS].view(np.uint8)
                    body = block.reshape(-1, 8).T.tobytes() if shuffled else block.tobytes()
                    deflated.append(zlib.compress(body))
                assert len(deflated) == 3
                table = struct.pack("<4I", 3, *map(len, deflated))
                magic = b"\x93PLANE" if shuffled else b"\x93NUMPY"
                head = magic + npy[6 : len(npy) - value.nbytes]
                assert archive.read(infos[key]) == head + table + b"".join(deflated), key

    def test_stored_bytes_do_not_depend_on_the_pool_size(self, monkeypatch, tmp_path) -> None:
        stored = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches between the block jobs
        try:
            for size in (1, 2, 8):  # 8: more threads than cores
                monkeypatch.setattr(snapshot_format, "_POOL_SIZE", size)
                path = write_snapshot(_blocks_snapshot(), tmp_path / f"pool{size}")
                with zipfile.ZipFile(path) as archive:
                    stored.append([
                        (info.filename, info.compress_type, info.CRC, info.compress_size)
                        + (archive.read(info),)
                        for info in archive.infolist()
                    ])
                expected = _entries(_blocks_snapshot())
                _assert_bit_identical(_entries(read_snapshot(path)), expected)
        finally:
            sys.setswitchinterval(switch)
        assert stored[0] == stored[1] == stored[2]

    def test_at_most_two_blocks_per_thread_are_in_flight(self, monkeypatch) -> None:
        monkeypatch.setattr(snapshot_format, "_POOL_SIZE", 2)
        pulled = 0

        def jobs():
            nonlocal pulled
            for number in range(40):
                pulled += 1
                yield lambda number=number: number

        with ThreadPoolExecutor(2) as pool:
            results = snapshot_format._in_order(pool, jobs())
            for done, result in enumerate(results, 1):
                assert result == done - 1  # in order
                assert pulled - done <= 2 * 2
        assert pulled == 40

    def test_no_pool_thread_outlives_a_save_or_a_load(self, tmp_path) -> None:
        baseline = threading.active_count()
        read_snapshot(write_snapshot(_blocks_snapshot(), tmp_path / "threads"))
        assert threading.active_count() == baseline

    def test_a_probe_inflates_no_block(self, monkeypatch, capsys, tmp_path) -> None:
        rows = np.random.default_rng(7).random((2100, 64))  # 1.03 MiB: two blocks
        path = QMapModel(_matrix(64)).build_index("pivot-table", rows, n_pivots=4).save(
            tmp_path / "pivot"
        )
        with zipfile.ZipFile(path) as archive:
            assert archive.getinfo("database.shuffled").compress_type == zipfile.ZIP_STORED

        class Inflated(Exception):
            pass

        def no_block(block, *args) -> None:  # every block is inflated through here
            raise Inflated(len(block))

        monkeypatch.setattr(snapshot_format, "_inflate", no_block)
        assert probe_snapshot(path).format_version == FORMAT_VERSION
        assert _index_ls_formats(tmp_path, capsys) == [str(FORMAT_VERSION)]
        with pytest.raises(Inflated):  # the guard does bite on a real read
            read_snapshot(path)


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


def _overstate_a_deflated_member(path: str) -> None:
    """Add a DEFLATEd member whose header and zip directory both claim 100
    more items than its deflate stream holds; its CRC-32 still matches."""
    body = npy_bytes(np.arange(100.0)).replace(b"(100,)", b"(200,)")
    rewrite_archive(path, lambda m: m.update({"meta__short.npy": body}))
    blob = bytearray(Path(path).read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("meta__short.npy")
    claimed = (info.file_size + 800).to_bytes(4, "little")
    blob[info.header_offset + 22 : info.header_offset + 26] = claimed  # local header
    entry = blob.find(b"PK\x01\x02")
    while blob[entry + 46 : entry + 46 + len(info.filename)] != info.filename.encode():
        entry = blob.find(b"PK\x01\x02", entry + 1)
    blob[entry + 24 : entry + 28] = claimed  # its central directory entry
    Path(path).write_bytes(bytes(blob))


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
    "garbled header text": lambda path: rewrite_archive(
        path, lambda m: m.update({(k := _database_member(m)): m[k].replace(b"6)", b"6(", 1)})
    ),
    "deflate stream shorter than claimed": _overstate_a_deflated_member,
}


def _edit_blocks(edit):
    """Damage that lets *edit* change the database member's block count,
    block table, blocks and what follows them (the zip CRC is rewritten)."""

    def change(members: dict) -> None:
        key = _database_member(members)
        body = members[key]
        start = 10 + int.from_bytes(body[8:10], "little")  # magic, version, npy header
        (count,) = struct.unpack_from("<I", body, start)
        lengths = list(struct.unpack_from(f"<{count}I", body, start + 4))
        offset, blocks = start + 4 + 4 * count, []
        for length in lengths:
            blocks.append(body[offset : offset + length])
            offset += length
        parts = {"count": count, "lengths": lengths, "blocks": blocks, "tail": body[offset:]}
        edit(parts)
        table = struct.pack(f"<{len(parts['lengths']) + 1}I", parts["count"], *parts["lengths"])
        members[key] = body[:start] + table + b"".join(parts["blocks"]) + parts["tail"]

    return lambda path: rewrite_archive(path, change)


def _move_boundary(parts: dict) -> None:
    parts["lengths"][0] += 1
    parts["lengths"][1] -= 1


def _drop_last_block(parts: dict) -> None:
    parts["count"] -= 1
    del parts["lengths"][-1], parts["blocks"][-1]


def _lengthen_last_block(parts: dict) -> None:
    parts["blocks"][-1] = zlib.compress(zlib.decompress(parts["blocks"][-1]) + bytes(8))
    parts["lengths"][-1] = len(parts["blocks"][-1])


def _shorten_last_block(parts: dict) -> None:
    parts["blocks"][-1] = zlib.compress(zlib.decompress(parts["blocks"][-1])[:-8])
    parts["lengths"][-1] = len(parts["blocks"][-1])


def _break_adler(parts: dict) -> None:
    parts["blocks"][0] = parts["blocks"][0][:-1] + bytes([parts["blocks"][0][-1] ^ 0xFF])


#: ``name: (damage, what the error says)``; every one keeps the zip CRC valid
#: but for the truncation, so the reader's own checks are what catch them.
BLOCK_DAMAGE = {
    "block length changed": (
        _edit_blocks(lambda parts: parts["lengths"].__setitem__(0, parts["lengths"][0] + 1)),
        "its block table declares",
    ),
    "block boundary moved": (_edit_blocks(_move_boundary), "1 bytes after it"),
    "bytes after the last block": (
        _edit_blocks(lambda parts: parts.update(tail=bytes(8))),
        "its block table declares",
    ),
    "block count below the header's": (_edit_blocks(_drop_last_block), "its header declares 3"),
    "block inflating too long": (_edit_blocks(_lengthen_last_block), "inflates to more than"),
    "block inflating too short": (_edit_blocks(_shorten_last_block), "not one zlib stream"),
    "block Adler-32 broken": (_edit_blocks(_break_adler), "incorrect data check"),
    "truncated member": (
        lambda path: rewrite_archive(
            path, lambda m: m.update({(k := _database_member(m)): m[k][: len(m[k]) // 2]})
        ),
        "its block table declares",
    ),
}


def _open_files() -> int:
    """Descriptors this process holds (0 where ``/proc`` does not list them)."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


class TestBlockDamage:
    @pytest.mark.parametrize("damage", sorted(BLOCK_DAMAGE))
    def test_block_damage_is_a_storage_error_naming_the_path(
        self, damage, blocks_path, tmp_path
    ) -> None:
        path = str(tmp_path / "damaged.npz")
        Path(path).write_bytes(Path(blocks_path).read_bytes())
        edit, says = BLOCK_DAMAGE[damage]
        edit(path)
        baseline = threading.active_count(), _open_files()
        with pytest.raises(StorageError, match=says) as caught:
            read_snapshot(path)
        assert path in str(caught.value)
        assert (threading.active_count(), _open_files()) == baseline

    @given(position=st.integers(min_value=0), mask=st.integers(1, 255))
    @settings(max_examples=150, deadline=None)
    def test_one_flipped_byte_in_a_block_archive_never_decodes_to_different_arrays(
        self, blocks_path, position, mask
    ) -> None:
        blob = bytearray(Path(blocks_path).read_bytes())
        blob[position % len(blob)] ^= mask
        target = Path(blocks_path).with_name("flipped.npz")
        target.write_bytes(bytes(blob))
        baseline = threading.active_count()
        try:
            got = read_snapshot(target)
        except StorageError:
            assert threading.active_count() == baseline
            return
        _assert_bit_identical(_entries(got), _entries(_blocks_snapshot()))


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

        def dying(zf, key, *member) -> None:
            if written:
                raise OSError("disk full")
            written.append(key)
            real_write_member(zf, key, *member)

        real_write_member = snapshot_format._write_member
        monkeypatch.setattr(snapshot_format, "_write_member", dying)
        with pytest.raises(OSError, match="disk full"):
            write_snapshot(_snapshot(extra=np.arange(9)), path)
        assert written == ["kind"]
        assert Path(path).read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snap.npz"]


@pytest.fixture(scope="module")
def v1_workload():
    """The recipe the v1 and v2 fixtures were saved with (``repro index save``)."""
    return histogram_workload(200, 5, bins_per_channel=2, seed=2011)


def _restores_like_a_fresh_build(path: Path, version: int, method: str, workload) -> None:
    """A committed older snapshot reads, probes and restores like a fresh build."""
    probe = probe_snapshot(path)
    assert probe.format_version == version and probe.method == method
    fresh = QMapModel(workload.matrix).build_index(
        method, workload.database, **index_kwargs(method)
    )
    snapshot = read_snapshot(path)
    _assert_bit_identical(
        {"database": snapshot.database, **snapshot.state},
        {"database": fresh.access_method.database, **fresh.access_method.structural_state()},
    )
    restored = load_built_index(path)
    assert restored.build_costs.distance_computations == 0
    for query in workload.queries:
        answers = []
        for built in (restored, fresh):
            built.reset_query_costs()
            knn = built.knn_search(query, 10)
            hits = built.range_search(query, knn[4].distance)
            answers.append((knn, hits, built.query_costs().distance_computations))
        assert answers[0] == answers[1]


def _index_ls_formats(directory: Path, capsys) -> list[str]:
    assert main(["index", "ls", str(directory)]) == 0
    return [row.split()[6] for row in capsys.readouterr().out.splitlines()[2:]]


class TestVersion1Snapshots:
    @pytest.mark.parametrize("method", ["pivot-table", "mtree"])
    def test_v1_fixture_reads_probes_and_restores_like_a_fresh_build(
        self, method, v1_workload
    ) -> None:
        path = V1_DIR / f"{method.replace('-', '_')}.npz"
        with zipfile.ZipFile(path) as archive:
            assert all(name.endswith(".npy") for name in archive.namelist())
        _restores_like_a_fresh_build(path, 1, method, v1_workload)

    def test_index_ls_shows_format_1(self, capsys) -> None:
        assert _index_ls_formats(V1_DIR, capsys) == ["1", "1"]


class TestVersion2Snapshots:
    @pytest.mark.parametrize("method", ["pivot-table", "mtree"])
    def test_v2_fixture_reads_probes_and_restores_like_a_fresh_build(
        self, method, v1_workload
    ) -> None:
        path = V2_DIR / f"{method.replace('-', '_')}.npz"
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert "database.shuffled" in {info.filename for info in infos}
        assert {info.compress_type for info in infos} == {zipfile.ZIP_DEFLATED}
        _restores_like_a_fresh_build(path, 2, method, v1_workload)

    def test_index_ls_shows_format_2(self, capsys) -> None:
        assert _index_ls_formats(V2_DIR, capsys) == ["2", "2"]
