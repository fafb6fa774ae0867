"""The on-disk index snapshot format.

A snapshot is a zip archive of named numpy arrays, no pickled code
objects (the reader refuses object dtypes, so a tampered archive cannot
execute code).  The layout is versioned and self-describing:

==================  =====================================================
``kind``            always ``"index-snapshot"``
``format_version``  integer; readers reject versions newer than their own
``method``          registry name of the access method (``"mtree"``, ...)
``method_version``  per-method codec version
``database``        the ``(m, n)`` float64 rows the index was built over
``state__*``        the method's structural arrays (tree topology,
                    pivot tables, page images, ... — see each method's
                    ``structural_state``)
``meta__*``         caller-provided metadata (model name, QFD matrix,
                    build costs, workload recipe, ...)
``<key>.npy``       member codec *plain*: the ``.npy`` header and body
                    ``np.save`` writes (format version 1's only codec)
``<key>.shuffled``  member codec *byte-plane shuffled*: the same header
                    under the magic ``\x93PLANE`` (``np.load`` returns it
                    as raw bytes), then each 1 MiB block of the body as
                    every item's first byte, then every second byte, ...
block rule          the body is cut in 1 MiB blocks (whole items); per
                    member, deflate the first block both ways and keep
                    the smaller form (a tie stays plain)
one block           a member of at most one block is a zip-DEFLATEd
                    entry holding the header and the body (format 2's
                    layout, so ``np.load`` and older readers still read
                    every marker)
blocks              a longer member is a zip-STORED entry: the header, a
                    ``u32`` block count, one ``u32`` deflated length per
                    block, then every block as its own zlib stream at
                    the default level (format 3; ``np.load`` cannot
                    decode it)
==================  =====================================================

Independent blocks are deflated on save and inflated on load by a pool
of at most four threads, sized by the process's CPU affinity (zlib
releases the GIL), with at most two blocks per thread in flight.  The
reader allocates each array once and every block is unshuffled straight
into it; each block's Adler-32, its inflated length and every entry's
zip CRC-32 are checked, and a damaged archive raises
:class:`StorageError`.  A DEFLATEd entry (every member of versions 1
and 2) is decoded block by block on the calling thread.  Restoring an
index from a snapshot re-wires the structure from these arrays and
performs **zero** logical distance computations.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import io
import itertools
import lzma
import math
import os
import struct
import tempfile
import tokenize
import zipfile
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from ..exceptions import StorageError
from ._paths import normalize_npz_path

__all__ = [
    "FORMAT_VERSION",
    "META_PREFIX",
    "SNAPSHOT_KIND",
    "STATE_PREFIX",
    "IndexSnapshot",
    "SnapshotProbe",
    "check_kind",
    "probe_snapshot",
    "read_snapshot",
    "write_snapshot",
]

SNAPSHOT_KIND = "index-snapshot"
FORMAT_VERSION = 3
STATE_PREFIX = "state__"
META_PREFIX = "meta__"

#: Archive keys that are not state/meta payload.
_HEADER_KEYS = ("kind", "format_version", "method", "method_version", "database")

#: Member body block size, and the two member codecs' name suffixes and magics.
_BLOCK_BYTES = 1 << 20
_PLAIN, _SHUFFLED = "npy", "shuffled"
_MAGIC = {_PLAIN: b"\x93NUMPY", _SHUFFLED: b"\x93PLANE"}


def _pool_size() -> int:
    """Threads a codec pool may start: the CPUs this process may run on,
    capped at 4."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(4, cpus)


#: Threads that deflate / inflate blocks (zlib releases the GIL).
_POOL_SIZE = _pool_size()
#: What a pool thread hands zlib at a time.  Its output goes straight into
#: memory the calling thread allocated: glibc keeps what a thread frees in
#: that thread's own arena, so a pool thread's large buffers would stay
#: resident after the call.
_PIECE_BYTES = 1 << 16

#: What zipfile, zlib and numpy's header parser raise on a damaged archive.
_DECODE_ERRORS = (EOFError, OSError, RuntimeError, ValueError, struct.error,
                  zipfile.BadZipFile, zlib.error, lzma.LZMAError)


def check_kind(archive: "np.lib.npyio.NpzFile", expected: str, path: object) -> None:
    """Raise :class:`StorageError` unless the archive's kind marker matches."""
    kind = str(archive["kind"]) if "kind" in archive else "<missing>"
    if kind != expected:
        raise StorageError(
            f"{path!s} holds a {kind!r} artifact, expected {expected!r}"
        )


@dataclass
class IndexSnapshot:
    """An index snapshot in memory: everything the archive holds.

    ``state`` carries the structural arrays exactly as the method's
    ``structural_state`` produced them; ``meta`` carries caller metadata
    (arrays or numpy scalars).  ``path`` is the archive the snapshot was
    read from, if any — used to label verification errors.
    """

    method: str
    method_version: int
    database: np.ndarray
    state: dict[str, np.ndarray]
    meta: dict[str, np.ndarray] = field(default_factory=dict)
    path: str | None = None


def _reject_objects(label: str, value: object) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype.hasobject:
        raise StorageError(
            f"snapshot entry {label!r} has object dtype; only plain numeric "
            "and string arrays can be persisted (no pickling)"
        )
    return arr


def _block_items(itemsize: int) -> int:
    return max(1, _BLOCK_BYTES // max(1, itemsize))


def _body_pieces(block: np.ndarray, shuffle: bool) -> "Iterator[np.ndarray]":
    """One block's body in order: its byte planes (every item's first byte,
    then every second byte, ...), or its bytes in pieces."""
    data = block.view(np.uint8)
    if shuffle:
        items = data.reshape(-1, block.itemsize)
        return (np.ascontiguousarray(items[:, plane]) for plane in range(block.itemsize))
    return (data[start : start + _PIECE_BYTES] for start in range(0, data.size, _PIECE_BYTES))


def _deflate_buffer(block: np.ndarray) -> bytearray:
    """Room for one deflated block (zlib's ``deflateBound``, rounded up)."""
    size = block.nbytes
    return bytearray(size + (size >> 12) + (size >> 14) + 64)


def _deflated_pieces(block: np.ndarray, shuffle: bool) -> "Iterator[bytes]":
    packer = zlib.compressobj()
    yield from map(packer.compress, _body_pieces(block, shuffle))
    yield packer.flush()


def _deflate(block: np.ndarray, shuffle: bool, out: bytearray) -> memoryview:
    """``zlib.compress`` of one block's body, written into *out* (a pool job).

    Feeding zlib the body in pieces yields exactly the bytes of one call;
    *out* grows should the bound fall short.
    """
    end = 0
    for data in _deflated_pieces(block, shuffle):
        out[end : end + len(data)] = data
        end += len(data)
    return memoryview(out)[:end]


def _in_order(pool: ThreadPoolExecutor, jobs: "Iterable[Callable[[], Any]]") -> "Iterator[Any]":
    """Run *jobs* on *pool*, at most two per thread in flight; yield their results in order."""
    window: collections.deque = collections.deque()
    for job in jobs:
        if len(window) == 2 * _POOL_SIZE:
            yield window.popleft().result()
        window.append(pool.submit(job))
    while window:
        yield window.popleft().result()


def _shuffles(trial: "list[Future[memoryview]]") -> bool:
    """Whether the first block deflated smaller shuffled (a tie stays plain)."""
    return len(trial) == 2 and len(trial[1].result()) < len(trial[0].result())


def _winner(trial: "list[Future[memoryview]]") -> memoryview:
    return trial[_shuffles(trial)].result()


def _deflate_as_decided(
    trial: "list[Future[memoryview]]", block: np.ndarray, out: bytearray
) -> memoryview:
    return _deflate(block, _shuffles(trial), out)


def _deflate_jobs(
    pool: ThreadPoolExecutor, payload: "dict[str, np.ndarray]", started: collections.deque
) -> "Iterator[Callable[[], memoryview]]":
    """One deflate job per block of every entry, in archive order.

    As an entry starts, its codec trial (the first block deflated both
    ways) is submitted and ``(key, header, blocks, trial)`` is queued on
    *started*; its block jobs wait for the trial, whose winner is block 0.
    The trial is submitted before them, so a waiting job never starves it.
    """
    for key, arr in payload.items():
        header = np.lib.format.header_data_from_array_1_0(arr)
        flat = np.ravel(arr, order="F" if header["fortran_order"] else "C")
        step = _block_items(flat.itemsize)
        blocks = [flat[start : start + step] for start in range(0, flat.size, step)] or [flat]
        forms = (False, True) if flat.itemsize > 1 else (False,)
        trial = [
            pool.submit(_deflate, blocks[0], shuffle, _deflate_buffer(blocks[0]))
            for shuffle in forms
        ]
        started.append((key, header, blocks, trial))
        yield functools.partial(_winner, trial)
        for block in blocks[1:]:
            yield functools.partial(_deflate_as_decided, trial, block, _deflate_buffer(block))


def _write_member(
    zf: zipfile.ZipFile,
    key: str,
    header: dict,
    blocks: "list[np.ndarray]",
    shuffle: bool,
    deflated: "Iterator[memoryview]",
    spill: io.BufferedRandom,
) -> None:
    """Write one entry into *zf* as a plain or shuffled member (module docs).

    *deflated* yields its blocks deflated; a longer member's go through
    *spill*, since the block table that precedes them is known only once
    all are deflated.
    """
    codec = _SHUFFLED if shuffle else _PLAIN
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, header)
    head = _MAGIC[codec] + head.getvalue()[len(_MAGIC[_PLAIN]) :]
    if len(blocks) == 1:
        body = b"".join(_body_pieces(blocks[0], shuffle))
        zf.writestr(f"{key}.{codec}", head + body, zipfile.ZIP_DEFLATED)
        return
    spill.seek(0)
    lengths = [spill.write(data) for data in deflated]
    spill.seek(0)
    with zf.open(f"{key}.{codec}", "w", force_zip64=True) as fh:
        fh.write(head + struct.pack(f"<{len(lengths) + 1}I", len(lengths), *lengths))
        for length in lengths:
            fh.write(spill.read(length))


def write_snapshot(snapshot: IndexSnapshot, path: "str | os.PathLike[str]") -> str:
    """Write *snapshot* as a compressed archive, returning the real path.

    Written to ``<target>.tmp`` and renamed, so a failed save keeps the old file.
    """
    payload: dict[str, np.ndarray] = {
        "kind": np.str_(SNAPSHOT_KIND),
        "format_version": np.int64(FORMAT_VERSION),
        "method": np.str_(snapshot.method),
        "method_version": np.int64(snapshot.method_version),
        "database": _reject_objects("database", snapshot.database),
    }
    for key, value in snapshot.state.items():
        payload[STATE_PREFIX + key] = _reject_objects(key, value)
    for key, value in snapshot.meta.items():
        payload[META_PREFIX + key] = _reject_objects(key, value)
    target = normalize_npz_path(path)
    partial = target + ".tmp"
    try:
        with (
            ThreadPoolExecutor(_POOL_SIZE) as pool,
            tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(partial))) as spill,
            zipfile.ZipFile(partial, "w") as zf,
        ):
            started: collections.deque = collections.deque()
            deflated = _in_order(pool, _deflate_jobs(pool, payload, started))
            for first in deflated:
                key, header, blocks, trial = started.popleft()
                rest = itertools.islice(deflated, len(blocks) - 1)
                _write_member(
                    zf, key, header, blocks, _shuffles(trial), itertools.chain([first], rest), spill
                )
        os.replace(partial, target)
    finally:
        with contextlib.suppress(FileNotFoundError):  # gone once replaced
            os.remove(partial)
    return target


def _npy_header(
    fh: "zipfile.ZipExtFile", name: str, label: object
) -> "tuple[tuple[int, ...], bool, np.dtype]":
    """Shape, Fortran flag and dtype from a member's header (its magic names the codec)."""
    magic, version = fh.read(len(_MAGIC[_PLAIN])), tuple(fh.read(2))
    if magic != _MAGIC[name.rpartition(".")[2]] or version not in ((1, 0), (2, 0)):
        raise StorageError(f"{label!s}: entry {name!r} has no npy 1.0/2.0 header of its codec")
    read = getattr(np.lib.format, f"read_array_header_{version[0]}_0")
    try:
        shape, fortran, dtype = read(fh)
    except (SyntaxError, TypeError, tokenize.TokenError) as exc:  # numpy parses the header text
        raise StorageError(f"{label!s}: entry {name!r} has an unreadable header ({exc})") from None
    if dtype.hasobject:
        raise StorageError(f"{label!s}: entry {name!r} has object dtype (no pickling)")
    return tuple(int(s) for s in shape), bool(fortran), dtype


def _place(data: bytes, dest: np.ndarray, size: int, shuffled: bool, start: int) -> None:
    """Copy *data*, a block's body from byte *start* on, into the block *dest*.

    A shuffled body is one byte plane after another, so its bytes land
    item-strided, one plane at a time.
    """
    raw = np.frombuffer(data, np.uint8)
    if not shuffled:
        dest[start : start + raw.size] = raw
        return
    items = dest.reshape(-1, size)
    while raw.size:
        plane, item = divmod(start, len(items))
        part = raw[: len(items) - item]
        items[item : item + part.size, plane] = part
        raw, start = raw[part.size :], start + part.size


def _inflate(block: bytes, dest: np.ndarray, size: int, shuffled: bool, entry: str) -> None:
    """Inflate one independently deflated block into *dest* (a pool job).

    zlib is fed in pieces and never allowed past the end of *dest*; the
    block must be exactly one zlib stream (its Adler-32 is checked at the
    stream's end) of exactly ``dest.size`` bytes.
    """
    inflater, end, source = zlib.decompressobj(), 0, memoryview(block)
    for start in range(0, len(source), _PIECE_BYTES):
        data = inflater.decompress(source[start : start + _PIECE_BYTES], dest.size + 1 - end)
        if end + len(data) > dest.size:
            raise StorageError(f"{entry}: a block inflates to more than {dest.size} bytes")
        _place(data, dest, size, shuffled, end)
        end += len(data)
    if end != dest.size or not inflater.eof or inflater.unused_data:
        raise StorageError(
            f"{entry}: a block is not one zlib stream of {dest.size} bytes ({end} "
            f"inflated, {'complete' if inflater.eof else 'cut short'}, "
            f"{len(inflater.unused_data)} bytes after it)"
        )


def _member_jobs(
    zf: zipfile.ZipFile, info: zipfile.ZipInfo, label: object, keep: "Callable[[np.ndarray], None]"
) -> "Iterator[Callable[[], None]]":
    """Decode one member into a new array, handed to *keep* before its body is read.

    A STORED member's blocks are read here and yielded as inflate jobs for
    the caller to run; a DEFLATEd one is decoded here, block by block.
    """
    entry = f"{label!s}: entry {info.filename!r}"
    stored = info.compress_type == zipfile.ZIP_STORED
    with zf.open(info) as fh:
        shape, fortran, dtype = _npy_header(fh, info.filename, label)
        count, size = math.prod(shape), dtype.itemsize
        step = _block_items(size)
        if stored:
            (blocks,) = struct.unpack("<I", fh.read(4))
            if blocks != -(-count // step):
                raise StorageError(
                    f"{entry} holds {blocks} blocks, its header declares {-(-count // step)}"
                )
            lengths = struct.unpack(f"<{blocks}I", fh.read(4 * blocks))
            declared, by = sum(lengths), "its block table"
        else:
            declared, by = count * size, "its header"
        body = info.file_size - fh.tell()
        if body != declared:
            raise StorageError(f"{entry} holds {body} body bytes, {by} declares {declared}")
        flat = np.empty(count, dtype)
        keep(flat.reshape(shape[::-1]).T if fortran else flat.reshape(shape))
        out, shuffled = flat.view(np.uint8), info.filename.endswith(_SHUFFLED)
        for block, start in enumerate(range(0, count, step)):
            dest = out[start * size : min(start + step, count) * size]
            if stored:
                deflated = fh.read(lengths[block])
                yield functools.partial(_inflate, deflated, dest, size, shuffled, entry)
            else:
                data = fh.read(dest.size)
                if len(data) != dest.size:
                    raise StorageError(f"{entry} ends inside its body")
                _place(data, dest, size, shuffled, 0)
        fh.read(1)  # reach the member's end, where zip checks its CRC-32


def _read_member(zf: zipfile.ZipFile, info: zipfile.ZipInfo, label: object) -> np.ndarray:
    """Decode one member on the calling thread."""
    kept: list[np.ndarray] = []
    with contextlib.closing(_member_jobs(zf, info, label, kept.append)) as jobs:
        for job in jobs:
            job()
    return kept[0]


def _members(zf: zipfile.ZipFile, path: object) -> "tuple[dict[str, zipfile.ZipInfo], int]":
    """The archive's entries by key and its format version, both checked."""
    members: dict[str, zipfile.ZipInfo] = {}
    for info in zf.infolist():
        key, _, codec = info.filename.rpartition(".")
        if codec not in (_PLAIN, _SHUFFLED) or key in members:
            raise StorageError(f"{path!s}: unexpected snapshot entry {info.filename!r}")
        members[key] = info
    zf.fp.seek(-22, os.SEEK_END)  # the end record (no comment) counts every entry
    end = zf.fp.read(22)
    if end[:4] == b"PK\x05\x06" and int.from_bytes(end[10:12], "little") != len(members):
        raise StorageError(f"{path!s}: the zip directory lost entries")
    kind = str(_read_member(zf, members["kind"], path)) if "kind" in members else "<missing>"
    if kind != SNAPSHOT_KIND:
        raise StorageError(f"{path!s} holds a {kind!r} artifact, expected {SNAPSHOT_KIND!r}")
    for required in _HEADER_KEYS:
        if required not in members:
            raise StorageError(f"{path!s} is not an index snapshot (missing {required!r})")
    for key in members:
        if key not in _HEADER_KEYS and not key.startswith((STATE_PREFIX, META_PREFIX)):
            raise StorageError(f"{path!s}: unexpected snapshot entry {key!r}")
    version = int(_read_member(zf, members["format_version"], path))
    if version > FORMAT_VERSION:
        raise StorageError(
            f"{path!s} uses snapshot format version {version}; this "
            f"library reads up to version {FORMAT_VERSION}"
        )
    return members, version


def _open_snapshot(path: object, read: "Callable[..., Any]") -> Any:
    """Run ``read(zf, members, version)`` on the checked archive at *path*.

    What a damaged file makes zip, zlib or the npy parser raise (a bad
    CRC, truncation, an empty file, ...) becomes a :class:`StorageError`.
    """
    try:
        with zipfile.ZipFile(normalize_npz_path(path)) as zf:
            return read(zf, *_members(zf, path))
    except StorageError:
        raise
    except _DECODE_ERRORS as exc:
        raise StorageError(f"cannot read snapshot {path!s}: {exc}") from None


def read_snapshot(path: "str | os.PathLike[str]") -> IndexSnapshot:
    """Read a snapshot archive written by :func:`write_snapshot`.

    Rejects non-snapshot archives, archives written by a *newer* format
    version, object-dtype (pickled) entries, and damaged archives — each
    with a :class:`StorageError`.
    """
    def read(zf: zipfile.ZipFile, members: dict, _: int) -> "dict[str, np.ndarray]":
        arrays: dict[str, np.ndarray] = {}
        jobs = (
            job
            for key, info in members.items()
            for job in _member_jobs(zf, info, path, functools.partial(arrays.__setitem__, key))
        )
        # Closing *jobs* closes the member being read, should a block fail.
        with ThreadPoolExecutor(_POOL_SIZE) as pool, contextlib.closing(jobs):
            for _ in _in_order(pool, jobs):
                pass  # the jobs fill *arrays* in place
        return arrays

    arrays = _open_snapshot(path, read)
    state: dict[str, np.ndarray] = {}
    meta: dict[str, np.ndarray] = {}
    for key, value in arrays.items():
        if key.startswith(STATE_PREFIX):
            state[key[len(STATE_PREFIX) :]] = value
        elif key.startswith(META_PREFIX):
            meta[key[len(META_PREFIX) :]] = value
    return IndexSnapshot(
        method=str(arrays["method"]),
        method_version=int(arrays["method_version"]),
        database=arrays["database"],
        state=state,
        meta=meta,
        path=normalize_npz_path(path),
    )


#: Entries at most this many elements are materialized by a probe; larger
#: ones (the database, pivot tables, the QFD matrix, page images, ...)
#: contribute only their shape.  Large enough for every scalar marker and
#: the workload recipe, small enough that probing never decompresses a
#: vector payload.
_PROBE_VALUE_ELEMENTS = 16


@dataclass(frozen=True)
class SnapshotProbe:
    """Header-only view of a snapshot archive: metadata, never vectors.

    Produced by :func:`probe_snapshot` from the ``.npy`` member headers of
    the archive — the database rows and every other large array stay
    compressed on disk, so probing a directory of snapshots is I/O-cheap
    regardless of index size.  Small entries (scalar markers such as the
    model name, the pivot-table bound mode, build costs, and the workload
    recipe) are materialized as plain Python values; everything else is
    reported by shape only.
    """

    path: str
    method: str
    method_version: int
    format_version: int
    shape: "tuple[int, int]"
    dtype: str
    meta: "dict[str, object]"
    meta_shapes: "dict[str, tuple[int, ...]]"
    state_scalars: "dict[str, object]"
    state_shapes: "dict[str, tuple[int, ...]]"

    @property
    def size(self) -> int:
        """Database size ``m`` (rows the index was built over)."""
        return self.shape[0]

    @property
    def dim(self) -> int:
        """Vector dimensionality ``n``."""
        return self.shape[1]


def _scalarize(value: np.ndarray) -> object:
    """A 0-d (or tiny) numpy value as a plain Python object."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return arr.item()
    return arr.tolist()


def _member_header(
    zf: zipfile.ZipFile, info: zipfile.ZipInfo, label: object
) -> "tuple[tuple[int, ...], bool, np.dtype]":
    """Shape, Fortran flag and dtype of one member, its body left deflated."""
    with zf.open(info) as fh:
        return _npy_header(fh, info.filename, label)


def probe_snapshot(path: "str | os.PathLike[str]") -> SnapshotProbe:
    """Probe a snapshot archive's metadata without loading any vectors.

    Reads only the zip directory, the per-member ``.npy`` headers, and the
    tiny scalar entries (kind/method markers, ``meta__*`` scalars such as
    the model name and build costs, 0-d ``state__*`` markers such as the
    pivot-table bound mode).  The database array — and every other large
    payload — is never decompressed.  Raises :class:`StorageError` for
    anything that is not a readable index snapshot of a supported format
    version, exactly like :func:`read_snapshot` would.
    """

    def probe(zf, members, format_version) -> SnapshotProbe:
        method = str(_read_member(zf, members["method"], path))
        method_version = int(_read_member(zf, members["method_version"], path))
        db_shape, _, db_dtype = _member_header(zf, members["database"], path)
        if len(db_shape) != 2:
            raise StorageError(f"{path!s}: database entry has shape {db_shape}, expected 2-D rows")
        meta: dict[str, object] = {}
        meta_shapes: dict[str, tuple[int, ...]] = {}
        state_scalars: dict[str, object] = {}
        state_shapes: dict[str, tuple[int, ...]] = {}
        for key, info in members.items():
            if key in _HEADER_KEYS:
                continue
            shape = _member_header(zf, info, path)[0]
            if key.startswith(META_PREFIX):
                short = key[len(META_PREFIX) :]
                if math.prod(shape) <= _PROBE_VALUE_ELEMENTS:
                    meta[short] = _scalarize(_read_member(zf, info, path))
                else:
                    meta_shapes[short] = shape
            else:
                short = key[len(STATE_PREFIX) :]
                state_shapes[short] = shape
                if shape == ():
                    state_scalars[short] = _scalarize(_read_member(zf, info, path))
        return SnapshotProbe(
            path=normalize_npz_path(path),
            method=method,
            method_version=method_version,
            format_version=format_version,
            shape=(db_shape[0], db_shape[1]),
            dtype=str(db_dtype),
            meta=meta,
            meta_shapes=meta_shapes,
            state_scalars=state_scalars,
            state_shapes=state_shapes,
        )

    return _open_snapshot(path, probe)
