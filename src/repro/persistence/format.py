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
block rule          the body is streamed in 1 MiB blocks (whole items);
                    per member, deflate the first block both ways and
                    keep the smaller form (a tie stays plain)
==================  =====================================================

Every member is zip-DEFLATEd at zlib's default level.  The reader
allocates each array once and unshuffles block by block straight into
it; zip checks every member's CRC-32, and a damaged archive raises
:class:`StorageError`.  Restoring an index from a snapshot re-wires the
structure from these arrays and performs **zero** logical distance
computations.
"""

from __future__ import annotations

import contextlib
import io
import lzma
import math
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

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
FORMAT_VERSION = 2
STATE_PREFIX = "state__"
META_PREFIX = "meta__"

#: Archive keys that are not state/meta payload.
_HEADER_KEYS = ("kind", "format_version", "method", "method_version", "database")

#: Member body block size, and the two member codecs' name suffixes and magics.
_BLOCK_BYTES = 1 << 20
_PLAIN, _SHUFFLED = "npy", "shuffled"
_MAGIC = {_PLAIN: b"\x93NUMPY", _SHUFFLED: b"\x93PLANE"}

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


def _planes(block: np.ndarray) -> bytes:
    """The byte-plane shuffle of one block: all first bytes, then all second, ..."""
    return block.view(np.uint8).reshape(-1, block.itemsize).T.tobytes()


def _write_member(zf: zipfile.ZipFile, key: str, arr: np.ndarray) -> None:
    """Stream one entry into *zf* as a plain or shuffled member (module docs)."""
    header = np.lib.format.header_data_from_array_1_0(arr)
    flat = np.ravel(arr, order="F" if header["fortran_order"] else "C")
    step = _block_items(flat.itemsize)
    first = flat[:step]
    plain, planes = first.view(np.uint8), _planes(first)
    shuffle = flat.itemsize > 1 and len(zlib.compress(planes)) < len(zlib.compress(plain))
    codec = _SHUFFLED if shuffle else _PLAIN
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, header)
    with zf.open(f"{key}.{codec}", "w", force_zip64=True) as fh:
        fh.write(_MAGIC[codec] + head.getvalue()[len(_MAGIC[_PLAIN]) :])
        for start in range(0, flat.size, step):
            block = flat[start : start + step]
            fh.write(_planes(block) if shuffle else block.view(np.uint8))


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
        with zipfile.ZipFile(partial, "w", zipfile.ZIP_DEFLATED) as zf:
            for key, value in payload.items():
                _write_member(zf, key, value)
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
    shape, fortran, dtype = read(fh)
    if dtype.hasobject:
        raise StorageError(f"{label!s}: entry {name!r} has object dtype (no pickling)")
    return tuple(int(s) for s in shape), bool(fortran), dtype


def _read_member(zf: zipfile.ZipFile, info: zipfile.ZipInfo, label: object) -> np.ndarray:
    """Inflate (and unshuffle) one member block by block into its array."""
    with zf.open(info) as fh:
        shape, fortran, dtype = _npy_header(fh, info.filename, label)
        count, size = math.prod(shape), dtype.itemsize
        body = info.file_size - fh.tell()
        if body != count * size:
            raise StorageError(
                f"{label!s}: entry {info.filename!r} holds {body} body "
                f"bytes, its header declares {count * size}"
            )
        flat = np.empty(count, dtype)
        out, step = flat.view(np.uint8), _block_items(size)
        for start in range(0, count, step):
            n = min(step, count - start)
            raw = np.frombuffer(fh.read(n * size), np.uint8)
            dest = out[start * size : (start + n) * size]
            if info.filename.endswith(_SHUFFLED):
                dest.reshape(n, size)[...] = raw.reshape(size, n).T
            else:
                dest[...] = raw
        fh.read(1)  # reach the member's end, where zip checks its CRC-32
    return flat.reshape(shape[::-1]).T if fortran else flat.reshape(shape)


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
        return {key: _read_member(zf, info, path) for key, info in members.items()}

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
