"""Assertion helpers shared across test modules."""

from __future__ import annotations

import io
import sys
import threading
import zipfile
from typing import Callable, Sequence

import numpy as np

from repro.mam.base import BoundQuery, DistancePort, Neighbor

__all__ = [
    "SpyPort",
    "assert_same_neighbors",
    "npy_bytes",
    "rewrite_archive",
    "run_together",
    "same_neighbors",
]


class _SpyBound(BoundQuery):
    """A bound query that reports the rows its own kernel context evaluates."""

    __slots__ = ()

    def compute_many(self, rows, indices=None):
        if self._ctx is not None:  # else the port's compute_many records it
            self._port.sizes.append(int(rows.shape[0]))
        return super().compute_many(rows, indices)


class SpyPort(DistancePort):
    """A port that records the physical and the logical work asked of it:
    the row count of every one-to-many evaluation (``sizes``), every
    ``(calls, rows)`` charge (``charges``) and the queries bound (``binds``)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sizes: list[int] = []
        self.charges: list[tuple[int, int]] = []
        self.binds = 0

    def compute_many(self, q, rows):
        self.sizes.append(int(rows.shape[0]))
        return super().compute_many(q, rows)

    def charge(self, *, calls=0, rows=0, trace=None):
        self.charges.append((calls, rows))
        super().charge(calls=calls, rows=rows, trace=trace)

    def bind_query(self, query, data=None, trace=None):
        self.binds += 1
        bound = super().bind_query(query, data, trace)
        bound.__class__ = _SpyBound
        return bound


def run_together(*targets: Callable[[], None]) -> None:
    """Run the targets in threads of their own, released at once.

    The interpreter's switch interval is shortened for the duration, so
    the threads interleave finely enough for a lost update or a shared
    mutation to show; every join is time-bounded and completion asserted.
    """
    barrier = threading.Barrier(len(targets))

    def released(target: Callable[[], None]) -> None:
        barrier.wait(timeout=30)
        target()

    threads = [threading.Thread(target=released, args=(t,)) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def same_neighbors(
    got: Sequence[Neighbor], expected: Sequence[Neighbor], *, tol: float = 1e-8
) -> bool:
    """Whether two sorted neighbor lists agree in indices and distances.

    Distances are compared with an absolute tolerance to absorb the ulp
    differences between vectorized and scalar evaluation paths.
    """
    if len(got) != len(expected):
        return False
    return all(
        g.index == e.index and abs(g.distance - e.distance) <= tol
        for g, e in zip(got, expected)
    )


def assert_same_neighbors(
    got: Sequence[Neighbor], expected: Sequence[Neighbor], *, tol: float = 1e-8, label: str = ""
) -> None:
    """Assert with a readable diff on mismatch."""
    assert len(got) == len(expected), (
        f"{label}: result size {len(got)} != expected {len(expected)}\n"
        f"got:      {got[:5]}\nexpected: {expected[:5]}"
    )
    for pos, (g, e) in enumerate(zip(got, expected)):
        assert g.index == e.index and abs(g.distance - e.distance) <= tol, (
            f"{label}: mismatch at position {pos}: got {g}, expected {e}"
        )


def npy_bytes(value) -> bytes:
    """*value* as the bytes of a plain ``.npy`` archive member."""
    buf = io.BytesIO()
    np.save(buf, value, allow_pickle=True)
    return buf.getvalue()


def rewrite_archive(path, edit: Callable[[dict], None]) -> None:
    """Re-zip the archive at *path* after *edit* changed its ``{name: bytes}``.

    Every member keeps its zip compression; a new one is DEFLATEd.
    """
    with zipfile.ZipFile(path) as archive:
        infos = archive.infolist()
        members = {info.filename: archive.read(info) for info in infos}
    compression = {info.filename: info.compress_type for info in infos}
    edit(members)
    with zipfile.ZipFile(path, "w") as archive:
        for name, body in members.items():
            archive.writestr(name, body, compression.get(name, zipfile.ZIP_DEFLATED))
