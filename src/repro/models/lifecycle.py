"""Model-agnostic index restore: rebuild the pipeline from the snapshot.

:meth:`~repro.models.base.BuiltIndex.save` stores the model marker and
the QFD matrix alongside the index structure, so a snapshot is
self-contained — this module reconstructs the right model (QFD or QMap)
from the stored matrix and restores the index into it, without the
caller having to remember which pipeline produced the file.
"""

from __future__ import annotations

import os

import numpy as np

from ..exceptions import StorageError
from .base import BuiltIndex
from .qfd_model import QFDModel
from .qmap_model import QMapModel

__all__ = ["load_built_index", "load_catalog"]


def load_built_index(
    source: object,
    *,
    verify: bool = True,
    store: str = "heap",
    store_path: "str | None" = None,
) -> BuiltIndex:
    """Restore a :meth:`BuiltIndex.save` snapshot, model included.

    *source* is a snapshot path or an already-read
    :class:`~repro.persistence.IndexSnapshot` — callers that inspected
    the archive first (``repro index query``, the planner's probe
    materializer) pass the parsed snapshot through, so a restore stays a
    single file open.  Reads the stored model marker and QFD matrix,
    builds the matching :class:`QFDModel` or :class:`QMapModel`, and
    delegates to its ``load_index`` — zero distance evaluations, like
    every snapshot restore.  ``store``/``store_path`` forward to the
    model: ``store="mmap"`` re-wires the structure over a memory-mapped
    spill of the archived rows.
    """
    from ..persistence import IndexSnapshot, read_snapshot

    snapshot = source if isinstance(source, IndexSnapshot) else read_snapshot(source)
    label = snapshot.path or "snapshot"
    model = str(snapshot.meta.get("model", "<missing>"))
    matrix = snapshot.meta.get("matrix")
    if matrix is None:
        raise StorageError(
            f"{label} carries no QFD matrix; it was not written by "
            "BuiltIndex.save"
        )
    matrix = np.asarray(matrix, dtype=np.float64)
    restore_kwargs = dict(store=store, store_path=store_path)
    if model == QFDModel.name:
        return QFDModel(matrix).load_index(snapshot, verify=verify, **restore_kwargs)
    if model == QMapModel.name:
        return QMapModel(matrix).load_index(snapshot, verify=verify, **restore_kwargs)
    raise StorageError(
        f"{label} was saved by unknown model {model!r}; "
        f"expected {QFDModel.name!r} or {QMapModel.name!r}"
    )


def load_catalog(directory: "str | os.PathLike[str]"):
    """Discover built index snapshots under *directory*.

    Thin lifecycle entry point over
    :meth:`repro.planner.IndexCatalog.scan`: probes every ``*.npz``
    through its zip/npy headers (never loading vectors) and returns the
    catalog, with unreadable files surfaced as warnings.  The planner
    import is deferred so ``repro.models`` stays loadable without the
    planner package's dependency chain.
    """
    from ..planner import IndexCatalog

    return IndexCatalog.scan(directory)
