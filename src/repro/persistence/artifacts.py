"""Persistence of the library's flat numeric artifacts.

A production deployment of the QMap model stores, between sessions:

* the QFD matrix and its Cholesky factor (tiny — n x n, computed once
  "at the time of designing the similarity", paper Section 4),
* the transformed database (the expensive O(m n^2) pass),
* benchmark workloads (database, queries, matrix, repair provenance).

All artifacts are ``.npz`` archives with a ``kind`` marker and explicit
named arrays — no pickling of code objects.  Index structures are handled
by the snapshot layer (:mod:`repro.persistence.snapshots`).
"""

from __future__ import annotations

import os

import numpy as np

from .._typing import ArrayLike
from ..core.qmap import QMap
from ..core.validation import PDRepair
from ..datasets.workloads import Workload
from ..exceptions import StorageError
from ._paths import normalize_npz_path
from .format import check_kind

__all__ = [
    "load_qmap",
    "load_transformed_database",
    "load_workload",
    "save_qmap",
    "save_transformed_database",
    "save_workload",
]


def save_qmap(qmap: QMap, path: "str | os.PathLike[str]") -> None:
    """Persist a QMap: the QFD matrix A and its Cholesky factor B."""
    np.savez_compressed(
        normalize_npz_path(path),
        kind="qmap",
        matrix=qmap.qfd.matrix,
        cholesky=qmap.matrix,
    )


def load_qmap(path: "str | os.PathLike[str]") -> QMap:
    """Load a QMap saved by :func:`save_qmap`.

    The matrix is re-validated and re-factored (O(n^3), negligible); the
    stored factor is cross-checked against the fresh one so silent file
    corruption cannot produce a distance-distorting transform.
    """
    with np.load(normalize_npz_path(path)) as archive:
        check_kind(archive, "qmap", path)
        matrix = archive["matrix"]
        stored_factor = archive["cholesky"]
    qmap = QMap(matrix)
    if not np.allclose(qmap.matrix, stored_factor, rtol=1e-9, atol=1e-12):
        raise StorageError(f"{path!s}: stored Cholesky factor does not match matrix")
    return qmap


def save_workload(workload: Workload, path: "str | os.PathLike[str]") -> None:
    """Persist a benchmark workload (database, queries, matrix, repair)."""
    np.savez_compressed(
        normalize_npz_path(path),
        kind="workload",
        database=workload.database,
        queries=workload.queries,
        matrix=workload.matrix,
        shift=np.float64(workload.matrix_repair.shift),
        min_eigenvalue=np.float64(workload.matrix_repair.min_eigenvalue),
        name=np.str_(workload.name),
    )


def load_workload(path: "str | os.PathLike[str]") -> Workload:
    """Load a workload saved by :func:`save_workload`."""
    with np.load(normalize_npz_path(path)) as archive:
        check_kind(archive, "workload", path)
        matrix = archive["matrix"]
        repair = PDRepair(
            matrix=matrix,
            shift=float(archive["shift"]),
            min_eigenvalue=float(archive["min_eigenvalue"]),
        )
        return Workload(
            database=archive["database"],
            queries=archive["queries"],
            matrix=matrix,
            matrix_repair=repair,
            name=str(archive["name"]),
        )


def save_transformed_database(
    qmap: QMap, database: ArrayLike, path: "str | os.PathLike[str]"
) -> None:
    """Transform *database* and persist both spaces' representations.

    Stores the original rows, the mapped rows, and the matrix — everything
    needed to rebuild any MAM/SAM in O(n)-per-distance work, or to verify
    the mapping on load.
    """
    data = np.asarray(database, dtype=np.float64)
    mapped = qmap.transform_batch(data)
    np.savez_compressed(
        normalize_npz_path(path),
        kind="transformed-database",
        matrix=qmap.qfd.matrix,
        database=data,
        mapped=mapped,
    )


def load_transformed_database(
    path: "str | os.PathLike[str]", *, verify_rows: int = 8
) -> tuple[QMap, np.ndarray, np.ndarray]:
    """Load ``(qmap, database, mapped)`` from :func:`save_transformed_database`.

    A sample of *verify_rows* rows is re-transformed and compared against
    the stored mapping to catch corrupted or mismatched files.
    """
    with np.load(normalize_npz_path(path)) as archive:
        check_kind(archive, "transformed-database", path)
        matrix = archive["matrix"]
        database = archive["database"]
        mapped = archive["mapped"]
    qmap = QMap(matrix)
    if database.shape != mapped.shape:
        raise StorageError(f"{path!s}: database/mapped shape mismatch")
    sample = np.linspace(0, database.shape[0] - 1, min(verify_rows, database.shape[0]))
    for i in sample.astype(int):
        if not np.allclose(qmap.transform(database[i]), mapped[i], rtol=1e-9, atol=1e-9):
            raise StorageError(f"{path!s}: stored mapping disagrees with the matrix")
    return qmap, database, mapped
