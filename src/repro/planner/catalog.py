"""Index discovery: a catalog of built snapshots, probed without vectors.

:class:`IndexCatalog` scans a directory of ``.npz`` index snapshots
through :func:`~repro.persistence.probe_snapshot` — zip headers and
scalar markers only, never the archived rows — and turns each into a
:class:`CatalogEntry`: the physical facts the planner ranks a probe
by (method, model, bound mode, shape, record dtype, pivot count), plus
build costs and the workload recipe.

Unreadable or foreign archives are never silently skipped: every failure
is recorded as a warning on the catalog, so ``repro index ls`` (and any
planning run) can surface exactly which files were passed over and why.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..exceptions import StorageError
from ..persistence import SnapshotProbe, probe_snapshot

__all__ = ["CatalogEntry", "IndexCatalog"]

#: Recipe keys ``repro index save`` records; surfaced when all present.
_RECIPE_KEYS = (
    "workload_size",
    "workload_bins",
    "workload_queries",
    "workload_seed",
)


@dataclass(frozen=True)
class CatalogEntry:
    """One discovered snapshot: everything the planner needs, no rows.

    Attributes
    ----------
    path:
        The archive on disk (feed to ``load_built_index`` to restore).
    method, model:
        Access-method registry name and ``"qfd"`` / ``"qmap"``.
    bound:
        Pivot-table lower-bound mode (``None`` for other methods).
    size, dim:
        Database shape ``(m, n)`` read from the npy header.
    dtype:
        Record dtype of the archived rows; float32 marks an out-of-core
        (mmap) build, float64 the classic heap path.
    format_version, method_version:
        Snapshot format and per-method codec versions.
    n_pivots:
        Pivot count from the state layout (pivot-based methods only).
    build_distance_computations, build_transforms, build_seconds:
        Build costs recorded by :meth:`BuiltIndex.save`.
    workload:
        The recorded synthetic-workload recipe, when the snapshot was
        written by ``repro index save`` (``None`` otherwise).
    """

    path: str
    method: str
    model: str
    bound: "str | None"
    size: int
    dim: int
    dtype: str
    format_version: int
    method_version: int
    n_pivots: "int | None"
    build_distance_computations: int
    build_transforms: int
    build_seconds: float
    workload: "dict[str, int] | None" = None

    @property
    def store(self) -> str:
        """``"mmap"`` for float32 out-of-core archives, else ``"heap"``."""
        return "mmap" if np.dtype(self.dtype) == np.float32 else "heap"

    @property
    def label(self) -> str:
        """Compact ``method[+bound],model`` tag used in plan names."""
        suffix = f"+{self.bound}" if self.bound not in (None, "triangle") else ""
        return f"{self.method}{suffix},{self.model}"

    @classmethod
    def from_probe(cls, probe: SnapshotProbe) -> "CatalogEntry":
        """Build an entry from a snapshot probe.

        Raises :class:`StorageError` when the snapshot was not written
        through a model pipeline (no model marker / QFD matrix) — such
        archives cannot be restored by ``load_built_index`` and therefore
        cannot back an :class:`~repro.planner.plans.IndexProbe` plan.
        """
        model = probe.meta.get("model")
        if model is None or "matrix" not in probe.meta_shapes:
            raise StorageError(
                f"{probe.path}: no model marker/QFD matrix in snapshot "
                "metadata; it was not written by BuiltIndex.save"
            )
        bound: str | None = None
        if "bound" in probe.state_scalars:
            bound = str(probe.state_scalars["bound"])
        n_pivots: int | None = None
        pivot_shape = probe.state_shapes.get("pivot_indices")
        if pivot_shape is not None and len(pivot_shape) == 1:
            n_pivots = int(pivot_shape[0])
        workload: dict[str, int] | None = None
        if all(key in probe.meta for key in _RECIPE_KEYS):
            workload = {
                key[len("workload_") :]: int(probe.meta[key])  # type: ignore[arg-type]
                for key in _RECIPE_KEYS
            }
        return cls(
            path=probe.path,
            method=probe.method,
            model=str(model),
            bound=bound,
            size=probe.size,
            dim=probe.dim,
            dtype=probe.dtype,
            format_version=probe.format_version,
            method_version=probe.method_version,
            n_pivots=n_pivots,
            build_distance_computations=int(
                probe.meta.get("build_distance_computations", 0)  # type: ignore[arg-type]
            ),
            build_transforms=int(probe.meta.get("build_transforms", 0)),  # type: ignore[arg-type]
            build_seconds=float(probe.meta.get("build_seconds", 0.0)),  # type: ignore[arg-type]
            workload=workload,
        )


@dataclass(frozen=True)
class IndexCatalog:
    """The discovered snapshots of one directory, plus scan warnings."""

    entries: "tuple[CatalogEntry, ...]" = ()
    warnings: "tuple[str, ...]" = ()
    directory: "str | None" = None

    @classmethod
    def scan(cls, directory: "str | os.PathLike[str]") -> "IndexCatalog":
        """Probe every ``*.npz`` under *directory* (sorted, not recursive).

        Files that fail to probe — truncated archives, foreign ``.npz``
        artifacts, unsupported versions, snapshots without a model marker
        — become warnings instead of entries; nothing is silently
        skipped.  A missing directory raises :class:`StorageError`.
        """
        root = Path(directory)
        if not root.is_dir():
            raise StorageError(f"index directory {root} does not exist")
        entries: list[CatalogEntry] = []
        warnings: list[str] = []
        for path in sorted(root.glob("*.npz")):
            try:
                entries.append(CatalogEntry.from_probe(probe_snapshot(path)))
            except StorageError as exc:
                # Probe errors usually embed the path already; don't
                # stutter it in the warning line.
                message = str(exc)
                if str(path) not in message:
                    message = f"{path}: {message}"
                warnings.append(message)
        return cls(
            entries=tuple(entries),
            warnings=tuple(warnings),
            directory=str(root),
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def compatible(
        self, dim: int, *, model: "str | None" = None
    ) -> "list[CatalogEntry]":
        """Entries usable for a *dim*-dimensional workload (optional model)."""
        return [
            entry
            for entry in self.entries
            if entry.dim == dim and (model is None or entry.model == model)
        ]
