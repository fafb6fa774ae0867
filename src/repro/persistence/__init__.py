"""Persistence: flat artifacts plus pickle-free index snapshots.

Two layers:

* :mod:`~repro.persistence.artifacts` — the original flat ``.npz``
  artifact store (QMap matrices, workloads, transformed databases).
* :mod:`~repro.persistence.snapshots` — versioned structural snapshots
  of *every* registered MAM and SAM through a per-method codec registry:
  ``save_index``/``load_index`` round-trip any built index bit-identically
  with zero distance computations on load.
"""

from ._paths import NPZ_SUFFIX, normalize_npz_path
from .artifacts import (
    load_qmap,
    load_transformed_database,
    load_workload,
    save_qmap,
    save_transformed_database,
    save_workload,
)
from .codecs import (
    CODEC_REGISTRY,
    IndexCodec,
    codec_for,
    codec_for_class,
    register_codec,
    registered_methods,
)
from .format import (
    FORMAT_VERSION,
    SNAPSHOT_KIND,
    IndexSnapshot,
    SnapshotProbe,
    probe_snapshot,
    read_snapshot,
    write_snapshot,
)
from .snapshots import load_index, save_index

__all__ = [
    # flat artifact API
    "save_qmap",
    "load_qmap",
    "save_workload",
    "load_workload",
    "save_transformed_database",
    "load_transformed_database",
    # snapshot API
    "save_index",
    "load_index",
    "IndexSnapshot",
    "SnapshotProbe",
    "probe_snapshot",
    "read_snapshot",
    "write_snapshot",
    "SNAPSHOT_KIND",
    "FORMAT_VERSION",
    # codec registry
    "IndexCodec",
    "CODEC_REGISTRY",
    "register_codec",
    "registered_methods",
    "codec_for",
    "codec_for_class",
    # paths
    "NPZ_SUFFIX",
    "normalize_npz_path",
]
