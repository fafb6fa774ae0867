"""The four pinned workloads: sizes, inputs, and how each index is built.

Names and shapes are fixed (later issues cite them); only the number of
calls per round was cut from the issue's sizing so that a run fits the
driver's time budget -- never ``m`` or the dimensionality, which decide
which layer dominates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

K = 10
BATCH = 64
#: The corpus every run samples from.  The paper's protocol: one fixed
#: image collection, database and held-out queries drawn from it.
CORPUS_SEED = 2011


@dataclass(frozen=True)
class Spec:
    """One workload: what is indexed, how, and which public call is timed."""

    name: str
    bins: int  # bins per RGB channel; dimensionality is bins**3
    m: int  # database rows indexed at set-up
    model: str  # "qfd" or "qmap"
    method: str
    kwargs: dict = field(default_factory=dict)
    op: str = "single"  # "single" query, "batch" of BATCH queries, or "churn"
    round_ops: int = 1  # public calls per round (churn: steps per slice)
    max_ops: int = 0  # churn only: size of the insert pool
    trace_ops: int = 1  # public calls in each traced pass
    side_queries: int = 1  # queries used by the engine/obs/planner side probes

    @property
    def dim(self) -> int:
        return self.bins**3

    @property
    def n_queries(self) -> int:
        if self.op == "batch":
            return max(self.round_ops, self.trace_ops) * BATCH
        return self.max_ops if self.op == "churn" else self.round_ops


FULL = (
    Spec(
        name="scan512",
        bins=8, m=4000, model="qfd", method="sequential",
        round_ops=20, trace_ops=12, side_queries=6,
    ),
    Spec(
        name="tree64",
        bins=4, m=20000, model="qmap", method="mtree", kwargs={"capacity": 16},
        round_ops=1000, trace_ops=400, side_queries=200,
    ),
    Spec(
        name="batch512",
        bins=8, m=8000, model="qmap", method="pivot-table",
        kwargs={"n_pivots": 32}, op="batch",
        round_ops=12, trace_ops=6, side_queries=64,
    ),
    Spec(
        name="churn64",
        bins=4, m=20000, model="qmap", method="paged-mtree",
        kwargs={"capacity": 16, "cache_pages": 128}, op="churn",
        round_ops=300, max_ops=4000, trace_ops=300, side_queries=96,
    ),
)

SMOKE = (
    Spec(name="scan512", bins=8, m=300, model="qfd",
         method="sequential", round_ops=6, trace_ops=4, side_queries=4),
    Spec(name="tree64", bins=4, m=1200, model="qmap", method="mtree",
         kwargs={"capacity": 16}, round_ops=60, trace_ops=30, side_queries=16),
    Spec(name="batch512", bins=8, m=400, model="qmap",
         method="pivot-table", kwargs={"n_pivots": 8}, op="batch",
         round_ops=2, trace_ops=6, side_queries=8),
    Spec(name="churn64", bins=4, m=1200, model="qmap",
         method="paged-mtree", kwargs={"capacity": 16, "cache_pages": 8},
         op="churn", round_ops=40, max_ops=240, trace_ops=30, side_queries=16),
)


def get_spec(name: str, smoke: bool = False) -> Spec:
    for spec in SMOKE if smoke else FULL:
        if spec.name == name:
            return spec
    raise SystemExit(f"unknown workload {name!r}; choose from {[s.name for s in FULL]}")


@dataclass(frozen=True)
class Inputs:
    """The arrays the program receives -- nothing else crosses the boundary."""

    database: np.ndarray  # (m, n) rows indexed at set-up
    inserts: np.ndarray  # (max_ops, n) rows inserted during churn (else empty)
    queries: np.ndarray  # (n_queries, n)
    matrix: np.ndarray  # (n, n) static QFD matrix
    sha256: str


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """The paper's RGB-histogram testbed with the Hafner Lab-prototype matrix.

    The corpus is ``histogram_workload(seed=CORPUS_SEED)``; *seed* picks which
    of its rows are indexed (and in which order), which are inserted later
    and which are the held-out queries.  Drawing every run's rows from one
    collection keeps the data's difficulty the same across seeds -- with a
    fresh collection per seed, evaluations per query on the M-tree workloads
    moved by up to 18 % (quartile spread) with the random cluster layout,
    and every timing metric moved with them.
    """
    from repro.datasets import histogram_workload

    need = spec.m + spec.max_ops + spec.n_queries
    corpus = histogram_workload(
        need + need // 4, 1, bins_per_channel=spec.bins, seed=CORPUS_SEED
    )
    pick = np.random.default_rng(seed).permutation(corpus.size)[:need]
    rows = corpus.database[pick]
    database = np.ascontiguousarray(rows[: spec.m])
    inserts = np.ascontiguousarray(rows[spec.m : spec.m + spec.max_ops])
    queries = np.ascontiguousarray(rows[spec.m + spec.max_ops :])
    digest = hashlib.sha256()
    digest.update(repr((spec.name, spec.m, spec.dim, spec.method, spec.model, K)).encode())
    for arr in (database, inserts, queries, corpus.matrix):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return Inputs(database, inserts, queries, np.asarray(corpus.matrix), digest.hexdigest())


def make_model(spec: Spec, matrix: np.ndarray):
    from repro.models import QFDModel, QMapModel

    return QFDModel(matrix) if spec.model == "qfd" else QMapModel(matrix)


def method_kwargs(spec: Spec, page_path: "str | None") -> dict:
    kwargs = dict(spec.kwargs)
    if spec.method == "paged-mtree":
        kwargs["path"] = page_path  # node pages live in a real file
    return kwargs


def build(spec: Spec, inputs: Inputs, page_path: "str | None" = None):
    """Raw ``(database, matrix)`` to a queryable ``BuiltIndex`` -- what set-up times."""
    model = make_model(spec, inputs.matrix)
    return model.build_index(spec.method, inputs.database, **method_kwargs(spec, page_path))
