"""Shared recipe for the M-tree *write path* parity matrix.

``mtree_parity.json`` builds with capacity 6 — seven entries per split, 21
candidate pairs, under the in-RAM tree's promotion-pair cap — so the
sampled-promotion branch every capacity-16 split takes was pinned by
nothing.  This recipe pins what a build and a run of dynamic inserts leave
behind, for both trees, both models and both sides of that cap:

* trees ``mtree`` / ``paged-mtree`` (plus the in-RAM tree under the
  ``random`` split policy) x models QFD / QMap x capacity 6 / 16;
* after the build: the sha256 of ``structural_state()`` (the topology
  arrays, or the page image) and the build's ``[scalar calls, batched
  rows]`` split;
* after ``N_INSERTS`` dynamic inserts: the state hash again and the
  counter's split for the inserts alone.

``tests/fixtures/mtree_build_parity.json`` was generated from the commit
*before* the two write paths became one (``MTree._insert/_split`` and
``PagedMTree._register_insert/_split_page``); :mod:`tests.test_mtree_build_parity`
replays the recipe and asserts exact equality.

Regenerate (only from a tree whose build is the intended baseline)::

    PYTHONPATH=src python -m tests.mtree_build_parity_recipe
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.datasets import histogram_workload
from repro.models import QFDModel, QMapModel
from repro.obs import MetricsRegistry, use_registry

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "mtree_build_parity.json"

TREES: dict[str, tuple[str, dict]] = {
    "mtree": ("mtree", {}),
    "paged-mtree": ("paged-mtree", {"cache_pages": 8}),
    "mtree-random": ("mtree", {"split_policy": "random"}),
}
MODELS = {"qfd": QFDModel, "qmap": QMapModel}
CAPACITIES = (6, 16)

M = 2000         # objects the build indexes
N_INSERTS = 200  # dynamic inserts on top of it
BINS = 4         # 64-d histograms, the ledger's tree workloads


def build_workload():
    """The fixed workload: *M* rows to build on, *N_INSERTS* more to insert."""
    return histogram_workload(M, N_INSERTS, bins_per_channel=BINS, seed=2011)


def state_sha256(tree) -> str:
    """One digest over every ``structural_state()`` entry, keys in order."""
    digest = hashlib.sha256()
    for key, value in sorted(tree.structural_state().items()):
        array = np.ascontiguousarray(value)
        digest.update(f"{key}|{array.dtype.str}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _build_split(registry: MetricsRegistry) -> list[int]:
    """``[scalar calls, batched rows]`` the registry saw for the build."""
    seen = {
        sample.labels["kind"]: int(sample.value)
        for sample in registry.snapshot()
        if sample.name == "repro_distance_evaluations_total"
        and sample.labels.get("phase") == "build"
    }
    return [seen.get("scalar", 0), seen.get("batched", 0)]


def observe_cell(model, tree: str, capacity: int, workload) -> dict:
    """Build one tree, insert into it, and record what both left behind."""
    method, kwargs = TREES[tree]
    registry = MetricsRegistry()
    with use_registry(registry):
        built = model.build_index(method, workload.database, capacity=capacity, **kwargs)
    cell = {
        "built": state_sha256(built.access_method),
        "build_evaluations": built.build_costs.distance_computations,
        "build_split": _build_split(registry),
    }
    for row in workload.queries:
        built.insert(row)
    stats = built._counter.stats
    cell["inserted"] = state_sha256(built.access_method)
    cell["insert_split"] = [stats.calls, stats.batch_rows]
    close = getattr(built.access_method, "close", None)
    if close is not None:
        close()
    return cell


def compute_parity() -> dict:
    """Every cell of the matrix."""
    workload = build_workload()
    out: dict = {"m": M, "inserts": N_INSERTS, "cells": {}}
    for model_name, model_cls in MODELS.items():
        model = model_cls(workload.matrix)
        for tree in TREES:
            for capacity in CAPACITIES:
                out["cells"][f"{model_name}/{tree}/cap{capacity}"] = observe_cell(
                    model, tree, capacity, workload
                )
    return out


def main() -> None:
    parity = compute_parity()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(parity, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
