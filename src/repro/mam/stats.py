"""Index structure diagnostics.

Operations teams (and ablation benches) want to see *why* an index prunes
well or badly: node counts, fill factors, covering-radius distributions,
bucket sizes.  :func:`describe_index` produces a uniform summary for every
structure in the library without touching their internals from user code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import QueryError
from .base import AccessMethod
from .gnat import GNAT
from .mindex import MIndex
from .mtree import MTree
from .pivot_table import PivotTable
from .sat import SATree
from .sequential import DiskSequentialFile, SequentialFile
from .vptree import VPTree

__all__ = ["IndexDescription", "describe_index"]


@dataclass(frozen=True)
class IndexDescription:
    """Uniform structural summary of an access method instance.

    Attributes
    ----------
    structure:
        Class name of the index.
    size:
        Indexed objects.
    nodes:
        Internal+leaf node count (1 for flat structures).
    height:
        Levels from root to deepest leaf (1 for flat structures).
    extra:
        Structure-specific numbers (fill factor, radii quantiles, ...).
    """

    structure: str
    size: int
    nodes: int
    height: int
    extra: dict[str, float] = field(default_factory=dict)


def _describe_mtree(tree: MTree) -> IndexDescription:
    nodes = tree._preorder()
    fills = [len(node) for node in nodes]
    radii = np.concatenate([node.radius for node in nodes if not node.is_leaf] or [[]])
    extra = {
        "mean_fill": float(np.mean(fills)),
        "capacity": float(tree.capacity),
        "fill_factor": float(np.mean(fills)) / tree.capacity,
    }
    if radii.size:
        extra["median_covering_radius"] = float(np.median(radii))
        extra["max_covering_radius"] = float(np.max(radii))
    return IndexDescription(
        structure="MTree",
        size=tree.size,
        nodes=len(nodes),
        height=tree.height(),
        extra=extra,
    )


def _describe_vptree(tree: VPTree) -> IndexDescription:
    buckets: list[int] = []
    nodes = 0
    max_depth = 0

    def walk(node, depth: int) -> None:
        nonlocal nodes, max_depth
        nodes += 1
        max_depth = max(max_depth, depth)
        if node.bucket is not None:
            buckets.append(len(node.bucket))
            return
        walk(node.inside, depth + 1)
        walk(node.outside, depth + 1)

    walk(tree._root, 1)
    return IndexDescription(
        structure="VPTree",
        size=tree.size,
        nodes=nodes,
        height=max_depth,
        extra={
            "buckets": float(len(buckets)),
            "mean_bucket": float(np.mean(buckets)) if buckets else 0.0,
        },
    )


def _describe_gnat(tree: GNAT) -> IndexDescription:
    buckets: list[int] = []
    nodes = 0
    max_depth = 0

    def walk(node, depth: int) -> None:
        nonlocal nodes, max_depth
        nodes += 1
        max_depth = max(max_depth, depth)
        if node.bucket is not None:
            buckets.append(len(node.bucket))
            return
        for child in node.children:
            walk(child, depth + 1)

    walk(tree._root, 1)
    return IndexDescription(
        structure="GNAT",
        size=tree.size,
        nodes=nodes,
        height=max_depth,
        extra={
            "buckets": float(len(buckets)),
            "mean_bucket": float(np.mean(buckets)) if buckets else 0.0,
        },
    )


def _describe_sat(tree: SATree) -> IndexDescription:
    nodes = 0
    fanouts: list[int] = []

    def walk(node) -> None:
        nonlocal nodes
        nodes += 1
        if node.children:
            fanouts.append(len(node.children))
            for child in node.children:
                walk(child)

    walk(tree._root)
    return IndexDescription(
        structure="SATree",
        size=tree.size,
        nodes=nodes,
        height=tree.height(),
        extra={"mean_fanout": float(np.mean(fanouts)) if fanouts else 0.0},
    )


def _describe_pivot_table(table: PivotTable) -> IndexDescription:
    return IndexDescription(
        structure="PivotTable",
        size=table.size,
        nodes=1,
        height=1,
        extra={
            "pivots": float(table.n_pivots),
            "table_megabytes": table.table.nbytes / 1e6,
        },
    )


def _describe_mindex(index: MIndex) -> IndexDescription:
    sizes = index.cluster_sizes()
    return IndexDescription(
        structure="MIndex",
        size=index.size,
        nodes=1,
        height=1,
        extra={
            "clusters": float(index.n_pivots),
            "largest_cluster": float(max(sizes)),
            "empty_clusters": float(sum(1 for s in sizes if s == 0)),
        },
    )


def describe_index(index: AccessMethod) -> IndexDescription:
    """Structural summary of any library access method."""
    if isinstance(index, MTree):
        return _describe_mtree(index)
    if isinstance(index, VPTree):
        return _describe_vptree(index)
    if isinstance(index, GNAT):
        return _describe_gnat(index)
    if isinstance(index, SATree):
        return _describe_sat(index)
    if isinstance(index, PivotTable):
        return _describe_pivot_table(index)
    if isinstance(index, MIndex):
        return _describe_mindex(index)
    if isinstance(index, (SequentialFile, DiskSequentialFile)):
        return IndexDescription(
            structure=type(index).__name__, size=index.size, nodes=1, height=1
        )
    # SAMs and future structures: generic fallback using optional height().
    height = index.height() if hasattr(index, "height") else 1
    if not isinstance(index, AccessMethod):
        raise QueryError(f"not an access method: {type(index).__name__}")
    return IndexDescription(
        structure=type(index).__name__, size=index.size, nodes=-1, height=height
    )
