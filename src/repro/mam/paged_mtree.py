"""Disk-resident M-tree over the paged storage substrate.

"The M-tree is a dynamic index structure that provides a good performance
in the secondary memory (i.e., in database environments)" — paper
Section 4.3.  This module puts the library's M-tree there: every node is
serialized into one fixed-size page of a :class:`~repro.storage.PagedFile`
behind an LRU cache, so queries pay *page faults* in addition to distance
computations, exactly the two-component cost model of the paper's
experiments (and of the Section 5.3 cache discussion).

Node page layout (little-endian)::

    u8   is_leaf
    u32  n_entries
    per entry:
        i64  child_page (-1 for leaf entries)
        i64  object_index (the routing object's, for routing entries)
        f64  radius
        f64  dist_to_parent
        f64  vector[dim]

Construction serializes a built in-memory :class:`~repro.mam.mtree.MTree`
(children before parents, so page ids resolve); queries then run purely
against pages — the in-memory tree is not retained.
"""

from __future__ import annotations

import itertools
import struct
from typing import Callable

import numpy as np

from .._typing import ArrayLike
from ..exceptions import PageError, StorageError
from ..storage.cache import LRUPageCache
from ..storage.pages import PagedFile
from .base import AccessMethod, DistancePort, state_array, state_int
from .mtree import (
    MTree,
    MTreeSearchMixin,
    _Node,
    choose_subtree,
    min_max_radius_pair,
    partition,
)

__all__ = ["PagedMTree"]

_HEADER = struct.Struct("<BI")


def _entry_dtype(dim: int) -> np.dtype:
    """The packed little-endian record of one node entry (see module doc)."""
    return np.dtype(
        [
            ("child", "<i8"),
            ("index", "<i8"),
            ("radius", "<f8"),
            ("dist_to_parent", "<f8"),
            ("vector", "<f8", (dim,)),
        ]
    )


class PagedMTree(MTreeSearchMixin, AccessMethod):
    """M-tree whose nodes live in fixed-size pages behind an LRU cache.

    Parameters
    ----------
    database:
        ``(m, n)`` rows to index.
    distance:
        Black-box metric (port or plain callable).
    capacity:
        Maximum entries per node; together with the dimensionality this
        determines the page size.
    cache_pages:
        LRU node-cache capacity (the paper's "fixed-size disk cache").
    path:
        Optional real file for the pages (in-memory by default).
    rng, split_policy, bulk_load:
        Forwarded to the in-memory build.
    """

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        capacity: int = 16,
        cache_pages: int = 32,
        path: str | None = None,
        split_policy: str = "mM_RAD",
        bulk_load: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(database, distance)
        tree = MTree(
            self._data,
            self._port,
            capacity=capacity,
            split_policy=split_policy,
            bulk_load=bulk_load,
            rng=rng,
        )
        self._capacity = capacity
        self._entry = _entry_dtype(self.dim)
        self._file = PagedFile(self._page_size(), path=path)
        self._cache = LRUPageCache(self._file, cache_pages)
        self._root_page = self._persist(tree._root)

    @property
    def cache(self) -> LRUPageCache:
        """The node cache (hit/fault statistics)."""
        return self._cache

    @property
    def capacity(self) -> int:
        """Maximum entries per node."""
        return self._capacity

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------

    def _page_size(self) -> int:
        """Bytes per page: a header plus one overflowing node's entries."""
        return max(_HEADER.size + (self._capacity + 1) * self._entry.itemsize, 64)

    def _persist(self, node: _Node) -> int:
        """Write in-RAM *node* (children first) and return its page id."""
        children = [self._persist(child) for child in node.children]
        page_id = self._cache.allocate()
        self._write_node(
            page_id,
            _Node(
                node.is_leaf,
                node.index,
                node.radius,
                node.dist_to_parent,
                children,
                self._data[node.index],
            ),
        )
        return page_id

    def _open_block(self, refs: list) -> tuple:
        """The block read hook and the one page decoder: the entry bytes of
        the pages behind *refs* (the root's for ``None``) joined under one
        ``frombuffer`` — read-only field views, nothing copied per node."""
        raw, headers = [], []
        for ref in refs:
            page_id = self._root_page if ref is None else ref
            payload = self._cache.read_page(page_id)
            is_leaf, n = _HEADER.unpack_from(payload, 0)
            if n > self._capacity + 1:
                raise PageError(f"page {page_id} claims {n} entries: corrupt node page")
            raw.append(payload[_HEADER.size : _HEADER.size + n * self._entry.itemsize])
            headers.append((bool(is_leaf), n))
        entries = np.frombuffer(b"".join(raw), self._entry)
        child, nodes, lo = entries["child"].tolist(), [], 0
        for is_leaf, n in headers:
            nodes.append((is_leaf, [] if is_leaf else child[lo : lo + n], n))
            lo += n
        fields = (entries[name] for name in ("index", "vector", "dist_to_parent", "radius"))
        return (*fields, nodes)

    def _load(self, page_id: int) -> _Node:
        """One page as a node the write path may edit: field copies —
        aligned, writable, and independent of the page."""
        index, rows, dist_to_parent, radius, nodes = self._open_block([page_id])
        is_leaf, children, _ = nodes[0]
        return _Node(
            is_leaf, index.astype(np.intp), radius.copy(), dist_to_parent.copy(), children,
            rows.copy(),
        )

    def _write_node(self, page_id: int, node: _Node) -> None:
        """Serialize *node* (page ids as children, own rows) into its page."""
        n_entries = len(node)
        if n_entries > self._capacity + 1:
            raise PageError(
                f"node with {n_entries} entries exceeds the page layout "
                f"capacity {self._capacity + 1}"
            )
        entries = np.empty(n_entries, self._entry)
        entries["child"] = -1 if node.is_leaf else node.children
        entries["index"] = node.index
        entries["radius"] = node.radius
        entries["dist_to_parent"] = node.dist_to_parent
        entries["vector"] = node.rows
        self._cache.write_page(
            page_id, _HEADER.pack(node.is_leaf, n_entries) + entries.tobytes()
        )

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def structural_state(self) -> dict[str, np.ndarray]:
        # The page image *is* the structure: dump every page verbatim.
        # Reads bypass the LRU cache so saving does not disturb the
        # hit/fault statistics the benchmarks report.
        n_pages = self._file.n_pages
        pages = np.empty((n_pages, self._file.page_size), dtype=np.uint8)
        for page_id in range(n_pages):
            pages[page_id] = np.frombuffer(
                self._file.read_page(page_id), dtype=np.uint8
            )
        return {
            "pages": pages,
            "root_page": np.int64(self._root_page),
            "capacity": np.int64(self._capacity),
            "cache_pages": np.int64(self._cache.capacity),
        }

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        pages = state_array(state, "pages", dtype=np.uint8)
        root_page = state_int(state, "root_page")
        capacity = state_int(state, "capacity")
        cache_pages = state_int(state, "cache_pages")
        super()._restore_state(state)
        if pages.ndim != 2 or pages.shape[0] < 1:
            raise StorageError("paged M-tree snapshot: pages must be a 2-d array")
        self._capacity = capacity
        self._entry = _entry_dtype(self.dim)
        expected = self._page_size()
        if pages.shape[1] != expected:
            raise StorageError(
                f"paged M-tree snapshot: page size {pages.shape[1]} does not "
                f"match capacity {capacity} and dimension {self.dim} "
                f"(expected {expected})"
            )
        if not 0 <= root_page < pages.shape[0]:
            raise StorageError(
                f"paged M-tree snapshot: root page {root_page} out of range "
                f"[0, {pages.shape[0]})"
            )
        self._file = PagedFile(expected)
        for row in pages:
            page_id = self._file.allocate()
            self._file.write_page(page_id, row.tobytes())
        self._file.stats.reset()
        self._cache = LRUPageCache(self._file, cache_pages)
        self._root_page = root_page

    def _verify_state_probe(self) -> None:
        # Same check as MTree: a child entry's stored parent distance must
        # be reproducible from the supplied metric.
        root = self._load(self._root_page)
        if root.is_leaf or not len(root):
            return
        child = self._load(root.children[0])
        if not len(child):
            return
        probe = self._port.pair_uncounted(child.rows[0], root.rows[0])
        if not np.isclose(probe, child.dist_to_parent[0], rtol=1e-6, atol=1e-9):
            raise StorageError(
                "supplied distance disagrees with the stored parent distances "
                "(wrong metric or wrong matrix?)"
            )

    # ------------------------------------------------------------------
    # dynamic inserts (page-level, with mM_RAD splits)
    # ------------------------------------------------------------------

    def _register_insert(self, index: int, vector: np.ndarray) -> None:
        """Descend, append to the leaf page, split overflowing pages upward."""
        path: list[tuple[int, int]] = []  # (page_id, chosen entry position)
        page_id = self._root_page
        descent_dist = 0.0
        node = self._load(page_id)
        while not node.is_leaf:
            dists = self._port.many(vector, node.rows)
            pos = choose_subtree(dists, node.radius)
            descent_dist = float(dists[pos])
            if descent_dist > node.radius[pos]:
                node.radius[pos] = descent_dist
                self._write_node(page_id, node)
            path.append((page_id, pos))
            page_id = node.children[pos]
            node = self._load(page_id)
        node.append(index, 0.0, descent_dist, row=vector)
        if len(node) <= self._capacity:
            self._write_node(page_id, node)
        else:
            self._split_page(page_id, node, path)

    def _split_page(self, page_id: int, node: _Node, path: list[tuple[int, int]]) -> None:
        """mM_RAD split of an overflowing page, propagating upward."""
        pairwise = self._port.pairwise(node.rows)
        pairs = list(itertools.combinations(range(len(node)), 2))
        first, second = min_max_radius_pair(pairs, node.radius, pairwise)
        node1, node2, radius1, radius2 = partition(node, pairwise, first, second)
        page2 = self._cache.allocate()
        self._write_node(page_id, node1)
        self._write_node(page2, node2)
        if path:
            parent_page, pos = path[-1]
            parent = self._load(parent_page)
            parent.remove(pos)
        else:
            parent_page = self._cache.allocate()  # a new root, two entries
            parent = _Node.empty(is_leaf=False, dim=self.dim)
        grandparent = None
        if len(path) >= 2:
            grand_page, grand_pos = path[-2]
            grandparent = self._load(grand_page).rows[grand_pos]
        # Routing entries keep the promoted object's database index so the
        # kernel layer can look up its cached row norm.
        for promoted, radius, child in ((first, radius1, page_id), (second, radius2, page2)):
            row = node.rows[promoted]
            to_parent = (
                0.0 if grandparent is None else self._port.pair(row, grandparent)
            )
            parent.append(int(node.index[promoted]), radius, to_parent, child, row)
        if len(parent) <= self._capacity:
            self._write_node(parent_page, parent)
            if not path:
                self._root_page = parent_page
        else:
            self._split_page(parent_page, parent, path[:-1])

    # ------------------------------------------------------------------
    # queries (range and kNN: MTreeSearchMixin, over pages)
    # ------------------------------------------------------------------

    def _node_label(self, ref: int | None, is_leaf: bool) -> str:
        return "page" if ref is None else f"page:{ref}"

    def node_pages(self) -> int:
        """Number of node pages on disk."""
        return self._file.n_pages

    def close(self) -> None:
        """Release the backing paged file."""
        self._file.close()

    def __enter__(self) -> "PagedMTree":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
