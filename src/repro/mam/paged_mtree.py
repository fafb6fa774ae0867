"""Disk-resident M-tree over the paged storage substrate.

"The M-tree is a dynamic index structure that provides a good performance
in the secondary memory (i.e., in database environments)" — paper
Section 4.3.  Here every node is one fixed-size page of a
:class:`~repro.storage.PagedFile` behind an LRU cache, so queries pay
*page faults* in addition to distance computations — the two-component
cost model of the paper's experiments (and of the Section 5.3 cache
discussion).  Search, insert and split are
:class:`~repro.mam.mtree.MTreeSearchMixin`'s; this module is the node
store they run over.  Node page layout (little-endian)::

    u8   is_leaf
    u32  n_entries
    per entry:
        i64  child_page (-1 for leaf entries)
        i64  object_index (the routing object's, for routing entries)
        f64  radius
        f64  dist_to_parent
        f64  vector[dim]
"""

from __future__ import annotations

import struct
from typing import Callable

import numpy as np

from .._typing import ArrayLike
from ..exceptions import PageError, StorageError
from ..storage.cache import LRUPageCache
from ..storage.pages import PagedFile
from .base import AccessMethod, DistancePort, state_array, state_int, state_str
from .mtree import SPLIT_POLICIES, MTree, MTreeSearchMixin, _Node

__all__ = ["PagedMTree"]

_HEADER = struct.Struct("<BI")
_DEFAULT_POLICY = SPLIT_POLICIES[0]


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
    database, distance:
        ``(m, n)`` rows to index, and the black-box metric.
    capacity:
        Maximum entries per node; with the dimensionality it fixes the
        page size (a header plus one overflowing node's entries).
    cache_pages:
        LRU node-cache capacity (the paper's "fixed-size disk cache").
    path:
        Optional real file for the pages (in-memory by default).
    split_policy, rng:
        Promotion policy of every split, and the randomness it draws on.
    bulk_load:
        Forwarded to the in-memory build, whose nodes are then serialized
        children first (so page ids resolve) and not retained.
    """

    def __init__(
        self,
        database: ArrayLike,
        distance: DistancePort | Callable,
        *,
        capacity: int = 16,
        cache_pages: int = 32,
        path: str | None = None,
        split_policy: str = _DEFAULT_POLICY,
        bulk_load: bool = False,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(database, distance)
        tree = MTree(
            self._data, self._port, capacity=capacity, split_policy=split_policy,
            bulk_load=bulk_load, rng=rng,
        )
        self._set_params(capacity, split_policy)
        self._rng = tree._rng
        self._open_pages(cache_pages, path)
        self._root_page = self._persist(tree._root)

    def _open_pages(self, cache_pages: int, path: str | None = None) -> None:
        """An empty page file behind its cache: a page holds a header plus
        one overflowing node's entries."""
        self._entry = _entry_dtype(self.dim)
        page_size = max(_HEADER.size + (self._capacity + 1) * self._entry.itemsize, 64)
        self._file = PagedFile(page_size, path=path)
        self._cache = LRUPageCache(self._file, cache_pages)

    @property
    def cache(self) -> LRUPageCache:
        """The node cache (hit/fault statistics)."""
        return self._cache

    # ------------------------------------------------------------------
    # the node store: references are page ids, ``None`` the root's
    # ------------------------------------------------------------------

    def _persist(self, node: _Node) -> int:
        """Write in-RAM *node* (children first) and return its page id."""
        children = [self._persist(child) for child in node.children]
        return self._write_node(
            self._alloc(),
            _Node(node.is_leaf, node.index, node.radius, node.dist_to_parent, children,
                  self._data[node.index]),
        )

    def _open_block(self, refs: list) -> tuple:
        """The block read hook and the one page decoder: the entry bytes of
        the pages behind *refs* joined under one ``frombuffer`` — read-only
        field views, nothing copied per node."""
        page_ids = [self._root_page if ref is None else ref for ref in refs]
        raw, headers = [], []
        for page_id, payload in zip(page_ids, self._cache.read_pages(page_ids)):
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

    def _load(self, ref: int | None) -> _Node:
        """One page as a node the write path may edit: field copies —
        aligned, writable, and independent of the page."""
        index, rows, dist_to_parent, radius, nodes = self._open_block([ref])
        is_leaf, children, _ = nodes[0]
        return _Node(
            is_leaf, index.astype(np.intp), radius.copy(), dist_to_parent.copy(), children,
            rows.copy(),
        )

    def _write_node(self, ref: int | None, node: _Node) -> int:
        """Serialize *node* (page ids as children, own rows) into its page."""
        page_id = self._root_page if ref is None else ref
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
        self._cache.write_page(page_id, _HEADER.pack(node.is_leaf, n_entries) + entries.tobytes())
        return page_id

    def _alloc(self) -> int:
        return self._cache.allocate()

    def _set_root(self, ref: int) -> None:
        self._root_page = ref

    def _node_label(self, ref: int | None, is_leaf: bool) -> str:
        return "page" if ref is None else f"page:{ref}"

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def structural_state(self) -> dict[str, np.ndarray]:
        # The page image *is* the structure: every page verbatim, read past
        # the LRU cache so saving does not disturb the hit/fault statistics
        # the benchmarks report.
        state = {
            "pages": self._file.image(),
            "root_page": np.int64(self._root_page),
            "capacity": np.int64(self._capacity),
            "cache_pages": np.int64(self._cache.capacity),
        }
        if self._split_policy != _DEFAULT_POLICY:  # default snapshots carry no key
            state["split_policy"] = np.str_(self._split_policy)
        return state

    def _restore_state(self, state: dict[str, np.ndarray]) -> None:
        pages = state_array(state, "pages", dtype=np.uint8)
        root_page = state_int(state, "root_page")
        capacity = state_int(state, "capacity")
        cache_pages = state_int(state, "cache_pages")
        policy = state_str(state, "split_policy") if "split_policy" in state else _DEFAULT_POLICY
        super()._restore_state(state)
        self._set_params(capacity, policy, error=StorageError)
        self._open_pages(cache_pages)
        # Refuses pages that are not this capacity's and dimension's size.
        self._file.load_image(pages)
        if not 0 <= root_page < self._file.n_pages:
            raise StorageError(
                f"paged M-tree snapshot: root page {root_page} out of range "
                f"[0, {self._file.n_pages})"
            )
        self._rng = np.random.default_rng(0)
        self._root_page = root_page

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
