"""A classical R-tree.

This is the index substrate backing the spatial servers and the SemiJoin
comparator.  Trees are built by *Sort-Tile-Recursive* (STR) bulk loading,
from an entry list or straight from an ``(N, 4)`` MBR array; STR produces
well-packed trees, and the servers load every dataset wholesale.

The tree stores ``(mbr, oid)`` entries at the leaves.  Queries return
object ids; callers resolve ids against their dataset container.  The
SemiJoin algorithm additionally needs access to the MBRs of a whole tree
*level* (the paper ships "the MBRs of the second to last level"), exposed
via :meth:`RTree.level_mbrs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = ["RTree", "RTreeNode", "RTreeStats"]


class RTreeNode:
    """A node of the R-tree.

    Leaf nodes store ``entries`` as ``(Rect, oid)`` tuples; internal nodes
    store ``children`` (other nodes).  ``mbr`` is always the tight bound of
    the node's content.

    A leaf holds its content in one of two equivalent forms: the ``entries``
    list of ``(Rect, oid)`` tuples, or the ``(mbrs, oids)`` array pair in
    ``_leaf_cache``.  Array-bulk-loaded leaves start array-only and
    materialise the tuple list lazily on first ``entries`` access, so the
    hot construction path never builds per-object ``Rect`` instances.
    """

    __slots__ = ("is_leaf", "level", "mbr", "children", "_entries", "_leaf_cache")

    def __init__(
        self,
        is_leaf: bool,
        level: int = 0,
        mbr: Optional[Rect] = None,
        entries: Optional[List[Tuple[Rect, int]]] = None,
        children: Optional[List["RTreeNode"]] = None,
    ) -> None:
        self.is_leaf = is_leaf
        self.level = level
        self.mbr = mbr
        self.children: List["RTreeNode"] = children if children is not None else []
        self._entries: Optional[List[Tuple[Rect, int]]] = (
            entries if entries is not None else []
        )
        #: Lazily built ``(mbrs, oids)`` arrays of a leaf's entries, used by
        #: the vectorised query paths.  For array-bulk-loaded leaves this is
        #: the authoritative storage and ``_entries`` is None until first
        #: requested.
        self._leaf_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def leaf_from_arrays(cls, mbrs: np.ndarray, oids: np.ndarray) -> "RTreeNode":
        """A level-0 leaf backed directly by ``(N, 4)`` MBR / oid arrays."""
        node = cls(is_leaf=True, level=0)
        node._entries = None
        node._leaf_cache = (mbrs, oids)
        if mbrs.shape[0]:
            node.mbr = rect_array.bounding_rect(mbrs)
        return node

    @property
    def entries(self) -> List[Tuple[Rect, int]]:
        """Leaf entries as ``(Rect, oid)`` tuples (materialised on demand)."""
        if self._entries is None:
            mbrs, oids = self._leaf_cache  # type: ignore[misc]
            self._entries = [
                (Rect(float(m[0]), float(m[1]), float(m[2]), float(m[3])), int(o))
                for m, o in zip(mbrs, oids)
            ]
        return self._entries

    def num_entries(self) -> int:
        """Leaf entry count without materialising the tuple list."""
        if self._entries is not None:
            return len(self._entries)
        if self._leaf_cache is not None:
            return int(self._leaf_cache[1].shape[0])
        return 0

    def leaf_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The leaf's entries as parallel ``(N, 4)`` MBR / oid arrays."""
        if self._leaf_cache is None:
            if self._entries:
                mbrs = np.array(
                    [(r.xmin, r.ymin, r.xmax, r.ymax) for r, _ in self._entries],
                    dtype=np.float64,
                )
                oids = np.array([oid for _, oid in self._entries], dtype=np.int64)
            else:
                mbrs = np.empty((0, 4), dtype=np.float64)
                oids = np.empty(0, dtype=np.int64)
            self._leaf_cache = (mbrs, oids)
        return self._leaf_cache

    def recompute_mbr(self) -> None:
        """Recompute the node MBR from its content."""
        if self.is_leaf:
            if self._entries is None and self._leaf_cache is not None:
                mbrs, _ = self._leaf_cache
                self.mbr = (
                    rect_array.bounding_rect(mbrs) if mbrs.shape[0] else None
                )
                return
            rects = [r for r, _ in self.entries]
        else:
            rects = [c.mbr for c in self.children if c.mbr is not None]
        self.mbr = Rect.bounding(rects) if rects else None


@dataclass(frozen=True)
class RTreeStats:
    """Summary statistics of a tree (used by reports and tests)."""

    height: int
    node_count: int
    leaf_count: int
    object_count: int
    avg_leaf_fill: float
    avg_internal_fill: float


class RTree:
    """An R-tree over ``(Rect, oid)`` entries.

    Parameters
    ----------
    max_entries:
        Maximum node fanout ``M``: STR packs every node to at most ``M``.
    """

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.root = RTreeNode(is_leaf=True, level=0)
        self._size = 0
        #: Flattened snapshot for batch queries, built on first use.
        self._flat = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (a tree holding only a root leaf has height 1)."""
        return self.root.level + 1

    @classmethod
    def bulk_load(
        cls,
        entries: Sequence[Tuple[Rect, int]],
        max_entries: int = 16,
    ) -> "RTree":
        """Build a packed tree with the Sort-Tile-Recursive algorithm."""
        tree = cls(max_entries=max_entries)
        if not entries:
            return tree
        leaves: List[RTreeNode] = []
        for chunk in _str_tiles(list(entries), max_entries):
            node = RTreeNode(is_leaf=True, level=0, entries=list(chunk))
            node.recompute_mbr()
            leaves.append(node)
        tree._size = len(entries)
        tree.root = tree._pack_upwards(leaves)
        return tree

    @classmethod
    def from_mbr_array(
        cls,
        mbrs: np.ndarray,
        oids: Optional[Sequence[int]] = None,
        max_entries: int = 16,
    ) -> "RTree":
        """Bulk load from an ``(N, 4)`` MBR array (oids default to ``range(N)``).

        This is the array-native STR path: tiling is computed with stable
        argsorts over the centre coordinate arrays and the leaves are backed
        directly by row slices of the input, so no per-object ``Rect`` is
        ever created.  The resulting tree is structurally identical to
        ``bulk_load(list_of_entries)`` over the same rows in the same order
        (both use stable sorts over the same centre keys).
        """
        arr = np.ascontiguousarray(np.asarray(mbrs, dtype=np.float64))
        n = arr.shape[0]
        tree = cls(max_entries=max_entries)
        if n == 0:
            return tree
        if oids is None:
            oid_arr = np.arange(n, dtype=np.int64)
        else:
            oid_arr = np.asarray(oids, dtype=np.int64)
            if oid_arr.shape != (n,):
                raise ValueError("oids must be a 1D array parallel to mbrs")
        leaves = [
            RTreeNode.leaf_from_arrays(
                np.ascontiguousarray(arr[idx]), np.ascontiguousarray(oid_arr[idx])
            )
            for idx in _str_tile_indices(arr, max_entries)
        ]
        tree._size = n
        tree.root = tree._pack_upwards(leaves)
        return tree

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def window_query(self, window: Rect) -> List[int]:
        """Object ids whose MBR intersects the window."""
        out: List[int] = []
        self._window_query(self.root, window, out)
        return out

    def count_window(self, window: Rect) -> int:
        """Number of objects intersecting the window (no count augmentation here)."""
        return len(self.window_query(window))

    def range_query(self, center: Point, epsilon: float) -> List[int]:
        """Object ids whose MBR lies within ``epsilon`` of ``center``."""
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        out: List[int] = []
        self._range_query(self.root, center, epsilon, out)
        return out

    # ------------------------------------------------------------------ #
    # batch queries (flattened array traversal answers many queries at once)
    # ------------------------------------------------------------------ #

    def flat_view(self) -> "FlatRTree":
        """The flattened array snapshot of this tree (built lazily).

        The snapshot is cached (a loaded tree never changes); all batch
        queries execute against it.
        """
        if self._flat is None:
            from repro.index.flat import FlatRTree

            self._flat = FlatRTree(self)
        return self._flat

    def window_query_batch_flat(
        self, windows: Sequence[Rect]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched window queries in CSR form: ``(bounds, oids)``.

        Window ``i``'s oids are ``oids[bounds[i]:bounds[i+1]]``, the same
        oid set a scalar :meth:`window_query` would produce (the order
        within a window is a traversal detail).  Consumers read this form
        directly and skip a per-window materialisation.
        """
        wins = rect_array.rects_to_array(list(windows))
        return self.flat_view().window_batch_flat(wins)

    def count_window_batch(self, windows: Sequence[Rect]) -> List[int]:
        """Result sizes of many window queries (aggregate-style shortcut)."""
        wins = rect_array.rects_to_array(list(windows))
        return [int(c) for c in self.flat_view().count_batch(wins)]

    def range_query_batch_flat(
        self, centers: Sequence[Point], radii: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched range queries in CSR form: ``(bounds, oids)``.

        Probe ``i``'s oids are ``oids[bounds[i]:bounds[i+1]]``, the same
        oid set a scalar :meth:`range_query` would produce.
        """
        if len(centers) != len(radii):
            raise ValueError("radii must be parallel to centers")
        if any(r < 0 for r in radii):
            raise ValueError("epsilon must be non-negative")
        pts = np.array([(p.x, p.y) for p in centers], dtype=np.float64).reshape(-1, 2)
        rads = np.asarray(radii, dtype=np.float64)
        return self.flat_view().range_batch_flat(pts, rads)

    # ------------------------------------------------------------------ #
    # structure inspection (SemiJoin & diagnostics)
    # ------------------------------------------------------------------ #

    def level_mbrs(self, level: int) -> List[Rect]:
        """MBRs of all nodes at ``level`` (leaves are level 0).

        SemiJoin ships "one level of MBRs" from the indexed dataset; the
        paper uses the *second-to-last* level, i.e. ``level = 1`` for trees
        of height >= 2 and the root MBR for a height-1 tree.
        """
        if level < 0 or level > self.root.level:
            raise ValueError(f"level {level} out of range for height {self.height}")
        out: List[Rect] = []
        for node in self.iter_nodes():
            if node.level == level and node.mbr is not None:
                out.append(node.mbr)
        return out

    def second_to_last_level_mbrs(self) -> List[Rect]:
        """The MBR set SemiJoin transfers (leaf-parent level, or root for tiny trees)."""
        if self.root.level == 0:
            return [self.root.mbr] if self.root.mbr is not None else []
        return self.level_mbrs(1)

    def iter_nodes(self) -> Iterator[RTreeNode]:
        """Depth-first iteration over every node."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def iter_entries(self) -> Iterator[Tuple[Rect, int]]:
        """Iterate all ``(mbr, oid)`` leaf entries."""
        for node in self.iter_nodes():
            if node.is_leaf:
                yield from node.entries

    def stats(self) -> RTreeStats:
        """Aggregate structural statistics."""
        node_count = 0
        leaf_count = 0
        leaf_fill = 0
        internal_fill = 0
        for node in self.iter_nodes():
            node_count += 1
            if node.is_leaf:
                leaf_count += 1
                leaf_fill += node.num_entries()
            else:
                internal_fill += len(node.children)
        internal_count = node_count - leaf_count
        return RTreeStats(
            height=self.height,
            node_count=node_count,
            leaf_count=leaf_count,
            object_count=self._size,
            avg_leaf_fill=leaf_fill / leaf_count if leaf_count else 0.0,
            avg_internal_fill=internal_fill / internal_count if internal_count else 0.0,
        )

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError when violated.

        * every node MBR tightly bounds its content;
        * all leaves are at level 0 and levels decrease by one per step;
        * fanout bounds hold for every non-root node;
        * the number of leaf entries equals ``len(self)``.
        """
        total = self._validate_node(self.root, is_root=True)
        assert total == self._size, f"size mismatch: counted {total}, recorded {self._size}"

    # ------------------------------------------------------------------ #
    # internal: bulk loading
    # ------------------------------------------------------------------ #

    def _pack_upwards(self, nodes: List[RTreeNode]) -> RTreeNode:
        """Pack a list of same-level nodes into a tree, STR-style."""
        level = nodes[0].level
        while len(nodes) > 1:
            level += 1
            parents: List[RTreeNode] = []
            node_entries = [(n.mbr, n) for n in nodes if n.mbr is not None]
            for chunk in _str_tiles(node_entries, self.max_entries):
                parent = RTreeNode(
                    is_leaf=False, level=level, children=[n for _, n in chunk]
                )
                parent.recompute_mbr()
                parents.append(parent)
            nodes = parents
        return nodes[0]

    # ------------------------------------------------------------------ #
    # internal: queries
    # ------------------------------------------------------------------ #

    def _window_query(self, node: RTreeNode, window: Rect, out: List[int]) -> None:
        if node.mbr is None or not node.mbr.intersects(window):
            return
        if node.is_leaf:
            mbrs, oids = node.leaf_arrays()
            out.extend(oids[rect_array.intersects_window(mbrs, window)].tolist())
            return
        for child in node.children:
            self._window_query(child, window, out)

    def _range_query(
        self, node: RTreeNode, center: Point, epsilon: float, out: List[int]
    ) -> None:
        if node.mbr is None or node.mbr.min_distance_to_point(center) > epsilon:
            return
        if node.is_leaf:
            mbrs, oids = node.leaf_arrays()
            dists = rect_array.min_distance_to_point(mbrs, center.x, center.y)
            out.extend(oids[dists <= epsilon].tolist())
            return
        for child in node.children:
            self._range_query(child, center, epsilon, out)

    # ------------------------------------------------------------------ #
    # internal: validation
    # ------------------------------------------------------------------ #

    def _validate_node(self, node: RTreeNode, is_root: bool = False) -> int:
        if node.is_leaf:
            assert node.level == 0, "leaf nodes must be at level 0"
            if node.entries:
                expected = Rect.bounding([r for r, _ in node.entries])
                assert node.mbr == expected, "leaf MBR is not tight"
            if not is_root:
                assert len(node.entries) <= self.max_entries, "leaf overflow"
            return len(node.entries)
        assert node.children, "internal node without children"
        if not is_root:
            assert len(node.children) <= self.max_entries, "internal overflow"
        total = 0
        for child in node.children:
            assert child.level == node.level - 1, "level discontinuity"
            assert child.mbr is not None and node.mbr is not None
            assert node.mbr.contains_rect(child.mbr), "parent MBR does not cover child"
            total += self._validate_node(child)
        expected = Rect.bounding([c.mbr for c in node.children if c.mbr is not None])
        assert node.mbr == expected, "internal MBR is not tight"
        return total


# ---------------------------------------------------------------------- #
# bulk-load helpers
# ---------------------------------------------------------------------- #


def _str_tiles(
    entries: List[Tuple[Rect, object]], capacity: int
) -> Iterator[List[Tuple[Rect, object]]]:
    """Sort-Tile-Recursive grouping of entries into chunks of ``capacity``.

    Delegates the tiling to :func:`_str_tile_indices` over the entry MBRs,
    so the tiling math exists exactly once; stable argsort over the same
    centre keys reproduces what stable ``sorted()`` calls would yield.
    """
    if not entries:
        return
    keys = np.array(
        [(r.xmin, r.ymin, r.xmax, r.ymax) for r, _ in entries], dtype=np.float64
    )
    for idx in _str_tile_indices(keys, capacity):
        yield [entries[i] for i in idx]


def _str_tile_indices(mbrs: np.ndarray, capacity: int) -> Iterator[np.ndarray]:
    """Array-native Sort-Tile-Recursive grouping over an ``(N, 4)`` MBR array.

    Rows are sorted by centre x (stable), cut into vertical slices of
    ``ceil(sqrt(N / capacity))`` groups, each slice sorted by centre y
    (stable) and cut into runs of ``capacity``; yields one index array per
    leaf.  Equal-key ties break in input order, so entry-list and array
    construction build structurally identical trees.
    """
    n = mbrs.shape[0]
    if n == 0:
        return
    leaf_count = math.ceil(n / capacity)
    slice_count = max(1, math.ceil(math.sqrt(leaf_count)))
    slice_size = math.ceil(n / slice_count)
    cx = (mbrs[:, 0] + mbrs[:, 2]) / 2.0
    cy = (mbrs[:, 1] + mbrs[:, 3]) / 2.0
    order_x = np.argsort(cx, kind="stable")
    for s in range(0, n, slice_size):
        vertical = order_x[s : s + slice_size]
        vertical = vertical[np.argsort(cy[vertical], kind="stable")]
        for t in range(0, vertical.shape[0], capacity):
            yield vertical[t : t + capacity]
