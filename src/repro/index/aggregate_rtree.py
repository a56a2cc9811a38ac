"""Aggregate R-tree (aR-tree style) for fast COUNT window queries.

The paper notes that "COUNT queries can be answered fast by data structures
such as the aR-tree or the aHRB-tree".  The server substrate therefore
backs its COUNT primitive with this index: every internal node stores the
number of objects in its subtree, so a COUNT query adds whole-subtree
counts for nodes fully contained in the window and only descends into
partially-covered subtrees.

The structure is built on top of an STR-bulk-loaded :class:`RTree` and is
read-only afterwards (servers in the paper are static data publishers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.rtree import RTree, RTreeNode

__all__ = ["AggregateRTree"]


@dataclass
class _AggInfo:
    """Per-node aggregate payload."""

    count: int
    total_mbr_area: float


class AggregateRTree:
    """A read-only count/area-augmented R-tree.

    Parameters
    ----------
    entries:
        ``(mbr, oid)`` pairs to index.
    max_entries:
        Node fanout of the underlying R-tree.

    Notes
    -----
    Besides the object count, each node also aggregates the *total MBR
    area* of the objects below it.  The paper's cost model needs the
    average object-MBR area of a window when joining polygon datasets
    ("we can post an additional aggregate query together with the COUNT
    query"); the server substrate answers that aggregate from this field.
    """

    def __init__(
        self, entries: Sequence[Tuple[Rect, int]], max_entries: int = 16
    ) -> None:
        self._tree = RTree.bulk_load(list(entries), max_entries=max_entries)
        self._agg: Dict[int, _AggInfo] = {}
        self._build_aggregates(self._tree.root)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_mbr_array(
        cls,
        mbrs: np.ndarray,
        oids: Optional[Sequence[int]] = None,
        max_entries: int = 16,
    ) -> "AggregateRTree":
        """Build from an ``(N, 4)`` MBR array via the array-native STR path.

        Structurally identical to ``AggregateRTree(entries)`` over the same
        rows, but never materialises per-object :class:`Rect` instances --
        this is the construction path the servers use.
        """
        return cls._from_tree(
            RTree.from_mbr_array(mbrs, oids, max_entries=max_entries)
        )

    @classmethod
    def _from_tree(cls, tree: RTree) -> "AggregateRTree":
        self = cls.__new__(cls)
        self._tree = tree
        self._agg = {}
        self._build_aggregates(tree.root)
        return self

    def _build_aggregates(self, node: RTreeNode) -> _AggInfo:
        if node.is_leaf:
            # Vectorised leaf aggregates: one areas() kernel per leaf instead
            # of a per-entry generator re-reading four Rect attributes per
            # object.  The sequential sum over the list keeps float rounding
            # identical to the scalar path.
            mbrs, _ = node.leaf_arrays()
            info = _AggInfo(
                count=int(mbrs.shape[0]),
                total_mbr_area=float(sum(rect_array.areas(mbrs).tolist())),
            )
        else:
            count = 0
            area = 0.0
            for child in node.children:
                child_info = self._build_aggregates(child)
                count += child_info.count
                area += child_info.total_mbr_area
            info = _AggInfo(count=count, total_mbr_area=area)
        self._agg[id(node)] = info
        return info

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def rtree(self) -> RTree:
        """The underlying R-tree (object retrieval, SemiJoin level access)."""
        return self._tree

    def bounds(self) -> Optional[Rect]:
        """The MBR of every indexed object (``None`` for an empty index).

        The sharded data plane routes scatter requests by intersecting
        them with each shard's bounds; reading the root MBR here keeps
        that routing consistent with what the index will actually answer.
        """
        return self._tree.root.mbr

    def count(self, window: Rect) -> int:
        """Number of indexed objects intersecting the window."""
        return self._count(self._tree.root, window)

    def count_batch(self, windows: Sequence[Rect]) -> List[int]:
        """Answer many COUNT queries in one vectorised frontier traversal.

        Whole subtrees contained in a window contribute their aggregate
        count without being descended, exactly as in :meth:`count`; all
        (node, window) pairs of a traversal step are tested in one
        vectorised operation against the flattened tree snapshot.
        """
        return self._tree.count_window_batch(windows)

    def window_query(self, window: Rect) -> List[int]:
        """Object ids intersecting the window (delegates to the R-tree)."""
        return self._tree.window_query(window)

    def window_query_batch_flat(
        self, windows: Sequence[Rect]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched window queries in CSR ``(bounds, oids)`` form."""
        return self._tree.window_query_batch_flat(windows)

    def range_query(self, center: Point, epsilon: float) -> List[int]:
        """Object ids within ``epsilon`` of ``center`` (delegates to the R-tree)."""
        return self._tree.range_query(center, epsilon)

    def range_query_batch_flat(
        self, centers: Sequence[Point], radii: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched range queries in CSR ``(bounds, oids)`` form."""
        return self._tree.range_query_batch_flat(centers, radii)

    def total_mbr_area(self, window: Rect) -> float:
        """Total object-MBR area of objects intersecting the window.

        Exact for fully contained subtrees; partially covered subtrees are
        resolved by descending, so the result is exact (this is an index
        acceleration, not an estimate).
        """
        return self._area(self._tree.root, window)

    def average_mbr_area(self, window: Rect) -> float:
        """Average object-MBR area over the window (0.0 for an empty window)."""
        c = self.count(window)
        if c == 0:
            return 0.0
        return self.total_mbr_area(window) / c

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _count(self, node: RTreeNode, window: Rect) -> int:
        if node.mbr is None or not node.mbr.intersects(window):
            return 0
        if window.contains_rect(node.mbr):
            return self._agg[id(node)].count
        if node.is_leaf:
            mbrs, _ = node.leaf_arrays()
            return int(np.count_nonzero(rect_array.intersects_window(mbrs, window)))
        return sum(self._count(child, window) for child in node.children)

    def _area(self, node: RTreeNode, window: Rect) -> float:
        if node.mbr is None or not node.mbr.intersects(window):
            return 0.0
        if window.contains_rect(node.mbr):
            return self._agg[id(node)].total_mbr_area
        if node.is_leaf:
            mbrs, _ = node.leaf_arrays()
            mask = rect_array.intersects_window(mbrs, window)
            # Sequential sum keeps float rounding identical to the scalar path.
            return float(sum(rect_array.areas(mbrs[mask]).tolist()))
        return sum(self._area(child, window) for child in node.children)
