"""Spatial index substrates.

The servers in the paper answer WINDOW / COUNT / epsilon-RANGE queries
"fast" because they maintain internal indexes (R-trees, and aggregate
R-trees such as the aR-tree for COUNT).  The mobile client never sees
these structures, but we still build them -- both so that the server
substrate is faithful and because the SemiJoin comparator (Section 5.3 of
the paper) explicitly requires R-tree-indexed datasets whose intermediate
node MBRs can be shipped between servers.

Contents
--------

* :class:`~repro.index.rtree.RTree` -- a classical R-tree built by STR
  bulk loading.
* :class:`~repro.index.aggregate_rtree.AggregateRTree` -- an aR-tree-style
  index whose internal nodes carry object counts, giving COUNT queries
  that touch only partially-covered subtrees.
* In-memory join kernels: :func:`~repro.index.plane_sweep.plane_sweep_join`
  and :func:`~repro.index.hash_join.grid_hash_join`.
"""

from __future__ import annotations

from repro.index.rtree import RTree, RTreeNode, RTreeStats
from repro.index.aggregate_rtree import AggregateRTree
from repro.index.plane_sweep import plane_sweep_join, plane_sweep_pairs
from repro.index.hash_join import grid_hash_join

__all__ = [
    "RTree",
    "RTreeNode",
    "RTreeStats",
    "AggregateRTree",
    "plane_sweep_join",
    "plane_sweep_pairs",
    "grid_hash_join",
]
