"""Flattened, read-only array view of an R-tree for batch execution.

The node-per-object R-tree in :mod:`repro.index.rtree` is ideal for
incremental construction and single queries, but answering a *batch* of
queries through it pays the per-node Python overhead once per (node, query)
pair.  :class:`FlatRTree` converts a built tree into a structure-of-arrays
form once (preorder DFS, subtree entries contiguous) and then answers whole
query batches with frontier traversal: each step tests every active
(node, query) pair in one vectorised operation and expands the survivors
with ``np.repeat`` -- no per-node Python loop remains.

Because the DFS layout keeps each subtree's entries contiguous, a node
fully covered by a query window contributes its whole entry range without
being descended, which is exactly the aggregate-R-tree COUNT shortcut: the
subtree count is ``ent_end - ent_start``.

The view is read-only; the owning tree invalidates it on mutation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.geometry.rect_array import expand_index_ranges

__all__ = ["FlatRTree"]


class FlatRTree:
    """Structure-of-arrays snapshot of a built R-tree.

    Parameters
    ----------
    tree:
        A :class:`repro.index.rtree.RTree`.  The snapshot reflects the tree
        at construction time.
    """

    def __init__(self, tree) -> None:
        boxes: List[Tuple[float, float, float, float]] = []
        is_leaf: List[bool] = []
        ent_start: List[int] = []
        ent_end: List[int] = []
        child_start: List[int] = []
        child_end: List[int] = []
        child_ids: List[int] = []
        entry_chunks: List[np.ndarray] = []
        oid_chunks: List[np.ndarray] = []

        n_entries = 0
        # Iterative preorder DFS.  A node's id is assigned on first visit;
        # its subtree occupies a contiguous entry range [ent_start, ent_end).
        stack = [(tree.root, -1)]  # (node, parent id)
        pending_children: List[List[int]] = []
        order: List = []
        while stack:
            node, parent = stack.pop()
            nid = len(order)
            order.append(node)
            m = node.mbr
            boxes.append(
                (m.xmin, m.ymin, m.xmax, m.ymax) if m is not None else (0.0, 0.0, 0.0, 0.0)
            )
            is_leaf.append(node.is_leaf)
            ent_start.append(n_entries)
            ent_end.append(n_entries)  # fixed up after the subtree is done
            pending_children.append([])
            if parent >= 0:
                pending_children[parent].append(nid)
            if node.is_leaf:
                mbrs, oids = node.leaf_arrays()
                entry_chunks.append(mbrs)
                oid_chunks.append(oids)
                n_entries += int(oids.shape[0])
            else:
                # Reversed push keeps the children in tree order on pop.
                for child in reversed(node.children):
                    stack.append((child, nid))

        self.boxes = np.asarray(boxes, dtype=np.float64)
        self.is_leaf = np.asarray(is_leaf, dtype=bool)
        self.entry_mbrs = (
            np.vstack(entry_chunks) if n_entries else np.empty((0, 4), dtype=np.float64)
        )
        self.entry_oids = (
            np.concatenate(oid_chunks) if n_entries else np.empty(0, dtype=np.int64)
        )

        # Children ranges (into child_ids) and subtree entry ranges.  The
        # preorder guarantees a subtree is the id range [nid, next sibling),
        # so entry ranges can be fixed up from right to left.
        starts = np.asarray(ent_start, dtype=np.intp)
        ends = starts.copy()
        leaf_sizes = iter([c.shape[0] for c in oid_chunks])
        for nid in range(len(order)):
            if self.is_leaf[nid]:
                ends[nid] = starts[nid] + next(leaf_sizes)
        for nid in range(len(order) - 1, -1, -1):
            kids = pending_children[nid]
            if kids:
                ends[nid] = ends[kids[-1]]
        for nid in range(len(order)):
            child_start.append(len(child_ids))
            child_ids.extend(pending_children[nid])
            child_end.append(len(child_ids))
        self.ent_start = starts
        self.ent_end = ends
        self.child_start = np.asarray(child_start, dtype=np.intp)
        self.child_end = np.asarray(child_end, dtype=np.intp)
        self.child_ids = np.asarray(child_ids, dtype=np.intp)
        self.size = n_entries

    # ------------------------------------------------------------------ #
    # batch queries
    # ------------------------------------------------------------------ #

    def count_batch(self, wins: np.ndarray) -> np.ndarray:
        """COUNT for every window of a ``(W, 4)`` array, aggregate-style."""
        out = np.zeros(wins.shape[0], dtype=np.int64)
        if self.size == 0 or wins.shape[0] == 0:
            return out
        for qids, contained_node, part_nodes, part_qids in self._frontier(wins):
            np.add.at(
                out,
                qids,
                self.ent_end[contained_node] - self.ent_start[contained_node],
            )
            if part_nodes.shape[0]:
                row, ent = expand_index_ranges(
                    self.ent_start[part_nodes], self.ent_end[part_nodes]
                )
                hit = self._entries_in_windows(ent, wins, part_qids[row])
                np.add.at(out, part_qids[row[hit]], 1)
        return out

    def window_batch_flat(self, wins: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Qualifying oids for a window batch, in CSR (offset-array) form.

        Returns ``(bounds, oids)`` with ``len(bounds) == W + 1``: the oids
        of window ``i`` are ``oids[bounds[i]:bounds[i+1]]``.  Batch
        consumers that concatenate per-window results anyway (the frontier
        operator executors, the segmented join kernels) read this form
        directly and skip the per-window list materialisation.
        """
        W = wins.shape[0]
        if self.size == 0 or W == 0:
            return np.zeros(W + 1, dtype=np.intp), np.empty(0, dtype=np.int64)
        q_chunks: List[np.ndarray] = []
        e_chunks: List[np.ndarray] = []
        for qids, contained_node, part_nodes, part_qids in self._frontier(wins):
            if contained_node.shape[0]:
                row, ent = expand_index_ranges(
                    self.ent_start[contained_node], self.ent_end[contained_node]
                )
                q_chunks.append(qids[row])
                e_chunks.append(ent)
            if part_nodes.shape[0]:
                row, ent = expand_index_ranges(
                    self.ent_start[part_nodes], self.ent_end[part_nodes]
                )
                hit = self._entries_in_windows(ent, wins, part_qids[row])
                q_chunks.append(part_qids[row[hit]])
                e_chunks.append(ent[hit])
        return self._flatten_by_query(q_chunks, e_chunks, W)

    def range_batch_flat(
        self, pts: np.ndarray, radii: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Qualifying oids for a probe batch, in CSR (offset-array) form.

        Returns ``(bounds, oids)`` with ``len(bounds) == P + 1``: the oids
        of probe ``i`` are ``oids[bounds[i]:bounds[i+1]]``.  The NLSJ
        bucket-response assembly reads this form directly, so all probe
        payloads of a batch come from slices of one array instead of a
        per-probe materialisation loop.
        """
        P = pts.shape[0]
        if self.size == 0 or P == 0:
            return np.zeros(P + 1, dtype=np.intp), np.empty(0, dtype=np.int64)
        q_chunks: List[np.ndarray] = []
        e_chunks: List[np.ndarray] = []
        nodes = np.zeros(1, dtype=np.intp)
        qids = np.arange(P, dtype=np.intp)
        nodes, qids = np.meshgrid(nodes, qids, indexing="ij")
        nodes, qids = nodes.ravel(), qids.ravel()
        while nodes.shape[0]:
            keep = self._nodes_within(nodes, pts, radii, qids)
            nodes, qids = nodes[keep], qids[keep]
            if nodes.shape[0] == 0:
                break
            leaf = self.is_leaf[nodes]
            lf_nodes, lf_qids = nodes[leaf], qids[leaf]
            if lf_nodes.shape[0]:
                row, ent = expand_index_ranges(
                    self.ent_start[lf_nodes], self.ent_end[lf_nodes]
                )
                q = lf_qids[row]
                boxes = self.entry_mbrs[ent]
                dx = np.maximum(
                    np.maximum(boxes[:, 0] - pts[q, 0], 0.0), pts[q, 0] - boxes[:, 2]
                )
                dy = np.maximum(
                    np.maximum(boxes[:, 1] - pts[q, 1], 0.0), pts[q, 1] - boxes[:, 3]
                )
                hit = np.hypot(dx, dy) <= radii[q]
                q_chunks.append(q[hit])
                e_chunks.append(ent[hit])
            in_nodes, in_qids = nodes[~leaf], qids[~leaf]
            row, kid = expand_index_ranges(
                self.child_start[in_nodes], self.child_end[in_nodes]
            )
            nodes = self.child_ids[kid]
            qids = in_qids[row]
        return self._flatten_by_query(q_chunks, e_chunks, P)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _frontier(self, wins: np.ndarray):
        """Level-synchronous traversal for window-shaped queries.

        Yields, per step, the (query ids, contained node ids) pairs whose
        subtree is fully covered, and the (leaf node ids, query ids) pairs
        needing per-entry tests.  Partially covered internal nodes are
        expanded into the next step's frontier.
        """
        nodes = np.zeros(1, dtype=np.intp)
        qids = np.arange(wins.shape[0], dtype=np.intp)
        nodes, qids = np.meshgrid(nodes, qids, indexing="ij")
        nodes, qids = nodes.ravel(), qids.ravel()
        while nodes.shape[0]:
            nb = self.boxes[nodes]
            wb = wins[qids]
            inter = ~(
                (nb[:, 2] < wb[:, 0])
                | (wb[:, 2] < nb[:, 0])
                | (nb[:, 3] < wb[:, 1])
                | (wb[:, 3] < nb[:, 1])
            )
            nodes, qids, nb, wb = nodes[inter], qids[inter], nb[inter], wb[inter]
            if nodes.shape[0] == 0:
                return
            contained = (
                (wb[:, 0] <= nb[:, 0])
                & (wb[:, 1] <= nb[:, 1])
                & (nb[:, 2] <= wb[:, 2])
                & (nb[:, 3] <= wb[:, 3])
            )
            partial_nodes, partial_qids = nodes[~contained], qids[~contained]
            leaf = self.is_leaf[partial_nodes]
            yield (
                qids[contained],
                nodes[contained],
                partial_nodes[leaf],
                partial_qids[leaf],
            )
            in_nodes = partial_nodes[~leaf]
            in_qids = partial_qids[~leaf]
            row, kid = expand_index_ranges(
                self.child_start[in_nodes], self.child_end[in_nodes]
            )
            nodes = self.child_ids[kid]
            qids = in_qids[row]

    def _entries_in_windows(
        self, ent: np.ndarray, wins: np.ndarray, qids: np.ndarray
    ) -> np.ndarray:
        eb = self.entry_mbrs[ent]
        wb = wins[qids]
        return ~(
            (eb[:, 2] < wb[:, 0])
            | (wb[:, 2] < eb[:, 0])
            | (eb[:, 3] < wb[:, 1])
            | (wb[:, 3] < eb[:, 1])
        )

    def _nodes_within(
        self, nodes: np.ndarray, pts: np.ndarray, radii: np.ndarray, qids: np.ndarray
    ) -> np.ndarray:
        nb = self.boxes[nodes]
        dx = np.maximum(np.maximum(nb[:, 0] - pts[qids, 0], 0.0), pts[qids, 0] - nb[:, 2])
        dy = np.maximum(np.maximum(nb[:, 1] - pts[qids, 1], 0.0), pts[qids, 1] - nb[:, 3])
        return np.hypot(dx, dy) <= radii[qids]

    def _flatten_by_query(
        self, q_chunks: List[np.ndarray], e_chunks: List[np.ndarray], n_queries: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Turn (query id, entry index) chunk pairs into CSR offsets + oids."""
        if not q_chunks:
            return np.zeros(n_queries + 1, dtype=np.intp), np.empty(0, dtype=np.int64)
        q = np.concatenate(q_chunks)
        e = np.concatenate(e_chunks)
        order = np.argsort(q, kind="stable")
        q_sorted = q[order]
        oids_sorted = self.entry_oids[e[order]]
        bounds = np.searchsorted(q_sorted, np.arange(n_queries + 1))
        return bounds, oids_sorted

