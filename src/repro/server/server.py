"""The spatial server proper.

A :class:`SpatialServer` owns one :class:`~repro.datasets.dataset.SpatialDataset`
and answers the primitive queries from an aggregate R-tree (COUNT and the
area aggregate) and from its underlying R-tree (WINDOW, RANGE).  The server
also keeps simple query statistics, which the experiments report to show
how many aggregate vs. data queries each algorithm issued.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.dataset import SpatialDataset
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.aggregate_rtree import AggregateRTree
from repro.server.interface import SpatialServerInterface

__all__ = ["SpatialServer", "ServerQueryStats"]

#: Monotonic registration ids: every server *build* (not view) gets a fresh
#: uid, so ``breaker_token`` stays unique across the process lifetime even
#: when Python recycles ``id()`` values of garbage-collected servers.
_SERVER_UIDS = itertools.count(1)


@dataclass
class ServerQueryStats:
    """Counters of queries answered by a server."""

    window_queries: int = 0
    count_queries: int = 0
    range_queries: int = 0
    bucket_range_queries: int = 0
    bucket_range_probes: int = 0
    aggregate_queries: int = 0
    objects_returned: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "window_queries": self.window_queries,
            "count_queries": self.count_queries,
            "range_queries": self.range_queries,
            "bucket_range_queries": self.bucket_range_queries,
            "bucket_range_probes": self.bucket_range_probes,
            "aggregate_queries": self.aggregate_queries,
            "objects_returned": self.objects_returned,
        }

    def reset(self) -> None:
        self.window_queries = 0
        self.count_queries = 0
        self.range_queries = 0
        self.bucket_range_queries = 0
        self.bucket_range_probes = 0
        self.aggregate_queries = 0
        self.objects_returned = 0


class SpatialServer(SpatialServerInterface):
    """An index-backed, non-cooperative spatial data server.

    Parameters
    ----------
    dataset:
        The published dataset.
    name:
        Server name used in traces (conventionally ``"R"`` or ``"S"``).
    index_fanout:
        Fanout of the internal aggregate R-tree.
    """

    def __init__(
        self,
        dataset: SpatialDataset,
        name: str = "server",
        index_fanout: int = 16,
        index: Optional[AggregateRTree] = None,
    ) -> None:
        self.dataset = dataset
        self.name = name
        self.server_uid = next(_SERVER_UIDS)
        self.stats = ServerQueryStats()
        # Array-native bulk load straight off the dataset's MBR array; no
        # per-object Rect materialisation.  ``index`` lets callers inject a
        # pre-built (or legacy-built) aggregate tree.
        self._index = (
            index
            if index is not None
            else AggregateRTree.from_mbr_array(
                dataset.mbrs, dataset.oids, max_entries=index_fanout
            )
        )
        # Sorted oid -> row lookup for assembling result payloads without a
        # per-object dict probe.
        oids = np.asarray(dataset.oids, dtype=np.int64)
        self._row_order = np.argsort(oids, kind="stable")
        self._oids_sorted = oids[self._row_order]

    def __len__(self) -> int:
        return len(self.dataset)

    def shared_view(self) -> "SpatialServer":
        """A server sharing this one's immutable state, with fresh statistics.

        The dataset, the aggregate R-tree (and its flattened snapshots) and
        the oid lookup tables are shared by reference -- all read-only
        during queries -- while the query-statistics counters are private
        to the view.  The query broker hands every in-flight query its own
        view of a cached server build, so concurrent queries meter their
        server statistics in full isolation without re-running the index
        construction.
        """
        view = SpatialServer.__new__(SpatialServer)
        view.dataset = self.dataset
        view.name = self.name
        # Views share the build's identity: a breaker opened against the
        # build must shed traffic from every view of it.
        view.server_uid = self.server_uid
        view.stats = ServerQueryStats()
        view._index = self._index
        view._row_order = self._row_order
        view._oids_sorted = self._oids_sorted
        return view

    def replica_view(self, name: str) -> "SpatialServer":
        """A *replica* of this server: shared build, independent identity.

        Like :meth:`shared_view`, the dataset, index and oid lookup tables
        are shared by reference -- replicas publish one immutable shard
        dataset build.  Unlike a view, a replica gets its own ``name``, a
        *fresh* ``server_uid`` (and therefore its own ``breaker_token``)
        and private statistics: replicas fail, breaker-trip and meter
        independently even though they serve identical answers.
        """
        replica = SpatialServer.__new__(SpatialServer)
        replica.dataset = self.dataset
        replica.name = name
        replica.server_uid = next(_SERVER_UIDS)
        replica.stats = ServerQueryStats()
        replica._index = self._index
        replica._row_order = self._row_order
        replica._oids_sorted = self._oids_sorted
        return replica

    @property
    def breaker_token(self) -> Tuple[str, int]:
        """Stable identity for circuit-breaker bookkeeping.

        ``(name, server_uid)`` survives garbage collection: a *new* server
        that happens to reuse a dead server's ``id()`` (or its name) gets a
        fresh uid and therefore a closed breaker.
        """
        return (self.name, self.server_uid)

    def breaker_units(self) -> Tuple["SpatialServer", ...]:
        """The independently-breakable servers behind this one (itself)."""
        return (self,)

    def breaker_groups(self) -> Tuple[Tuple["SpatialServer", ...], ...]:
        """Breaker units grouped by failover domain.

        A plain server is its own (only) replica: one group of one unit.
        Replicated fleets override this so the broker can distinguish "one
        replica cooling" (route around it) from "every replica of a shard
        cooling" (shed the query).
        """
        return ((self,),)

    def evaluate_count_batch(self, windows: Sequence[Rect]) -> List[int]:
        """Answer COUNTs without touching query statistics.

        The broker evaluates each coalesced batch once on the shared build
        and attributes per-query statistics separately via the prefetch
        path; this entry point keeps that evaluation free of stat side
        effects.
        """
        return self._index.count_batch(windows)

    @property
    def index(self) -> AggregateRTree:
        """The internal index.

        This is *server private* state: the mobile-join algorithms never
        touch it.  Only the SemiJoin comparator (via
        :class:`~repro.server.remote.IndexedRemoteServer`) and the tests
        read it.
        """
        return self._index

    # ------------------------------------------------------------------ #
    # primitive queries
    # ------------------------------------------------------------------ #

    def window(self, window: Rect) -> Tuple[np.ndarray, np.ndarray]:
        self.stats.window_queries += 1
        oids = self._index.window_query(window)
        return self._materialise(oids)

    def window_batch_flat(
        self, windows: Sequence[Rect]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Answer a batch of WINDOW queries, response assembled in one pass.

        Returns ``(mbrs, oids, bounds)`` in CSR form: the concatenated
        payloads of all windows in window order, window ``i`` owning rows
        ``bounds[i]:bounds[i+1]`` (``len(bounds) == W + 1``).  All payload
        rows are materialised with *one* sorted-oid lookup over the
        concatenated result instead of one per window; statistics are
        identical to a loop of :meth:`window` calls.
        """
        windows = list(windows)
        self.stats.window_queries += len(windows)
        bounds, oid_arr = self._index.window_query_batch_flat(windows)
        mbrs, oid_arr = self._materialise(oid_arr)
        return mbrs, oid_arr, bounds

    def count(self, window: Rect) -> int:
        self.stats.count_queries += 1
        return self._index.count(window)

    def count_batch(self, windows: Sequence[Rect]) -> List[int]:
        """Answer a batch of COUNT queries in one aggregate-tree descent."""
        self.stats.count_queries += len(windows)
        return self._index.count_batch(windows)

    def range(self, center: Point, epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.stats.range_queries += 1
        oids = self._index.range_query(center, epsilon)
        return self._materialise(oids)

    def range_batch_flat(
        self, centers: Sequence[Point], radii: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Answer a batch of RANGE queries, response assembled in one pass.

        Returns ``(mbrs, oids, bounds)`` in CSR form: the concatenated
        payloads of all probes in probe order, probe ``i`` owning rows
        ``bounds[i]:bounds[i+1]`` (``len(bounds) == P + 1``).  All payload
        rows are materialised with *one* sorted-oid lookup over the
        concatenated result instead of one per probe; statistics are
        identical to a loop of :meth:`range` calls.
        """
        per_probe = [float(r) for r in radii]
        if any(r < 0 for r in per_probe):
            raise ValueError("epsilon must be non-negative")
        self.stats.range_queries += len(centers)
        bounds, oid_arr = self._index.range_query_batch_flat(list(centers), per_probe)
        mbrs, oid_arr = self._materialise(oid_arr)
        return mbrs, oid_arr, bounds

    def bucket_range(
        self,
        centers: Sequence[Point],
        epsilon: float,
        radii: Optional[Sequence[float]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not centers:
            raise ValueError("bucket_range needs at least one probe point")
        if radii is not None and len(radii) != len(centers):
            raise ValueError("radii must be parallel to centers")
        self.stats.bucket_range_queries += 1
        self.stats.bucket_range_probes += len(centers)
        per_probe = [epsilon] * len(centers) if radii is None else [float(r) for r in radii]
        bounds, oid_arr = self._index.range_query_batch_flat(list(centers), per_probe)
        counts = np.diff(bounds).astype(np.int64)
        mbrs, oid_arr = self._materialise(oid_arr, count_stats=False)
        probes = np.repeat(np.arange(len(centers), dtype=np.int64), counts)
        self.stats.objects_returned += int(oid_arr.shape[0])
        return mbrs, oid_arr, probes

    def average_mbr_area(self, window: Rect) -> float:
        self.stats.aggregate_queries += 1
        return self._index.average_mbr_area(window)

    # ------------------------------------------------------------------ #

    def _materialise(
        self, oids: Sequence[int], count_stats: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        oid_arr = np.asarray(oids, dtype=np.int64)
        if oid_arr.shape[0]:
            pos = np.searchsorted(self._oids_sorted, oid_arr)
            if np.any(pos >= self._oids_sorted.shape[0]) or np.any(
                self._oids_sorted[np.minimum(pos, self._oids_sorted.shape[0] - 1)]
                != oid_arr
            ):
                raise KeyError("unknown oid in materialisation request")
            mbrs = self.dataset.mbrs[self._row_order[pos]]
        else:
            mbrs = np.empty((0, 4))
        if count_stats:
            self.stats.objects_returned += int(oid_arr.shape[0])
        return mbrs, oid_arr
