"""The abstract server interface: the only contract clients can rely on.

The paper assumes "services allow only a limited set of queries through a
standard interface"; this module is that interface.  The in-process
:class:`~repro.server.server.SpatialServer` and the metered
:class:`~repro.server.remote.RemoteServer` and
:class:`~repro.server.remote.ShardedRemoteServer` proxies implement it, so
join algorithms can be unit-tested against a local server and then run
unchanged against the metered proxies.  Implementations answer the scalar
queries and the flat (CSR) batch forms; the per-query list forms
:meth:`~SpatialServerInterface.window_batch` and
:meth:`~SpatialServerInterface.range_batch` are derived here, once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = ["SpatialServerInterface"]


class SpatialServerInterface(ABC):
    """The narrow, non-cooperative server protocol."""

    #: Server name used in traces ("R" or "S" by convention).
    name: str

    # ------------------------------------------------------------------ #
    # the three primitive queries of Section 3
    # ------------------------------------------------------------------ #

    @abstractmethod
    def window(self, window: Rect) -> Tuple[np.ndarray, np.ndarray]:
        """WINDOW query: ``(mbrs, oids)`` of objects intersecting ``window``."""

    @abstractmethod
    def count(self, window: Rect) -> int:
        """COUNT query: number of objects intersecting ``window``."""

    @abstractmethod
    def range(self, center: Point, epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
        """epsilon-RANGE query: objects within ``epsilon`` of ``center``.

        The paper notes that when a server lacks a native range query it can
        be simulated by a window query with side ``2 * epsilon``; servers in
        this reproduction implement the exact circular semantics.
        """

    # ------------------------------------------------------------------ #
    # optional extensions used by the cost model / bucket NLSJ
    # ------------------------------------------------------------------ #

    @abstractmethod
    def bucket_range(
        self,
        centers: Sequence[Point],
        epsilon: float,
        radii: "Sequence[float] | None" = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bucket epsilon-RANGE: many probes in one request.

        Returns ``(mbrs, oids, probe_index)`` where ``probe_index[i]`` is
        the index of the probe that produced result row ``i``.  Results are
        *not* deduplicated across probes -- the server answers each probe
        independently, exactly as a sequence of range queries would, and the
        client pays the (possibly duplicated) transfer bytes.  ``radii``
        optionally overrides the radius per probe (extended probe objects of
        different sizes).
        """

    @abstractmethod
    def average_mbr_area(self, window: Rect) -> float:
        """Scalar aggregate: average object-MBR area inside ``window``."""

    # ------------------------------------------------------------------ #
    # batch entry points (part of the client contract)
    # ------------------------------------------------------------------ #
    #
    # The physical operators ship query batches so implementations can
    # amortise evaluation over one index descent.  Semantically (and, for
    # metered implementations, byte-wise) every batch form is equivalent to
    # a loop of scalar queries -- the invariant ``tests/test_batch_queries.py``
    # pins for the built-in servers.  Each implementation answers the flat
    # (CSR) forms; the per-query list forms are slices of them, written once
    # here.

    @abstractmethod
    def window_batch_flat(
        self, windows: Sequence[Rect]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Answer many WINDOW queries in CSR form: ``(mbrs, oids, bounds)``.

        All payloads are concatenated in window order; window ``i`` owns
        rows ``bounds[i]:bounds[i+1]`` (``len(bounds) == W + 1``).
        """

    @abstractmethod
    def count_batch(self, windows: Sequence[Rect]) -> List[int]:
        """Answer many COUNT queries, in window order."""

    @abstractmethod
    def range_batch_flat(
        self, centers: Sequence[Point], radii: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Answer many epsilon-RANGE probes in CSR form: ``(mbrs, oids, bounds)``.

        Probe ``i`` (radius ``radii[i]``) owns rows ``bounds[i]:bounds[i+1]``.
        Unlike :meth:`bucket_range` this is not the bucket protocol: every
        probe is its own query.
        """

    def window_batch(
        self, windows: Sequence[Rect]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Answer many WINDOW queries: one ``(mbrs, oids)`` pair per window.

        The payloads are slices of :meth:`window_batch_flat`.
        """
        return _csr_rows(*self.window_batch_flat(windows))

    def range_batch(
        self, centers: Sequence[Point], radii: Sequence[float]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Answer many epsilon-RANGE probes: one ``(mbrs, oids)`` pair per probe.

        The payloads are slices of :meth:`range_batch_flat`.
        """
        return _csr_rows(*self.range_batch_flat(centers, radii))


def _csr_rows(
    mbrs: np.ndarray, oids: np.ndarray, bounds: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split a CSR answer into its per-query ``(mbrs, oids)`` row slices."""
    return [
        (mbrs[bounds[i] : bounds[i + 1]], oids[bounds[i] : bounds[i + 1]])
        for i in range(len(bounds) - 1)
    ]
