"""Metered client-side proxies for remote servers.

The mobile device never talks to a :class:`~repro.server.server.SpatialServer`
directly; it holds a :class:`RemoteServer`, which forwards every call over
a byte-accounting :class:`~repro.network.channel.Channel`:

* the request is accounted on the uplink (query string, plus probe objects
  for bucket range queries),
* the response is accounted on the downlink (objects or a scalar).

``RemoteServer`` therefore *is* the measurement harness: the byte totals of
every experiment are read off its channels after the join finishes.

:class:`IndexedRemoteServer` additionally exposes the R-tree level MBRs and
a "forwarded window" operation; only the SemiJoin comparator uses it (the
paper assumes R-tree-published servers for that algorithm alone).

Resilience.  A proxy may carry a :class:`ResilienceController`: every
metered exchange then runs through a retry loop against the deterministic
fault stream of :mod:`repro.network.faults`.  The protocol is built on
**idempotent request ids** -- the server caches the answer of the first
evaluation of a request id, so a retried exchange re-sends bytes but never
re-evaluates (and never re-bumps server statistics).  In the simulation
that shows up as an *evaluate-once* structure: each method evaluates the
backing server exactly once, then hands the channel-accounting closure to
the controller, which accounts failed/duplicated attempts on the channel's
retry lane and the one successful attempt on the primary lane.  The primary
ledger of a fault-injected run is therefore structurally identical to the
fault-free run; only the retry lane and the resilience counters differ.

Replication.  A :class:`RemoteServer` fronts a *replica set*: one or more
servers publishing one immutable build, each with its own channel (and its
own deterministic fault substream).  An unreplicated connection is the set
of one.  Before every exchange the replicas are ranked healthy-first (see
:meth:`RemoteServer.apply_health`).  When an exchange exhausts its retries
on one replica, the proxy *fails over*: the identical request is replayed
against the next replica (idempotent request ids make the replay safe).
The failed attempts were already accounted on the losing replica's retry
lane, and the winning replica accounts the exchange on its primary lane --
so the merged primary ledger stays bit-identical to the unreplicated
fault-free run under any recoverable plan.  Only when every replica of a
shard fails the same exchange does the proxy surface a typed
:class:`~repro.errors.ServerUnavailable` for the whole shard; a set of one
re-raises the exchange's own typed error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChannelFault, QueryTimeout, RetryExhausted, ServerUnavailable
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.network.channel import Channel, fingerprint_records
from repro.network.config import NetworkConfig
from repro.network.faults import FaultInjector, FaultKind, FaultPlan, RetryPolicy
from repro.network.messages import (
    AggregateQuery,
    BucketRangeQuery,
    CountQuery,
    MessageKind,
    ObjectPayload,
    RangeQuery,
    ScalarResponse,
    WindowQuery,
)
from repro.server.interface import SpatialServerInterface
from repro.server.server import SpatialServer
from repro.server.sharded import ShardedSpatialServer

__all__ = [
    "RemoteServer",
    "IndexedRemoteServer",
    "ShardedRemoteServer",
    "ResilienceController",
    "ServerPair",
]


class ResilienceController:
    """Per-query retry/timeout state shared by both of a session's proxies.

    Parameters
    ----------
    faults:
        The :class:`FaultPlan` to inject, or ``None`` for a reliable
        network (exchanges account directly, nothing is drawn).
    retry:
        Client retry policy; defaults to :class:`RetryPolicy()`.
    deadline_s:
        Optional per-query deadline budget in *simulated* seconds.  Stall
        latencies and retry backoffs advance the clock; crossing the budget
        raises :class:`QueryTimeout`.

    One controller per query: its injectors are keyed by channel (server)
    name, so the fault stream each server sees depends only on the plan
    seed and that query's own exchange sequence -- the determinism contract
    that makes broker and standalone execution draw identical events.
    """

    def __init__(
        self,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.plan = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.deadline_s = deadline_s
        self.elapsed_s = 0.0
        self.exchanges = 0
        self.attempts = 0
        self.retries = 0
        self.drops = 0
        self.stalls = 0
        self.duplicates_discarded = 0
        self.unavailable = 0
        self.failovers = 0
        self._failover_events: List[Tuple[str, str, str, str]] = []
        self._injectors: Dict[str, FaultInjector] = {}
        self._channels: List[Channel] = []
        # Observability hooks -- strictly read-only.  ``trace_span`` is the
        # owning query's span (set by the algorithm at run start); fault,
        # retry and failover events append there.  ``metrics`` is an
        # optional MetricsRegistry.  Both stay None by default, and the
        # healthy no-injector fast path in :meth:`exchange` never touches
        # them.
        self.trace_span = None
        self.metrics = None

    # ------------------------------------------------------------------ #

    def register(self, channel: Channel) -> None:
        """Attach a channel so its retry lane shows up in :meth:`summary`."""
        self._channels.append(channel)

    def injector(self, server_name: str) -> Optional[FaultInjector]:
        """The (memoised) fault stream of one server's channel."""
        if self.plan is None:
            return None
        injector = self._injectors.get(server_name)
        if injector is None:
            injector = self.plan.injector(server_name)
            self._injectors[server_name] = injector
        return injector

    def exchange(self, channel: Channel, label: str, account: Callable[[], None]) -> None:
        """Run one logical exchange through the fault/retry protocol.

        ``account`` performs the exchange's channel accounting (request
        record(s) then response record(s)); the server evaluation already
        happened, exactly once, before this call.  On success ``account``
        runs on the primary lane; every failed or duplicated attempt runs
        it inside a :meth:`~Channel.fault_lane` scope instead, so its bytes
        land on the retry lane (with the direction that never hit the wire
        suppressed).
        """
        self.exchanges += 1
        injector = self.injector(channel.name)
        if injector is None:
            self.attempts += 1
            account()
            return
        failures = 0
        while True:
            self.attempts += 1
            event = injector.next_event(label)
            kind = event.kind
            if kind is FaultKind.OK:
                account()
                return
            if kind is FaultKind.STALL:
                self.stalls += 1
                account()
                self._note_fault("stall", channel.name, label)
                self._advance(event.latency_s, label)
                return
            if kind is FaultKind.DUPLICATE:
                # The exchange succeeded; the response was delivered twice.
                # The duplicate carries an already-seen request id and is
                # discarded -- its downlink bytes land on the retry lane.
                self.duplicates_discarded += 1
                account()
                with channel.fault_lane("down"):
                    account()
                self._note_fault("duplicate", channel.name, label)
                return
            if kind is FaultKind.DISCONNECT:
                with channel.fault_lane("up"):
                    account()
                self._note_fault("disconnect", channel.name, label)
                raise ChannelFault(
                    f"link to server {channel.name!r} lost mid-query "
                    f"(exchange {event.op_index}, {label!r})",
                    server=channel.name,
                    op_index=event.op_index,
                    kind="disconnect",
                    recoverable=False,
                )
            # DROP (round trip burned) or UNAVAILABLE (request went out,
            # nobody answered): account the attempt on the retry lane,
            # then back off and retry -- or give up.
            if kind is FaultKind.DROP:
                self.drops += 1
                scope = "both"
            else:
                self.unavailable += 1
                scope = "up"
            with channel.fault_lane(scope):
                account()
            self._note_fault(kind.value, channel.name, label)
            failures += 1
            if failures >= self.retry.max_attempts:
                fault = ChannelFault(
                    f"exchange {label!r} to server {channel.name!r} failed "
                    f"{failures} times ({kind.value})",
                    server=channel.name,
                    op_index=event.op_index,
                    kind=kind.value,
                    recoverable=True,
                )
                if kind is FaultKind.UNAVAILABLE:
                    raise ServerUnavailable(
                        f"server {channel.name!r} unavailable after {failures} "
                        f"attempts at exchange {event.op_index} ({label!r})",
                        server=channel.name,
                        op_index=event.op_index,
                        kind="unavailable",
                        recoverable=True,
                    )
                raise RetryExhausted(
                    f"retry budget exhausted on {label!r} to server "
                    f"{channel.name!r} ({failures} attempts, last: {kind.value})",
                    last_fault=fault,
                )
            self.retries += 1
            self._note_retry(channel.name, label, failures)
            self._advance(self.retry.backoff_for(failures), label)

    def reset(self) -> None:
        """Return the controller to its seeded origin for a fresh run.

        Clears the simulated clock, all counters and the per-server fault
        streams -- a session reused across runs draws the same event
        sequence every time, exactly like a newly built stack.
        """
        self.elapsed_s = 0.0
        self.exchanges = 0
        self.attempts = 0
        self.retries = 0
        self.drops = 0
        self.stalls = 0
        self.duplicates_discarded = 0
        self.unavailable = 0
        self.failovers = 0
        self._failover_events.clear()
        self._injectors.clear()

    def _note_fault(self, kind: str, server: str, label: str) -> None:
        """Emit one fault event to the observability hooks (if attached).

        Only the fault branches of :meth:`exchange` call this, so healthy
        exchanges -- the hot path -- never pay for the checks.
        """
        span = self.trace_span
        if span is not None:
            span.event("fault", sim=self.elapsed_s, kind=kind, server=server, label=label)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_faults_total",
                "Fault events drawn on the metered channels, by kind and server",
            ).inc(kind=kind, server=server)

    def _note_retry(self, server: str, label: str, attempt: int) -> None:
        span = self.trace_span
        if span is not None:
            span.event(
                "retry", sim=self.elapsed_s, server=server, label=label, attempt=attempt
            )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_retries_total",
                "Exchange retries after recoverable faults, by server",
            ).inc(server=server)

    def _advance(self, seconds: float, label: str) -> None:
        """Advance the simulated clock, enforcing the deadline budget."""
        self.elapsed_s += seconds
        if self.deadline_s is not None and self.elapsed_s > self.deadline_s:
            raise QueryTimeout(
                f"query deadline budget exceeded during {label!r}: "
                f"{self.elapsed_s:.3f}s simulated > {self.deadline_s:.3f}s budget"
            )

    def note_failover(self, shard: str, replica: str, label: str, kind: str) -> None:
        """Record one mid-query failover (a replica exchange abandoned).

        Called by :class:`RemoteServer` after an exchange exhausted its
        retries on one replica and is about to replay on a sibling; the
        broker reads the per-replica events to charge the right breaker
        units.
        """
        self.failovers += 1
        self._failover_events.append((shard, replica, label, kind))
        span = self.trace_span
        if span is not None:
            span.event(
                "failover",
                sim=self.elapsed_s,
                shard=shard,
                replica=replica,
                label=label,
                kind=kind,
            )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_failovers_total",
                "Mid-query failovers between replicas, by shard and replica",
            ).inc(shard=shard, replica=replica)

    # ------------------------------------------------------------------ #

    def fault_events(self) -> Dict[str, Tuple[Tuple[int, str, str], ...]]:
        """Per-server drawn fault sequences (the determinism fingerprint)."""
        return {name: inj.event_tuples() for name, inj in sorted(self._injectors.items())}

    def summary(self) -> Dict[str, object]:
        """Counters + retry-lane totals, attached to ``JoinResult.resilience``."""
        return {
            "deadline_s": self.deadline_s,
            "elapsed_s": self.elapsed_s,
            "exchanges": self.exchanges,
            "attempts": self.attempts,
            "retries": self.retries,
            "drops": self.drops,
            "stalls": self.stalls,
            "duplicates_discarded": self.duplicates_discarded,
            "unavailable": self.unavailable,
            "failovers": self.failovers,
            "failover_events": tuple(self._failover_events),
            "retry_bytes": {ch.name: ch.retry_bytes for ch in self._channels},
            "fault_events": self.fault_events(),
        }


#: Ledger totals summed by the merged snapshot of a replica set or a fleet.
_SNAPSHOT_SUMS = (
    "uplink_bytes",
    "downlink_bytes",
    "total_bytes",
    "uplink_packets",
    "downlink_packets",
    "messages_up",
    "messages_down",
    "total_cost",
)


def _merged_snapshot(
    name: str, tariff: float, parts: List[Dict[str, object]], detail: str
) -> Dict[str, object]:
    """Summed totals of several ledger snapshots, the parts kept under ``detail``."""
    merged: Dict[str, object] = {"name": name}
    for key in _SNAPSHOT_SUMS:
        merged[key] = sum(part[key] for part in parts)
    merged["tariff"] = tariff
    merged[detail] = parts
    return merged


class RemoteServer(SpatialServerInterface):
    """A metered proxy in front of a replica set of one or more servers.

    Parameters
    ----------
    replicas:
        The backing servers: a single server, or the R replicas of one
        shard (one immutable build, independent identities).
    channels:
        One accounting channel per replica, in replica order; the
        experiment reads the totals from them.
    resilience:
        Optional shared :class:`ResilienceController`; when present every
        exchange runs through its fault/retry protocol.
    name:
        Connection name; defaults to the first replica's name (a
        replicated shard passes the shard name).

    Every method evaluates the backing server exactly once, on the head of
    the healthy-first replica ranking (replicas answer identically), and
    then accounts the exchange through :meth:`_exchange`, which fails over
    along the ranking.  With one replica the connection behaves like a
    plain metered link: its snapshot and fingerprint are its channel's,
    and a lost exchange re-raises its own typed error.
    """

    def __init__(
        self,
        replicas: Sequence[SpatialServer],
        channels: Sequence[Channel],
        resilience: Optional[ResilienceController] = None,
        name: Optional[str] = None,
    ) -> None:
        self.replicas = tuple(replicas)
        #: All accounting channels behind this connection, replica order.
        self.channels = tuple(channels)
        if not self.replicas:
            raise ValueError("a remote server needs at least one replica")
        if len(self.channels) != len(self.replicas):
            raise ValueError("one channel per replica required")
        self.name = name if name is not None else self.replicas[0].name
        #: The first replica's channel: config and tariff reads (all replica
        #: channels share both), and the whole ledger of a single server.
        self.channel = self.channels[0]
        self.resilience = resilience
        self._names = tuple(rep.name for rep in self.replicas)
        self._down: set = set()
        self._probe: set = set()
        self._failed: set = set()
        #: ``(replica_index, primary_record_count)`` per successful
        #: exchange, in exchange order -- the splice map of the merged
        #: primary ledger.
        self._spliced: List[Tuple[int, int]] = []
        #: ``(shard, replica_channel, label, kind)`` per abandoned replica
        #: exchange (read by the broker to charge per-replica breakers).
        self._failovers: List[Tuple[str, str, str, str]] = []
        self._rank_replicas()

    # ------------------------------------------------------------------ #
    # healthy-first replica ranking
    # ------------------------------------------------------------------ #

    def apply_health(self, health: Dict[str, str]) -> None:
        """Apply broker breaker verdicts (``"down"`` / ``"probe"`` by name).

        A ``down`` replica (breaker open, still cooling) is routed around
        and tried last-resort only; a ``probe`` replica (half-open breaker)
        is preferred, so the probe traffic reaches the recovering server.
        The marks last as long as the connection; names of other servers
        are ignored.
        """
        for name, state in health.items():
            if name not in self._names:
                continue
            if state == "down":
                self._down.add(name)
                self._probe.discard(name)
            elif state == "probe":
                self._probe.add(name)
                self._down.discard(name)
        self._rank_replicas()

    def _rank(self, idx: int) -> int:
        name = self._names[idx]
        if name in self._down:
            return 3
        if idx in self._failed:
            return 2
        if name in self._probe:
            return 0
        return 1

    def _rank_replicas(self) -> None:
        """Recompute the replica try-order and its head, :attr:`_server`.

        Probe replicas come first, then healthy ones, then replicas that
        already lost an exchange of this run (until :meth:`reset_channels`),
        and down replicas last; ties keep replica order.  The order changes
        only with marks and failures, so it is kept here rather than
        re-sorted per exchange -- and with none of either (the common
        state) it is the identity, without a sort.
        """
        count = len(self.replicas)
        if self._down or self._probe or self._failed:
            self._order = sorted(range(count), key=self._rank)
        else:
            self._order = range(count)
        self._server = self.replicas[self._order[0]]

    def _exchange(self, label: str, account: Callable[[Channel], None]) -> None:
        """Account one logical exchange, failing over along the ranking.

        The server evaluation must already have happened (exactly once)
        when this is called; ``account`` only writes channel records, to
        the channel it is given, so the identical exchange can be replayed
        on a sibling replica.  A replica that exhausts its retries (or is
        declared unavailable) has already accounted its attempts on its
        own retry lane; the exchange then moves to the next replica.
        Unrecoverable faults (link disconnect), deadline timeouts and any
        loss on a connection without siblings abort the query with the
        exchange's own typed error.
        """
        for idx in self._order:
            channel = self.channels[idx]
            before = len(channel.log.records)
            try:
                if self.resilience is None:
                    account(channel)
                else:
                    self.resilience.exchange(channel, label, lambda: account(channel))
            except (ChannelFault, RetryExhausted) as err:
                fault = err.last_fault if isinstance(err, RetryExhausted) else err
                if len(self.replicas) == 1 or not fault.recoverable:
                    raise
                kind = fault.kind
                self._failed.add(idx)
                self._rank_replicas()
                self._failovers.append((self.name, channel.name, label, kind))
                if self.resilience is not None:
                    self.resilience.note_failover(self.name, channel.name, label, kind)
                continue
            finally:
                # Whatever this attempt put on the primary lane -- nothing
                # for a lost exchange, a completed one even if the deadline
                # then expires -- keeps its place in exchange order.
                self._spliced.append((idx, len(channel.log.records) - before))
            if idx in self._failed:
                self._failed.discard(idx)
                self._rank_replicas()
            return
        raise ServerUnavailable(
            f"all {len(self.replicas)} replicas of shard {self.name!r} "
            f"unavailable during {label!r}",
            server=self.name,
            op_index=None,
            kind="unavailable",
            recoverable=True,
        )

    @property
    def config(self) -> NetworkConfig:
        return self.channel.config

    @property
    def tariff(self) -> float:
        return self.channel.tariff

    @property
    def backing_server(self) -> SpatialServer:
        """The server behind the proxy (tests and oracles only)."""
        return self._server

    # ------------------------------------------------------------------ #
    # metered primitive queries
    # ------------------------------------------------------------------ #

    def window(self, window: Rect) -> Tuple[np.ndarray, np.ndarray]:
        mbrs, oids = self._server.window(window)

        def account(channel: Channel) -> None:
            channel.send_query(WindowQuery(window), label="window")
            channel.send_response(ObjectPayload(mbrs, oids), label="window-result")

        self._exchange("window", account)
        return mbrs, oids

    def count(self, window: Rect) -> int:
        value = self._server.count(window)

        def account(channel: Channel) -> None:
            channel.send_query(CountQuery(window), label="count")
            channel.send_response(ScalarResponse(float(value)), label="count-result")

        self._exchange("count", account)
        return value

    def window_batch_flat(
        self, windows: Sequence[Rect]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Issue many WINDOW queries; responses assembled flat in one pass.

        Returns ``(mbrs, oids, bounds)`` in CSR form, all window payloads
        concatenated in window order (window ``i`` owns rows
        ``bounds[i]:bounds[i+1]``).  The ledger is bit-identical to a loop
        of :meth:`window` calls: one uplink query record per window and one
        downlink object payload per window, sized from the per-window row
        counts -- only the server-side evaluation and the response assembly
        are batched.
        """
        windows = list(windows)
        mbrs, oids, bounds = self._server.window_batch_flat(windows)
        if windows:

            def account(channel: Channel) -> None:
                channel.send_uniform_batch(
                    WindowQuery(windows[0]), len(windows), direction="up", label="window"
                )
                object_bytes = self.config.object_bytes
                channel.send_payload_batch(
                    MessageKind.OBJECTS,
                    [int(c) * object_bytes for c in np.diff(bounds).tolist()],
                    direction="down",
                    label="window-result",
                )

            # An empty batch never hits the wire, so it draws no fault
            # event -- keeps fault streams aligned across execution paths.
            self._exchange("window-batch", account)
        return mbrs, oids, bounds

    def count_batch(self, windows: Sequence[Rect]) -> List[int]:
        """Issue many COUNT queries, evaluated server-side in one descent.

        Accounting is bit-identical to a loop of :meth:`count` calls.
        """
        windows = list(windows)
        values = self._server.count_batch(windows)
        self._account_count_batch(windows)
        return values

    def count_batch_prefetched(
        self, windows: Sequence[Rect], values: Sequence[int]
    ) -> List[int]:
        """Attribute a COUNT batch answered by a coalesced exchange.

        The query broker's wave driver evaluates the COUNT windows of every
        in-flight query that targets the same backing server in one
        snapshot descent, then attributes each query's share back to its
        own connection through this method.  The per-query ledger --
        backing-server statistics, traffic records, byte totals -- is
        exactly what :meth:`count_batch` over the same windows would have
        produced; only the evaluation was shared.
        """
        windows = list(windows)
        values = [int(v) for v in values]
        if len(values) != len(windows):
            raise ValueError("values must be parallel to windows")
        self._server.stats.count_queries += len(windows)
        self._account_count_batch(windows)
        return values

    def _account_count_batch(self, windows: List[Rect]) -> None:
        """The shared ledger write of one batched COUNT exchange.

        Routed through :meth:`_exchange` with one label for both the
        standalone (:meth:`count_batch`) and broker-coalesced
        (:meth:`count_batch_prefetched`) paths, so a query draws the same
        fault events whichever way it executes.  Empty batches never hit
        the wire and draw nothing.
        """
        if not windows:
            return

        def account(channel: Channel) -> None:
            channel.send_uniform_batch(
                CountQuery(windows[0]), len(windows), direction="up", label="count"
            )
            channel.send_uniform_batch(
                ScalarResponse(0.0),
                len(windows),
                direction="down",
                label="count-result",
            )

        self._exchange("count-batch", account)

    def range(self, center: Point, epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
        mbrs, oids = self._server.range(center, epsilon)

        def account(channel: Channel) -> None:
            channel.send_query(RangeQuery(center, epsilon), label="range")
            channel.send_response(ObjectPayload(mbrs, oids), label="range-result")

        self._exchange("range", account)
        return mbrs, oids

    def range_batch_flat(
        self, centers: Sequence[Point], radii: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Issue many RANGE probes; responses assembled flat in one pass.

        Returns ``(mbrs, oids, bounds)`` in CSR form, all probe payloads
        concatenated in probe order (probe ``i`` owns rows
        ``bounds[i]:bounds[i+1]``).  The ledger is bit-identical to a loop
        of :meth:`range` calls: one uplink query record per probe and one
        downlink object payload per probe, sized from the per-probe row
        counts -- only the server-side evaluation and the response assembly
        are batched.
        """
        mbrs, oids, bounds = self._server.range_batch_flat(centers, radii)
        if len(centers):

            def account(channel: Channel) -> None:
                channel.send_uniform_batch(
                    RangeQuery(centers[0], float(radii[0])),
                    len(centers),
                    direction="up",
                    label="range",
                )
                object_bytes = self.config.object_bytes
                channel.send_payload_batch(
                    MessageKind.OBJECTS,
                    [int(c) * object_bytes for c in np.diff(bounds).tolist()],
                    direction="down",
                    label="range-result",
                )

            self._exchange("range-batch", account)
        return mbrs, oids, bounds

    def bucket_range(
        self,
        centers: Sequence[Point],
        epsilon: float,
        radii: Optional[Sequence[float]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        centers = tuple(centers)
        radii_tuple = tuple(float(r) for r in radii) if radii is not None else None
        mbrs, oids, probes = self._server.bucket_range(centers, epsilon, radii_tuple)

        def account(channel: Channel) -> None:
            channel.send_query(
                BucketRangeQuery(centers, epsilon, radii_tuple), label="bucket-range"
            )
            # Eq. 5 of the paper charges one extra object-sized separator per
            # probe in the bucket response (the "+ Bobj" term).
            channel.send_response(
                ObjectPayload(mbrs, oids, per_probe_overhead_objects=len(centers)),
                label="bucket-range-result",
            )

        self._exchange("bucket-range", account)
        return mbrs, oids, probes

    def average_mbr_area(self, window: Rect) -> float:
        value = self._server.average_mbr_area(window)

        def account(channel: Channel) -> None:
            channel.send_query(
                AggregateQuery(window, "avg_mbr_area"), label="aggregate"
            )
            channel.send_response(ScalarResponse(value), label="aggregate-result")

        self._exchange("aggregate", account)
        return value

    # ------------------------------------------------------------------ #
    # connection introspection (one channel per replica)
    # ------------------------------------------------------------------ #

    def reset_channels(self) -> None:
        """Zero every channel ledger and forget this run's replica failures.

        Broker health marks survive: they belong to the connection.
        """
        for channel in self.channels:
            channel.reset()
        self._spliced.clear()
        self._failovers.clear()
        self._failed.clear()
        self._rank_replicas()

    def failover_events(self) -> Tuple[Tuple[str, str, str, str], ...]:
        """All ``(shard, replica, label, kind)`` failovers of this run."""
        return tuple(self._failovers)

    def channel_snapshot(self) -> Dict[str, object]:
        """The connection's ledger snapshot.

        A single server's is its channel's; a replica set's sums the
        replica channels and lists them under ``"replicas"``.
        """
        if len(self.channels) == 1:
            return self.channel.snapshot()
        return _merged_snapshot(
            self.name,
            self.tariff,
            [channel.snapshot() for channel in self.channels],
            "replicas",
        )

    def ledger_fingerprint(self) -> Tuple:
        """Bit-exact fingerprint of the connection's primary-lane ledger.

        Splices the per-replica primary records back into exchange order,
        using the ``(replica, record_count)`` map captured at exchange
        time, and sums the per-replica primary counters.  The result is
        built like :meth:`Channel.ledger_fingerprint`, from the channel
        module's record digest and counter list, under the connection's
        name: a single server's equals its channel's, and a
        replicated shard under a recoverable plan fingerprints
        bit-identically to the unreplicated fault-free shard, whichever
        replicas served.
        """
        cursors = [0] * len(self.channels)
        merged_records: List[Tuple] = []
        for idx, count in self._spliced:
            start = cursors[idx]
            records = self.channels[idx].log.records[start : start + count]
            merged_records.extend(fingerprint_records(records))
            cursors[idx] = start + count
        sums = [
            sum(getattr(channel, key) for channel in self.channels)
            for key in Channel.LEDGER_COUNTERS
        ]
        return (self.name, *sums, tuple(merged_records))

    def server_stats(self) -> Dict[str, int]:
        """Replica-summed query statistics (evaluation moves on failover)."""
        totals: Dict[str, int] = {}
        for rep in self.replicas:
            for key, value in rep.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def total_bytes(self) -> int:
        """Total wire bytes moved over this connection so far."""
        return sum(channel.total_bytes for channel in self.channels)

    def total_cost(self) -> float:
        """Tariff-weighted cost of this connection so far."""
        return sum(channel.total_cost for channel in self.channels)


class IndexedRemoteServer(RemoteServer):
    """A remote server that additionally publishes its R-tree (SemiJoin only).

    The paper's SemiJoin comparator assumes both datasets are R-tree
    indexed and that the intermediate-level MBRs can be shipped between the
    servers (through the PDA, since the servers do not cooperate).  Those
    privileged operations are metered exactly like ordinary queries.
    """

    def tree_height(self) -> int:
        """Height of the server's R-tree (metadata; accounted as an aggregate)."""
        height = self._server.index.rtree.height

        def account(channel: Channel) -> None:
            channel.send_query(
                AggregateQuery(self._server.dataset.bounds(), "count"),
                label="tree-height",
            )
            channel.send_response(
                ScalarResponse(float(height)), label="tree-height-result"
            )

        self._exchange("tree-height", account)
        return height

    def object_count(self) -> int:
        """Total object count (metadata; accounted as an aggregate exchange)."""
        n = len(self._server.dataset)

        def account(channel: Channel) -> None:
            channel.send_query(
                AggregateQuery(self._server.dataset.bounds(), "count"), label="size"
            )
            channel.send_response(ScalarResponse(float(n)), label="size-result")

        self._exchange("size", account)
        return n

    def level_mbrs(self) -> List[Rect]:
        """Download the MBRs of the second-to-last R-tree level.

        The response is accounted as one object payload whose size is the
        number of MBRs (an MBR weighs one ``B_obj``, like any other spatial
        object on the wire).
        """
        rects = self._server.index.rtree.second_to_last_level_mbrs()
        if rects:
            mbrs = np.array([r.as_tuple() for r in rects], dtype=np.float64)
        else:
            mbrs = np.empty((0, 4))
        oids = np.arange(mbrs.shape[0], dtype=np.int64)

        def account(channel: Channel) -> None:
            channel.send_query(
                AggregateQuery(self._server.dataset.bounds(), "count"),
                label="level-mbrs",
            )
            channel.send_response(
                ObjectPayload(mbrs, oids), label="level-mbrs-result"
            )

        self._exchange("level-mbrs", account)
        return rects

    def upload_windows_and_collect(
        self, windows: Sequence[Rect]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ship a batch of windows (MBRs) to the server; get back all objects inside.

        This is the SemiJoin step "all the objects of R inside these MBRs
        will be transferred back" with the PDA acting as mediator: the
        upload is charged as an object payload (one ``B_obj`` per MBR) and
        the response as a normal object payload.  Duplicate objects that
        fall in several windows are returned once (the server deduplicates
        before shipping, as the original algorithm does).
        """
        return self._relay_windows(windows, flat=False)

    def upload_windows_and_collect_flat(
        self, windows: Sequence[Rect]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat-assembly form of :meth:`upload_windows_and_collect`.

        Ships the same query and response payloads (the ledger is
        byte-identical); the server side reads the CSR window batch
        directly, so the relayed object set is assembled over one
        concatenated array instead of a per-window payload list that is
        vstacked client-side.  This is the batch path of the SemiJoin
        comparator; the per-window relay is its bit-identical scalar
        reference.
        """
        return self._relay_windows(windows, flat=True)

    def _relay_windows(
        self, windows: Sequence[Rect], flat: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The shared protocol of both relay forms.

        Only the server-side row assembly differs between the scalar and
        flat paths; the metering (query upload, deduplicated object
        response) is written once so the two can never drift apart.
        """
        if not windows:
            return np.empty((0, 4)), np.empty(0, dtype=np.int64)
        win_arr = np.array([w.as_tuple() for w in windows], dtype=np.float64)
        if flat:
            all_mbrs, all_oids, _ = self._server.window_batch_flat(list(windows))
        else:
            payloads = self._server.window_batch(list(windows))
            all_mbrs = (
                np.vstack([m for m, _ in payloads]) if payloads else np.empty((0, 4))
            )
            all_oids = (
                np.concatenate([o for _, o in payloads])
                if payloads
                else np.empty(0, dtype=np.int64)
            )
        # Deduplicate objects returned by several windows, keeping the
        # first-seen order (as the original per-window relay did).
        _, first = np.unique(all_oids, return_index=True)
        keep = np.sort(first)
        mbrs_out = all_mbrs[keep]
        oids_out = all_oids[keep]

        def account(channel: Channel) -> None:
            channel.send_query(
                BucketRangeQuery(
                    tuple(Point(float(w[0]), float(w[1])) for w in win_arr), 0.0
                ),
                label="semijoin-windows",
            )
            # The probe payload above only accounts the query string + one
            # object per window; exactly what shipping the MBR list costs.
            channel.send_response(
                ObjectPayload(mbrs_out, oids_out), label="semijoin-objects"
            )

        self._exchange("semijoin-windows", account)
        return mbrs_out, oids_out

    def upload_objects_and_join(
        self,
        mbrs: np.ndarray,
        oids: np.ndarray,
        epsilon: float,
    ) -> List[Tuple[int, int]]:
        """Ship foreign objects to this server and let it perform the final join.

        This is SemiJoin's last step: the qualifying objects of the small
        dataset are uploaded (through the PDA) and the server joins them
        against its own data with an in-memory kernel, returning
        ``(foreign_oid, local_oid)`` pairs.  The upload is charged as an
        object payload, the result as one object-sized row per pair.
        """
        from repro.geometry.predicates import (  # local import: avoids a cycle
            IntersectionPredicate,
            WithinDistancePredicate,
        )
        from repro.index.hash_join import grid_hash_join

        if mbrs.shape[0] == 0:
            return []
        predicate = (
            WithinDistancePredicate(epsilon=epsilon)
            if epsilon > 0
            else IntersectionPredicate()
        )
        local = self._server.dataset
        pairs = grid_hash_join(
            mbrs, oids, local.mbrs, local.oids, predicate
        )
        result_mbrs = np.zeros((len(pairs), 4), dtype=np.float64)
        result_oids = np.arange(len(pairs), dtype=np.int64)

        def account(channel: Channel) -> None:
            channel.send_query(
                BucketRangeQuery(
                    tuple(
                        Point(float((m[0] + m[2]) / 2.0), float((m[1] + m[3]) / 2.0))
                        for m in mbrs
                    ),
                    max(epsilon, 0.0),
                ),
                label="semijoin-upload",
            )
            channel.send_response(
                ObjectPayload(result_mbrs, result_oids), label="semijoin-result"
            )

        self._exchange("semijoin-upload", account)
        return pairs


class ShardedRemoteServer(SpatialServerInterface):
    """A metered scatter/merge proxy in front of a shard fleet.

    The device-side algorithms see one :class:`SpatialServerInterface`
    endpoint; underneath, every shard has its own :class:`RemoteServer`
    over the shard's replica set, one :class:`Channel` per replica (named
    after the shard, e.g. ``"R#2"``, or the replica, ``"R#2/1"``), so
    per-shard byte ledgers, retry lanes, deterministic fault substreams
    and failover come for free.

    Routing is by bounds intersection: a request window is scattered only
    to the non-empty shards whose dataset bounds it intersects; a range
    probe is routed through its Chebyshev square ``centre +- radius``
    (min-distance <= radius implies the object MBR intersects that square,
    and every shard object's MBR lies inside the shard bounds, so routing
    never loses an answer).  Answers are merged deterministically in
    ascending shard order; summed COUNTs and merged payload row sets are
    bit-identical to the union server's answers.  Requests routed to zero
    shards produce empty answers without touching any wire.
    """

    def __init__(
        self,
        fleet: ShardedSpatialServer,
        channels: Sequence[Channel],
        resilience: Optional[ResilienceController] = None,
    ) -> None:
        channels = tuple(channels)
        expected = sum(len(group) for group in fleet.replica_groups)
        if len(channels) != expected:
            raise ValueError(
                "one channel per replica required "
                f"(fleet has {expected}, got {len(channels)})"
            )
        self._fleet = fleet
        self.name = fleet.name
        self.resilience = resilience
        # One proxy per shard, over the shard's replica set.  Channels
        # arrive replica-major in fleet order: R#0/0, R#0/1, ..., R#1/0, ...
        proxies: List[RemoteServer] = []
        pos = 0
        for group, shard_name in zip(fleet.replica_groups, fleet.shard_names):
            proxies.append(
                RemoteServer(
                    group,
                    channels[pos : pos + len(group)],
                    resilience=resilience,
                    name=shard_name,
                )
            )
            pos += len(group)
        self._proxies = tuple(proxies)
        # Routing table: shard dataset bounds, None for empty shards (an
        # empty shard never answers and is never routed to).
        self._bounds = tuple(
            shard.dataset.bounds() if len(shard) else None for shard in fleet.shards
        )

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def _routed(self, window: Rect) -> List[int]:
        """Shard indices whose (non-empty) bounds intersect the window."""
        return [
            i
            for i, b in enumerate(self._bounds)
            if b is not None and b.intersects(window)
        ]

    @staticmethod
    def _probe_window(center: Point, radius: float) -> Rect:
        """The Chebyshev square that makes range-probe routing safe."""
        return Rect(
            center.x - radius, center.y - radius, center.x + radius, center.y + radius
        )

    def _scatter(self, windows: Sequence[Rect]) -> List[Tuple[int, List[int]]]:
        """Group request indices by routed shard, shards ascending."""
        per_shard: Dict[int, List[int]] = {}
        for wi, window in enumerate(windows):
            for si in self._routed(window):
                per_shard.setdefault(si, []).append(wi)
        return sorted(per_shard.items())

    @staticmethod
    def _merge_payloads(
        parts: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        if not parts:
            return np.empty((0, 4)), np.empty(0, dtype=np.int64)
        return (
            np.vstack([m for m, _ in parts]),
            np.concatenate([o for _, o in parts]),
        )

    def _merge_flat(
        self,
        requests: Sequence[Rect],
        shard_results: List[Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merge per-shard CSR answers back into request-order CSR form.

        Within one request the shard payloads are concatenated in ascending
        shard order (``shard_results`` arrives that way from
        :meth:`_scatter`), so the merged rows are a deterministic function
        of the request batch alone.
        """
        per_request: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in requests
        ]
        for idxs, mbrs, oids, bounds in shard_results:
            for j, wi in enumerate(idxs):
                lo, hi = int(bounds[j]), int(bounds[j + 1])
                if hi > lo:
                    per_request[wi].append((mbrs[lo:hi], oids[lo:hi]))
        out_bounds = np.zeros(len(per_request) + 1, dtype=np.int64)
        mbr_parts: List[np.ndarray] = []
        oid_parts: List[np.ndarray] = []
        total = 0
        for wi, chunks in enumerate(per_request):
            for m, o in chunks:
                total += int(o.shape[0])
                mbr_parts.append(m)
                oid_parts.append(o)
            out_bounds[wi + 1] = total
        mbrs = np.vstack(mbr_parts) if mbr_parts else np.empty((0, 4))
        oids = (
            np.concatenate(oid_parts) if oid_parts else np.empty(0, dtype=np.int64)
        )
        return mbrs, oids, out_bounds

    # ------------------------------------------------------------------ #
    # metered primitive queries (scatter to shards, merge answers)
    # ------------------------------------------------------------------ #

    def window(self, window: Rect) -> Tuple[np.ndarray, np.ndarray]:
        return self._merge_payloads(
            [self._proxies[i].window(window) for i in self._routed(window)]
        )

    def window_batch_flat(
        self, windows: Sequence[Rect]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        windows = list(windows)
        shard_results = []
        for si, idxs in self._scatter(windows):
            m, o, b = self._proxies[si].window_batch_flat(
                [windows[wi] for wi in idxs]
            )
            shard_results.append((idxs, m, o, b))
        return self._merge_flat(windows, shard_results)

    def count(self, window: Rect) -> int:
        return sum(self._proxies[i].count(window) for i in self._routed(window))

    def count_batch(self, windows: Sequence[Rect]) -> List[int]:
        windows = list(windows)
        values = [0] * len(windows)
        for si, idxs in self._scatter(windows):
            sub = self._proxies[si].count_batch([windows[wi] for wi in idxs])
            for wi, v in zip(idxs, sub):
                values[wi] += int(v)
        return values

    def count_batch_prefetched(
        self, windows: Sequence[Rect], values: Sequence[int]
    ) -> List[int]:
        """Attribute a broker-coalesced COUNT batch across the shards.

        The wave driver evaluated the merged counts once on the fleet
        build (:meth:`ShardedSpatialServer.evaluate_count_batch`); here
        each routed shard's ledger and statistics are charged exactly what
        :meth:`count_batch` over the same windows would have charged (the
        per-shard values are irrelevant to the uniform accounting).
        """
        windows = list(windows)
        values = [int(v) for v in values]
        if len(values) != len(windows):
            raise ValueError("values must be parallel to windows")
        for si, idxs in self._scatter(windows):
            self._proxies[si].count_batch_prefetched(
                [windows[wi] for wi in idxs], [0] * len(idxs)
            )
        return values

    def range(self, center: Point, epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        probe = self._probe_window(center, epsilon)
        return self._merge_payloads(
            [self._proxies[i].range(center, epsilon) for i in self._routed(probe)]
        )

    def range_batch_flat(
        self, centers: Sequence[Point], radii: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        centers = list(centers)
        per_probe = [float(r) for r in radii]
        if any(r < 0 for r in per_probe):
            raise ValueError("epsilon must be non-negative")
        probes = [self._probe_window(c, r) for c, r in zip(centers, per_probe)]
        shard_results = []
        for si, idxs in self._scatter(probes):
            m, o, b = self._proxies[si].range_batch_flat(
                [centers[pi] for pi in idxs], [per_probe[pi] for pi in idxs]
            )
            shard_results.append((idxs, m, o, b))
        return self._merge_flat(probes, shard_results)

    def bucket_range(
        self,
        centers: Sequence[Point],
        epsilon: float,
        radii: Optional[Sequence[float]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        centers = tuple(centers)
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if not centers:
            raise ValueError("bucket_range needs at least one probe point")
        if radii is not None and len(radii) != len(centers):
            raise ValueError("radii must be parallel to centers")
        per_probe = (
            [epsilon] * len(centers) if radii is None else [float(r) for r in radii]
        )
        probe_windows = [
            self._probe_window(c, r) for c, r in zip(centers, per_probe)
        ]
        mbr_parts: List[np.ndarray] = []
        oid_parts: List[np.ndarray] = []
        probe_parts: List[np.ndarray] = []
        for si, idxs in self._scatter(probe_windows):
            m, o, p = self._proxies[si].bucket_range(
                tuple(centers[pi] for pi in idxs),
                epsilon,
                [per_probe[pi] for pi in idxs],
            )
            mbr_parts.append(m)
            oid_parts.append(o)
            probe_parts.append(np.asarray(idxs, dtype=np.int64)[np.asarray(p, dtype=np.int64)])
        if not mbr_parts:
            return np.empty((0, 4)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        mbrs = np.vstack(mbr_parts)
        oids = np.concatenate(oid_parts)
        probe_idx = np.concatenate(probe_parts)
        # Probe-major order with ascending shards inside each probe: the
        # deterministic merge the equivalence tests pin down.
        order = np.argsort(probe_idx, kind="stable")
        return mbrs[order], oids[order], probe_idx[order]

    def average_mbr_area(self, window: Rect) -> float:
        # Weighted mean of the per-shard aggregates; the weight (the
        # shard's object count in the window) rides in the same aggregate
        # response, so only the aggregate exchange is metered per shard.
        total = 0.0
        weight = 0
        for si in self._routed(window):
            proxy = self._proxies[si]
            n = proxy.backing_server.index.count(window)
            value = proxy.average_mbr_area(window)
            total += value * n
            weight += n
        return total / weight if weight else 0.0

    # ------------------------------------------------------------------ #
    # connection introspection
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> NetworkConfig:
        return self._proxies[0].config

    @property
    def tariff(self) -> float:
        return self._proxies[0].tariff

    @property
    def backing_server(self) -> ShardedSpatialServer:
        """The shard fleet behind the proxy (tests and oracles only)."""
        return self._fleet

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """All accounting channels, shard-major then replica order."""
        return tuple(chan for proxy in self._proxies for chan in proxy.channels)

    def reset_channels(self) -> None:
        for proxy in self._proxies:
            proxy.reset_channels()

    def apply_replica_health(self, health: Dict[str, str]) -> None:
        """Push broker breaker verdicts down to the per-shard replica sets."""
        for proxy in self._proxies:
            proxy.apply_health(health)

    def failover_events(self) -> Tuple[Tuple[str, str, str, str], ...]:
        """All ``(shard, replica, label, kind)`` failovers, shard order."""
        return tuple(
            event for proxy in self._proxies for event in proxy.failover_events()
        )

    def channel_snapshot(self) -> Dict[str, object]:
        """Fleet ledger snapshot: summed totals plus per-shard detail."""
        return _merged_snapshot(
            self.name,
            self.tariff,
            [proxy.channel_snapshot() for proxy in self._proxies],
            "shards",
        )

    def ledger_fingerprint(self) -> Tuple:
        """Per-shard primary-lane fingerprints, shard order.

        A replicated shard contributes its replica-agnostic merged
        fingerprint (see :meth:`RemoteServer.ledger_fingerprint`), so the
        fleet fingerprint of a replicated run equals the unreplicated one
        whenever the primary ledgers match.
        """
        return tuple(proxy.ledger_fingerprint() for proxy in self._proxies)

    def server_stats(self) -> Dict[str, int]:
        """Fleet-summed backing-server statistics."""
        return self._fleet.stats.as_dict()

    def total_bytes(self) -> int:
        """Total wire bytes over all shard connections so far."""
        return sum(proxy.total_bytes() for proxy in self._proxies)

    def total_cost(self) -> float:
        """Tariff-weighted cost over all shard connections so far."""
        return sum(proxy.total_cost() for proxy in self._proxies)


@dataclass
class ServerPair:
    """The two metered connections a join session holds.

    ``r`` and ``s`` follow the paper's naming: the join is ``R join S``.
    """

    r: RemoteServer
    s: RemoteServer

    def total_bytes(self) -> int:
        """Total wire bytes over both connections (the figures' metric)."""
        return self.r.total_bytes() + self.s.total_bytes()

    def total_cost(self) -> float:
        """Tariff-weighted total cost (what the algorithms minimise)."""
        return self.r.total_cost() + self.s.total_cost()

    def reset(self) -> None:
        self.r.reset_channels()
        self.s.reset_channels()

    def swapped(self) -> "ServerPair":
        """The pair with roles exchanged (used by symmetric code paths)."""
        return ServerPair(r=self.s, s=self.r)

    @staticmethod
    def connect(
        server_r: SpatialServer,
        server_s: SpatialServer,
        config: Optional[NetworkConfig] = None,
        indexed: bool = False,
        resilience: Optional[ResilienceController] = None,
        replica_health: Optional[Dict[str, str]] = None,
        observer=None,
    ) -> "ServerPair":
        """Create metered connections to two servers with a shared config.

        Either side may be a :class:`~repro.server.sharded.ShardedSpatialServer`
        fleet, in which case its connection is a scatter/merge
        :class:`ShardedRemoteServer` with one channel (and one fault
        substream) per *replica*.  ``resilience`` (if given) is shared by
        both sides: one retry policy, one deadline budget and one
        fault-plan instantiation per query, with a separate deterministic
        fault stream per channel name.  ``replica_health`` maps replica
        names to ``"down"`` / ``"probe"`` breaker verdicts applied to the
        shards' replica rankings at connect time.  ``observer`` is a
        read-only traffic observer threaded into every channel (see
        :class:`Channel`).
        """
        config = config or NetworkConfig()
        sharded = isinstance(server_r, ShardedSpatialServer) or isinstance(
            server_s, ShardedSpatialServer
        )
        if indexed and sharded:
            raise ValueError(
                "semijoin needs index-published servers; sharded fleets do not "
                "publish a single R-tree"
            )
        proxy_cls = IndexedRemoteServer if indexed else RemoteServer

        def _connect_one(server, tariff: float):
            if isinstance(server, ShardedSpatialServer):
                chans = [
                    Channel(config, tariff=tariff, name=replica.name, observer=observer)
                    for group in server.replica_groups
                    for replica in group
                ]
                if resilience is not None:
                    for chan in chans:
                        resilience.register(chan)
                proxy = ShardedRemoteServer(server, chans, resilience=resilience)
                if replica_health:
                    proxy.apply_replica_health(replica_health)
                return proxy
            chan = Channel(config, tariff=tariff, name=server.name, observer=observer)
            if resilience is not None:
                resilience.register(chan)
            return proxy_cls((server,), (chan,), resilience=resilience)

        return ServerPair(
            r=_connect_one(server_r, config.tariff_r),
            s=_connect_one(server_s, config.tariff_s),
        )
