"""Replicated shard fleets: routing, mid-query failover, breaker hygiene.

The replication invariant of PR 9, exercised end to end:

* **Bit-identity.**  Publishing every shard on R replicas -- and failing
  lost exchanges over to sibling replicas mid-query -- never changes what
  a query measures.  Under any recoverable fault plan, pairs,
  primary-lane bytes, statistics, decision traces and the merged
  shard-level ledger fingerprints are bit-identical to the fault-free
  unreplicated run, standalone and brokered.
* **Graceful degradation.**  Only when *every* replica of a shard is
  unavailable does the query surface a typed
  :class:`~repro.errors.ServerUnavailable`; in a broker wave the failed
  query is isolated and its neighbours complete untouched.
* **Breaker-per-replica.**  Failovers charge the losing replica's
  breaker; a cooling replica is routed around without shedding the
  query, the half-open probe is routed *to* the recovering replica, and
  only a shard whose replicas are all cooling sheds.
* **Satellites.**  The device's response-time estimate sums over replica
  channels, and the result cache's byte budget evicts by size.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.join_types import JoinSpec
from repro.core.planner import build_algorithm, build_session_stack, run_join
from repro.core.result import JoinResult
from repro.datasets.synthetic import clustered
from repro.errors import QueryTimeout, RetryExhausted, ServerUnavailable
from repro.geometry.rect import Rect
from repro.network.channel import Channel
from repro.network.config import NetworkConfig
from repro.network.faults import FaultPlan, Outage, replica_outages
from repro.server import ShardedSpatialServer
from repro.server.remote import RemoteServer, ResilienceController
from repro.server.server import SpatialServer
from repro.service import JoinQuery, QueryBroker
from repro.service.cache import ResultCache, result_weight

pytestmark = pytest.mark.chaos

BUFFER = 96
EPSILON = 0.03

#: Recoverable chaos at rates the default retry budget absorbs (mirrors
#: the chaos suite's plans).
RECOVERABLE_PLAN = FaultPlan(
    seed=3, drop_rate=0.10, stall_rate=0.08, duplicate_rate=0.08
)

#: Non-indexed algorithms that support fleets (semijoin must stay plain).
FLEET_ALGORITHMS = ["upjoin", "srjoin", "mobijoin"]


def _datasets(n: int = 110):
    return (
        clustered(n=n, clusters=3, seed=11, name="R"),
        clustered(n=n, clusters=4, seed=12, std=0.04, name="S"),
    )


def _trace_tuples(result) -> List[tuple]:
    return [
        (e.depth, e.action, e.detail, e.count_r, e.count_s, e.window.as_tuple())
        for e in result.trace
    ]


def _strip_replicas(snapshot):
    """Channel stats minus the per-replica detail lists.

    The split of one shard's primary traffic across its replicas is
    exactly the part failover is allowed to move; everything else --
    shard-level sums, names, costs -- must stay bit-identical to the
    unreplicated run.
    """
    if isinstance(snapshot, dict):
        return {
            key: _strip_replicas(value)
            for key, value in snapshot.items()
            if key != "replicas"
        }
    if isinstance(snapshot, (list, tuple)):
        return [_strip_replicas(item) for item in snapshot]
    return snapshot


def _assert_identical(result, reference) -> None:
    """Everything the paper measures, bit for bit (resilience summary and
    per-replica traffic split excluded -- those are exactly what faults
    and failover are allowed to change)."""
    assert result.sorted_pairs() == reference.sorted_pairs()
    assert result.objects == reference.objects
    assert result.total_bytes == reference.total_bytes
    assert result.bytes_r == reference.bytes_r
    assert result.bytes_s == reference.bytes_s
    assert result.total_cost == reference.total_cost
    # Record-additive, but accumulated per channel: splitting one shard's
    # traffic across replica channels reorders the float summation.
    assert result.estimated_time_s == pytest.approx(
        reference.estimated_time_s, rel=1e-9
    )
    assert result.operator_counts == reference.operator_counts
    assert result.server_stats == reference.server_stats
    assert _strip_replicas(result.channel_stats) == _strip_replicas(
        reference.channel_stats
    )
    assert result.buffer_high_water_mark == reference.buffer_high_water_mark
    assert _trace_tuples(result) == _trace_tuples(reference)


def _fingerprints(device):
    return (
        device.servers.r.ledger_fingerprint(),
        device.servers.s.ledger_fingerprint(),
    )


def _run_stack(r, s, algorithm, **stack_kwargs):
    """Run one algorithm over a fresh session stack; returns
    ``(result, device)`` so tests can read fingerprints off the
    connections."""
    _, _, device = build_session_stack(r, s, buffer_size=BUFFER, **stack_kwargs)
    algo = build_algorithm(algorithm, device, JoinSpec.distance(EPSILON))
    window = r.bounds().union(s.bounds())
    return algo.run(window), device


# --------------------------------------------------------------------------- #
# fleet construction invariants
# --------------------------------------------------------------------------- #


class TestReplicatedFleetConstruction:
    def test_replica_naming_and_groups(self):
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=3, replicas=2)
        assert fleet.shard_names == ("R#0", "R#1", "R#2")
        assert [
            [rep.name for rep in group] for group in fleet.replica_groups
        ] == [["R#0/0", "R#0/1"], ["R#1/0", "R#1/1"], ["R#2/0", "R#2/1"]]
        # The primaries drive bounds routing and batch evaluation.
        assert tuple(group[0] for group in fleet.replica_groups) == fleet.shards
        assert "replicas=2" in repr(fleet)

    def test_replicas_share_one_dataset_build(self):
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=2, replicas=3)
        for group in fleet.replica_groups:
            primary = group[0]
            for sibling in group[1:]:
                # One immutable shard dataset build, shared by identity.
                assert sibling.dataset is primary.dataset
                assert sibling._index is primary._index

    def test_replicas_have_distinct_breaker_tokens(self):
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=2, replicas=2)
        tokens = [rep.breaker_token for rep in fleet.breaker_units()]
        assert len(set(tokens)) == len(tokens) == 4
        assert fleet.breaker_groups() == fleet.replica_groups

    def test_unreplicated_fleet_keeps_plain_shard_names(self):
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=2, replicas=1)
        assert [rep.name for group in fleet.replica_groups for rep in group] == [
            "R#0", "R#1"
        ]

    def test_shared_view_preserves_replica_identities(self):
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=2, replicas=2)
        view = fleet.shared_view()
        for orig_group, view_group in zip(fleet.replica_groups, view.replica_groups):
            for orig, copy in zip(orig_group, view_group):
                assert copy.name == orig.name
                assert copy.breaker_token == orig.breaker_token
                assert copy.stats is not orig.stats

    def test_validation(self):
        r, _ = _datasets(n=10)
        with pytest.raises(ValueError):
            ShardedSpatialServer(r, name="R", shards=2, replicas=0)
        with pytest.raises(ValueError):
            JoinQuery(r, r, JoinSpec.distance(EPSILON), replicas=0)

    def test_replica_outages_helper(self):
        outs = replica_outages("R#0", 3, 5, 100)
        assert [o.server for o in outs] == ["R#0/0", "R#0/1", "R#0/2"]
        assert all((o.start, o.length) == (5, 100) for o in outs)
        picked = replica_outages("R#0", 3, 0, 10, indices=[2])
        assert [o.server for o in picked] == ["R#0/2"]
        with pytest.raises(ValueError):
            replica_outages("R#0", 0, 0, 10)
        with pytest.raises(ValueError):
            replica_outages("R#0", 2, 0, 10, indices=[2])

    def test_semijoin_rejects_replication(self):
        r, s = _datasets(n=30)
        spec = JoinSpec.distance(EPSILON)
        with pytest.raises(ValueError):
            run_join(r, s, spec, algorithm="semijoin", buffer_size=BUFFER,
                     replicas=2)
        with pytest.raises(ValueError):
            QueryBroker().submit(
                JoinQuery(r, s, spec, algorithm="semijoin",
                          buffer_size=BUFFER, replicas=2)
            )


# --------------------------------------------------------------------------- #
# bit-identity: replicated == unreplicated, fault-free and under chaos
# --------------------------------------------------------------------------- #


class TestReplicationBitIdentity:
    @pytest.mark.parametrize("algorithm", FLEET_ALGORITHMS)
    def test_fault_free_replication_is_invisible(self, algorithm):
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        plain = run_join(r, s, spec, algorithm=algorithm, buffer_size=BUFFER,
                         shards_r=2, shards_s=2)
        replicated = run_join(r, s, spec, algorithm=algorithm,
                              buffer_size=BUFFER, shards_r=2, shards_s=2,
                              replicas=2)
        _assert_identical(replicated, plain)

    @pytest.mark.parametrize("replicas", [2, 3])
    @pytest.mark.parametrize("algorithm", FLEET_ALGORITHMS)
    def test_recoverable_chaos_pins_to_unreplicated_fault_free(
        self, algorithm, replicas
    ):
        """The acceptance invariant: R >= 2 under a recoverable plan ==
        the fault-free unreplicated run, merged fingerprints included."""
        r, s = _datasets()
        clean, clean_dev = _run_stack(r, s, algorithm, shards_r=2, shards_s=2)
        stormy, stormy_dev = _run_stack(
            r, s, algorithm, shards_r=2, shards_s=2, replicas=replicas,
            faults=RECOVERABLE_PLAN,
        )
        _assert_identical(stormy, clean)
        # The merged shard-level fingerprints splice each exchange's
        # primary records back into issue order, so they are replica- and
        # failover-agnostic: record for record the unreplicated ledger.
        assert _fingerprints(stormy_dev) == _fingerprints(clean_dev)
        assert stormy.resilience is not None

    def test_brokered_replication_bit_identity(self):
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        (ref,) = QueryBroker(cache=False).run_batch([
            JoinQuery(r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                      shards_r=2, shards_s=2)
        ])
        queries = [
            JoinQuery(r, s, JoinSpec.distance(EPSILON), algorithm=name,
                      buffer_size=BUFFER, shards_r=2, shards_s=2, replicas=2,
                      faults=RECOVERABLE_PLAN)
            for name in FLEET_ALGORITHMS
        ]
        outcomes = QueryBroker(cache=False).run_batch(queries)
        assert [o.status for o in outcomes] == ["ok"] * len(queries)
        srjoin = next(o for o in outcomes
                      if o.query.algorithm == "srjoin")
        _assert_identical(srjoin.result, ref.result)
        assert srjoin.ledger_fingerprints == ref.ledger_fingerprints

    def test_replication_keys_the_result_cache(self):
        """The replication factor is part of the cache key: per-replica
        ledger detail differs, so runs must not share entries."""
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        broker = QueryBroker(cache=True)
        first = broker.run_batch([
            JoinQuery(r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                      shards_r=2, shards_s=2)
        ])[0]
        again, replicated = broker.run_batch([
            JoinQuery(r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                      shards_r=2, shards_s=2),
            JoinQuery(r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                      shards_r=2, shards_s=2, replicas=2),
        ])
        assert again.cached and first.result is again.result
        assert not replicated.cached
        assert replicated.result.sorted_pairs() == first.result.sorted_pairs()


# --------------------------------------------------------------------------- #
# failover and graceful degradation
# --------------------------------------------------------------------------- #


class TestFailover:
    @pytest.mark.parametrize("replicas", [2, 3])
    def test_replica_killed_mid_query_fails_over_without_drift(self, replicas):
        """Every replica of ``R#0`` but the last is dead from the start."""
        dead = list(range(replicas - 1))
        r, s = _datasets()
        clean, clean_dev = _run_stack(r, s, "srjoin", shards_r=2, shards_s=2)
        killed, killed_dev = _run_stack(
            r, s, "srjoin", shards_r=2, shards_s=2, replicas=replicas,
            faults=FaultPlan(
                seed=3,
                outages=replica_outages("R#0", replicas, 0, 10_000, indices=dead),
            ),
        )
        _assert_identical(killed, clean)
        assert _fingerprints(killed_dev) == _fingerprints(clean_dev)
        # Every lost exchange is ledgered as a failover off a dead
        # replica, and the last replica carried all of the shard's traffic.
        summary = killed.resilience
        off_dead = [("R#0", f"R#0/{idx}") for idx in dead]
        assert summary["failovers"] > 0
        assert all(
            event[:2] in off_dead
            for event in summary["failover_events"]
        )
        # The first exchange fails over off each dead replica in turn
        # (twice in one exchange with R = 3).
        first = summary["failover_events"][: len(dead)]
        assert [event[:2] for event in first] == off_dead
        shard = killed_dev.servers.r.channel_snapshot()["shards"][0]
        assert [rep["total_bytes"] > 0 for rep in shard["replicas"]] == (
            [False] * len(dead) + [True]
        )

    def test_all_replicas_down_fails_typed(self):
        r, s = _datasets()
        with pytest.raises(ServerUnavailable) as exc_info:
            _run_stack(
                r, s, "srjoin", shards_r=2, shards_s=2, replicas=2,
                faults=FaultPlan(
                    seed=3, outages=replica_outages("R#0", 2, 0, 10_000)
                ),
            )
        err = exc_info.value
        assert err.server == "R#0"
        assert err.kind == "unavailable"
        assert err.recoverable

    def test_deadline_after_a_stall_keeps_the_stalled_records(self):
        """A stalled exchange completes on the primary lane before the
        deadline trips; the merged fingerprint keeps its records, like the
        channel logs do."""
        r, s = _datasets()
        _, _, device = build_session_stack(
            r, s, buffer_size=BUFFER, shards_r=2, shards_s=2, replicas=2,
            faults=FaultPlan(seed=5, stall_rate=0.3, stall_latency_s=1.0),
            deadline_s=3.0,
        )
        algo = build_algorithm("srjoin", device, JoinSpec.distance(EPSILON))
        with pytest.raises(QueryTimeout):
            algo.run(r.bounds().union(s.bounds()))
        for side in (device.servers.r, device.servers.s):
            spliced = [
                rec for shard in side.ledger_fingerprint() for rec in shard[-1]
            ]
            logged = [
                rec for chan in side.channels for rec in chan.log.fingerprint()
            ]
            assert sorted(spliced) == sorted(logged)

    def test_failed_query_is_isolated_from_its_wave(self):
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        (ref,) = QueryBroker(cache=False).run_batch([
            JoinQuery(r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                      shards_r=2, shards_s=2)
        ])
        doomed = JoinQuery(
            r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
            shards_r=2, shards_s=2, replicas=2,
            faults=FaultPlan(seed=3,
                             outages=replica_outages("R#0", 2, 0, 10_000)),
        )
        survivor = JoinQuery(
            r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
            shards_r=2, shards_s=2, replicas=2,
            faults=FaultPlan(seed=3,
                             outages=replica_outages("R#0", 2, 0, 10_000,
                                                     indices=[0])),
        )
        failed, survived = QueryBroker(cache=False).run_batch(
            [doomed, survivor]
        )
        assert failed.status == "failed"
        assert isinstance(failed.error, ServerUnavailable)
        assert failed.error.server == "R#0"
        assert failed.result is None
        assert survived.status == "ok"
        _assert_identical(survived.result, ref.result)
        assert survived.ledger_fingerprints == ref.ledger_fingerprints

    def _query(self, r, s, eps, **kwargs):
        kwargs.setdefault("buffer_size", BUFFER)
        return JoinQuery(r, s, JoinSpec.distance(eps), algorithm="srjoin",
                         shards_r=2, shards_s=2, replicas=2, **kwargs)

    @staticmethod
    def _shard_bytes(outcome, shard):
        """Per-replica primary bytes of one R-side shard."""
        return {
            rep["name"]: rep["uplink_bytes"] + rep["downlink_bytes"]
            for snap in outcome.result.channel_stats["R"]["shards"]
            for rep in snap.get("replicas", ())
            if rep["name"].startswith(shard)
        }

    def test_cooling_replica_is_routed_around_then_probed(self):
        """Losing one replica opens only its own breaker: the next wave
        routes around the cooling replica (no shed), the wave after sends
        the half-open probe to the recovering replica, and success closes
        the breaker."""
        r, s = _datasets()
        broker = QueryBroker(max_wave=1, cache=False, breaker_threshold=1,
                             breaker_cooldown_waves=1)
        kill0 = FaultPlan(
            seed=3, outages=replica_outages("R#0", 2, 0, 10_000, indices=[0])
        )
        outcomes = broker.run_batch([
            self._query(r, s, 0.030, faults=kill0),  # opens R#0/0's breaker
            self._query(r, s, 0.031),                # cooling -> routed around
            self._query(r, s, 0.032),                # half-open probe
            self._query(r, s, 0.033),                # closed again
        ])
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert broker.stats.breaker_rejections == 0
        by_wave = [self._shard_bytes(o, "R#0") for o in outcomes]
        # Waves 1-2: the dead/cooling replica carries nothing.
        assert by_wave[0]["R#0/0"] == 0 and by_wave[0]["R#0/1"] > 0
        assert by_wave[1]["R#0/0"] == 0 and by_wave[1]["R#0/1"] > 0
        # Wave 3: the probe is routed *to* the recovering replica.
        assert by_wave[2]["R#0/0"] > 0 and by_wave[2]["R#0/1"] == 0
        # Wave 4: breaker closed, healthy-first order restored.
        assert by_wave[3]["R#0/0"] > 0 and by_wave[3]["R#0/1"] == 0

    def test_shard_sheds_only_when_every_replica_is_cooling(self):
        r, s = _datasets()
        broker = QueryBroker(max_wave=1, cache=False, breaker_threshold=1,
                             breaker_cooldown_waves=1)
        kill_all = FaultPlan(
            seed=3, outages=replica_outages("R#0", 2, 0, 10_000)
        )
        outcomes = broker.run_batch([
            self._query(r, s, 0.030, faults=kill_all),
            self._query(r, s, 0.031),   # both replicas cooling -> shed
            self._query(r, s, 0.032),   # half-open probes -> recovered
            self._query(r, s, 0.033),
        ])
        assert [o.status for o in outcomes] == ["failed", "failed", "ok", "ok"]
        assert outcomes[0].error.kind == "unavailable"
        assert outcomes[1].error.kind == "breaker"
        assert outcomes[1].error.server == "R#0"
        assert "every replica" in str(outcomes[1].error)
        assert broker.stats.breaker_rejections == 1


# --------------------------------------------------------------------------- #
# the replica set of one: an unreplicated connection
# --------------------------------------------------------------------------- #


class TestSingleReplicaConnection:
    """An unreplicated connection is a replica set of one.  It looks
    exactly like its one channel, and a lost exchange surfaces the
    exchange's own typed error -- never a shard-level failover verdict."""

    def test_snapshot_and_fingerprint_are_the_channels(self):
        r, s = _datasets()
        _, device = _run_stack(
            r, s, "srjoin", shards_r=2, faults=RECOVERABLE_PLAN
        )
        plain, fleet = device.servers.s, device.servers.r
        assert plain.channels == (plain.channel,)
        assert plain.channel_snapshot() == plain.channel.snapshot()
        assert plain.ledger_fingerprint() == plain.channel.ledger_fingerprint()
        # Every shard of an unreplicated fleet is a replica set of one too.
        assert fleet.channel_snapshot()["shards"] == [
            chan.snapshot() for chan in fleet.channels
        ]
        assert fleet.ledger_fingerprint() == tuple(
            chan.ledger_fingerprint() for chan in fleet.channels
        )
        assert plain.failover_events() == fleet.failover_events() == ()

    @pytest.mark.parametrize(
        "shards, plan, error",
        [
            (1, FaultPlan(seed=3, outages=(Outage("R", 0, 10**4),)), ServerUnavailable),
            (2, FaultPlan(seed=3, outages=(Outage("R#0", 0, 10**4),)), ServerUnavailable),
            (1, FaultPlan(seed=3, drop_rate=0.9), RetryExhausted),
        ],
        ids=["plain-outage", "shard-outage", "plain-drops"],
    )
    def test_lost_exchange_reraises_its_own_error(self, shards, plan, error):
        r, s = _datasets()
        _, _, device = build_session_stack(
            r, s, buffer_size=BUFFER, shards_r=shards, faults=plan
        )
        algo = build_algorithm("srjoin", device, JoinSpec.distance(EPSILON))
        with pytest.raises(error) as exc_info:
            algo.run(r.bounds().union(s.bounds()))
        if error is ServerUnavailable:
            # The controller's verdict names the failed exchange; a shard
            # failover verdict would carry no exchange index.
            assert exc_info.value.op_index is not None
        assert device.servers.r.failover_events() == ()
        assert device.servers.r.resilience.failovers == 0


# --------------------------------------------------------------------------- #
# the healthy-first replica ranking, on one connection
# --------------------------------------------------------------------------- #


class TestReplicaRanking:
    """Which replica serves an exchange: probe replicas first, then
    healthy ones, then replicas that lost an exchange of this run (until
    ``reset_channels``), and ``down`` replicas last; ties keep replica
    order.  Every replica answers identically, so the ranking shows only
    in which replica channel carries the bytes."""

    SHARD = "X"

    def _connection(self, replicas=3, faults=None):
        dataset = clustered(n=60, clusters=2, seed=21, name=self.SHARD)
        servers = [
            SpatialServer(dataset, name=f"{self.SHARD}/{j}")
            for j in range(replicas)
        ]
        channels = [Channel(NetworkConfig(), name=srv.name) for srv in servers]
        resilience = ResilienceController(faults) if faults is not None else None
        return RemoteServer(
            servers, channels, resilience=resilience, name=self.SHARD
        )

    @staticmethod
    def _serving(conn):
        """Query once; the names of the replica channels that moved bytes."""
        before = [chan.total_bytes for chan in conn.channels]
        conn.count(Rect(0.0, 0.0, 1.0, 1.0))
        return [
            chan.name
            for chan, prior in zip(conn.channels, before)
            if chan.total_bytes > prior
        ]

    def test_unmarked_connection_serves_from_the_first_replica(self):
        conn = self._connection()
        assert conn.backing_server.name == "X/0"
        assert self._serving(conn) == ["X/0"]
        assert self._serving(conn) == ["X/0"]

    def test_down_replica_is_routed_around(self):
        conn = self._connection()
        conn.apply_health({"X/0": "down"})
        assert conn.backing_server.name == "X/1"
        assert self._serving(conn) == ["X/1"]

    def test_probe_replica_is_preferred(self):
        conn = self._connection()
        conn.apply_health({"X/2": "probe"})
        assert conn.backing_server.name == "X/2"
        assert self._serving(conn) == ["X/2"]

    def test_later_verdict_replaces_the_earlier_one(self):
        conn = self._connection()
        conn.apply_health({"X/0": "down"})
        conn.apply_health({"X/0": "probe"})
        assert self._serving(conn) == ["X/0"]
        conn.apply_health({"X/0": "down"})
        assert self._serving(conn) == ["X/1"]

    def test_verdicts_for_other_servers_are_ignored(self):
        conn = self._connection()
        conn.apply_health({"Y/0": "down", "X": "down", "X/9": "probe"})
        assert self._serving(conn) == ["X/0"]

    def test_marks_survive_reset_channels(self):
        conn = self._connection()
        conn.apply_health({"X/0": "down", "X/2": "probe"})
        conn.reset_channels()
        assert self._serving(conn) == ["X/2"]

    def test_failed_replica_sinks_until_reset(self):
        conn = self._connection(
            faults=FaultPlan(seed=3, outages=(Outage("X/0", 0, 10**4),))
        )
        # The first exchange loses X/0 (its attempts land on X/0's retry
        # lane, not its primary lane) and fails over to X/1.
        assert self._serving(conn) == ["X/1"]
        assert [event[:2] for event in conn.failover_events()] == [("X", "X/0")]
        # X/0 now ranks below the healthy replicas: no new failover.
        assert conn.backing_server.name == "X/1"
        assert self._serving(conn) == ["X/1"]
        assert len(conn.failover_events()) == 1
        # A reset forgets the failure: X/0 is tried first again.
        conn.reset_channels()
        assert conn.failover_events() == ()
        assert conn.backing_server.name == "X/0"
        assert self._serving(conn) == ["X/1"]
        assert [event[:2] for event in conn.failover_events()] == [("X", "X/0")]

    def test_down_replica_is_the_last_resort(self):
        conn = self._connection(
            replicas=2,
            faults=FaultPlan(seed=3, outages=(Outage("X/1", 0, 10**4),)),
        )
        conn.apply_health({"X/0": "down"})
        assert self._serving(conn) == ["X/0"]
        assert [event[:2] for event in conn.failover_events()] == [("X", "X/1")]

    def test_losing_every_replica_is_a_shard_verdict(self):
        conn = self._connection(
            replicas=2,
            faults=FaultPlan(
                seed=3,
                outages=(Outage("X/0", 0, 10**4), Outage("X/1", 0, 10**4)),
            ),
        )
        with pytest.raises(ServerUnavailable) as exc_info:
            conn.count(Rect(0.0, 0.0, 1.0, 1.0))
        err = exc_info.value
        assert (err.server, err.op_index, err.kind) == ("X", None, "unavailable")
        assert [event[:2] for event in conn.failover_events()] == [
            ("X", "X/0"),
            ("X", "X/1"),
        ]

    def test_construction_validation(self):
        server = SpatialServer(clustered(n=20, clusters=1, seed=1), name="X")
        channel = Channel(NetworkConfig(), name="X")
        with pytest.raises(ValueError, match="at least one replica"):
            RemoteServer((), ())
        with pytest.raises(ValueError, match="one channel per replica"):
            RemoteServer((server,), (channel, Channel(NetworkConfig())))
        assert RemoteServer((server,), (channel,)).name == "X"


# --------------------------------------------------------------------------- #
# satellite: device response-time estimate over replica channels
# --------------------------------------------------------------------------- #


class TestEstimatedResponseTime:
    def test_estimate_sums_over_replica_channels(self):
        """The estimate walks every replica channel, so traffic that
        failed over to a sibling replica is still counted -- the faulted
        replicated run estimates exactly like the fault-free plain run."""
        r, s = _datasets()
        clean, clean_dev = _run_stack(r, s, "srjoin", shards_r=2, shards_s=2)
        killed, killed_dev = _run_stack(
            r, s, "srjoin", shards_r=2, shards_s=2, replicas=2,
            faults=FaultPlan(
                seed=3,
                outages=replica_outages("R#0", 2, 0, 10_000, indices=[0]),
            ),
        )
        # One channel per replica on each side's connection.
        assert len(list(killed_dev.servers.r.channels)) == 4
        assert len(list(clean_dev.servers.r.channels)) == 2
        assert killed_dev.estimated_response_time() == pytest.approx(
            clean_dev.estimated_response_time()
        )
        assert killed.estimated_time_s == pytest.approx(clean.estimated_time_s)


# --------------------------------------------------------------------------- #
# satellite: result-cache byte budget
# --------------------------------------------------------------------------- #


def _result(pairs=0, objects=0, trace=0):
    return JoinResult(
        algorithm="x",
        spec=JoinSpec.distance(0.01),
        pairs={(i, i) for i in range(pairs)},
        objects=list(range(objects)),
        trace=[None] * trace,
    )


class TestResultCacheByteBudget:
    def test_weight_is_deterministic_and_size_aware(self):
        small, big = _result(pairs=1), _result(pairs=100, objects=5, trace=3)
        assert result_weight(small) == result_weight(_result(pairs=1))
        assert result_weight(big) > result_weight(small)

    def test_bytes_stored_tracks_puts_and_clear(self):
        cache = ResultCache(max_bytes=100_000)
        a = cache.put(("a",), _result(pairs=10))
        assert cache.bytes_stored == result_weight(a)
        b = cache.put(("b",), _result(pairs=20))
        assert cache.bytes_stored == result_weight(a) + result_weight(b)
        # Re-putting a key replaces its weight instead of double-counting.
        cache.put(("a",), _result(pairs=10))
        assert cache.bytes_stored == result_weight(a) + result_weight(b)
        cache.clear()
        assert cache.bytes_stored == 0 and len(cache) == 0

    def test_byte_budget_evicts_least_recently_used(self):
        entry = result_weight(_result(pairs=10))
        cache = ResultCache(max_bytes=3 * entry)
        for key in ("a", "b", "c"):
            cache.put((key,), _result(pairs=10))
        assert cache.evictions == 0
        # A hit on "a" refreshes it; the fourth insert evicts "b" (LRU).
        assert cache.get(("a",)) is not None
        cache.put(("d",), _result(pairs=10))
        assert cache.evictions == 1
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.bytes_stored <= 3 * entry

    def test_oversized_result_is_kept_alone(self):
        cache = ResultCache(max_bytes=300)
        cache.put(("small",), _result())
        huge = cache.put(("huge",), _result(pairs=1000))
        assert result_weight(huge) > 300
        # The newest entry always survives; everything else is shed.
        assert len(cache) == 1
        assert cache.get(("huge",)) is huge
        assert cache.get(("small",)) is None

    def test_byte_and_entry_bounds_compose(self):
        entry = result_weight(_result())
        cache = ResultCache(max_entries=2, max_bytes=10 * entry)
        for key in ("a", "b", "c"):
            cache.put((key,), _result())
        assert len(cache) == 2          # entry bound, byte budget idle
        assert cache.evictions == 1
        assert cache.bytes_stored == 2 * entry

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
