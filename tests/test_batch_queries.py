"""Tests for the vectorised batch execution layer.

The batch entry points (flattened R-tree traversal, server batch queries,
metered batch proxies) must return exactly what a loop of scalar calls
returns -- same result sets, same server statistics, same wire bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import clustered, uniform
from repro.datasets.railway import generate_railway_like
from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.predicates import IntersectionPredicate, WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.index.aggregate_rtree import AggregateRTree
from repro.index.plane_sweep import plane_sweep_pairs, plane_sweep_pairs_scalar
from repro.index.rtree import RTree
from repro.network.channel import Channel
from repro.network.config import NetworkConfig
from repro.server import ShardedSpatialServer
from repro.server.remote import RemoteServer, ServerPair
from repro.server.server import SpatialServer


def _random_windows(n: int, seed: int):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.1, 0.9, size=n)
    ys = rng.uniform(-0.1, 0.9, size=n)
    ws = rng.uniform(0.0, 0.4, size=(n, 2))
    return [
        Rect(float(x), float(y), float(x + w), float(y + h))
        for x, y, (w, h) in zip(xs, ys, ws)
    ]


def _csr_lists(bounds, oids):
    """Slice a CSR ``(bounds, oids)`` batch answer into per-query arrays."""
    return [oids[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)]


class TestFlatTreeBatches:
    @pytest.mark.parametrize("dataset", ["uniform", "clustered", "railway"])
    def test_window_and_count_batch_match_scalar(self, dataset):
        if dataset == "railway":
            ds = generate_railway_like(n_segments=400, seed=5, hubs=8)
        elif dataset == "clustered":
            ds = clustered(n=500, clusters=5, seed=3)
        else:
            ds = uniform(n=500, seed=2)
        tree = RTree.bulk_load(ds.entries(), max_entries=8)
        windows = _random_windows(40, seed=9)
        batched = _csr_lists(*tree.window_query_batch_flat(windows))
        counts = tree.count_window_batch(windows)
        for window, oids, count in zip(windows, batched, counts):
            scalar = tree.window_query(window)
            assert sorted(oids.tolist()) == sorted(scalar)
            assert count == len(scalar)

    def test_range_batch_matches_scalar(self):
        ds = clustered(n=400, clusters=4, seed=7)
        tree = RTree.bulk_load(ds.entries(), max_entries=8)
        rng = np.random.default_rng(1)
        centers = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(60, 2))]
        radii = rng.uniform(0.0, 0.1, size=60).tolist()
        batched = _csr_lists(*tree.range_query_batch_flat(centers, radii))
        for center, radius, oids in zip(centers, radii, batched):
            assert sorted(oids.tolist()) == sorted(tree.range_query(center, radius))

    def test_aggregate_count_batch_matches_scalar(self):
        ds = generate_railway_like(n_segments=300, seed=11, hubs=6)
        agg = AggregateRTree(ds.entries(), max_entries=8)
        windows = _random_windows(30, seed=13)
        assert agg.count_batch(windows) == [agg.count(w) for w in windows]

    def test_empty_tree_and_empty_batch(self):
        tree = RTree(max_entries=4)
        assert _csr_lists(*tree.window_query_batch_flat([])) == []
        assert tree.count_window_batch([Rect(0, 0, 1, 1)]) == [0]
        assert _csr_lists(*tree.range_query_batch_flat([], [])) == []


class TestServerBatches:
    def _pair(self):
        ds_r = clustered(n=200, clusters=3, seed=17, name="R")
        ds_s = clustered(n=200, clusters=3, seed=18, name="S")
        server_r = SpatialServer(ds_r, name="R")
        server_s = SpatialServer(ds_s, name="S")
        return ServerPair.connect(server_r, server_s, config=NetworkConfig())

    def test_count_batch_bytes_match_scalar_loop(self):
        pair_a = self._pair()
        pair_b = self._pair()
        windows = _random_windows(12, seed=19)
        batched = pair_a.r.count_batch(windows)
        looped = [pair_b.r.count(w) for w in windows]
        assert batched == looped
        assert pair_a.r.total_bytes() == pair_b.r.total_bytes()
        assert pair_a.r.channel.snapshot() == pair_b.r.channel.snapshot()
        assert (
            pair_a.r.backing_server.stats.as_dict()
            == pair_b.r.backing_server.stats.as_dict()
        )

    def test_window_batch_bytes_match_scalar_loop(self):
        pair_a = self._pair()
        pair_b = self._pair()
        windows = _random_windows(12, seed=23)
        batched = pair_a.s.window_batch(windows)
        looped = [pair_b.s.window(w) for w in windows]
        for (mbrs_a, oids_a), (mbrs_b, oids_b) in zip(batched, looped):
            assert sorted(oids_a.tolist()) == sorted(oids_b.tolist())
            assert mbrs_a.shape == mbrs_b.shape
        assert pair_a.s.total_bytes() == pair_b.s.total_bytes()
        assert (
            pair_a.s.backing_server.stats.as_dict()
            == pair_b.s.backing_server.stats.as_dict()
        )

    def test_range_batch_bytes_match_scalar_loop(self):
        pair_a = self._pair()
        pair_b = self._pair()
        rng = np.random.default_rng(29)
        centers = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(15, 2))]
        radii = rng.uniform(0.0, 0.08, size=15).tolist()
        batched = pair_a.r.range_batch(centers, radii)
        looped = [pair_b.r.range(c, e) for c, e in zip(centers, radii)]
        for (_, oids_a), (_, oids_b) in zip(batched, looped):
            assert sorted(oids_a.tolist()) == sorted(oids_b.tolist())
        assert pair_a.r.total_bytes() == pair_b.r.total_bytes()
        assert (
            pair_a.r.backing_server.stats.as_dict()
            == pair_b.r.backing_server.stats.as_dict()
        )


class TestWindowBatchFlat:
    """The CSR window endpoint must decompose into the per-window batch."""

    def _pair(self):
        ds_r = clustered(n=220, clusters=3, seed=31, name="R")
        ds_s = clustered(n=220, clusters=4, seed=32, name="S")
        server_r = SpatialServer(ds_r, name="R")
        server_s = SpatialServer(ds_s, name="S")
        return ServerPair.connect(server_r, server_s, config=NetworkConfig())

    def test_server_flat_matches_window_batch(self):
        ds = clustered(n=300, clusters=5, seed=33)
        server = SpatialServer(ds, name="R")
        windows = _random_windows(25, seed=35)
        mbrs, oids, bounds = server.window_batch_flat(windows)
        assert bounds.shape == (len(windows) + 1,)
        assert bounds[0] == 0 and bounds[-1] == oids.shape[0]
        fresh = SpatialServer(ds, name="R")
        per_window = fresh.window_batch(windows)
        for i, (w_mbrs, w_oids) in enumerate(per_window):
            assert oids[bounds[i] : bounds[i + 1]].tolist() == w_oids.tolist()
            assert np.array_equal(mbrs[bounds[i] : bounds[i + 1]], w_mbrs)
        assert server.stats.as_dict() == fresh.stats.as_dict()

    def test_remote_flat_ledger_identical_to_scalar_loop(self):
        pair_a = self._pair()
        pair_b = self._pair()
        windows = _random_windows(14, seed=37)
        mbrs, oids, bounds = pair_a.r.window_batch_flat(windows)
        looped = [pair_b.r.window(w) for w in windows]
        for i, (_, w_oids) in enumerate(looped):
            assert sorted(oids[bounds[i] : bounds[i + 1]].tolist()) == sorted(
                w_oids.tolist()
            )
        assert pair_a.r.total_bytes() == pair_b.r.total_bytes()
        assert pair_a.r.channel.snapshot() == pair_b.r.channel.snapshot()
        # Batching groups the query records before the responses; the
        # record *multiset* must still be exactly the scalar loop's.
        assert sorted(pair_a.r.channel.log.fingerprint()) == sorted(
            pair_b.r.channel.log.fingerprint()
        )
        assert (
            pair_a.r.backing_server.stats.as_dict()
            == pair_b.r.backing_server.stats.as_dict()
        )

    def test_empty_batch(self):
        server = SpatialServer(uniform(n=50, seed=39), name="R")
        mbrs, oids, bounds = server.window_batch_flat([])
        assert mbrs.shape == (0, 4) and oids.shape == (0,)
        assert bounds.tolist() == [0]
        assert server.stats.window_queries == 0


ENDPOINTS = ["server", "remote", "replicated", "sharded", "sharded-replicated"]


def _endpoint(kind: str):
    """A fresh endpoint of one kind over the same dataset."""
    ds = clustered(n=240, clusters=4, seed=43, name="R")
    if kind == "server":
        return SpatialServer(ds, name="R")
    if kind == "replicated":
        replicas = [SpatialServer(ds, name=f"R/{j}") for j in range(2)]
        channels = [Channel(NetworkConfig(), name=rep.name) for rep in replicas]
        return RemoteServer(replicas, channels, name="R")
    if kind == "remote":
        server = SpatialServer(ds, name="R")
    else:
        replicas = 2 if kind == "sharded-replicated" else 1
        server = ShardedSpatialServer(ds, name="R", shards=4, replicas=replicas)
    other = SpatialServer(uniform(n=20, seed=44, name="S"), name="S")
    return ServerPair.connect(server, other, config=NetworkConfig()).r


def _meter(endpoint):
    """What answering cost: server statistics, and wire bytes on a proxy."""
    if isinstance(endpoint, SpatialServer):
        return endpoint.stats.as_dict()
    return endpoint.server_stats(), endpoint.total_bytes()


def _rows(mbrs, oids):
    return sorted(
        (int(oid), tuple(mbr)) for oid, mbr in zip(oids.tolist(), mbrs.tolist())
    )


class TestSharedBatchForms:
    """``window_batch``/``range_batch`` are written once, as CSR slices of
    each endpoint's flat form; on every endpoint they must answer and
    cost exactly what the scalar loop does."""

    @pytest.mark.parametrize("kind", ENDPOINTS)
    def test_window_batch_matches_scalar_loop(self, kind):
        batched_ep, looped_ep = _endpoint(kind), _endpoint(kind)
        windows = _random_windows(16, seed=45)
        batched = batched_ep.window_batch(windows)
        looped = [looped_ep.window(w) for w in windows]
        assert len(batched) == len(windows)
        for got, want in zip(batched, looped):
            assert _rows(*got) == _rows(*want)
        assert _meter(batched_ep) == _meter(looped_ep)

    @pytest.mark.parametrize("kind", ENDPOINTS)
    def test_range_batch_matches_scalar_loop(self, kind):
        batched_ep, looped_ep = _endpoint(kind), _endpoint(kind)
        rng = np.random.default_rng(47)
        centers = [
            Point(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(12, 2))
        ]
        radii = rng.uniform(0.0, 0.1, size=12).tolist()
        batched = batched_ep.range_batch(centers, radii)
        looped = [looped_ep.range(c, e) for c, e in zip(centers, radii)]
        assert len(batched) == len(centers)
        for got, want in zip(batched, looped):
            assert _rows(*got) == _rows(*want)
        assert _meter(batched_ep) == _meter(looped_ep)

    @pytest.mark.parametrize("kind", ENDPOINTS)
    def test_empty_batches_answer_nothing(self, kind):
        endpoint = _endpoint(kind)
        untouched = _meter(_endpoint(kind))
        assert endpoint.window_batch([]) == []
        assert endpoint.range_batch([], []) == []
        assert _meter(endpoint) == untouched


class TestSemiJoinBatchExecution:
    """``execution="batch"`` == the scalar protocol loop, bit for bit."""

    def _run(self, execution, seed=41, epsilon=0.04):
        from repro.api import AdHocJoinSession

        r = clustered(n=150, clusters=3, seed=seed, name="R")
        s = uniform(n=90, seed=seed + 7, name="S")
        session = AdHocJoinSession(r, s, buffer_size=200, indexed=True)
        return session.run(
            algorithm="semijoin", kind="distance", epsilon=epsilon,
            execution=execution,
        )

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_batch_equals_scalar(self, seed):
        batch = self._run("batch", seed=seed)
        scalar = self._run("scalar", seed=seed)
        assert batch.sorted_pairs() == scalar.sorted_pairs()
        assert batch.total_bytes == scalar.total_bytes
        assert batch.bytes_r == scalar.bytes_r
        assert batch.bytes_s == scalar.bytes_s
        assert batch.server_stats == scalar.server_stats
        assert batch.channel_stats == scalar.channel_stats
        assert [e.action for e in batch.trace] == [e.action for e in scalar.trace]
        assert [e.detail for e in batch.trace] == [e.detail for e in scalar.trace]

    def test_batch_is_the_default(self):
        import inspect

        from repro.core.planner import ALGORITHMS

        sig = inspect.signature(ALGORITHMS["semijoin"].__init__)
        assert sig.parameters["execution"].default == "batch"

    def test_unknown_execution_rejected(self):
        with pytest.raises(ValueError):
            self._run("frontier")


class TestBrokerDeterminismCompact:
    """Shuffled submission order => identical per-query results and bytes."""

    def test_shuffled_orders_identical(self):
        import random

        from repro.core.join_types import JoinSpec
        from repro.service import JoinQuery, QueryBroker

        r = clustered(n=100, clusters=3, seed=51, name="R")
        s = clustered(n=100, clusters=2, seed=52, name="S")
        queries = [
            JoinQuery(r, s, JoinSpec.distance(0.03), algorithm=a, buffer_size=96)
            for a in ("upjoin", "srjoin", "mobijoin", "naive")
        ]
        baseline = {
            id(o.query): (o.result.sorted_pairs(), o.result.total_bytes,
                          o.result.bytes_r, o.result.bytes_s)
            for o in QueryBroker(cache=False).run_batch(queries)
        }
        shuffled = list(queries)
        random.Random(9).shuffle(shuffled)
        for outcome in QueryBroker(cache=False).run_batch(shuffled):
            assert (
                outcome.result.sorted_pairs(),
                outcome.result.total_bytes,
                outcome.result.bytes_r,
                outcome.result.bytes_s,
            ) == baseline[id(outcome.query)]


class TestVectorisedSweepAgainstScalarReference:
    @given(
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=5000),
        st.floats(min_value=0.0, max_value=0.15),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_pairs_as_scalar_sweep(self, na, nb, seed, eps):
        rng = np.random.default_rng(seed)
        def mk(n, s):
            pts = rng.uniform(0, 1, size=(n, 2))
            ext = rng.uniform(0, 0.05, size=(n, 2))
            return np.column_stack([pts, np.minimum(pts + ext, 1.0)])
        a, b = mk(na, seed), mk(nb, seed + 1)
        predicate = WithinDistancePredicate(eps) if eps > 0 else IntersectionPredicate()
        assert set(plane_sweep_pairs(a, b, predicate)) == set(
            plane_sweep_pairs_scalar(a, b, predicate)
        )


class TestRectArrayBatchKernels:
    def test_expand_index_ranges(self):
        starts = np.array([3, 0, 5, 7])
        ends = np.array([5, 0, 8, 6])  # second empty, fourth negative-length
        row, idx = rect_array.expand_index_ranges(starts, ends)
        assert row.tolist() == [0, 0, 2, 2, 2]
        assert idx.tolist() == [3, 4, 5, 6, 7]

    def test_within_distance_of_rect_matches_predicate(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(0, 1, (150, 2))
        mbrs = np.column_stack([pts, pts + rng.uniform(0, 0.05, (150, 2))])
        rect = Rect(0.4, 0.4, 0.55, 0.6)
        eps = 0.07
        mask = rect_array.within_distance_of_rect(mbrs, rect, eps)
        for row, hit in zip(mbrs, mask):
            other = Rect(*(float(v) for v in row))
            assert bool(hit) == rect.within_distance(other, eps)

    def test_clip_to_window_matches_intersection(self):
        windows = _random_windows(50, seed=43)
        arr = rect_array.rects_to_array(windows)
        clip_window = Rect(0.2, 0.2, 0.7, 0.7)
        clipped, valid = rect_array.clip_to_window(arr, clip_window)
        for window, row, ok in zip(windows, clipped, valid):
            inter = window.intersection(clip_window)
            assert bool(ok) == (inter is not None)
            if inter is not None:
                assert inter == Rect(*(float(v) for v in row))

