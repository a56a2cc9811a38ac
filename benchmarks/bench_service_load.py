"""Sustained-throughput record of the asynchronous service lane.

``test_service_load_record`` serves the same seeded Poisson arrival stream
of frontier queries two ways:

* **batch-at-a-time** (the reference) -- the pre-service serving model:
  queries are admitted one at a time and each blocks the server until it
  finishes (one ``run_batch([query])`` per arrival).  Arrivals during an
  execution wait; nothing ever coalesces across queries.
* **service lane** -- one :class:`~repro.service.executor.QueryService`:
  ``submit()`` returns immediately, the background admission loop drains
  the accumulated backlog into broker waves, so queries arriving while a
  wave executes coalesce into the next one (shared server build,
  per-(server, round) batched COUNT descents).

Both lanes replay the *same* arrival offsets (seeded exponential gaps),
and every served query is asserted bit-identical -- pairs, bytes,
per-server stats, operator counts, channel-ledger fingerprints and trace
-- to its standalone ``run_join`` before any number is recorded.  The
record -- sustained qps, p50/p95/p99 submission-to-completion latency and
the wall-clock speedup of the service lane -- lands in
``benchmarks/results/service_load.json`` (merged by
``benchmarks/collect.py``, regression-gated via ``collect.py --check``
against the stated ``min_speedup`` floor).
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.planner import build_algorithm, build_session_stack
from repro.core.join_types import JoinSpec
from repro.datasets.synthetic import clustered
from repro.geometry.rect import Rect
from repro.service import JoinQuery, QueryBroker, QueryService

#: Dataset cardinality per side.
BENCH_N = 6000
#: Cluster count (deep trees: COUNT-descent-dominated recursions, the
#: regime where cross-query coalescing pays).
BENCH_CLUSTERS = 128
#: Small buffer: forces operator recursion, many COUNT rounds.
BENCH_BUFFER = 60
#: Queries in the arrival stream.
BENCH_QUERIES = 48
BENCH_EPSILON = 0.002
#: Mean inter-arrival gap of the Poisson stream (seconds).  Far below the
#: per-query service time, so the reference lane saturates and the service
#: lane accumulates a backlog worth coalescing -- the open-loop regime the
#: service exists for.
MEAN_GAP_S = 0.0015
ARRIVAL_SEED = 7
#: Admission width of the service lane: let the whole accumulated backlog
#: coalesce into one wave (a server tuning knob, not a correctness one --
#: results are admission-width-independent).
SERVICE_MAX_WAVE = BENCH_QUERIES
#: Timed repeats per lane.  The lanes are interleaved and each repeat is a
#: *paired* measurement (reference and service lanes back-to-back under
#: the same machine state); the gated speedup is the median of the
#: per-repeat ratios, which cancels CPU drift that best-of-N cannot.
REPEATS = 5
#: Required minimum wall-clock speedup of the service lane (recorded
#: verbatim).
MIN_SPEEDUP = 1.05


def _workload() -> List[JoinQuery]:
    r = clustered(n=BENCH_N, clusters=BENCH_CLUSTERS, seed=0, name="R")
    s = clustered(n=BENCH_N, clusters=BENCH_CLUSTERS, seed=1000, name="S")
    spec = JoinSpec.distance(BENCH_EPSILON)
    bounds = r.bounds().union(s.bounds())
    # One pre-built server pair shared by every query (the long-lived
    # server scenario): both lanes measure serving, not index construction.
    server_r, server_s, _ = build_session_stack(r, s, buffer_size=BENCH_BUFFER)
    # Distinct overlapping sub-windows: distinct cache keys that hammer the
    # same backing servers (no dedup short-circuit, full coalescing).
    queries = []
    grid = 8
    for i in range(BENCH_QUERIES):
        col, row = i % grid, i // grid
        x0 = bounds.xmin + col * bounds.width / (grid + 1)
        y0 = bounds.ymin + row * bounds.height / ((BENCH_QUERIES // grid) + 1)
        window = Rect(x0, y0, x0 + 0.4 * bounds.width, y0 + 0.6 * bounds.height)
        queries.append(
            JoinQuery(r, s, spec, algorithm="upjoin",
                      buffer_size=BENCH_BUFFER, window=window,
                      servers=(server_r, server_s))
        )
    return queries


def _arrival_offsets() -> np.ndarray:
    gaps = np.random.default_rng(ARRIVAL_SEED).exponential(
        MEAN_GAP_S, BENCH_QUERIES
    )
    return np.cumsum(gaps)


def _standalone_reference(query: JoinQuery) -> Tuple:
    """Full bit-identity snapshot of one standalone execution."""
    _, _, device = build_session_stack(
        query.dataset_r, query.dataset_s, buffer_size=query.buffer_size
    )
    algo = build_algorithm(query.algorithm, device, query.spec)
    result = algo.run(query.resolved_window())
    fingerprints = (
        device.servers.r.channel.ledger_fingerprint(),
        device.servers.s.channel.ledger_fingerprint(),
    )
    return _snapshot(result) + (fingerprints,)


def _snapshot(result) -> Tuple:
    return (
        result.sorted_pairs(),
        result.total_bytes,
        result.bytes_r,
        result.bytes_s,
        dict(result.operator_counts),
        {k: dict(v) for k, v in result.server_stats.items()},
        [
            (e.depth, e.action, e.detail, e.count_r, e.count_s, e.window.as_tuple())
            for e in result.trace
        ],
    )


def _outcome_snapshot(outcome) -> Tuple:
    return _snapshot(outcome.result) + (outcome.ledger_fingerprints,)


def _run_reference_lane(
    queries: List[JoinQuery], offsets: np.ndarray
) -> Tuple[float, List[float], List[Tuple]]:
    """Batch-at-a-time: admit one arrival, block until it completes."""
    broker = QueryBroker(cache=False)
    latencies: List[float] = []
    snapshots: List[Tuple] = []
    t0 = time.perf_counter()
    for query, offset in zip(queries, offsets):
        now = time.perf_counter() - t0
        if now < offset:
            time.sleep(offset - now)
        (outcome,) = broker.run_batch([query])
        latencies.append((time.perf_counter() - t0) - offset)
        snapshots.append(_outcome_snapshot(outcome))
    return time.perf_counter() - t0, latencies, snapshots


def _run_service_lane(
    queries: List[JoinQuery], offsets: np.ndarray
) -> Tuple[float, List[float], List[Tuple], Dict[str, int]]:
    """Continuous admission: submit at each arrival, collect asynchronously."""
    tickets: List[int] = []
    with QueryService(max_wave=SERVICE_MAX_WAVE, cache=False) as service:
        t0 = time.perf_counter()

        def feed() -> None:
            for query, offset in zip(queries, offsets):
                now = time.perf_counter() - t0
                if now < offset:
                    time.sleep(offset - now)
                tickets.append(service.submit(query))

        feeder = threading.Thread(target=feed, name="bench-arrivals")
        feeder.start()
        feeder.join()
        outcomes = [service.result(t, timeout=600) for t in tickets]
        elapsed = time.perf_counter() - t0
        stats = service.broker.stats
        wave_stats = {
            "waves": stats.waves,
            "coalesced_exchanges": stats.coalesced_exchanges,
            "standalone_exchanges": stats.standalone_exchanges,
        }
    latencies = [o.service_latency_s for o in outcomes]
    return elapsed, latencies, [_outcome_snapshot(o) for o in outcomes], wave_stats


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    arr = np.asarray(latencies)
    return {
        "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 1),
        "p95_ms": round(float(np.percentile(arr, 95)) * 1e3, 1),
        "p99_ms": round(float(np.percentile(arr, 99)) * 1e3, 1),
    }


@pytest.mark.perf
def test_service_load_record():
    """Record service-lane qps/latency vs batch-at-a-time serving as JSON."""
    queries = _workload()
    offsets = _arrival_offsets()

    # The serving contract first: every lane must be bit-identical to a
    # standalone run per query before any timing matters.
    references = [_standalone_reference(q) for q in queries]

    # Warm everything (index build, flat snapshot, numpy caches) with one
    # full untimed pass.
    QueryBroker(cache=False).run_batch(queries)

    # Paired, interleaved repeats: each repeat runs the reference and the
    # service lane back-to-back under the same machine state and yields one
    # speedup ratio.  The gated figure is the *median* ratio -- robust
    # against the CPU drift of a small box, which inflates or deflates
    # whole repeats but rarely half of one.
    ref_best = None
    lane_best = None
    pairwise: List[float] = []
    for _ in range(REPEATS):
        ref_wall, ref_lat, snaps = _run_reference_lane(queries, offsets)
        assert snaps == references, "reference lane diverged from standalone"
        if ref_best is None or ref_wall < ref_best[0]:
            ref_best = (ref_wall, ref_lat)
        wall, lat, snaps, wave_stats = _run_service_lane(queries, offsets)
        assert snaps == references, "service lane diverged from standalone"
        assert wave_stats["waves"] < BENCH_QUERIES, (
            "no arrival ever coalesced into a shared wave"
        )
        pairwise.append(ref_wall / wall)
        if lane_best is None or wall < lane_best[0]:
            lane_best = (wall, lat, wave_stats)

    ref_wall, ref_lat = ref_best
    wall, lat, wave_stats = lane_best
    speedup = round(float(np.median(pairwise)), 2)

    record = {
        "description": (
            f"{BENCH_QUERIES} frontier (upJoin) queries arriving as one "
            f"seeded Poisson stream (mean gap {MEAN_GAP_S * 1e3:.0f}ms): "
            "batch-at-a-time serving (one blocking run_batch per arrival "
            "-- the pre-service model) vs the QueryService "
            "continuous-admission lane (backlog coalesces into broker "
            "waves with one COUNT exchange per server and round); every "
            "query bit-identical to standalone run_join in both lanes; "
            "speedup = median of per-repeat paired ratios "
            f"over {REPEATS} interleaved repeats (walls/latencies: best "
            "repeat)"
        ),
        "workload": {
            "dataset_points": BENCH_N,
            "clusters": BENCH_CLUSTERS,
            "buffer_size": BENCH_BUFFER,
            "epsilon": BENCH_EPSILON,
            "queries": BENCH_QUERIES,
            "mean_arrival_gap_ms": MEAN_GAP_S * 1e3,
            "arrival_seed": ARRIVAL_SEED,
        },
        "reference": {
            "wall_s": round(ref_wall, 4),
            "qps": round(BENCH_QUERIES / ref_wall, 2),
            **_percentiles(ref_lat),
        },
        "service": {
            "wall_s": round(wall, 4),
            "qps": round(BENCH_QUERIES / wall, 2),
            "pairwise_speedups": [round(x, 2) for x in pairwise],
            **_percentiles(lat),
            **wave_stats,
        },
        #: Gated: the service lane vs batch-at-a-time serving.
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "service_load.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"service lane regressed: median paired speedup {speedup}x vs "
        f"batch-at-a-time (floor {MIN_SPEEDUP}x; pairs {pairwise})"
    )
