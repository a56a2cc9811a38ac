"""The benchmark's two workloads and their answer oracles.

Every input is generated from the workload seed before timing; the program
only ever sees the generated datasets, windows and parameters.

* ``adhoc`` -- closed loop, one client: ``repro.api.quick_join`` on two
  clustered 1,000-point datasets per call, servers built inside the call.
* ``service`` -- open loop: bursts of queries arrive as a Poisson stream at
  ``QueryService(workers=0)`` over 2x2-sharded, 2-replica fleets with a
  recoverable fault plan.

Each workload exposes ``setup()`` (what ``setup_s`` times),
``oracles(seconds)`` (brute-force answers for a pass of that length,
untimed), ``run(seconds, count)`` (one timed pass), ``restart()`` (back to
the state a pass starts from), ``close()`` and ``reference(ops, faults)``
(the fixed slice checked against ``digests.json``).
"""

from __future__ import annotations

import functools
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import FaultPlan, JoinQuery, QueryService, quick_join
from repro.core.join_types import JoinSpec
from repro.datasets.dataset import SpatialDataset
from repro.datasets.synthetic import clustered
from repro.geometry.rect import Rect

from hostspeed import HostSpeed

__all__ = ["WORKLOADS", "PassRecord", "make_workload"]

#: The paper's six algorithms (``adhoc`` rotates all of them).
ALL_ALGORITHMS = ("mobijoin", "upjoin", "srjoin", "semijoin", "naive", "fixedgrid")

#: Seed of the fixed input slice whose per-operation digest is committed in
#: ``digests.json``; the slice is re-run and compared on every invocation.
REFERENCE_SEED = 0
#: Operations in that slice, per workload.
REFERENCE_OPS = {"adhoc": 24, "service": 16}
#: Seed of the warm-up inputs, the same for every workload seed.
WARMUP_SEED = 999_999


@dataclass
class PassRecord:
    """What one timed pass observed.

    Each operation's time is taken on two clocks.  ``latencies_s`` is wall
    time (closed loop: call to return; open loop: due time to completion).
    ``cpu_latencies_s`` covers the same interval on the process's CPU
    clock, which counts the work of every thread.  ``digest`` holds
    ``(pair count, primary-lane wire bytes)`` per operation in submission
    order; failed operations contribute ``(-1, -1)``.
    """

    latencies_s: List[float] = field(default_factory=list)
    cpu_latencies_s: List[float] = field(default_factory=list)
    #: Per operation: ``perf_counter`` time of its call (closed loop) or
    #: due time (open loop), where :meth:`HostSpeed.scale` is read.
    starts: List[float] = field(default_factory=list)
    #: Host-speed samples taken during the pass, never during an operation.
    speed: HostSpeed = field(default_factory=HostSpeed)
    digest: List[Tuple[int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Wall time the program was busy: the sum of call times (closed loop)
    #: or the union of due-to-completion intervals (open loop).
    busy_s: float = 0.0
    #: CPU time the process used: during the calls (closed loop) or over
    #: the whole pass (open loop).
    busy_cpu_s: float = 0.0
    count_queries: int = 0
    operator_calls: int = 0
    ledger_records: int = 0
    primary_bytes: int = 0
    retry_bytes: int = 0
    generator_lag_s: List[float] = field(default_factory=list)
    #: Open loop only: due time per query id, and broker statistics of
    #: the pass.
    due_by_query: Dict[int, float] = field(default_factory=dict)
    broker_stats: Dict[str, int] = field(default_factory=dict)

    def note_result(self, result) -> None:
        counts = result.operator_counts
        self.count_queries += counts["count_queries"]
        self.operator_calls += counts["hbsj_invocations"] + counts["nlsj_invocations"]
        for side in ("R", "S"):
            stats = result.channel_stats[side]
            self.ledger_records += stats["messages_up"] + stats["messages_down"]
        self.primary_bytes += result.total_bytes
        if result.resilience is not None:
            self.retry_bytes += sum(result.resilience["retry_bytes"].values())


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def packed(pairs) -> np.ndarray:
    """A pair set as a sorted array of ``r << 32 | s`` (compact, comparable)."""
    arr = np.fromiter((r << 32 | s for r, s in pairs), dtype=np.int64)
    arr.sort()
    return arr


def brute_force_pairs(
    dataset_r: SpatialDataset, dataset_s: SpatialDataset, epsilon: float
) -> np.ndarray:
    """Every R, S pair within ``epsilon`` (minimum MBR distance), packed.

    An all-pairs test in row chunks, written here rather than taken from
    the program so that the two cannot change together.  The gap between
    two MBRs ``(x1, y1, x2, y2)`` along an axis is how far one lies beyond
    the other, or 0 where they overlap.
    """
    s_lo, s_hi = dataset_s.mbrs[None, :, :2], dataset_s.mbrs[None, :, 2:]
    step = max(1, 200_000 // max(1, len(dataset_s)))
    rows, cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(dataset_r), step):
        chunk = dataset_r.mbrs[lo : lo + step, None, :]
        gap = np.clip(np.maximum(chunk[..., :2] - s_hi, s_lo - chunk[..., 2:]), 0.0, None)
        i, j = np.nonzero((gap**2).sum(axis=-1) <= epsilon**2)
        rows.append(i + lo)
        cols.append(j)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return packed(zip(dataset_r.oids[rows].tolist(), dataset_s.oids[cols].tolist()))


def correct(result, expected: np.ndarray) -> bool:
    return np.array_equal(packed(result.pairs), expected)


def square_windows(rng: np.random.Generator, count: int, side: float) -> List[Rect]:
    """Square windows placed one per cell of a jittered grid.

    Stratified placement covers the data space evenly for every seed, so
    runs on different seeds do comparable work.
    """
    grid = int(np.ceil(np.sqrt(count)))
    cells = rng.permutation(grid * grid)[:count]
    rel = np.column_stack([cells % grid, cells // grid]) + rng.random((count, 2))
    corners = rel / grid * (1.0 - side)
    return [Rect(float(x), float(y), float(x + side), float(y + side)) for x, y in corners]


# ---------------------------------------------------------------------- #
# closed loop
# ---------------------------------------------------------------------- #


class AdHoc:
    """One client issuing the next ``quick_join`` when the previous returns.

    Each call joins one pair of a seeded pool of clustered datasets, and
    ``quick_join`` builds both servers inside the call.  The pool holds
    ``pairs_per_k`` pairs per cluster count (R seeded s, S seeded s + 1000,
    as in the experiment harness); every (pair, algorithm, buffer)
    combination appears once per cycle, in a seeded order.
    """

    name = "adhoc"
    clusters = (1, 2, 4, 8, 16, 128)
    pairs_per_k = 8
    buffers = (100, 800)
    epsilon = 0.005
    points = 1000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.answers: List[np.ndarray] = []

    def build(self) -> None:
        pool = []
        for ki, k in enumerate(self.clusters):
            for j in range(self.pairs_per_k):
                s = self.seed * 10_000 + ki * self.pairs_per_k + j
                pool.append(
                    (
                        clustered(n=self.points, clusters=k, seed=s),
                        clustered(n=self.points, clusters=k, seed=s + 1000),
                    )
                )
        combos = [
            (p, algo, buf)
            for p in range(len(pool))
            for algo in ALL_ALGORITHMS
            for buf in self.buffers
        ]
        order = np.random.default_rng(self.seed).permutation(len(combos))
        self.ops = [combos[i] for i in order]
        pool.append(
            (
                clustered(n=self.points, clusters=16, seed=WARMUP_SEED),
                clustered(n=self.points, clusters=16, seed=WARMUP_SEED + 1000),
            )
        )
        self.warmup_ops = [
            (len(pool) - 1, algo, buf) for algo in ALL_ALGORITHMS for buf in self.buffers
        ]
        self.pool = pool

    def setup(self) -> None:
        """Build the inputs, then run every algorithm untimed.

        The warm-up operations join a pair generated from
        :data:`WARMUP_SEED`, so the set-up does the same work whatever the
        workload seed.
        """
        self.build()
        for op in self.warmup_ops:
            self.call(op)

    def call(self, op):
        p, algo, buf = op
        dataset_r, dataset_s = self.pool[p]
        return quick_join(
            dataset_r, dataset_s, algorithm=algo, epsilon=self.epsilon, buffer_size=buf
        )

    def oracles(self, seconds: float) -> None:
        """Brute-force answers for every pair of the pool."""
        self.answers = [
            brute_force_pairs(dataset_r, dataset_s, self.epsilon)
            for dataset_r, dataset_s in self.pool
        ]

    def run(self, seconds: Optional[float], count: Optional[int] = None) -> PassRecord:
        """Calls for ``seconds``, or exactly ``count`` calls; the host speed
        is sampled between calls."""
        record = PassRecord()
        speed = record.speed
        clock, cpu_clock = time.perf_counter, time.process_time
        start = clock()
        i = 0
        while (i < count) if count is not None else (clock() - start < seconds):
            if speed.due():
                speed.sample()
            op = self.ops[i % len(self.ops)]
            i += 1
            t0, c0 = clock(), cpu_clock()
            try:
                result = self.call(op)
            except Exception:  # noqa: BLE001 -- counted and reported, loop goes on
                _report_failure(f"{self.name} op {i - 1}")
                result = None
            c1, t1 = cpu_clock(), clock()
            record.attempted += 1
            record.latencies_s.append(t1 - t0)
            record.cpu_latencies_s.append(c1 - c0)
            record.starts.append(t0)
            record.busy_s += t1 - t0
            record.busy_cpu_s += c1 - c0
            if result is None or not correct(result, self.answers[op[0]]):
                if result is not None:
                    print(f"wrong answer: {self.name} op {i - 1} {op}", file=sys.stderr)
                record.failed += 1
                record.digest.append((-1, -1))
                continue
            record.digest.append((len(result.pairs), result.total_bytes))
            record.note_result(result)
        return record

    def reference(self, ops: int, faults: bool) -> List[Tuple[int, int]]:
        """The first ``ops`` calls; ``faults`` is unused (no fault plan)."""
        self.build()
        return [
            (len(result.pairs), result.total_bytes)
            for result in (self.call(op) for op in self.ops[:ops])
        ]

    def restart(self) -> None:
        """Nothing carries over from one pass to the next."""

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# open loop
# ---------------------------------------------------------------------- #


class Service:
    """Bursts of queries arriving as a Poisson stream at one service.

    The burst schedule is a Poisson process conditioned on its count:
    ``round(rate * seconds)`` arrival times drawn uniformly over the pass
    and sorted, so every pass of a given length offers the same load.
    """

    name = "service"
    points = 6000
    clusters = 128
    shards = 4  # per side, a 2 x 2 grid
    replicas = 2
    burst = 8
    bursts_per_s = 3.0
    side = 0.06
    repeat_share = 0.1
    buffer = 60
    epsilon = 0.002
    algorithms = ("upjoin", "srjoin", "mobijoin")
    fault_rates = 0.02
    result_timeout_s = 60.0
    #: A host-speed sample (about 3 ms) is taken only when no query is in
    #: flight and the next burst is due this long or longer from now.
    idle_margin_s = 0.01

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.service: Optional[QueryService] = None
        self.answers: Dict[Rect, np.ndarray] = {}
        self.schedules: Dict[float, Tuple[np.ndarray, List[JoinQuery]]] = {}

    # -- inputs ---------------------------------------------------------- #

    def _datasets(self, seed: int) -> None:
        self.dataset_r = clustered(n=self.points, clusters=self.clusters, seed=seed)
        self.dataset_s = clustered(n=self.points, clusters=self.clusters, seed=seed + 1000)
        self.plan = FaultPlan(
            seed=seed,
            drop_rate=self.fault_rates,
            stall_rate=self.fault_rates,
            duplicate_rate=self.fault_rates,
        )

    def _query(self, i: int, window: Rect, faults: bool = True) -> JoinQuery:
        return JoinQuery(
            self.dataset_r,
            self.dataset_s,
            JoinSpec.distance(self.epsilon),
            algorithm=self.algorithms[i % len(self.algorithms)],
            buffer_size=self.buffer,
            window=window,
            faults=self.plan if faults else None,
            shards_r=self.shards,
            shards_s=self.shards,
            replicas=self.replicas,
        )

    def _queries(self, rng: np.random.Generator, n: int, faults: bool = True) -> List[JoinQuery]:
        windows = square_windows(rng, n, self.side)
        repeats = rng.random(n) < self.repeat_share
        picks = rng.integers(0, np.maximum(np.arange(n), 1))
        queries: List[JoinQuery] = []
        slots: List[Tuple[int, Rect]] = []
        for i in range(n):
            if repeats[i] and i > 0:
                slot = slots[int(picks[i])]
            else:
                slot = (i, windows[i])
            slots.append(slot)
            queries.append(self._query(slot[0], slot[1], faults))
        return queries

    def schedule(self, seconds: float) -> Tuple[np.ndarray, List[JoinQuery]]:
        """Burst due offsets and the queries in submission order; cached per length."""
        if seconds not in self.schedules:
            rng = np.random.default_rng([self.seed, int(seconds * 1000)])
            n_bursts = max(1, round(self.bursts_per_s * seconds))
            due = np.sort(rng.uniform(0.0, seconds, size=n_bursts))
            self.schedules[seconds] = (due, self._queries(rng, n_bursts * self.burst))
        return self.schedules[seconds]

    # -- lifecycle ------------------------------------------------------- #

    def setup(self) -> None:
        self.close()
        self._datasets(self.seed)
        self.restart()

    def restart(self) -> None:
        """A fresh service (empty result cache) with its fleets built."""
        self.close()
        self.service = QueryService(workers=0)
        warm = self._queries(np.random.default_rng(WARMUP_SEED), self.burst)
        for ticket in self.service.submit_all(warm):
            self.service.result(ticket, timeout=self.result_timeout_s)

    def close(self) -> None:
        if self.service is not None:
            self.service.close(wait=True)
            self.service = None

    def oracles(self, seconds: float) -> None:
        for query in self.schedule(seconds)[1]:
            if query.window not in self.answers:
                self.answers[query.window] = brute_force_pairs(
                    *self._window_sides(query.window), self.epsilon
                )

    def _window_sides(self, window: Rect) -> Tuple[SpatialDataset, SpatialDataset]:
        """Both datasets cut to the objects a windowed join can pair."""
        return (
            self.dataset_r.subset(self.dataset_r.window_mask(window)),
            self.dataset_s.subset(self.dataset_s.window_mask(window.expanded(self.epsilon))),
        )

    # -- timed pass ------------------------------------------------------ #

    def run(self, seconds: float, count: Optional[int] = None) -> PassRecord:
        """One pass of the schedule for ``seconds``; ``count`` is unused
        (an open loop's length is its schedule).

        Every query's interval runs from its due time to its completion, on
        the wall clock and on the process's CPU clock.  The process runs on
        one CPU, so the CPU clock counts the admission thread's work and any
        work the program hands to other threads, and nothing of the
        generator's but submitting.  The host speed is sampled on the
        generator thread between bursts, only once every submitted query
        has completed, and answers are checked after the last one, so
        neither overlaps an interval.
        """
        due_offsets, queries = self.schedule(seconds)
        service = self.service
        record = PassRecord()
        speed = record.speed
        clock, cpu_clock = time.perf_counter, time.process_time

        # Completion times per submission, set on the service thread.  Keyed
        # by position, not by ``outcome.ticket``: a wave can hand one
        # outcome object to several tickets.
        finished: List[Optional[Tuple[float, float]]] = []

        def done(position: int, outcome) -> None:
            finished[position] = (clock(), cpu_clock())

        stats_before = _counters(service.broker.stats)
        tickets: List[Tuple[int, float, float, JoinQuery]] = []
        speed.sample()  # before the pass, in case it leaves no idle gap
        cpu_start = cpu_clock()
        sampling_cpu = 0.0
        start = clock() + 0.05
        for b, offset in enumerate(due_offsets):
            due = start + float(offset)
            if speed.due():
                try:
                    service.drain(timeout=max(0.0, due - clock() - self.idle_margin_s))
                except TimeoutError:
                    pass  # still busy when the burst is nearly due: no sample
                else:
                    if due - clock() > self.idle_margin_s:
                        c0 = cpu_clock()
                        speed.sample()
                        sampling_cpu += cpu_clock() - c0
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            cpu_due = cpu_clock()
            for query in queries[b * self.burst : (b + 1) * self.burst]:
                record.generator_lag_s.append(clock() - due)
                record.due_by_query[id(query)] = due
                finished.append(None)
                callback = functools.partial(done, len(tickets))
                ticket = service.submit(query, callback=callback)
                tickets.append((ticket, due, cpu_due, query))
        outcomes = []
        for ticket, *_ in tickets:
            try:
                outcomes.append(service.result(ticket, timeout=self.result_timeout_s))
            except Exception:  # noqa: BLE001 -- counted and reported
                _report_failure(f"service ticket {ticket}")
                outcomes.append(None)
        service.drain(timeout=self.result_timeout_s)  # every callback has fired
        record.busy_cpu_s = cpu_clock() - cpu_start - sampling_cpu
        intervals = []
        for position, (ticket, due, cpu_due, query) in enumerate(tickets):
            record.attempted += 1
            outcome = outcomes[position]
            finish, cpu_finish = finished[position] or (clock(), cpu_clock())
            record.latencies_s.append(finish - due)
            record.cpu_latencies_s.append(cpu_finish - cpu_due)
            record.starts.append(due)
            intervals.append((due, finish))
            if (
                outcome is None
                or outcome.status != "ok"
                or not correct(outcome.result, self.answers[query.window])
            ):
                if outcome is not None:
                    print(
                        f"wrong answer: service ticket {ticket} status={outcome.status}",
                        file=sys.stderr,
                    )
                record.failed += 1
                record.digest.append((-1, -1))
                continue
            record.digest.append((len(outcome.result.pairs), outcome.result.total_bytes))
            record.note_result(outcome.result)
        record.busy_s = _union_length(intervals)
        record.broker_stats = {
            k: v - stats_before[k] for k, v in _counters(service.broker.stats).items()
        }
        return record

    def reference(self, ops: int, faults: bool) -> List[Tuple[int, int]]:
        """The fixed slice, in bursts through a fresh service.

        With ``faults`` the queries carry the workload's fault plan; the
        committed digest was recorded without one, so a match shows the
        primary lane is unchanged by recoverable faults.
        """
        self._datasets(self.seed)
        queries = self._queries(np.random.default_rng([self.seed, 2]), ops, faults)
        digest = []
        with QueryService(workers=0) as service:
            for b in range(0, ops, self.burst):
                tickets = service.submit_all(queries[b : b + self.burst])
                for ticket in tickets:
                    outcome = service.result(ticket, timeout=self.result_timeout_s)
                    if outcome.status != "ok":
                        digest.append((-1, -1))
                    else:
                        digest.append(
                            (len(outcome.result.pairs), outcome.result.total_bytes)
                        )
        return digest


def _counters(stats) -> Dict[str, int]:
    return {k: v for k, v in vars(stats).items() if isinstance(v, int)}


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


WORKLOADS = {"adhoc": AdHoc, "service": Service}


def make_workload(name: str, seed: int):
    return WORKLOADS[name](seed)
