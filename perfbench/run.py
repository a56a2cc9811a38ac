"""The repository's benchmark: one command, two workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 50 --trace 0

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
``--trace 0`` measures the end-to-end metrics (joins per second, median
and tail latency, median wall-clock latency, set-up time, peak memory);
``--trace 1`` runs the same
operations once untraced and once under :class:`layers.LayerTracer` and
reports the per-layer metrics.  Every operation's pair set is checked
against a brute-force oracle, and a fixed input slice is checked against
the per-operation ``(pairs, bytes)`` digest committed in ``digests.json``.
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.

Clocks.  The reference host is a shared 2-vCPU virtual machine.  Its
hypervisor takes a vCPU away (steal time) for up to about 45% of the time,
and the core runs up to about 1.5x faster or slower from one stretch of
seconds to the next.  Both move wall-clock times from run to run with the
program unchanged, so ``joins_per_s``, ``latency_p50_ms``,
``latency_tail_ms`` and ``setup_s`` are taken on the process's CPU clock,
which does not advance while the CPU is taken away: around each ``adhoc``
call and each set-up, and from a ``service`` query's due time to its
completion.  The process runs on one CPU, so that clock counts work the
program moves to another thread too.  Every time is rescaled to a fixed
host speed with :mod:`hostspeed`.

A CPU clock does not see waiting: a sleep, a timer or a lock wait that a
change adds.  ``latency_wall_p50_ms`` does: the median wall-clock time of
an operation (``adhoc``: call to return; ``service``: due time to
completion), rescaled like the CPU times.  The unscaled CPU and wall-clock
figures are printed on the ``info cpu`` and ``info wall`` lines.

``--record-digests`` re-records ``digests.json`` (fault-free) and exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Host-speed samples taken just before and just after each set-up.
SETUP_SAMPLES = 3
#: Highest percentile ``latency_tail_ms`` may report, per workload.  In
#: ``service`` the queries of a burst complete together, so bursts (an
#: eighth of the queries) are the independent samples.
TAIL_CAP = {"adhoc": 99.0, "service": 90.0}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("adhoc", "service"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program():
    """Put ``src/`` on the path and import the workloads (needs ``repro``)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402 -- needs src/ on the path

    return workloads


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values, cap: float):
    """Highest ladder percentile <= ``cap`` with >= 10 samples beyond it."""
    for q in TAIL_LADDER:
        if q > cap:
            continue
        value = percentile(values, q)
        beyond = sum(1 for v in values if v > value)
        if beyond >= 10 or q == TAIL_LADDER[-1]:
            return q, value, beyond
    raise AssertionError("unreachable")


def median_ms(values) -> float:
    return percentile(values, 50) * 1e3 if values else 0.0


def digest_hash(records) -> str:
    text = ";".join(f"{pairs}:{wire}" for pairs, wire in records)
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------- #
# checks
# ---------------------------------------------------------------------- #


def check_reference(workloads, name: str):
    """Re-run the fixed slice (with faults where the workload has them)."""
    expected = json.loads(DIGESTS.read_text())["workloads"][name]
    got = workloads.make_workload(name, workloads.REFERENCE_SEED).reference(
        expected["ops"], faults=True
    )
    bad = sum(1 for a, b in zip(got, expected["records"]) if tuple(a) != tuple(b))
    bad += abs(len(got) - len(expected["records"]))
    if bad:
        print(f"reference digest mismatch: {bad} of {expected['ops']} ops", file=sys.stderr)
    print(f"check reference_digest {digest_hash(got)} expected {expected['sha256']}")
    return len(got), bad


def record_digests(workloads) -> None:
    out = {"reference_seed": workloads.REFERENCE_SEED, "workloads": {}}
    for name, ops in workloads.REFERENCE_OPS.items():
        records = workloads.make_workload(name, workloads.REFERENCE_SEED).reference(
            ops, faults=False
        )
        out["workloads"][name] = {
            "ops": ops,
            "sha256": digest_hash(records),
            "records": [list(r) for r in records],
        }
    lines = [json.dumps({k: v for k, v in out.items() if k != "workloads"})[:-1] + ',']
    lines.append(' "workloads": {')
    entries = [f'  "{name}": {json.dumps(entry)}' for name, entry in out["workloads"].items()]
    lines.append(",\n".join(entries))
    lines.append(" }\n}\n")
    DIGESTS.write_text("\n".join(lines))


# ---------------------------------------------------------------------- #
# the two kinds of run
# ---------------------------------------------------------------------- #


def timed_setup(wl, speed):
    """One set-up: ``(wall, process CPU, reference-speed CPU)`` seconds."""
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    t0, c0 = time.perf_counter(), time.process_time()
    wl.setup()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    near = speed.kernel_s[-2 * SETUP_SAMPLES :]
    return wall, cpu, cpu * hostspeed.REFERENCE_KERNEL_S / statistics.median(near)


def at_reference_speed(rec, values):
    """Per-operation times rescaled by the pass's host-speed samples."""
    return [v * rec.speed.scale(t) for v, t in zip(values, rec.starts)]


def end_to_end(workloads, name: str, seed: int, seconds: float):
    wl = workloads.make_workload(name, seed)
    speed = hostspeed.HostSpeed()
    setups = [timed_setup(wl, speed) for _ in range(SETUP_REPEATS)]
    start = time.perf_counter()
    wl.oracles(seconds)
    print(f"info oracles_s {time.perf_counter() - start:.3f}")
    try:
        rec = wl.run(seconds)
    finally:
        wl.close()
    rss = peak_rss_mb()
    cpu = at_reference_speed(rec, rec.cpu_latencies_s)
    wall = at_reference_speed(rec, rec.latencies_s)
    q, tail_s, beyond = tail(cpu, TAIL_CAP[name])
    done = rec.attempted - rec.failed
    # Reference-speed CPU seconds the program was busy.  A service query's
    # latency overlaps its burst's, so there the process's CPU time over
    # the pass counts.
    busy = sum(cpu) if name == "adhoc" else rec.busy_cpu_s * rec.speed.median_scale()
    print(f"info ops {rec.attempted} tail_percentile p{q:g} samples_beyond {beyond}")
    print(
        f"info wall joins_per_s {ratio(done, rec.busy_s):.4f}"
        f" latency_p50_ms {median_ms(rec.latencies_s):.4f}"
        f" latency_tail_ms {percentile(rec.latencies_s, q) * 1e3:.4f}"
        f" setup_s {statistics.median(w for w, _, _ in setups):.4f}"
    )
    print(
        f"info cpu joins_per_s {ratio(done, rec.busy_cpu_s):.4f}"
        f" latency_p50_ms {median_ms(rec.cpu_latencies_s):.4f}"
        f" latency_tail_ms {percentile(rec.cpu_latencies_s, q) * 1e3:.4f}"
        f" setup_s {statistics.median(c for _, c, _ in setups):.4f}"
        f" cpu_share {ratio(rec.busy_cpu_s, rec.busy_s):.4f}"
    )
    scales = [rec.speed.scale(t) for t in rec.speed.times]
    print(
        f"info host_speed samples {len(scales)}"
        f" scale_median {rec.speed.median_scale():.4f}"
        f" scale_min {min(scales):.4f} scale_max {max(scales):.4f}"
    )
    print(f"info failed_share {ratio(rec.failed, rec.attempted):.6f} fraction")
    if rec.generator_lag_s:
        print(f"info generator_lag_ms_p50 {median_ms(rec.generator_lag_s):.4f}")
    print(f"info digest {digest_hash(rec.digest)}")
    metrics = {
        "joins_per_s": (ratio(done, busy), "joins/s"),
        "latency_p50_ms": (median_ms(cpu), "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "latency_wall_p50_ms": (median_ms(wall), "ms"),
        "setup_s": (statistics.median(s for _, _, s in setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    return rec.attempted, rec.failed, True, metrics


def per_layer(workloads, layers, name: str, seed: int, seconds: float):
    wl = workloads.make_workload(name, seed)
    wl.setup()
    half = seconds / 2.0
    try:
        wl.oracles(half)
        plain = wl.run(half)
        wl.restart()
        tracer = layers.LayerTracer()
        with tracer:
            traced = wl.run(half, count=plain.attempted)
    finally:
        wl.close()
    same = plain.digest == traced.digest
    print(f"check traced_digest {digest_hash(traced.digest)} untraced {digest_hash(plain.digest)}")
    if not same:
        print("traced and untraced runs disagree", file=sys.stderr)
    ops = traced.attempted
    ok_ops = ops - traced.failed
    ms = {layer: tracer.self_s.get(layer, 0.0) * 1e3 / ops for layer in layers.LAYERS}
    c = tracer.counters
    waits = []
    due = traced.due_by_query
    for start, ids in tracer.batch_starts:
        waits.extend(start - due[i] for i in ids if i in due)
    stats = traced.broker_stats
    for layer in layers.LAYERS:
        print(f"info self_share {layer} {ratio(tracer.self_s.get(layer, 0.0), tracer.total_self_s()):.4f}")
    metrics = {
        "service.self_ms_per_query": (ms["service"], "ms"),
        "service.queue_wait_ms_p50": (median_ms(waits), "ms"),
        "service.generator_lag_ms_p50": (median_ms(traced.generator_lag_s), "ms"),
        "service.queries_per_wave": (
            ratio(stats.get("queries_executed", 0), stats.get("waves", 0)),
            "count",
        ),
        "service.windows_per_coalesced_exchange": (
            ratio(stats.get("coalesced_count_queries", 0), stats.get("coalesced_exchanges", 0)),
            "count",
        ),
        "service.cache_hit_share": (
            ratio(stats.get("cache_hits", 0), stats.get("queries_submitted", 0)),
            "fraction",
        ),
        "core.self_ms_per_join": (ms["core"], "ms"),
        "core.plan_ms_per_query": (ms["core.plan"], "ms"),
        "core.costmodel_calls_per_join": (c["costmodel_calls"] / ops, "count"),
        "core.count_queries_per_join": (ratio(traced.count_queries, ok_ops), "count"),
        "device.operator_ms_per_join": (ms["device"], "ms"),
        "device.operator_calls_per_join": (ratio(traced.operator_calls, ok_ops), "count"),
        "device.windows_per_count_call": (ratio(c["count_windows"], c["count_calls"]), "count"),
        "server.proxy_ms_per_join": (ms["server.proxy"], "ms"),
        "server.eval_ms_per_join": (ms["server.eval"], "ms"),
        "server.shard_calls_per_request": (ratio(c["shard_calls"], c["fleet_calls"]), "count"),
        "network.meter_ms_per_join": (ms["network.meter"], "ms"),
        "network.records_per_join": (ratio(traced.ledger_records, ok_ops), "count"),
        "network.resilience_ms_per_join": (ms["network.resilience"], "ms"),
        "network.retry_byte_share": (ratio(traced.retry_bytes, traced.primary_bytes), "fraction"),
        "network.replay_ms_per_join": (ms["network.replay"], "ms"),
        "index.build_ms_per_join": (ms["index.build"], "ms"),
        "index.query_ms_per_join": (ms["index.query"], "ms"),
        "index.windows_per_descent": (ratio(c["descent_windows"], c["descents"]), "count"),
        "index.join_kernel_ms_per_join": (ms["index.join_kernel"], "ms"),
        "trace.covered_share": (ratio(tracer.total_self_s(), traced.busy_cpu_s), "fraction"),
        "trace.overhead": (
            ratio(
                traced.busy_cpu_s * traced.speed.median_scale(),
                plain.busy_cpu_s * plain.speed.median_scale(),
            ),
            "ratio",
        ),
    }
    attempted = plain.attempted + traced.attempted
    return attempted, plain.failed + traced.failed, same, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for the whole process (the service thread inherits it): the
    # host-speed kernel runs on the core that does the work, and the
    # process's CPU clock never runs faster than the wall clock.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = load_program()
    if args.record_digests:
        record_digests(workloads)
        return 0
    import layers

    if args.trace:
        attempted, failed, consistent, metrics = per_layer(
            workloads, layers, args.workload, args.seed, args.seconds
        )
    else:
        attempted, failed, consistent, metrics = end_to_end(
            workloads, args.workload, args.seed, args.seconds
        )
    ref_ops, ref_bad = check_reference(workloads, args.workload)
    attempted += ref_ops
    failed += ref_bad
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value!r} {unit}")
    correct = failed == 0 and consistent
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
