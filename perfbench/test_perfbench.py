"""Self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` at smoke size, untraced and
traced, and checks the printed result against the declared metrics.  Run
it from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1"):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert NAME.match(metric["name"])
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert f"metric {metric['name']} " in proc.stdout
    if trace:
        check = next(line for line in lines if line.startswith("check traced_digest"))
        _, _, traced, _, untraced = check.split()
        assert traced == untraced


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_entry_point():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import layers
        import repro.api  # noqa: F401 -- loads every patched module
        from repro.index import hash_join
        from repro.server.remote import RemoteServer

        before = (RemoteServer.count_batch, hash_join.grid_hash_join)
        tracer = layers.LayerTracer()
        with tracer:
            assert RemoteServer.count_batch is not before[0]
            assert hash_join.grid_hash_join is not before[1]
        assert (RemoteServer.count_batch, hash_join.grid_hash_join) == before
    finally:
        del sys.path[:2]


def test_host_speed_scales_by_nearby_samples():
    sys.path.insert(0, str(HERE))
    try:
        import hostspeed

        speed = hostspeed.HostSpeed()
        speed.times = [0.0, 0.5, 10.0, 10.5]
        ref = hostspeed.REFERENCE_KERNEL_S
        speed.kernel_s = [ref, ref, 2 * ref, 2 * ref]
        assert speed.scale(0.2) == pytest.approx(1.0)
        assert speed.scale(10.2) == pytest.approx(0.5)  # a slow stretch: times shrink
        assert speed.scale(5.0) == pytest.approx(1 / 1.5)  # none near: all of them
    finally:
        sys.path.remove(str(HERE))
