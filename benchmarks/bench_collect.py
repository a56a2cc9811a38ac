"""The perf-lane regression gate over the recorded speedup trajectory.

``collect.py --check`` validates that every recorded speedup still meets
the ``min_speedup`` threshold its own record states; this module exposes
the same gate as a ``perf``-marked test so the perf lane
(``pytest -m perf benchmarks/``) fails loudly when a recorded number
drops below its floor.  The gate reads the records currently on disk;
``benchmarks/conftest.py`` runs it after every other test of the session,
so a lane invocation gates the records it has just written.
"""

from __future__ import annotations

import pytest

from benchmarks.collect import RESULTS_DIR, _gated_speedups, check, collect


@pytest.mark.perf
def test_summary_regression_gate():
    """Every recorded speedup must meet the threshold its record states."""
    if not RESULTS_DIR.is_dir():
        pytest.skip("no benchmark records collected yet")
    summary = collect()
    gated = [
        triple
        for name, record in summary["records"].items()
        for triple in _gated_speedups(name, record)
    ]
    assert gated, "no record states a min_speedup threshold"
    failures = check(summary)
    assert not failures, "recorded speedups regressed below their stated floors:\n" + "\n".join(failures)
