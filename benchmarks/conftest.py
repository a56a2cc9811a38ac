"""Shared helpers for the benchmark suite.

Each ``bench_fig*.py`` module regenerates one figure of the paper's
evaluation section: it runs the corresponding experiment configuration
through ``pytest-benchmark`` (so wall-clock numbers are recorded) and prints
the transferred-bytes table plus the qualitative shape checks that the
paper's text implies.  Absolute byte values depend on calibration constants
the paper does not publish (object wire size, cluster spread, epsilon); the
*shapes* -- who wins where, and by roughly what factor -- are asserted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.experiments.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.experiments.report import render_experiment, render_shape_checks

#: Benchmarks use fewer seeds / smaller real datasets than a full paper-style
#: run so that ``pytest benchmarks/ --benchmark-only`` finishes quickly.
#: Pass ``--full-figures`` for paper-scale sweeps.
FAST_SEEDS = (0, 1)


def pytest_addoption(parser):
    parser.addoption(
        "--full-figures",
        action="store_true",
        default=False,
        help="run the figure benchmarks at full paper scale (slower)",
    )


def pytest_collection_modifyitems(session, config, items):
    """Run the summary regression gate last.

    The gate (``bench_collect.py``) reads the records on disk, and its file
    sorts before the ``bench_*`` modules that write them; moved to the end,
    it checks the records this run produced rather than the previous run's.
    """
    gate = [item for item in items if item.name == "test_summary_regression_gate"]
    items[:] = [item for item in items if item not in gate] + gate


@pytest.fixture(scope="session")
def full_figures(request) -> bool:
    return bool(request.config.getoption("--full-figures"))


def execute_figure(
    benchmark,
    config: ExperimentConfig,
    shape_checks: Callable[[ExperimentResult], Dict[str, bool]] | None = None,
) -> ExperimentResult:
    """Run one figure's experiment under pytest-benchmark and report it."""
    result = benchmark.pedantic(run_experiment, args=(config,), iterations=1, rounds=1)
    report = render_experiment(result, show_pairs=True)
    if shape_checks is not None:
        report += "\n" + render_shape_checks(shape_checks(result))
    print()
    print(report)
    # Persist the rendered table next to the benchmark results so it is
    # available even when pytest captures stdout (no ``-s``).
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{config.name}.txt").write_text(report + "\n")
    # Hard invariant regardless of calibration: every algorithm of a figure
    # must report the same result cardinality on the same workload.
    pair_rows = {tuple(series.mean_pairs) for series in result.series.values()}
    assert len(pair_rows) == 1, "algorithms disagree on the join result"
    return result
