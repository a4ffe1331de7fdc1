"""Shared benchmark plumbing.

Every benchmark regenerates one table/figure of the paper's Section 6
and records the series rows under ``benchmarks/results/`` so
EXPERIMENTS.md can cite actual measured numbers — when the session
asked for the suite (``-m benchmark_suite`` or a ``benchmarks/`` path
on the command line).  A session that merely collected the suite along
with everything else (the plain tier-1 run) records into pytest's tmp
dir instead, so it leaves the committed series untouched.

``REPRO_SCALE`` (default 1.0) scales workload sizes: the defaults are
laptop-scale versions of the paper's sweeps with identical structure
(same topologies, same data placement, same ASR grids).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCHMARKS_DIR / "results"


def pytest_collection_modifyitems(items):
    """Mark every test under benchmarks/ so CI can deselect the slow
    figure regenerations with ``-m "not benchmark_suite"``."""
    for item in items:
        if BENCHMARKS_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.benchmark_suite)


def scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def scaled(value: int, minimum: int = 1) -> int:
    return max(minimum, int(value * scale()))


class SeriesRecorder:
    """Appends labelled measurement rows to a per-figure results file."""

    def __init__(self, figure: str, directory: Path):
        self.figure = figure
        self.path = directory / f"{figure}.txt"

    def record(self, label: str, **metrics: object) -> None:
        parts = [f"{key}={value}" for key, value in metrics.items()]
        line = f"{label:>32}  " + "  ".join(parts)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        print(line)


def suite_requested(config) -> bool:
    """True iff the session named the figure suite: a ``-m`` expression
    mentioning ``benchmark_suite`` (a negated one deselects every test
    here, so this code never runs) or a path at or under
    ``benchmarks/`` among the command-line arguments."""
    if "benchmark_suite" in (config.option.markexpr or ""):
        return True
    for arg in config.args:
        path = (config.invocation_params.dir / arg.split("::")[0]).resolve()
        if path == BENCHMARKS_DIR or BENCHMARKS_DIR in path.parents:
            return True
    return False


@pytest.fixture(scope="session", autouse=True)
def fresh_results(request, tmp_path_factory):
    """The directory this session records into: the committed
    ``benchmarks/results/`` (truncated once) when the suite was asked
    for, a throwaway tmp dir otherwise."""
    if not suite_requested(request.config):
        return tmp_path_factory.mktemp("benchmark-results")
    RESULTS_DIR.mkdir(exist_ok=True)
    for path in RESULTS_DIR.glob("*.txt"):
        path.unlink()
    return RESULTS_DIR


@pytest.fixture(scope="module")
def recorder(request, fresh_results):
    return SeriesRecorder(request.module.FIGURE, fresh_results)
