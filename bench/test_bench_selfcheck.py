"""Self-check of the benchmark: ``BENCHMARK.json`` obeys the contract's
rules, and every workload — run at a tiny size through the real
command line — prints exactly the declared metric names, verifies its
answers, and fails when an answer is wrong.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Run:
    """One tiny run of the real command line, started in the
    background so a test's runs overlap (two cores)."""

    def __init__(
        self, workload: str, trace: int, *extra: str, cwd: Path = ROOT
    ) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable, *MANIFEST["command"][1:],
                "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny", *extra,
            ],
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def wait(self) -> "Run":
        self.stdout, self.stderr = self.process.communicate(timeout=120)
        self.returncode = self.process.returncode
        return self

    def result(self) -> dict:
        return json.loads(self.stdout.strip().splitlines()[-1])


def test_manifest_obeys_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["command"] == ["python3", "bench/run.py"]
    assert isinstance(MANIFEST["run_seconds"], int)
    assert 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    # 4 + 22 runs per workload must fit the driver's 3420 s with room
    # for set-up and verification around each run's measured seconds.
    runs = 4 + 22 * len(MANIFEST["workloads"])
    assert runs * (MANIFEST["run_seconds"] + 10) <= 3420

    names = []
    for workload in MANIFEST["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in MANIFEST["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in MANIFEST["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names)), "a name is used twice"

    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_names_equal_declared_names(workload):
    runs = [Run(workload, 0), Run(workload, 1)]
    for run, section in zip(runs, ("end_to_end", "per_layer")):
        done = run.wait()
        assert done.returncode == 0, done.stdout + done.stderr
        result = done.result()
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        declared = MANIFEST[section]
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            printed = result["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], (int, float))
            if section == "end_to_end":
                assert printed["value"] > 0, metric["name"]
    # The traced run left one valid trace whose top-level spans cover
    # the measured window.
    assert result["metrics"]["obs.top_level_coverage"]["value"] >= 0.9
    assert result["metrics"]["obs.trace_overhead_ratio"]["value"] > 0
    trace_file = BENCH_DIR / "out" / f"{workload}.trace.jsonl"
    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert spans
    ids = {span["span"] for span in spans}
    assert len(ids) == len(spans)
    for span in spans:
        assert set(span) == {
            "span", "parent", "op", "name", "thread", "start", "end"
        }
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in ids


def test_a_corrupted_answer_fails_the_run():
    done = Run("serve-read", 0, "--corrupt").wait()
    assert done.returncode != 0
    result = done.result()
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = Run("bulk-exchange", 0, cwd=tmp_path).wait()
    assert done.returncode != 0
    assert "{" not in done.stdout
