"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/check_bench.py

Runs every workload at the "tiny" input scale, so the whole file takes
about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def assert_declared(metrics: dict, declared: list[dict]):
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        printed = metrics[m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)) and math.isfinite(printed["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    result = result_line(bench(workload, trace=0))
    assert result["failed"] == 0
    assert_declared(result["metrics"], BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first = result_line(bench(workload, trace=1))
    second = result_line(bench(workload, trace=1))
    assert_declared(first["metrics"], BENCHMARK["per_layer"])
    for name in worker.COUNTS | worker.RATIOS:
        assert first["metrics"][name] == second["metrics"][name], name


class Flaky:
    """A workload whose middle request always raises."""

    name = "flaky"
    block_size = 3
    tail_permille = 999
    min_blocks = 1

    def make_block(self, b):
        return [0, 1, 2]

    def run(self, request, tracer=None):
        if request == 1:
            raise RuntimeError("forced failure")
        return request

    def check(self, request, result):
        return None, b"", {}

    def discard(self, request):
        pass


def test_forced_failure_is_failed_and_infinitely_slow():
    result = worker.run_blocks(Flaky(), 0.0, False, Flaky().make_block(0))
    assert result["blocks"][0]["latencies"][1] is None
    assert result["failures"] == {"RuntimeError": "forced failure"}
    result.update(block_size=3, tail_permille=999, scale_by_reference=True, peak_rss_mb=1.0)
    metrics, _ = run.end_to_end(result, [(0.1, run.REF_NOMINAL_S)])
    assert metrics["success_share"] == pytest.approx(2 / 3)
    # with two of three requests done, the failure is the slowest: the tail
    # (here the median rung, too few samples for a higher one) is the worst
    assert run.tail([1.0, math.inf, 2.0]) == (2.0, 50.0, 1)
    assert run.tail([math.inf, math.inf, 2.0])[0] == math.inf
    assert run.finite(math.inf) == run.FAILED_LATENCY_S


def test_tail_rung_has_ten_requests_beyond_it():
    latencies = [float(i) for i in range(1, 201)]
    value, percentile, beyond = run.tail(latencies)
    assert (value, percentile, beyond) == (180.0, 90.0, 20)
    value, percentile, beyond = run.tail(latencies[:20])
    assert (percentile, beyond) == (50.0, 10)
    # a workload's fixed tail percentile caps the rung, whatever the count
    value, percentile, beyond = run.tail([float(i) for i in range(1, 2001)], highest=900)
    assert (value, percentile, beyond) == (1800.0, 90.0, 200)


def test_missing_wrapper_target_is_absent_not_fatal():
    tracer = Tracer()
    tracer.install([("mellin.compute", "fock_toeplitz.mellin", "no_such_function")])
    tracer.uninstall()
    assert tracer.missing == ["fock_toeplitz.mellin.no_such_function"]
    absent = tracer.absent_metrics()
    assert "mellin.computed" in absent and "mellin.hit_ratio" in absent


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
