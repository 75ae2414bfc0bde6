"""Self-test of the benchmark, on the first two minutes of the hour.

    python3 -m pytest perfbench/tests -q

Runs ``perfbench/run.py --smoke`` on every workload, traced and
untraced, and checks that each prints every metric ``BENCHMARK.json``
names, with its unit, that no pass fails its output check, and that a
deliberately perturbed output counts as a failed operation.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from tracing import SpanRecorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _stream:
    SPEC = json.load(_stream)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def smoke(workload, trace, *extra):
    done = bench(
        "--workload", workload,
        "--seconds", "1",
        "--trace", str(trace),
        "--smoke",
        *extra,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_output_is_a_failed_operation(workload):
    result = smoke(workload, 0, "--perturb")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR,
        os.path.join(tmp_path, "perfbench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_self_time_subtracts_direct_children():
    recorder = SpanRecorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    totals = recorder.totals(0)
    outer_span = recorder.spans[outer]
    inner_span = recorder.spans[inner]
    assert inner_span[3] == outer
    assert totals["outer"]["self"] == pytest.approx(
        (outer_span[2] - outer_span[1]) - (inner_span[2] - inner_span[1])
    )
    assert totals["inner"]["self"] == totals["inner"]["total"]
