"""Smoke-size test of the benchmark: output schema and failure paths.

    python3 -m pytest bench/test_bench.py

Each case runs bench/run.py with --smoke (tiny pools and schedules), so
the whole file takes well under a minute; nothing here asserts timings.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from plan import WORKLOADS  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--seed", "3", "--seconds", "4"]
    return subprocess.run(cmd + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_schema(workload, trace):
    proc = run("--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = spec()["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if trace == 0:
            assert m["value"] > 0, name


def test_perturbed_reference_fails_the_check():
    proc = run("--workload", "steady-ratings", "--trace", "0", "--smoke",
               "--perturb-reference")
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert detail["checks"]["errors"]["y_cond"] > 1e-8


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("--workload", WORKLOADS[0], "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
