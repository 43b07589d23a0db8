"""Schema tests for the benchmark, on the tiny `--smoke` sizes.

Run from the repository root with `python3 -m pytest perfbench -q`.  They
check the result line against BENCHMARK.json, that the gates pass, that the
exact counts repeat between two runs of one seed, and that the benchmark
refuses to run without the package source.  They never assert timings.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=120)


def smoke(workload, trace, seed=3):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "0.05",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, listed):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for value in result["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], (int, float))


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_result_lists_end_to_end_metrics(workload):
    check_result(smoke(workload, 0), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    for result in (first, second):
        check_result(result, SPEC["per_layer"])
    for name in tracing.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
