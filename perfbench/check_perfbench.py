"""Tests of the benchmark itself, run on its short mode.

    python3 -m pytest -q perfbench/check_perfbench.py

The file name keeps these cases out of a plain ``pytest`` run of the
repository, because each one runs whole closed-loop episodes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
from episodes import WORKLOADS  # noqa: E402
from layers import COUNTS  # noqa: E402


def run(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(metrics: dict, expected: dict) -> None:
    assert set(metrics) == set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_end_to_end_metric(workload):
    result = result_of(run(workload, trace=0))
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    check_metrics(result["metrics"], END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_traced_run_prints_every_layer_metric(workload):
    metrics = result_of(run(workload, trace=1))["metrics"]
    check_metrics(metrics, PER_LAYER)
    assert metrics["failed_frac"]["value"] == 0.0
    by_caller = sum(metrics[f"horizon.residual.calls.{caller}"]["value"]
                    for caller in ("init", "fd_jacobian", "jvp", "sample"))
    assert by_caller == metrics["horizon.residual.calls"]["value"] > 0


def test_traced_counts_repeat_exactly_for_one_seed():
    first, second = (result_of(run("closed_loop_n20", trace=1, seed=3))["metrics"]
                     for _ in range(2))
    assert {name: first[name]["value"] for name in COUNTS} == \
        {name: second[name]["value"] for name in COUNTS}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("closed_loop_n20", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
