"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Each test starts the benchmark as the driver does, from the root of the
checkout, with short runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

COUNT_METRICS = (
    "montecarlo.events_per_trajectory",
    "positivity.is_cp.not_cp_ratio",
    "channels.kraus_refusal_ratio",
)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly_at_a_fixed_seed(workload):
    first, second = (result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                  "--trace", "1")) for _ in range(2))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == set(run.PER_LAYER)
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_untraced_run_reports_every_end_to_end_metric():
    res = result(bench("--workload", "point_audit", "--seed", "2", "--seconds", "1"))
    assert res["correct"] and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "cp_map", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
