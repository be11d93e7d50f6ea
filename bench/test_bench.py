"""Tests of the benchmark itself, on smoke-sized ops (about 15 s).

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
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

import metrics  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(name, why) for name, (why, _) in WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] \
        == [row[:4] for row in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in metrics.PER_LAYER]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_fixes_the_ops(workload):
    names = [[op.name for op in build_ops(workload, seed)] for seed in
             (0, 0, 1, 2)]
    assert names[0] == names[1]
    assert len({len(n) for n in names}) == 1
    if workload == "modular-fits":
        assert all("fit_v_coefficient(2, 1, 10, weight_ceiling=14)" in n
                   and "fit --n 2 --r 1 --vmax 6 (golden)" in n
                   for n in names)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_runs_report_every_metric(workload):
    plain = _result(_bench("--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", "0", "--smoke"))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == [m[0] for m in metrics.END_TO_END]
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traces = [_result(_bench("--workload", workload, "--seed", "3",
                             "--trace", "1", "--smoke")) for _ in range(2)]
    layer = [m[0] for m in metrics.PER_LAYER]
    assert all(list(t["metrics"]) == layer and t["correct"]
               for t in traces)
    counts = [{k: v["value"] for k, v in t["metrics"].items()
               if v["unit"] == "count"} for t in traces]
    assert counts[0] == counts[1]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ab-identity", "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
