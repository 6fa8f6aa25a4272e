"""Tests of the benchmark itself, on its smoke sizes (about a minute):

    python3 -m pytest -q perfbench/selftest.py

Not collected by a plain ``pytest`` run of the repository: the file name does
not match ``test_*.py``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=root, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric(workload, trace, section):
    res = result(bench(ROOT, workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    for value in res["metrics"].values():
        assert isinstance(value["value"], float)
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_calls_per_grid_point_counts_every_grid_point():
    res = result(bench(ROOT, "estimate_centered", 1))
    assert res["metrics"]["estimation.calls_per_grid_point"]["value"] >= 1.0


@pytest.mark.parametrize("trace", [0, 1])
def test_forced_failure_is_counted(trace):
    res = result(bench(ROOT, "estimate_centered", trace, "--force-fail"))
    assert not res["correct"] and res["failed"] == 1
    if trace:
        assert res["metrics"]["failed_frac"]["value"] == pytest.approx(
            1 / res["attempted"])


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
