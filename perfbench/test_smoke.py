"""Smoke tests for the benchmark itself, on tiny instances of each workload.

    python3 -m pytest perfbench -q

first n=5, second n=6 and a 12-vertex graph with an induced E6: every
named metric must be printed with its unit, and a corrupted reference
digest must drive the error rate to 1.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(bench.WORKLOAD_NAMES)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0",
                           "--scale", "smoke", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert set(WORKLOADS) == set(workloads.WORKLOADS["full"]) == set(workloads.WORKLOADS["smoke"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    report = "\n".join(lines[:-1])
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in report.splitlines() if line.startswith("  ")), name
    assert "error_rate" in report
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _checkout_copy(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def test_corrupted_reference_digest_fails_every_census(tmp_path):
    _checkout_copy(tmp_path, with_src=True)
    path = tmp_path / "perfbench" / "reference.json"
    refs = json.loads(path.read_text())
    refs["census_sha256"]["first-5"] = "0" * 64
    path.write_text(json.dumps(refs))
    proc = _bench("--workload", "census-first7", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    rate = next(line for line in proc.stdout.splitlines() if "error_rate" in line)
    assert float(rate.split()[1]) == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    _checkout_copy(tmp_path, with_src=False)
    proc = _bench("--workload", "census-first7", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
