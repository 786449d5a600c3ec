"""Tests of the benchmark itself, at smoke size (a few seconds each).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import PER_LAYER, span_stats
from worker import check_digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_span_stats_self_and_outermost_time():
    spans = [
        ["complexes.raw_slice", 0.0, 10.0, -1],
        ["complexes.raw_slice", 1.0, 5.0, 0],
        ["graphs.canonical_data", 2.0, 4.0, 1],
        ["graphs.canonical_data", 6.0, 7.0, 0],
    ]
    stats = span_stats(spans)
    assert stats["complexes.raw_slice"] == (2, 10.0, (10.0 - 5.0) + (4.0 - 2.0))
    assert stats["graphs.canonical_data"] == (2, 3.0, 3.0)


def test_declared_per_layer_metrics_match_the_tracer():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert declared == PER_LAYER


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0",
               "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_ratio   0.0000" in proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1",
               "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


def test_tampered_cache_file_fails_the_digest_check(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())["digests"]
    names = [n for n in reference if "-odd-" in n and "-g5-" in n]
    for name in names:
        (tmp_path / name).write_text("not the reference bytes\n")
    errors: list[str] = []
    check_digests(tmp_path, 5, ("odd",), errors)
    assert len(errors) == len(names)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", BENCH["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
