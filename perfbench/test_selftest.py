"""Toy-size self-test of the benchmark: output schema and exact counts.

    python3 -m pytest -q perfbench

Runs every workload for one second on toy inputs, untraced and traced, and
checks the result line against BENCHMARK.json, the one-read counts of the
traced runs, and that a checkout without raclib's sources fails cleanly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TOY_COLLECTIONS = 2


def run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(workload: str, trace: int, seed: int = 7):
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_follows_benchmark_json(workload, trace):
    details, result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    assert details["seed"] == 7
    assert details["error_rate"] == 0
    assert details["host"]["nproc"] >= 1
    assert isinstance(details["bucket_boundary_crossed"], bool)


def test_fetch_reads_exactly_the_members_records():
    details, result = result_of("fetch_uniform", 1)
    detail = details["per_layer_detail"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert detail["store.read_bytes"] > 0
    assert detail["store.read_bytes"] == detail["store.read_bytes_expected"]
    assert metrics["store.read_bytes_per_payload_byte"] == detail["store.read_bytes_expected"] / detail["payload_bytes"]
    assert 1 <= metrics["serial_index.lookups_per_fetch"] <= TOY_COLLECTIONS
    assert metrics["store.read_calls_per_op"] <= 1


def test_search_reads_one_index_entry_per_search():
    _, result = result_of("search", 1)
    assert result["metrics"]["computed_index.reads_per_search"]["value"] == 1


def test_seed_fixes_the_inputs():
    same = [result_of("search", 0, seed)[1]["metrics"]["space_amp"]["value"] for seed in (7, 7, 8)]
    assert same[0] == same[1] != same[2]


def test_checkout_without_sources_fails_without_a_result():
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("search", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
