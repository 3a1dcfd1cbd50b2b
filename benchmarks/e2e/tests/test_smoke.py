"""``--smoke`` end to end: every workload, every metric, twice."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import spec

ROOT = Path(__file__).resolve().parents[3]


def _run(*arguments: str) -> list[dict]:
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    lines = [line for line in completed.stdout.splitlines() if line.startswith("{")]
    return [json.loads(line) for line in lines], completed.stdout


@pytest.fixture(scope="module")
def untraced():
    started = time.perf_counter()
    results, table = _run()
    return results, table, time.perf_counter() - started


def _assert_metrics(result: dict, declared) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric.name for metric in declared}
    for metric in declared:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert math.isfinite(entry["value"])


def test_smoke_emits_every_workload_and_end_to_end_metric(untraced):
    results, table, elapsed = untraced
    assert elapsed < 60
    assert len(results) == len(spec.WORKLOADS)
    for result in results:
        _assert_metrics(result, spec.END_TO_END)
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for workload in spec.WORKLOADS:
        assert f"== {workload.name} " in table
    assert "correct_share" in table and "failed_share" in table


def test_two_runs_of_one_seed_agree_exactly(untraced):
    _, first, _ = untraced
    _, second = _run()

    def exact(table: str) -> list[str]:
        return [
            line
            for line in table.splitlines()
            if line.lstrip().startswith(("core.", "audit.", "effects sha256"))
        ]

    assert exact(first) and exact(first) == exact(second)


@pytest.mark.parametrize("workload", [w.name for w in spec.WORKLOADS])
def test_traced_smoke_emits_every_per_layer_metric(workload):
    (result,), table = _run("--workload", workload, "--trace", "1")
    _assert_metrics(result, spec.PER_LAYER)
    moved = {
        "engine-hot": ["core.engine.check_us", "openloop.achieved_per_s"],
        "engine-instances": ["core.constraints.denies.MMCD"],
        "durable-cold": ["core.tiered.hydrations", "audit.trail.append_us"],
        "wire-pipelined": [
            "server.protocol.v2.request_us",
            "client.remote.v1_sync.decisions_per_s.c2",
        ],
    }[workload]
    for name in moved:
        assert result["metrics"][name]["value"] > 0, name


def test_absent_program_fails_without_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: non-zero, no JSON."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [*command, "--workload", "engine-hot", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode != 0
    assert not any(line.startswith("{") for line in completed.stdout.splitlines())
