"""BENCHMARK.json against the limits its driver enforces."""

import json
import re
from pathlib import Path

from benchmarks.e2e import spec

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_file_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.benchmark_json()
    assert list(committed) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    ]


def test_limits():
    declared = spec.benchmark_json()
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    runs = 4 + 22 * len(declared["workloads"])
    assert runs * 37 <= 3420, "an invocation may average 37 s at most"
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    assert len(json.dumps(declared)) < 64 * 1024


def test_command_and_paths_stay_inside_the_benchmark():
    declared = spec.benchmark_json()
    assert declared["paths"] == ["benchmarks/e2e"]
    for argument in declared["command"]:
        assert not argument.startswith("/") and ".." not in argument
    script = ROOT / declared["command"][1]
    assert script.is_file() and str(script.relative_to(ROOT)).startswith("benchmarks/e2e/")


def test_windows_are_whole_chunks_and_scale_with_seconds():
    for workload in spec.WORKLOADS:
        official = spec.sizes_for(workload, spec.RUN_SECONDS, smoke=False)
        assert official == workload.sizes
        assert official.window % official.chunk == 0 and official.chunk <= 10_000
        double = spec.sizes_for(workload, 2 * spec.RUN_SECONDS, smoke=False)
        assert double.window == 2 * official.window
        assert double.fixture == official.fixture
