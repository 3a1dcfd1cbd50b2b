"""``python -m benchmarks.e2e``: run workloads, print every metric.

This process only orchestrates.  It starts the oracle and each round
as a fresh child (child.py), takes the median of the round values and
prints a table followed by one JSON line per workload in the shape
BENCHMARK.json's driver reads.  It imports nothing of the measured
program, so it also starts — and fails with a non-zero exit — where
the program is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from .spec import (
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    ROUNDS,
    RUN_SECONDS,
    UNIT_OF,
    WORKLOAD_BY_NAME,
    WORKLOADS,
)

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
#: Build outputs and scratch files live here: inside the checkout, as
#: the driver requires, and ignored by git.
WORK_DIR = ROOT / ".bench_build" / "e2e"
EXPECTED_FILE = HERE / "expected" / "seed29.json"
CHILD_TIMEOUT_S = 170
#: Counters that must equal round 0's: all of them in-process; on the
#: wire only those that do not depend on how two shards interleave.
WIRE_EXACT_COUNTERS = ("core.engine.grants", "core.engine.denies")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_child(config: dict) -> dict:
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(config)],
        env=_child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"benchmarks.e2e: {config['role']} child of {config['workload']} "
            f"exited with code {completed.returncode}"
        )
    with open(config["result"], encoding="utf-8") as handle:
        return json.load(handle)


def _fstype_of(path: Path, mounts) -> str:
    """File-system type of the longest mount point at or above ``path``.

    ``mounts`` are lines in the format of ``/proc/mounts``.
    """
    best = (-1, "")
    for line in mounts:
        _, mount, fstype, *_ = line.split()
        if path.is_relative_to(mount) and len(mount) > best[0]:
            best = (len(mount), fstype)
    return best[1]


def _expected_sha(workload: str, seed: int, window: int) -> str | None:
    if seed != DEFAULT_SEED or not EXPECTED_FILE.exists():
        return None
    entries = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    return entries.get(workload, {}).get(str(window))


def run_invocation(
    workload: str, seed: int, seconds: float, *, trace: bool, smoke: bool
) -> dict:
    """One invocation of one workload: oracle, rounds, medians, checks."""
    scratch = WORK_DIR / f"scratch-{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    # Every round on the same cores: the process hosting engine and
    # store (the round itself, or the server child) on the last one,
    # the wire client on the first.  Interrupts and the journal thread
    # land on the first core of the reference box, and a durable-cold
    # round pinned there waited 23 % longer than one pinned elsewhere.
    cpus = sorted(os.sched_getaffinity(0))
    program_cpu = cpus[-1] if len(cpus) >= 2 else None
    round_cpu = program_cpu
    if workload == "wire-pipelined" and program_cpu is not None:
        round_cpu = cpus[0]
    base = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "scratch": str(scratch),
    }
    try:
        oracle = None
        if WORKLOAD_BY_NAME[workload].own_oracle:
            oracle = _run_child(
                base | {"role": "oracle", "result": str(scratch / "oracle.json")}
            )
        plan = [False] * (1 if trace else ROUNDS) + ([True] if trace else [])
        rounds = []
        for index, traced in enumerate(plan):
            rounds.append(
                _run_child(
                    base
                    | {
                        "role": "round",
                        "round": index,
                        "traced": traced,
                        "cpu": round_cpu,
                        "peer_cpu": program_cpu,
                        "result": str(scratch / f"round-{index}.json"),
                    }
                )
            )
        reference = oracle or rounds[0]
        _compare(reference, rounds)
        with open("/proc/mounts", encoding="utf-8") as mounts:
            tmpfs = _fstype_of(scratch, mounts) == "tmpfs"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = [r for r, traced in zip(rounds, plan) if not traced]
    traced_round = rounds[-1] if trace else None
    problems = _check(workload, seed, reference, rounds)

    end_to_end = {
        metric.name: {
            "value": statistics.median(r["e2e"][metric.name] for r in untraced),
            "rounds": [r["e2e"][metric.name] for r in untraced],
        }
        for metric in END_TO_END
    }
    as_measured = {
        name: [r["as_measured"][name] for r in untraced]
        for name in untraced[0]["as_measured"]
    }
    attempted = sum(r["attempted"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    matches = sum(r["matches"] for r in untraced)
    shares = {
        "correct_share": {
            "value": matches / attempted,
            "rounds": [r["matches"] / r["attempted"] for r in untraced],
        },
        "failed_share": {
            "value": failed / attempted,
            "rounds": [r["failed"] / r["attempted"] for r in untraced],
        },
    }

    rates = end_to_end["decisions_per_s"]["rounds"]
    layers = _per_layer(oracle, untraced[0], traced_round, rates)
    layers["harness.scratch_tmpfs"] = float(tmpfs)
    if traced_round is not None:
        trace_dir = WORK_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{workload}-seed{seed}.json").write_text(
            json.dumps(
                {
                    "workload": workload,
                    "seed": seed,
                    "checks": traced_round["checks"],
                    "spans": traced_round["trace"],
                }
            ),
            encoding="utf-8",
        )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "end_to_end": end_to_end,
        "as_measured": as_measured,
        "shares": shares,
        "per_layer": layers,
        "checks": traced_round["checks"] if traced_round else {},
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "effects_sha256": reference["codes_sha256"],
        "counters": untraced[0]["counters"],
    }


def _per_layer(
    oracle: dict | None, untraced: dict, traced: dict | None, rates: list[float]
) -> dict:
    """Every declared per-layer metric; 0 for layers the workload skips.

    What needs no tracing (set-up split, tails, counters) is read from
    the untraced round, which tracing does not slow down.
    """
    measured = dict(oracle["layers"]) if oracle else {}
    if traced is not None:
        measured |= traced["layers"] | traced["counters"]
        measured["trace.overhead_share"] = (
            1.0 - traced["e2e"]["decisions_per_s"] / rates[0]
        )
    measured |= untraced["layers"] | untraced["counters"]
    if oracle:
        measured["harness.generate_s"] += oracle["layers"]["harness.generate_s"]
    measured["harness.round_spread.decisions_per_s"] = (
        max(rates) - min(rates)
    ) / statistics.median(rates)
    return {metric.name: measured.get(metric.name, 0.0) for metric in PER_LAYER}


def _compare(reference: dict, rounds: list[dict]) -> None:
    """Count each round's decisions that equal the reference's."""
    with open(reference["codes_file"], "rb") as handle:
        expected = handle.read()
    warmup = reference["warmup"]
    for result in rounds:
        with open(result["codes_file"], "rb") as handle:
            codes = handle.read()
        result["warmup_matches"] = codes[:warmup] == expected[:warmup]
        result["matches"] = sum(
            1 for mine, theirs in zip(codes[warmup:], expected[warmup:]) if mine == theirs
        )


def _check(workload: str, seed: int, reference: dict, rounds: list[dict]) -> list[str]:
    """Everything that must hold for ``correct: true``."""
    problems = []
    wire = workload == "wire-pipelined"
    for index, result in enumerate(rounds):
        where = f"round {index}"
        if result["matches"] != result["attempted"] or not result["warmup_matches"]:
            problems.append(
                f"{where}: {result['attempted'] - result['matches']} decisions differ "
                f"from the reference ({result['failed']} failed: {result['first_error']})"
            )
        if not wire and result["store_sha256"] != reference["store_sha256"]:
            problems.append(f"{where}: store_digest differs from the reference's")
        if not result.get("trail_verified", True):
            problems.append(f"{where}: audit trail failed verify_all()")
        exact = WIRE_EXACT_COUNTERS if wire else tuple(result["counters"])
        for name in exact:
            if result["counters"][name] != rounds[0]["counters"][name]:
                problems.append(f"{where}: exact counter {name} differs from round 0")
    expected = _expected_sha(workload, seed, rounds[0]["attempted"])
    if expected is not None and expected != reference["codes_sha256"]:
        problems.append(
            f"effect digest {reference['codes_sha256']} differs from the committed "
            f"{expected} for seed {seed}"
        )
    return problems


def _print_report(outcome: dict) -> None:
    print(
        f"== {outcome['workload']}  seed {outcome['seed']}  "
        f"seconds {outcome['seconds']:g}  trace {int(outcome['trace'])}"
    )
    print("-- end to end: median of rounds [per-round values]")
    for name, entry in (outcome["end_to_end"] | outcome["shares"]).items():
        per_round = ", ".join(f"{value:.6g}" for value in entry["rounds"])
        print(f"  {name:<24}{entry['value']:>14.6g} {UNIT_OF[name]:<6} [{per_round}]")
    if outcome["trace"]:
        print("-- per layer")
        for name, value in outcome["per_layer"].items():
            print(f"  {name:<44}{value:>16.6g} {UNIT_OF[name]}")
        for name, value in outcome["checks"].items():
            print(f"  check {name:<38}{value:>16.6g}")
    else:
        print("-- exact counters (round 0; identical in every round)")
        for name, value in outcome["counters"].items():
            print(f"  {name:<44}{value:>16}")
    print(f"  effects sha256 {outcome['effects_sha256']}")
    for problem in outcome["problems"]:
        print(f"INCORRECT: {problem}", file=sys.stderr)


def contract_line(outcome: dict) -> str:
    """The last line of a run, as BENCHMARK.json's driver reads it."""
    if outcome["trace"]:
        metrics = {
            name: {"value": value, "unit": UNIT_OF[name]}
            for name, value in outcome["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": entry["value"], "unit": UNIT_OF[name]}
            for name, entry in outcome["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": outcome["correct"],
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": metrics,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=RUN_SECONDS,
        help="what the three measured windows add up to on the reference box",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: the traced pass (one untraced and one traced round, per-layer metrics)",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="two alternating sets of full runs of this checkout; writes AA.json",
    )
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    if args.selfcheck:
        from .selfcheck import selfcheck

        return selfcheck(names, args.seed, args.seconds, args.smoke)
    all_correct = True
    for name in names:
        outcome = run_invocation(
            name, args.seed, args.seconds, trace=bool(args.trace), smoke=args.smoke
        )
        _print_report(outcome)
        print(contract_line(outcome), flush=True)
        all_correct = all_correct and outcome["correct"]
    return 0 if all_correct else 1
