"""``--selfcheck``: does this benchmark agree with itself?

Runs two sets (A, B) of ``SELFCHECK_RUNS`` full invocations of the same
checkout, alternating A B A B so that slow drift of the host lands on
both, run ``k`` of either set with seed ``seed + k``.  That is the
procedure the benchmark's driver accepts or refuses it by, and the two
tests are the driver's: for every workload x end-to-end metric the
spread over a set's seeds (inter-quartile distance over median, as
``statistics.quantiles(n=4)`` gives it; ``setup_s`` exempt) and the gap
between the two set medians both stay within the metric's bound.

``AA.json`` also holds what justifies stating timings at a reference
host speed (calib.py): per workload and timing, the same spread for the
readings as measured, and how far the three rounds of one invocation —
same seed, same inputs — lie apart, at reference speed and as measured.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

from .cli import run_invocation
from .spec import END_TO_END, SELFCHECK_RUNS

AA_FILE = Path(__file__).resolve().parent / "AA.json"


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def _round_range(per_invocation: list[list[float]]) -> float:
    """Median over invocations of (max - min) / median of their rounds."""
    return statistics.median(
        (max(rounds) - min(rounds)) / statistics.median(rounds)
        for rounds in per_invocation
    )


def selfcheck(names: list[str], seed: int, seconds: float, smoke: bool) -> int:
    outcomes: dict = {name: {"A": [], "B": []} for name in names}
    elapsed: dict = {name: [] for name in names}
    counters_agree = True
    all_correct = True
    for run in range(SELFCHECK_RUNS):
        seen: dict = {}
        for label in "AB":
            for name in names:
                started = time.perf_counter()
                outcome = run_invocation(
                    name, seed + run, seconds, trace=False, smoke=smoke
                )
                elapsed[name].append(time.perf_counter() - started)
                outcomes[name][label].append(outcome)
                all_correct = all_correct and outcome["correct"]
                if seen.setdefault(name, outcome["counters"]) != outcome["counters"]:
                    counters_agree = False
                print(
                    f"selfcheck run {run} set {label} {name}: "
                    f"{elapsed[name][-1]:.1f} s, correct={outcome['correct']}",
                    file=sys.stderr,
                )

    report: dict = {
        "seed": seed,
        "seconds": seconds,
        "runs_per_set": SELFCHECK_RUNS,
        "all_correct": all_correct,
        "exact_counters_identical_across_sets": counters_agree,
        "workloads": {},
    }
    passed = all_correct and counters_agree
    for name in names:
        entry: dict = {
            "invocation_s": {
                "median": statistics.median(elapsed[name]),
                "max": max(elapsed[name]),
            },
            "metrics": {},
        }
        sets = outcomes[name]
        for metric in END_TO_END:
            a, b = (
                _summary([o["end_to_end"][metric.name]["value"] for o in sets[label]])
                for label in "AB"
            )
            worse = (
                (b["median"] - a["median"])
                if metric.better == "lower"
                else (a["median"] - b["median"])
            ) / a["median"]
            steady = metric.name == "setup_s" or max(a["spread"], b["spread"]) <= metric.bound
            ok = steady and abs(worse) <= metric.bound
            passed = passed and ok
            result = {
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
                "A": a,
                "B": b,
                "gap_B_worse_than_A": worse,
                "pass": ok,
            }
            both = sets["A"] + sets["B"]
            if metric.name in both[0]["as_measured"]:
                result["as_measured"] = {
                    label: _summary(
                        [
                            statistics.median(o["as_measured"][metric.name])
                            for o in sets[label]
                        ]
                    )
                    for label in "AB"
                }
                result["same_seed_round_range"] = {
                    "at_reference_speed": _round_range(
                        [o["end_to_end"][metric.name]["rounds"] for o in both]
                    ),
                    "as_measured": _round_range(
                        [o["as_measured"][metric.name] for o in both]
                    ),
                }
            entry["metrics"][metric.name] = result
            print(
                f"{name:<18}{metric.name:<22} A {a['median']:.6g} (spread "
                f"{a['spread']:.3f})  B {b['median']:.6g} (spread {b['spread']:.3f})  "
                f"gap {worse:+.3f}  bound {metric.bound}  {'ok' if ok else 'FAIL'}"
            )
        report["workloads"][name] = entry
    report["pass"] = passed
    if not smoke:
        AA_FILE.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {AA_FILE}")
    return 0 if passed else 1
