"""BENCH_policy_reload — decision latency while policies hot-reload.

Measures per-decision latency on the in-memory engine in two phases
over the same seeded workload:

1. **steady** — no reloads; the memoised hot path at its best.
2. **reloading** — a background thread swaps the active policy set
   every ``--reload-interval`` seconds, alternating between the base
   50-policy set and a superset with one extra policy so every swap is
   a *real* epoch change (digest differs, a new matcher is compiled),
   not a digest no-op.

The acceptance bar from the policy-lifecycle work: reload-under-load
p99 must stay within **2x** of steady-state p99 — a reload costs one
compile and a plan-cold window, never a stall.  The run also checks
correctness: the extra policy covers a context the workload never
touches, so the two phases must produce identical effect sequences,
and every decision must carry a (policy_epoch, policy_digest) pair
that is internally consistent.

Results go to ``benchmarks/results/BENCH_policy_reload.json``::

    PYTHONPATH=src python benchmarks/bench_policy_reload.py           # full
    PYTHONPATH=src python benchmarks/bench_policy_reload.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time

from repro.api import open_pdp
from repro.core import (
    MMER,
    ContextName,
    MSoDPolicy,
    MSoDPolicySet,
    Role,
    policy_set_digest,
)

from bench_hotpath_regression import build_policy_set, request_stream

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "results",
    "BENCH_policy_reload.json",
)


def extended_policy_set() -> MSoDPolicySet:
    """The base set plus one policy over a context the stream never hits."""
    extra = MSoDPolicy(
        ContextName.parse("Region=*, Quarter=!"),
        mmers=[
            MMER(
                [Role("employee", "Teller"), Role("employee", "Auditor")], 2
            )
        ],
        policy_id="regional-reload-target",
    )
    return MSoDPolicySet(list(build_policy_set()) + [extra])


def percentile(sorted_samples: list[float], q: float) -> float:
    if not sorted_samples:
        return 0.0
    index = min(
        len(sorted_samples) - 1, int(q * (len(sorted_samples) - 1) + 0.5)
    )
    return sorted_samples[index]


def timed_run(engine, requests, stop_reloader=None):
    check = engine.check
    clock = time.perf_counter
    latencies = []
    effects = []
    versions = []
    for request in requests:
        started = clock()
        decision = check(request)
        latencies.append(clock() - started)
        effects.append(decision.effect)
        versions.append((decision.policy_epoch, decision.policy_digest))
    if stop_reloader is not None:
        stop_reloader()
    return latencies, effects, versions


def summarize(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {
        "n": len(ordered),
        "p50_us": round(percentile(ordered, 0.50) * 1e6, 1),
        "p99_us": round(percentile(ordered, 0.99) * 1e6, 1),
        "max_us": round(ordered[-1] * 1e6, 1),
        "mean_us": round(sum(ordered) / len(ordered) * 1e6, 1),
    }


def run_benchmark(n_requests: int, n_users: int, reload_interval: float):
    requests = list(request_stream(n_requests, n_users))
    base = build_policy_set()
    extended = extended_policy_set()
    digests = {policy_set_digest(base), policy_set_digest(extended)}

    # Phase 1: steady state.
    steady_pdp = open_pdp(build_policy_set())
    steady_latencies, steady_effects, _ = timed_run(
        steady_pdp.engine, requests
    )
    steady_pdp.close()

    # Phase 2: identical stream with real reloads racing the decisions.
    pdp = open_pdp(build_policy_set())
    engine = pdp.engine
    stop = threading.Event()
    reloads_done = [0]

    def reloader() -> None:
        flip = False
        while not stop.wait(reload_interval):
            engine.swap_policy(extended if not flip else base)
            flip = not flip
            reloads_done[0] += 1

    thread = threading.Thread(target=reloader, daemon=True)
    thread.start()
    reload_latencies, reload_effects, versions = timed_run(
        engine, requests, stop_reloader=stop.set
    )
    thread.join(timeout=10)
    final_epoch = engine.policy_epoch
    pdp.close()

    # Correctness: the extra policy is workload-disjoint, so effects
    # must match the steady phase exactly; every stamped version must
    # be one of the two sets actually installed.
    assert reload_effects == steady_effects, "reload changed decisions"
    assert all(digest in digests for _, digest in versions)
    assert final_epoch == 1 + reloads_done[0]

    steady = summarize(steady_latencies)
    reloading = summarize(reload_latencies)
    ratio = (
        reloading["p99_us"] / steady["p99_us"] if steady["p99_us"] else 0.0
    )
    return {
        "requests": n_requests,
        "users": n_users,
        "reload_interval_s": reload_interval,
        "reloads_completed": reloads_done[0],
        "final_policy_epoch": final_epoch,
        "steady": steady,
        "reloading": reloading,
        "p99_ratio": round(ratio, 2),
        "p99_within_2x": ratio <= 2.0,
        "effects_identical_across_phases": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, fast run for CI (correctness + JSON shape, not timing)",
    )
    parser.add_argument("--requests", type=int, default=20_000)
    parser.add_argument("--users", type=int, default=200)
    parser.add_argument(
        "--reload-interval",
        type=float,
        default=0.05,
        help="seconds between background policy swaps",
    )
    parser.add_argument("--output", default=RESULTS_PATH)
    args = parser.parse_args(argv)

    if args.smoke:
        n_requests, n_users, interval = 2_000, 50, 0.02
    else:
        n_requests, n_users, interval = (
            args.requests,
            args.users,
            args.reload_interval,
        )

    report = {
        "benchmark": "policy_reload",
        "smoke": args.smoke,
        "result": run_benchmark(n_requests, n_users, interval),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
    }

    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    result = report["result"]
    print(
        f"policy-reload: {result['requests']} requests, "
        f"{result['reloads_completed']} reloads "
        f"(final epoch {result['final_policy_epoch']})\n"
        f"  steady    p99: {result['steady']['p99_us']:.1f}us\n"
        f"  reloading p99: {result['reloading']['p99_us']:.1f}us "
        f"({result['p99_ratio']:.2f}x, "
        f"{'OK' if result['p99_within_2x'] else 'OVER 2x BUDGET'})\n"
        f"  wrote {args.output}"
    )
    # The 2x p99 budget gates full runs only; --smoke is a correctness
    # run (identical effects, consistent version stamps) on hardware —
    # CI runners — too noisy to gate on timing.
    return 0 if (args.smoke or result["p99_within_2x"]) else 1


if __name__ == "__main__":
    sys.exit(main())
