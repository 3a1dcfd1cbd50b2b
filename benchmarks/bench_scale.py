"""BENCH_scale — bank-scale (10^6 users) retained-ADI store comparison.

Drives the :mod:`repro.workload.bank_scale` organisation (a million
users, 24 divisions, 192 roles, four-deep contexts, Zipf-skewed
traffic over a 5% active set) through the same multi-session preload
(retained history for every user, predating the measured window — the
inactive millions the always-resident stores must index and the tier
leaves warm) and the same seeded decision stream against two store
backends — always-resident ``memory`` and the hot/warm ``tiered``
split over SQLite — and reports,
per leg: closed-loop throughput, service-time p50/p99, peak RSS
(``ru_maxrss``), an open-loop phase at a fraction of the measured
closed-loop rate (latency measured from *scheduled arrival*, so
overload is reported honestly), and the store's ``stats()`` counters.

Each leg runs in its **own subprocess** so ``ru_maxrss`` is that
store's peak alone, not the max over every store tried in one process.
Store construction goes through the unified spec parser
(``repro.api.open_store``), exactly like the CLI and the server.

Two gates ride along (both run in ``--smoke``):

* **differential**: every leg must produce the identical decision-
  effect stream (sha256 over effect/adds/purges per request, across
  two mid-run policy epoch swaps) and the identical final store
  fingerprint — the tiered store is bit-identical to the memory
  oracle through eviction/rehydration cycles or this bench fails;
* **RSS bound**: the tiered leg's peak RSS must stay ≤ 25% of the
  always-resident memory leg's (full runs; smoke prints the ratio).

An always-resident ``sqlite`` leg (SQLite with a lazily built index of
every row) was the RSS bound's reference until the ``sqlite`` spec
became the default tier over its file.  In the last full-size run the
memory leg peaked at 7 946 MiB against that leg's 8 745, so the bound
is no looser against memory; the full-size ratio has not been re-run
against it.

Results land in ``benchmarks/results/BENCH_scale.json``::

    PYTHONPATH=src python benchmarks/bench_scale.py          # 10^6 users
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke  # CI (10^4)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

LEGS = ("memory", "tiered")
BATCH_CHUNK = 512
RSS_BOUND_FRACTION = 0.25
DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_scale.json"
)


def leg_store_spec(leg: str, workdir: str, hot_users: int, shards: int) -> str:
    if leg == "memory":
        return "memory"
    warm = os.path.join(workdir, "adi-tiered.db")
    return f"tiered:sqlite:{warm}?hot_users={hot_users}&shards={shards}"


def make_config(args: argparse.Namespace):
    from repro.workload import BankScaleConfig

    return BankScaleConfig(
        n_users=args.users,
        active_fraction=args.active_fraction,
        seed=args.seed,
    )


def extended_policy_set(config):
    """The base set plus duty pairs for divisions the traffic never
    touches: swapping to it (and back) advances the policy epoch
    without changing a single decision — the differential gate then
    proves the tiered store gives identical answers across epochs."""
    from repro.core.constraints import MMER
    from repro.core.context import ContextName
    from repro.core.policy import MSoDPolicy, MSoDPolicySet
    from repro.workload import bank_scale_policy_set, duty_roles

    base = bank_scale_policy_set(config)
    extra = []
    for division in (900, 901):
        extra.append(
            MSoDPolicy(
                ContextName.parse(
                    f"Region=*, Division=D{division:02d}, Branch=*, Period=!"
                ),
                mmers=[MMER(list(duty_roles(division, 0)), 2)],
                policy_id=f"bank-extra-D{division}",
            )
        )
    return MSoDPolicySet(list(base.policies) + extra)


def store_fingerprint(store) -> str:
    """Order-independent sha256 of the store's logical contents.

    Record ids are backend-assigned and excluded, like
    :func:`repro.core.store_digest`; computed streaming so the interim
    list, not the full digest tuple, is the only transient cost (and
    only after RSS has been sampled).
    """
    lines = []
    for record in store.records():
        roles = ",".join(sorted(str(role) for role in record.roles))
        lines.append(
            f"{record.user_id}|{roles}|{record.operation}|{record.target}|"
            f"{record.context_instance}|{record.request_id}"
        )
    lines.sort()
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def percentile_ms(samples, fraction: float) -> float:
    from repro.workload import percentile

    return round(percentile(samples, fraction) * 1000.0, 3)


def run_leg(args: argparse.Namespace) -> dict:
    from repro.api import open_store
    from repro.core import MSoDEngine
    from repro.workload import (
        bank_scale_history,
        bank_scale_policy_set,
        bank_scale_request_stream,
        run_open_loop,
    )

    config = make_config(args)
    base_set = bank_scale_policy_set(config)
    spec = leg_store_spec(args.leg, args.workdir, args.hot_users, args.shards)
    store = open_store(spec)
    engine = MSoDEngine(base_set, store)
    extended = extended_policy_set(config)

    # Multi-session preload: retained history for the WHOLE population,
    # predating the measured window.  The always-resident backends will
    # index all of it; the tier leaves inactive users in the warm layer.
    preload_start = time.perf_counter()
    preloaded = 0
    if args.history_per_user:
        history = bank_scale_history(config, args.history_per_user)
        while True:
            chunk = []
            for record in history:
                chunk.append(record)
                if len(chunk) >= 4096:
                    break
            if not chunk:
                break
            with store.batch():
                for record in chunk:
                    store.add(record)
            preloaded += len(chunk)
    preload_elapsed = time.perf_counter() - preload_start

    effects = hashlib.sha256()
    grants = denies = 0

    def decide(request):
        nonlocal grants, denies
        decision = engine.check(request)
        if decision.granted:
            grants += 1
        else:
            denies += 1
        effects.update(
            f"{decision.effect}|{decision.records_added}|"
            f"{decision.records_purged}\n".encode("utf-8")
        )
        return decision

    total = args.requests + args.open_requests
    stream = bank_scale_request_stream(config, total)
    swap_points = {args.requests // 2: extended, (args.requests * 3) // 4: base_set}

    service_times: list[float] = []
    issued = 0
    closed_start = time.perf_counter()
    while issued < args.requests:
        chunk = min(BATCH_CHUNK, args.requests - issued)
        target = None
        for offset in range(issued, issued + chunk):
            if offset in swap_points:
                target = offset
                chunk = offset - issued
                break
        if chunk:
            with store.batch():
                for _ in range(chunk):
                    began = time.perf_counter()
                    decide(next(stream))
                    service_times.append(time.perf_counter() - began)
            issued += chunk
        if target is not None:
            engine.swap_policy(swap_points.pop(target), force=True)
    closed_elapsed = max(time.perf_counter() - closed_start, 1e-9)
    closed_rps = args.requests / closed_elapsed

    open_report = None
    if args.open_requests:
        remaining = (next(stream) for _ in range(args.open_requests))
        open_report = run_open_loop(
            decide, remaining, max(closed_rps * args.open_rate_fraction, 1.0)
        ).to_dict()

    stats = store.stats()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    fingerprint = store_fingerprint(store)
    store.close()
    return {
        "leg": args.leg,
        "store_spec": spec,
        "requests": args.requests,
        "open_requests": args.open_requests,
        "preloaded_records": preloaded,
        "preload_s": round(preload_elapsed, 3),
        "grants": grants,
        "denies": denies,
        "closed_loop": {
            "throughput_rps": round(closed_rps, 1),
            "elapsed_s": round(closed_elapsed, 3),
            "service_p50_ms": percentile_ms(service_times, 0.50),
            "service_p99_ms": percentile_ms(service_times, 0.99),
        },
        "open_loop": open_report,
        "ru_maxrss_kb": rss_kb,
        "effects_sha256": effects.hexdigest(),
        "store_sha256": fingerprint,
        "store_stats": stats,
    }


def run_parent(args: argparse.Namespace) -> int:
    from repro.workload import BankScaleConfig  # noqa: F401 - import check

    started = time.time()
    legs: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench-scale-") as workdir:
        for leg in LEGS:
            leg_output = os.path.join(workdir, f"leg-{leg}.json")
            command = [
                sys.executable,
                os.path.abspath(__file__),
                "--leg", leg,
                "--leg-output", leg_output,
                "--workdir", workdir,
                "--users", str(args.users),
                "--requests", str(args.requests),
                "--open-requests", str(args.open_requests),
                "--history-per-user", str(args.history_per_user),
                "--hot-users", str(args.hot_users),
                "--shards", str(args.shards),
                "--active-fraction", str(args.active_fraction),
                "--open-rate-fraction", str(args.open_rate_fraction),
                "--seed", str(args.seed),
            ]
            print(f"[bench_scale] running {leg} leg...", flush=True)
            completed = subprocess.run(command)
            if completed.returncode != 0:
                print(f"[bench_scale] {leg} leg failed", file=sys.stderr)
                return completed.returncode
            with open(leg_output, encoding="utf-8") as handle:
                legs[leg] = json.load(handle)
            point = legs[leg]
            print(
                f"[bench_scale] {leg}: "
                f"{point['closed_loop']['throughput_rps']:.0f} rps, "
                f"p99 {point['closed_loop']['service_p99_ms']:.3f} ms, "
                f"rss {point['ru_maxrss_kb'] / 1024:.0f} MiB",
                flush=True,
            )

    effects = {leg: legs[leg]["effects_sha256"] for leg in LEGS}
    stores = {leg: legs[leg]["store_sha256"] for leg in LEGS}
    identical = len(set(effects.values())) == 1 and len(set(stores.values())) == 1
    rss_fraction = (
        legs["tiered"]["ru_maxrss_kb"] / legs["memory"]["ru_maxrss_kb"]
        if legs["memory"]["ru_maxrss_kb"]
        else float("inf")
    )
    tiered_stats = legs["tiered"]["store_stats"]
    report = {
        "benchmark": "scale",
        "smoke": args.smoke,
        "config": {
            "n_users": args.users,
            "requests": args.requests,
            "open_requests": args.open_requests,
            "history_per_user": args.history_per_user,
            "active_fraction": args.active_fraction,
            "hot_users": args.hot_users,
            "hot_shards": args.shards,
            "seed": args.seed,
        },
        "legs": legs,
        "differential": {
            "identical": identical,
            "effects_sha256": effects,
            "store_sha256": stores,
        },
        "rss": {
            "tiered_over_memory": round(rss_fraction, 4),
            "bound": RSS_BOUND_FRACTION,
            "within_bound": rss_fraction <= RSS_BOUND_FRACTION,
        },
        "tiered": {
            "evictions": tiered_stats.get("evictions", 0),
            "hydrations": tiered_stats.get("hydrations", 0),
            "resident_users": tiered_stats.get("resident_users", 0),
        },
        "elapsed_s": round(time.time() - started, 1),
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

    print(
        f"[bench_scale] differential gate: "
        f"{'identical' if identical else 'DIVERGED'} across {', '.join(LEGS)}"
    )
    print(
        f"[bench_scale] tiered rss = {rss_fraction:.1%} of memory "
        f"(bound {RSS_BOUND_FRACTION:.0%}), "
        f"{report['tiered']['evictions']} evictions, "
        f"{report['tiered']['hydrations']} hydrations"
    )
    print(f"  wrote {args.output}")
    if not identical:
        return 1
    # The RSS bound is an acceptance gate for the full-scale run; smoke
    # workloads are too small for the interpreter baseline not to
    # dominate both legs, so smoke only *reports* the ratio but still
    # requires the tier to actually cycle users.
    if args.smoke:
        if not report["tiered"]["evictions"]:
            print(
                "[bench_scale] smoke gate: tiered leg never evicted "
                "(hot cap too large for the workload?)",
                file=sys.stderr,
            )
            return 1
        return 0
    return 0 if report["rss"]["within_bound"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--open-requests", type=int, default=None)
    parser.add_argument("--history-per-user", type=int, default=None)
    parser.add_argument("--hot-users", type=int, default=None)
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--active-fraction", type=float, default=0.05)
    parser.add_argument("--open-rate-fraction", type=float, default=0.6)
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--leg", choices=LEGS, help=argparse.SUPPRESS)
    parser.add_argument("--leg-output", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.smoke:
        defaults = dict(
            users=10_000, requests=30_000, open_requests=3_000,
            history_per_user=2, hot_users=64, shards=4,
        )
    else:
        defaults = dict(
            users=1_000_000, requests=1_000_000, open_requests=100_000,
            history_per_user=4, hot_users=10_000, shards=8,
        )
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)

    if args.leg:
        result = run_leg(args)
        with open(args.leg_output, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        return 0
    return run_parent(args)


if __name__ == "__main__":
    sys.exit(main())
