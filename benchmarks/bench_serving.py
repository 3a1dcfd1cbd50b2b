"""BENCH_serving — closed-loop load benchmark of the authorization server.

Boots the full serving stack in-process (asyncio TCP server on a
background thread, SQLite retained-ADI store, sharded micro-batching
workers) and drives it over *both wire protocols*: JSON-lines v1
through K pooled closed-loop client threads, and binary batched v2
through the pipelined clients (sync threads sharing one multiplexed
connection, and the asyncio client with hundreds of in-flight
decides).  Every request is a real wire round trip through
encode/decode, shard queueing and batch commit.

Measured per (protocol, shard count): sustained throughput
(decisions/s), the client-observed latency distribution (p50/p95/p99),
and the *wire gap* — the ratio of a same-run in-process reference
(`engine.check` in a bare loop, same workload, same store kind) to the
served throughput.  The gap is the honest cost of the wire measured on
whatever machine runs the bench; absolute rps numbers move with the
host, the ratio is comparable across hosts.

Two correctness gates ride along (both run in ``--smoke``, so CI
fails on regressions without ever gating on timing):

* a *differential gate*: one request stream replayed sequentially
  through the in-process engine, the v1 wire and the v2 batched wire
  must produce identical decision effects and identical retained-ADI
  store fingerprints;
* an *overload probe*: a deliberately slow engine behind a tiny
  bounded queue must shed excess load with fast typed rejections —
  bounded memory, never an unbounded backlog.

Results are written as machine-readable JSON to
``benchmarks/results/BENCH_serving.json``.  Run it directly::

    PYTHONPATH=src python benchmarks/bench_serving.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke  # CI

The workload (policy set + request stream) is shared with
``bench_hotpath_regression`` so engine-level and serving-level numbers
are comparable.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import threading
import time

from bench_hotpath_regression import build_policy_set, request_stream

from repro.api import open_pdp, open_server, open_store
from repro.client import AsyncRemotePDP, PDPOverloadedError, RemotePDP
from repro.core import MSoDEngine
from repro.obs import Recorder
from repro.server import AuthorizationService, ServerThread

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "BENCH_serving.json"
)


def percentile(sorted_values: list[float], q: float) -> float:
    """Exact (nearest-rank) percentile of an already sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[rank]


# ---------------------------------------------------------------------------
# In-process reference: the number the wire is measured against
# ---------------------------------------------------------------------------
def run_in_process(n_requests: int, n_users: int) -> dict:
    """``engine.check`` in a bare loop — same workload, same store kind."""
    store = open_store("sqlite::memory:")
    engine = MSoDEngine(build_policy_set(), store)
    requests = list(request_stream(n_requests, n_users))
    wall_started = time.perf_counter()
    for request in requests:
        engine.check(request)
    elapsed = time.perf_counter() - wall_started
    store.close()
    return {
        "requests": len(requests),
        "elapsed_s": round(elapsed, 4),
        "throughput_rps": round(len(requests) / elapsed, 1),
    }


# ---------------------------------------------------------------------------
# Throughput / latency sweep
# ---------------------------------------------------------------------------
def _summarise(
    *,
    protocol: str,
    client_kind: str,
    n_shards: int,
    n_clients: int,
    flat: list[float],
    elapsed: float,
    perf: Recorder,
    metrics: dict,
) -> dict:
    completed = len(flat)
    batches = perf.counter("server.batches")
    return {
        "protocol": protocol,
        "client": client_kind,
        "shards": n_shards,
        "clients": n_clients,
        "requests": completed,
        "elapsed_s": round(elapsed, 4),
        "throughput_rps": round(completed / elapsed, 1),
        "latency_s": {
            "mean": round(sum(flat) / completed, 6) if completed else 0.0,
            "p50": round(percentile(flat, 0.50), 6),
            "p95": round(percentile(flat, 0.95), 6),
            "p99": round(percentile(flat, 0.99), 6),
            "max": round(flat[-1], 6) if flat else 0.0,
        },
        "batches": batches,
        "mean_batch": round(completed / batches, 2) if batches else 0.0,
        "wire_batches": perf.counter("wire.frames_in"),
        "rejected": sum(shard["rejected"] for shard in metrics["shards"]),
    }


def run_load(
    n_shards: int,
    n_clients: int,
    n_requests: int,
    n_users: int,
    protocol: str = "v1",
) -> dict:
    """One closed-loop run: K client threads replay disjoint slices.

    ``protocol="v1"`` gives each thread its own pooled JSON-lines
    connection; ``protocol="v2"`` multiplexes every thread onto one
    pipelined binary connection (decide-batch frames, bounded in-flight
    window).
    """
    requests = list(request_stream(n_requests, n_users))
    per_client = len(requests) // n_clients

    perf = Recorder()
    latencies: list[list[float]] = [[] for _ in range(n_clients)]
    errors: list[Exception] = []

    with open_server(
        build_policy_set(),
        store="sqlite::memory:",
        n_shards=n_shards,
        perf=perf,
    ) as server:
        service = server.service
        with server.client(
            pool_size=n_clients, timeout=30.0, protocol_version=protocol
        ) as pdp:

            def client(index: int) -> None:
                lo = index * per_client
                own = latencies[index]
                try:
                    for request in requests[lo:lo + per_client]:
                        started = time.perf_counter()
                        pdp.decide(request)
                        own.append(time.perf_counter() - started)
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(n_clients)
            ]
            wall_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - wall_started
        metrics = service.metrics()
    if errors:
        raise errors[0]

    flat = sorted(lat for client_lat in latencies for lat in client_lat)
    return _summarise(
        protocol=protocol,
        client_kind="threads",
        n_shards=n_shards,
        n_clients=n_clients,
        flat=flat,
        elapsed=elapsed,
        perf=perf,
        metrics=metrics,
    )


def run_load_pipelined(
    n_shards: int, concurrency: int, n_requests: int, n_users: int
) -> dict:
    """The v2 headline: the asyncio pipelined client at high concurrency.

    One event loop, one connection, ``concurrency`` in-flight decides
    coalescing into decide-batch frames — the client shape the batched
    protocol was designed for (no per-request thread, no per-request
    round trip).
    """
    requests = list(request_stream(n_requests, n_users))
    perf = Recorder()
    latencies: list[float] = []

    with open_server(
        build_policy_set(),
        store="sqlite::memory:",
        n_shards=n_shards,
        perf=perf,
    ) as server:
        service = server.service

        async def drive() -> float:
            async with AsyncRemotePDP(
                server.host,
                server.port,
                timeout=30.0,
                protocol_version="v2",
                batch_max=64,
                pipeline_window=16,
            ) as pdp:
                gate = asyncio.Semaphore(concurrency)

                async def one(request) -> None:
                    async with gate:
                        started = time.perf_counter()
                        await pdp.decide(request)
                        latencies.append(time.perf_counter() - started)

                wall_started = time.perf_counter()
                await asyncio.gather(*(one(r) for r in requests))
                return time.perf_counter() - wall_started

        elapsed = asyncio.run(drive())
        metrics = service.metrics()

    latencies.sort()
    return _summarise(
        protocol="v2",
        client_kind="async-pipelined",
        n_shards=n_shards,
        n_clients=concurrency,
        flat=latencies,
        elapsed=elapsed,
        perf=perf,
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# Differential gate: the wire must never change a decision
# ---------------------------------------------------------------------------
def run_differential(n_requests: int = 600, n_users: int = 40) -> dict:
    """One stream, three paths, identical outcomes — or exit nonzero.

    Sequential replay (so ordering is deterministic) through the
    in-process engine, the v1 JSON-lines wire and the v2 batched wire;
    compares the full per-request effect sequence and the retained-ADI
    store fingerprints, and checks from the server's own frame counters
    that each leg ran over its protocol (``batched``: decisions that
    reached the server inside ``decide-batch`` frames).  This is the
    timing-free regression gate CI runs on every push — a protocol bug
    fails the build even on the noisiest runner.
    """
    requests = list(request_stream(n_requests, n_users))

    store = open_store("sqlite::memory:")
    engine = MSoDEngine(build_policy_set(), store)
    expected_effects = [engine.check(request).effect for request in requests]
    expected_digest = _store_digest(store)
    store.close()

    legs = {}
    for protocol in ("v1", "v2"):
        store = open_store("sqlite::memory:")
        engine = MSoDEngine(build_policy_set(), store)
        perf = Recorder()
        service = AuthorizationService(engine, n_shards=4, perf=perf)
        with ServerThread(service) as server:
            with RemotePDP(
                server.host,
                server.port,
                timeout=30.0,
                protocol_version=protocol,
            ) as pdp:
                effects = [pdp.decide(request).effect for request in requests]
        digest = _store_digest(store)
        store.close()
        batched = perf.sizes().get("wire.batch_size")
        legs[protocol] = {
            "batched": int(batched.total) if batched else 0,
            "effects_match": effects == expected_effects,
            "digest_match": digest == expected_digest,
        }

    ok = (
        legs["v1"]["batched"] == 0
        and legs["v2"]["batched"] == n_requests
        and all(
            leg["effects_match"] and leg["digest_match"]
            for leg in legs.values()
        )
    )
    return {"requests": n_requests, "legs": legs, "identical": ok}


def _store_digest(store) -> tuple:
    return tuple(
        sorted(
            (
                record.user_id,
                tuple(sorted((r.role_type, r.value) for r in record.roles)),
                record.operation,
                record.target,
                str(record.context_instance),
                record.granted_at,
                record.request_id,
            )
            for record in store.records()
        )
    )


# ---------------------------------------------------------------------------
# Overload probe: bounded queues must shed, not balloon
# ---------------------------------------------------------------------------
class _SlowEngine:
    """Wraps a real engine, pinning service time so queues fill for sure."""

    def __init__(self, engine: MSoDEngine, delay_s: float) -> None:
        self._engine = engine
        self._delay_s = delay_s
        self.store = engine.store
        self.perf = engine.perf

    def check(self, request):
        time.sleep(self._delay_s)
        return self._engine.check(request)


def run_overload_probe(n_clients: int = 8, n_requests: int = 120) -> dict:
    """Hammer one slow single-shard worker behind a depth-2 queue.

    Load far exceeds capacity, so most submissions must be rejected
    fast (the typed overload error with a retry hint) while the queue
    itself never exceeds its bound — the memory-safety property the
    admission control exists for.
    """
    requests = list(request_stream(n_requests, n_users=16))
    per_client = len(requests) // n_clients
    store = open_store("sqlite::memory:")
    engine = _SlowEngine(
        open_pdp(build_policy_set(), store=store).engine, delay_s=0.005
    )
    service = AuthorizationService(
        engine, n_shards=1, queue_depth=2, batch_max=2, retry_after=0.01
    )
    accepted = [0] * n_clients
    rejected = [0] * n_clients
    max_backlog = [0]
    errors: list[Exception] = []

    with ServerThread(service) as server:
        with RemotePDP(
            server.host,
            server.port,
            pool_size=n_clients,
            timeout=30.0,
            max_retries=0,  # count raw rejections; no client-side retry
        ) as pdp:

            def client(index: int) -> None:
                lo = index * per_client
                try:
                    for request in requests[lo:lo + per_client]:
                        try:
                            pdp.decide(request)
                            accepted[index] += 1
                        except PDPOverloadedError:
                            rejected[index] += 1
                        backlog = max(service.queue_depths(), default=0)
                        if backlog > max_backlog[0]:
                            max_backlog[0] = backlog
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            health = pdp.healthz()
    store.close()
    if errors:
        raise errors[0]

    total_accepted = sum(accepted)
    total_rejected = sum(rejected)
    assert total_rejected > 0, "probe failed to provoke any shedding"
    assert max_backlog[0] <= 2, f"queue exceeded its bound: {max_backlog[0]}"
    assert health["status"] == "ok", "server unhealthy after overload"
    return {
        "clients": n_clients,
        "offered": total_accepted + total_rejected,
        "accepted": total_accepted,
        "rejected": total_rejected,
        "queue_depth_limit": 2,
        "max_observed_backlog": max_backlog[0],
        "healthy_after": True,
    }


# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, fast run for CI (correctness + JSON shape, not timing)",
    )
    parser.add_argument("--requests", type=int, default=20_000)
    parser.add_argument("--users", type=int, default=200)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--output", default=RESULTS_PATH)
    args = parser.parse_args(argv)

    if args.smoke:
        n_requests, n_users, n_clients = 2_000, 50, 4
        shard_counts = [2]
        differential = run_differential(n_requests=400)
    else:
        n_requests, n_users, n_clients = args.requests, args.users, args.clients
        shard_counts = [1, 2, 4]
        differential = run_differential()

    if not differential["identical"]:
        print("DIFFERENTIAL GATE FAILED: wire decisions diverged from "
              "in-process", file=sys.stderr)
        print(json.dumps(differential, indent=2), file=sys.stderr)
        return 1

    reference = run_in_process(n_requests, n_users)
    in_process_rps = reference["throughput_rps"]

    sweep = []
    for n_shards in shard_counts:
        sweep.append(run_load(n_shards, n_clients, n_requests, n_users, "v1"))
        sweep.append(
            run_load_pipelined(n_shards, n_clients * 32, n_requests, n_users)
        )
    if not args.smoke:
        # One sync-threads v2 data point: the same thread harness as v1,
        # multiplexed over a single pipelined connection.
        sweep.append(run_load(4, 32, n_requests, n_users, "v2"))
    for point in sweep:
        point["wire_gap"] = (
            round(in_process_rps / point["throughput_rps"], 2)
            if point["throughput_rps"]
            else 0.0
        )
    probe = run_overload_probe()

    best = max(point["throughput_rps"] for point in sweep)
    best_by_protocol = {
        protocol: max(
            (p["throughput_rps"] for p in sweep if p["protocol"] == protocol),
            default=0.0,
        )
        for protocol in ("v1", "v2")
    }
    v2_gap = (
        round(in_process_rps / best_by_protocol["v2"], 2)
        if best_by_protocol["v2"]
        else float("inf")
    )
    report = {
        "benchmark": "serving",
        "smoke": args.smoke,
        "in_process": reference,
        "sweep": sweep,
        "best_throughput_rps": best,
        "best_by_protocol": best_by_protocol,
        "v2_wire_gap": v2_gap,
        "meets_1k_rps_target": best >= 1_000.0,
        "meets_2x_in_process_target": v2_gap <= 2.0,
        "differential": differential,
        "overload_probe": probe,
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
        f"in-process reference: {reference['requests']} decisions "
        f"({in_process_rps:.0f} rps)"
    )
    for point in sweep:
        latency = point["latency_s"]
        print(
            f"serving[{point['protocol']}/{point['client']} "
            f"shards={point['shards']}]: "
            f"{point['requests']} decisions in {point['elapsed_s']:.2f}s "
            f"({point['throughput_rps']:.0f} rps, gap {point['wire_gap']}x)  "
            f"p50={latency['p50'] * 1e3:.2f}ms "
            f"p99={latency['p99'] * 1e3:.2f}ms  "
            f"mean batch={point['mean_batch']}"
        )
    print(
        f"differential gate: {differential['requests']} requests identical "
        f"across in-process / v1 / v2"
    )
    print(
        f"overload probe: {probe['rejected']}/{probe['offered']} shed, "
        f"max backlog {probe['max_observed_backlog']} "
        f"(bound {probe['queue_depth_limit']}), healthy after"
    )
    print(f"  wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
