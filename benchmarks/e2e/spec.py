"""What the benchmark declares: workloads, sizes, metric names and units.

Everything here is a constant.  Official runs have no tunables: the
window of a workload is a fixed decision count derived from
``--seconds`` alone (``RUN_SECONDS`` in ``BENCHMARK.json``), so two
runs of one seed do identical work and exact counters repeat.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

#: ``run_seconds`` of BENCHMARK.json: the three measured windows of one
#: invocation together take about this long on the reference box.
RUN_SECONDS = 5
ROUNDS = 3
DEFAULT_SEED = 29
#: Full invocations per set of ``--selfcheck`` (two sets, A B A B).
SELFCHECK_RUNS = 10

#: Population of the three workloads that preload ``bank_scale_history``
#: (four records per user).  Every process of an invocation generates
#: and preloads that history, which is most of what an invocation costs
#: besides its windows; at the issue's 50 000 users an invocation took
#: 21-38 s and the driver's 92 runs overran its time limit.  The
#: history of 20 000 users spans the same 3 840 contexts as that of
#: 50 000, which is what the context scans of the engine see.
HISTORY_USERS = 20_000
#: Hot-tier budget of the ``durable-cold`` store: far below the active
#: set, so roughly every second decision hydrates a cold user.
HOT_USERS = 128
HOT_SHARDS = 8
#: Closed-loop coroutines (= requests in flight) on ``wire-pipelined``.
WIRE_CONCURRENCY = 64
WIRE_BATCH_MAX = 64
WIRE_PIPELINE_WINDOW = 16
WIRE_SHARDS = 2
AUDIT_KEY = b"benchmarks-e2e-trail-key"


@dataclass(frozen=True, slots=True)
class Sizes:
    """How much work one round of a workload does."""

    n_users: int
    history_per_user: int  # bank_scale_history records preloaded per user
    fixture: int  # decisions recorded into the recovery trail (durable-cold)
    warmup: int
    window: int
    chunk: int  # decisions per timed block (and per generated chunk)


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    why: str
    active_fraction: float
    sizes: Sizes  # at RUN_SECONDS
    #: Whether a separate oracle process computes the expected effects.
    #: On the two in-process memory workloads the program under test
    #: *is* the oracle's configuration — ``open_pdp(policy, "memory")``,
    #: one thread — so a separate oracle would be a fourth identical
    #: round (a third more time) that can only re-check determinism;
    #: there round 0 is the reference for the other rounds and the
    #: committed seed-29 digest pins the decisions themselves.
    own_oracle: bool


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "engine-hot",
        "few long-lived contexts in-process: engine, compiled matcher and "
        "in-memory ADI index are all the time; sqlite, tier, audit, wire idle",
        0.05,
        Sizes(HISTORY_USERS, 4, 0, 2_000, 30_000, 2_500),
        own_oracle=False,
    ),
    Workload(
        "engine-instances",
        "a fresh Filing=! context per business process: has_context and "
        "users_with_privileges scan every live context; only MMEP/MMCD source",
        0.05,
        Sizes(HISTORY_USERS, 4, 0, 100, 960, 80),
        own_oracle=False,
    ),
    Workload(
        "durable-cold",
        "working set far above the hot tier, per-decision sqlite commit and "
        "audit append, restart by trail replay: tiered, sqlite, audit, recovery",
        0.20,
        Sizes(50_000, 0, 4_000, 200, 1_800, 120),
        own_oracle=True,
    ),
    Workload(
        "wire-pipelined",
        "network path over a memory store: v2 codec, frame loop, shard "
        "queue and client pipelining with 64 in flight; engine is a minor part",
        0.20,
        Sizes(HISTORY_USERS, 4, 0, 500, 9_000, 750),
        own_oracle=True,
    ),
)
WORKLOAD_BY_NAME = {workload.name: workload for workload in WORKLOADS}


def sizes_for(workload: Workload, seconds: float, smoke: bool) -> Sizes:
    """The round sizes for ``--seconds`` (and ``--smoke``, tests only).

    The window scales linearly with ``seconds`` in whole chunks; set-up
    work (population, history, fixture) does not depend on it.  Smoke
    divides the population and fixture by 50 and keeps four tiny chunks.
    """
    base = workload.sizes
    if smoke:
        chunk = max(5, base.chunk // 12)
        return Sizes(
            n_users=base.n_users // 50,
            history_per_user=base.history_per_user,
            fixture=base.fixture // 50,
            warmup=max(10, base.warmup // 20),
            window=4 * chunk,
            chunk=chunk,
        )
    chunks = max(4, math.floor(base.window / base.chunk * seconds / RUN_SECONDS + 0.5))
    return Sizes(
        base.n_users,
        base.history_per_user,
        base.fixture,
        base.warmup,
        chunks * base.chunk,
        base.chunk,
    )


@dataclass(frozen=True, slots=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only


#: Gated metrics, identical on every workload.  Timings are stated at
#: the reference host speed (see calib.py).  A bound is one number per
#: metric for all workloads, and the driver refuses the benchmark when
#: the spread of a metric over ten seeds exceeds it on any workload.
#: That spread is 2-5 % while the reference box is calm and reached
#: 14 % (``wire-pipelined``) in its noisy hours, so the timings carry
#: the ceiling of 0.25; per-workload spreads are in AA.json.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("decisions_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_decision", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
)

#: Reported with every run through the contract's ``correct`` /
#: ``attempted`` / ``failed`` fields and in the printed table; not in
#: BENCHMARK.json because a gated metric may never be 0 there.
SHARES: tuple[Metric, ...] = (
    Metric("correct_share", "share", "higher"),
    Metric("failed_share", "share", "lower"),
)


def _layer(prefix: str, *items: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{name}", unit, better) for name, unit, better in items)


LOW, HIGH = "lower", "higher"

PER_LAYER: tuple[Metric, ...] = (
    *_layer(
        "core.engine",
        ("check_us", "us", LOW),
        ("self_us", "us", LOW),
        ("grants", "count", HIGH),
        ("denies", "count", LOW),
        ("records_added", "count", LOW),
    ),
    *_layer(
        "core.policy_epoch",
        ("match_us", "us", LOW),
        ("matched_per_decision", "count", LOW),
    ),
    *_layer(
        "core.constraints",
        ("denies.MMER", "count", LOW),
        ("denies.MMEP", "count", LOW),
        ("denies.MMCD", "count", LOW),
    ),
    *_layer(
        "core.retained_adi",
        ("has_context_us", "us", LOW),
        ("user_roles_us", "us", LOW),
        ("exercise_counts_us", "us", LOW),
        ("users_with_privileges_us", "us", LOW),
        ("apply_us", "us", LOW),
        ("reads_per_decision", "count", LOW),
        ("records_final", "count", LOW),
        ("contexts_final", "count", LOW),
        ("sqlite.apply_us", "us", LOW),
        ("sqlite.read_us", "us", LOW),
        ("sqlite.commits", "count", LOW),
    ),
    *_layer(
        "core.tiered",
        ("hydrations", "count", LOW),
        ("evictions", "count", LOW),
        ("hydration_ratio", "share", LOW),
        ("hit_decide_us", "us", LOW),
        ("miss_decide_us", "us", LOW),
        ("warm_bytes", "B", LOW),
    ),
    *_layer(
        "audit.trail",
        ("append_us", "us", LOW),
        ("appends", "count", LOW),
        ("bytes_per_event", "B", LOW),
        ("rotations", "count", LOW),
        ("verify_events_per_s", "1/s", HIGH),
    ),
    *_layer(
        "audit.recovery",
        ("events_per_s", "1/s", HIGH),
        ("records_replayed", "count", LOW),
        ("share_of_setup", "share", LOW),
    ),
    *_layer("xmlpolicy", ("parse_ms", "ms", LOW), ("write_ms", "ms", LOW)),
    *_layer(
        "server.protocol",
        ("v2.request_us", "us", LOW),
        ("v2.response_us", "us", LOW),
        ("v2.bytes_per_decision", "B", LOW),
        ("v1.request_us", "us", LOW),
        ("v1.response_us", "us", LOW),
        ("v1.bytes_per_decision", "B", LOW),
    ),
    *_layer(
        "server.service",
        ("submit_us", "us", LOW),
        ("batches", "count", LOW),
        ("mean_batch", "count", HIGH),
        ("max_batch", "count", HIGH),
        ("rejected", "count", LOW),
        ("queue_depth_max", "count", LOW),
    ),
    *_layer(
        "server.app",
        ("process_cpu_ms_per_decision", "ms", LOW),
        ("residual_us", "us", LOW),
        ("frames_in", "count", LOW),
        ("bytes_in", "B", LOW),
        ("bytes_out", "B", LOW),
    ),
    *_layer(
        "client.remote",
        ("cpu_ms_per_decision", "ms", LOW),
        ("wire_batches", "count", LOW),
        ("mean_wire_batch", "count", HIGH),
        ("retries", "count", LOW),
        ("v1_sync.decisions_per_s.c1", "1/s", HIGH),
        ("v1_sync.decisions_per_s.c2", "1/s", HIGH),
        ("v1_sync.rtt_p50_ms.c1", "ms", LOW),
        ("v1_sync.rtt_p50_ms.c2", "ms", LOW),
    ),
    *_layer(
        "setup",
        ("policy_s", "s", LOW),
        ("store_open_s", "s", LOW),
        ("preload_s", "s", LOW),
        ("server_boot_s", "s", LOW),
        ("connect_s", "s", LOW),
        ("warmup_s", "s", LOW),
    ),
    *_layer(
        "tail",
        ("latency_p99_ms", "ms", LOW),
        ("latency_p999_ms", "ms", LOW),
        ("latency_max_ms", "ms", LOW),
        ("stalls_over_10x_p50", "count", LOW),
        ("slice_rate_last_over_first", "ratio", HIGH),
    ),
    *_layer(
        "openloop",
        ("offered_per_s", "1/s", HIGH),
        ("achieved_per_s", "1/s", HIGH),
        ("latency_p50_ms", "ms", LOW),
        ("latency_p99_ms", "ms", LOW),
        ("max_backlog_s", "s", LOW),
        ("generator_late_p99_ms", "ms", LOW),
    ),
    *_layer(
        "trace",
        ("overhead_share", "share", LOW),
        ("unattributed_share", "share", LOW),
        ("spans", "count", LOW),
    ),
    *_layer(
        "harness",
        ("calib_ops_per_s", "1/s", HIGH),
        ("generate_s", "s", LOW),
        ("fixture_s", "s", LOW),
        ("oracle_s", "s", LOW),
        ("round_spread.decisions_per_s", "share", LOW),
        ("scratch_tmpfs", "flag", HIGH),
    ),
)

UNIT_OF = {metric.name: metric.unit for metric in (*END_TO_END, *SHARES, *PER_LAYER)}


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json, generated from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why} for workload in WORKLOADS
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER
        ],
    }


if __name__ == "__main__":  # python3 -m benchmarks.e2e.spec > BENCHMARK.json
    print(json.dumps(benchmark_json(), indent=2))
