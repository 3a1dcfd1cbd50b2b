"""The oracle and one measured round of the in-process workloads.

Every function here runs in a fresh child process (see child.py) and
returns a JSON-able dict.  A round times only the program: input
generation, calibration and all post-window checks sit between or
after the timed blocks; comparing effects with the reference is the
parent's job (cli.py).
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import time
from array import array
from contextlib import ExitStack

from repro.api import open_pdp
from repro.audit import (
    EVENT_DECISION,
    AuditTrailManager,
    decision_event_payload,
    recover_retained_adi,
)
from repro.core.decision import Effect
from repro.core.retained_adi import SQLiteRetainedADIStore, store_digest
from repro.core.tiered import TieredADIStore
from repro.perf import PerfRecorder
from repro.storespec import open_store
from repro.workload.openloop import percentile
from repro.xmlpolicy import parse_policy_set_file, write_policy_set_file

from . import probes
from .calib import Block, BlockTimer, Calibrator
from .inputs import Generator, config_for, policy_set_for, request_stream
from .spec import AUDIT_KEY, HOT_SHARDS, HOT_USERS, WORKLOAD_BY_NAME, sizes_for

CODE_GRANT = 0
KIND_CODES = {"MMER": 1, "MMEP": 2, "MMCD": 3}
CODE_OTHER_DENY = 4
CODE_FAILED = 255
#: Rotation size of a round's own trail, small enough to rotate in-window.
ROUND_TRAIL_RECORDS = 1_000
FIXTURE_TRAIL_RECORDS = 10_000
#: Recovery is one long call; the event source pauses it this often so
#: the host speed can be sampled (calib.py).
RECOVERY_PACE = 1_000
#: Endless in practice: streams are lazy and probes read past the window.
STREAM_LENGTH = 10**9
OPEN_LOOP_SECONDS = 2.0
OPEN_LOOP_LOAD = 0.6


def code_of(decision) -> int:
    if decision.effect == Effect.GRANT:
        return CODE_GRANT
    violation = decision.violation
    if violation is None:
        return CODE_OTHER_DENY
    return KIND_CODES.get(violation.constraint_kind, CODE_OTHER_DENY)


def load(config: dict):
    workload = WORKLOAD_BY_NAME[config["workload"]]
    sizes = sizes_for(workload, config["seconds"], config["smoke"])
    return workload, sizes, config_for(workload, sizes, config["seed"])


def work_dir(config: dict) -> str:
    path = os.path.join(config["scratch"], f"{config['role']}-{config.get('round', 0)}")
    os.makedirs(path, exist_ok=True)
    return path


def fixture_dir(config: dict) -> str:
    return os.path.join(config["scratch"], "fixture-trail")


def pin_to(cpu: int | None) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def policy_via_xml(policy, directory: str, setup: BlockTimer) -> tuple:
    """Write the policy set to XML (harness), parse it back (set-up).

    Every measured process reads its policy the way a deployed PDP
    does, which puts the XML round trip under the correctness check.
    Returns ``(parsed, write_ms, parse_ms)``.
    """
    path = os.path.join(directory, "policy.xml")
    started = time.perf_counter()
    write_policy_set_file(policy, path)
    write_ms = (time.perf_counter() - started) * 1e3
    setup.open()
    parsed = parse_policy_set_file(path)
    return parsed, write_ms, setup.close("policy").wall_s * 1e3


class _Records:
    """Adapter so ``store_digest`` can hash a subset of a store."""

    def __init__(self, records) -> None:
        self._records = records

    def records(self):
        return self._records


def window_store_sha256(store) -> str:
    """``store_digest`` over the records the streams added.

    The preloaded history carries negative ``granted_at`` and is equal
    by construction; hashing it again would cost a second of sorting in
    every process.
    """
    digest = store_digest(
        _Records(record for record in store.records() if record.granted_at >= 0.0)
    )
    return hashlib.sha256(repr(digest).encode("utf-8")).hexdigest()


def save_codes(config: dict, codes: bytearray, warmup: int) -> dict:
    path = os.path.join(work_dir(config), "codes.bin")
    with open(path, "wb") as handle:
        handle.write(codes)
    return {
        "codes_file": path,
        "codes_sha256": hashlib.sha256(codes[warmup:]).hexdigest(),
        "warmup": warmup,
    }


# ---------------------------------------------------------------------------
# Oracle (durable-cold and wire-pipelined)
# ---------------------------------------------------------------------------
def run_oracle(config: dict) -> dict:
    """Expected effects from a fresh single-threaded memory PDP.

    For ``durable-cold`` it also records the audit trail the rounds
    recover from: the first ``fixture`` stream requests, decided here.
    """
    workload, sizes, bank = load(config)
    generator = Generator()
    started = time.perf_counter()
    with open_pdp(policy_set_for(workload, bank), "memory") as pdp:
        add = pdp.store.add
        for chunk in generator.history(bank, sizes):
            for record in chunk:
                add(record)
        stream = request_stream(workload, bank, STREAM_LENGTH)
        decide = pdp.decide
        fixture_s = 0.0
        if sizes.fixture:
            fixture_started = time.perf_counter()
            generated_before = generator.seconds
            trails = AuditTrailManager(
                fixture_dir(config),
                AUDIT_KEY,
                max_records=FIXTURE_TRAIL_RECORDS,
                fsync=False,
            )
            for chunk in generator.chunks(stream, sizes.fixture, 5_000):
                for request in chunk:
                    trails.append(
                        EVENT_DECISION,
                        request.timestamp,
                        decision_event_payload(decide(request)),
                    )
            fixture_s = (
                time.perf_counter()
                - fixture_started
                - (generator.seconds - generated_before)
            )
        codes = bytearray()
        for chunk in generator.chunks(stream, sizes.warmup + sizes.window, sizes.chunk):
            for request in chunk:
                codes.append(code_of(decide(request)))
        store_sha = window_store_sha256(pdp.store)
    total = time.perf_counter() - started
    return save_codes(config, codes, sizes.warmup) | {
        "store_sha256": store_sha,
        "layers": {
            "harness.fixture_s": fixture_s,
            "harness.oracle_s": total - fixture_s - generator.seconds,
            "harness.generate_s": generator.seconds,
        },
    }


# ---------------------------------------------------------------------------
# Shared round pieces
# ---------------------------------------------------------------------------
class Tally:
    """What the caller saw: effect codes, latency samples, failures."""

    def __init__(self) -> None:
        self.codes = bytearray()
        self.samples = array("q")
        self.failed = 0
        self.records_added = 0
        self.first_error = ""
        self.window_mark = 0

    def start_window(self) -> None:
        """Forget the warm-up's failures and counts; keep its codes."""
        self.failed = 0
        self.records_added = 0
        self.window_mark = len(self.samples)

    def drive(self, chunk: list, operation) -> None:
        """The closed loop: one request after the other, each timed."""
        clock = time.perf_counter_ns
        codes = self.codes
        samples = self.samples
        grant = Effect.GRANT
        for request in chunk:
            t0 = clock()
            try:
                decision = operation(request)
            except Exception as exc:  # a failed decision is data, not a crash
                self.failed += 1
                self.first_error = self.first_error or repr(exc)
                codes.append(CODE_FAILED)
                continue
            samples.append(clock() - t0)
            self.records_added += decision.records_added
            codes.append(CODE_GRANT if decision.effect == grant else code_of(decision))


SETUP_LABELS = {
    "setup.policy_s": "policy",
    "setup.store_open_s": "store_open",
    "setup.preload_s": "preload",
    "setup.server_boot_s": "server_boot",
    "setup.connect_s": "connect",
    "setup.warmup_s": "warmup",
}


def summarise(
    config: dict,
    tally: Tally,
    setup: list[Block],
    window: list[Block],
    marks: list[int],
    warmup: int,
    rss_mb: float,
    calibrator: Calibrator,
) -> dict:
    """End-to-end values, counters and untraced diagnostics of a round."""
    window_codes = tally.codes[warmup:]
    attempted = len(window_codes)
    rates = [block.units / block.wall_norm_s for block in window]
    samples = tally.samples[tally.window_mark:] or array("q", [0])
    stall = 10 * percentile(samples, 0.5)
    # Each sample at reference speed: scaled like the block it fell in.
    scaled = array("d")
    for block, start, end in zip(window, marks, [*marks[1:], len(tally.samples)]):
        scale = block.wall_norm_s / block.wall_s
        scaled.extend(sample * scale for sample in tally.samples[start:end])
    counters = {
        "core.engine.grants": window_codes.count(CODE_GRANT),
        "core.engine.denies": attempted
        - window_codes.count(CODE_GRANT)
        - window_codes.count(CODE_FAILED),
        "core.engine.records_added": tally.records_added,
        **{
            f"core.constraints.denies.{kind}": window_codes.count(code)
            for kind, code in KIND_CODES.items()
        },
    }
    layers = {
        name: sum(block.wall_norm_s for block in setup if block.label == label)
        for name, label in SETUP_LABELS.items()
    }
    layers |= {
        "tail.latency_p99_ms": percentile(samples, 0.99) / 1e6,
        "tail.latency_p999_ms": percentile(samples, 0.999) / 1e6,
        "tail.latency_max_ms": max(samples) / 1e6,
        "tail.stalls_over_10x_p50": sum(1 for sample in samples if sample > stall),
        "tail.slice_rate_last_over_first": rates[-1] / rates[0],
        "harness.calib_ops_per_s": statistics.median(calibrator.samples),
    }
    return save_codes(config, tally.codes, warmup) | {
        "e2e": {
            "setup_s": sum(block.wall_norm_s for block in setup),
            "decisions_per_s": statistics.median(rates),
            "latency_p50_ms": statistics.median(scaled or [0.0]) / 1e6,
            "cpu_ms_per_decision": statistics.median(
                block.cpu_norm_s / block.units for block in window
            )
            * 1e3,
            "peak_rss_mb": rss_mb,
        },
        # The same estimators on the readings as measured: what
        # --selfcheck sets beside the values above in AA.json.
        "as_measured": {
            "setup_s": sum(block.wall_s for block in setup),
            "decisions_per_s": statistics.median(
                block.units / block.wall_s for block in window
            ),
            "latency_p50_ms": statistics.median(samples) / 1e6,
            "cpu_ms_per_decision": statistics.median(
                (block.cpu_s + block.peer_cpu_s) / block.units for block in window
            )
            * 1e3,
        },
        "attempted": attempted,
        "failed": tally.failed,
        "first_error": tally.first_error,
        "counters": counters,
        "layers": layers,
        "checks": {},
        "trace": {},
    }


def _paced(events, timer: BlockTimer, label: str):
    """Yield ``events``, splitting the running block every RECOVERY_PACE."""
    count = 0
    for event in events:
        yield event
        count += 1
        if count % RECOVERY_PACE == 0:
            timer.split(label, RECOVERY_PACE)


def _spanned(function, spans: probes.SpanRecorder, name: int, *, root: bool = False):
    def wrapper(*args):
        if root:
            spans.current_request += 1
        spans.begin(name)
        try:
            return function(*args)
        finally:
            spans.finish()

    return wrapper


# ---------------------------------------------------------------------------
# In-process rounds: engine-hot, engine-instances, durable-cold
# ---------------------------------------------------------------------------
def run_inprocess_round(config: dict) -> dict:
    workload, sizes, bank = load(config)
    directory = work_dir(config)
    traced = config["traced"]
    durable = workload.name == "durable-cold"
    pin_to(config["cpu"])
    calibrator = Calibrator()
    setup = BlockTimer(calibrator)
    generator = Generator()
    spans = probes.SpanRecorder() if traced else None
    perf = PerfRecorder() if traced else None

    with ExitStack() as stack:
        policy, write_ms, parse_ms = policy_via_xml(
            policy_set_for(workload, bank), directory, setup
        )

        setup.open()
        warm_proxy = None
        database = os.path.join(directory, "adi.db")
        if not traced:
            store = (
                f"tiered:sqlite:{database}?hot_users={HOT_USERS}&shards={HOT_SHARDS}"
                if durable
                else "memory"
            )
        elif durable:
            # The same construction build_store() performs for the spec
            # above, with a proxy slipped between tier and warm layer.
            warm_proxy = probes.StoreProxy(
                SQLiteRetainedADIStore(database, max_row_cache=max(1024, 4 * HOT_USERS)),
                spans,
                flat=True,
            )
            store = probes.StoreProxy(
                TieredADIStore(
                    warm_proxy, hot_users=HOT_USERS, shards=HOT_SHARDS, owns_warm=True
                ),
                spans,
            )
            stack.callback(store.close)
        else:
            store = probes.StoreProxy(open_store("memory"), spans)
            stack.callback(store.close)
        pdp = stack.enter_context(open_pdp(policy, store, perf=perf))
        setup.close("store_open")

        add = pdp.store.add
        for chunk in generator.history(bank, sizes):
            setup.open()
            for record in chunk:
                add(record)
            setup.close("preload", len(chunk))

        trails = None
        recovery = None
        if durable:
            fixture = AuditTrailManager(fixture_dir(config), AUDIT_KEY)
            setup.open()
            with pdp.store.batch():
                recovery = recover_retained_adi(
                    None,
                    policy,
                    pdp.store,
                    events=_paced(fixture.events(), setup, "preload"),
                )
            setup.close("preload", recovery.events_scanned % RECOVERY_PACE)
            setup.open()
            trails = AuditTrailManager(
                os.path.join(directory, "trail"),
                AUDIT_KEY,
                max_records=ROUND_TRAIL_RECORDS,
                fsync=False,
            )
            setup.close("store_open")

        decide = pdp.decide
        if traced:
            decide = _spanned(decide, spans, probes.DECIDE, root=True)
        if durable:
            append = trails.append

            def record(request, decision) -> None:
                append(EVENT_DECISION, request.timestamp, decision_event_payload(decision))

            if traced:
                record = _spanned(record, spans, probes.TRAIL_APPEND)

            def operation(request):
                decision = decide(request)
                record(request, decision)
                return decision
        else:
            operation = decide

        stream = request_stream(workload, bank, STREAM_LENGTH)
        for _ in generator.chunks(stream, sizes.fixture, 5_000):
            pass  # recovered from the trail instead; keeps request ids aligned
        tally = Tally()
        for chunk in generator.chunks(stream, sizes.warmup, sizes.chunk):
            setup.open()
            tally.drive(chunk, operation)
            setup.close("warmup", len(chunk))
        if traced:
            spans.reset()
            perf.reset()
            if warm_proxy is not None:
                warm_proxy.commits = 0
        tally.start_window()

        stats_before = pdp.store.stats()
        window = BlockTimer(calibrator)
        marks: list[int] = []
        recent: list = []
        for chunk in generator.chunks(stream, sizes.window, sizes.chunk):
            marks.append(len(tally.samples))
            window.open()
            tally.drive(chunk, operation)
            window.close("window", len(chunk))
            recent = chunk
        stats_after = pdp.store.stats()

        result = summarise(
            config,
            tally,
            setup.blocks,
            window.blocks,
            marks,
            sizes.warmup,
            peak_rss_mb(),
            calibrator,
        )
        result["store_sha256"] = window_store_sha256(pdp.store)
        counters = result["counters"]
        layers = result["layers"]
        counters["core.retained_adi.records_final"] = stats_after["records"]
        counters["core.tiered.hydrations"] = (
            stats_after["hydrations"] - stats_before["hydrations"]
        )
        counters["core.tiered.evictions"] = (
            stats_after["evictions"] - stats_before["evictions"]
        )
        layers["core.tiered.hydration_ratio"] = (
            counters["core.tiered.hydrations"] / sizes.window
        )
        layers["core.tiered.warm_bytes"] = stats_after.get("warm", {}).get("warm_bytes", 0)
        layers["core.retained_adi.contexts_final"] = len(pdp.store.context_counts())
        layers["xmlpolicy.write_ms"] = write_ms
        layers["xmlpolicy.parse_ms"] = parse_ms
        layers["harness.generate_s"] = generator.seconds
        if durable:
            preload = [block for block in setup.blocks if block.label == "preload"]
            counters["audit.trail.appends"] = sizes.window
            counters["audit.recovery.records_replayed"] = recovery.records_replayed
            layers["audit.recovery.events_per_s"] = recovery.events_scanned / sum(
                block.wall_s for block in preload
            )
            layers["audit.recovery.share_of_setup"] = (
                sum(block.wall_norm_s for block in preload) / result["e2e"]["setup_s"]
            )
            verify_started = time.perf_counter()
            verified = trails.verify_all()
            verify_s = time.perf_counter() - verify_started
            result["trail_verified"] = verified == sizes.warmup + sizes.window
            files = trails.trail_paths()
            layers["audit.trail.verify_events_per_s"] = verified / verify_s
            layers["audit.trail.bytes_per_event"] = (
                sum(os.path.getsize(path) for path in files) / verified
            )
            layers["audit.trail.rotations"] = len(files) - 1

        if traced:
            # one thread, closed loop: wall is CPU plus what it waited for
            wall_us = sum(block.wall_s for block in window.blocks) * 1e6 / sizes.window
            traced_layers, result["checks"] = _traced_layers(
                spans, perf, pdp, warm_proxy, recent, sizes.window, wall_us
            )
            layers |= traced_layers
            if workload.name in ("engine-hot", "durable-cold"):
                rate = OPEN_LOOP_LOAD * 1e6 / wall_us  # of the rate as measured
                probe = next(
                    generator.chunks(stream, max(10, int(rate * OPEN_LOOP_SECONDS)), 10**6)
                )
                layers |= probes.open_loop_probe(operation, probe, rate)
            result["trace"] = {
                "aggregate": spans.aggregate(),
                "raw_sample": spans.raw_sample(),
            }
    return result


def _traced_layers(
    spans, perf, pdp, warm_proxy, recent, decisions, wall_us
) -> tuple[dict, dict]:
    """Per-layer times of a traced in-process window, and the share of
    check time spent looking contexts up (an acceptance check)."""
    aggregate = spans.aggregate()

    def mean_us(name: str) -> float:
        entry = aggregate.get(name)
        return entry["total_ns"] / 1e3 / entry["count"] if entry else 0.0

    def per_decision_us(name: str) -> float:
        entry = aggregate.get(name)
        return entry["total_ns"] / 1e3 / decisions if entry else 0.0

    engine_facing = [
        probes.SPAN_NAMES[name]
        for name in (*probes.STORE_READS, probes.APPLY, probes.OTHER)
    ]
    store_us = sum(per_decision_us(name) for name in engine_facing)
    reads = sum(
        aggregate.get(probes.SPAN_NAMES[name], {"count": 0})["count"]
        for name in probes.STORE_READS
    )
    check_us = perf.stage("engine.check").total * 1e6 / decisions
    matcher = pdp.engine.compiled_matcher
    contexts = [request.context_instance for request in recent]
    started = time.perf_counter_ns()
    matched = sum(len(matcher.matching(context)) for context in contexts)
    match_us = (time.perf_counter_ns() - started) / 1e3 / len(contexts)
    hits, misses = spans.decide_split(probes.SQLITE_READ)
    append_us = per_decision_us("audit.trail.append")
    layers = {
        "core.engine.check_us": check_us,
        "core.engine.self_us": check_us - store_us - match_us,
        "core.policy_epoch.match_us": match_us,
        "core.policy_epoch.matched_per_decision": matched / len(contexts),
        "core.retained_adi.has_context_us": mean_us("core.retained_adi.has_context"),
        "core.retained_adi.user_roles_us": mean_us("core.retained_adi.user_roles"),
        "core.retained_adi.exercise_counts_us": mean_us("core.retained_adi.exercise_counts"),
        "core.retained_adi.users_with_privileges_us": mean_us(
            "core.retained_adi.users_with_privileges"
        ),
        "core.retained_adi.apply_us": mean_us("core.retained_adi.apply"),
        "core.retained_adi.reads_per_decision": reads / decisions,
        "core.retained_adi.sqlite.apply_us": mean_us("core.retained_adi.sqlite.apply"),
        "core.retained_adi.sqlite.read_us": mean_us("core.retained_adi.sqlite.read"),
        "core.retained_adi.sqlite.commits": warm_proxy.commits if warm_proxy else 0,
        "core.tiered.hit_decide_us": statistics.fmean(hits) / 1e3 if hits else 0.0,
        "core.tiered.miss_decide_us": statistics.fmean(misses) / 1e3 if misses else 0.0,
        "audit.trail.append_us": append_us,
        "trace.spans": len(spans.start),
        # Layer self times add up to the engine's own check timer plus
        # the audit span; what the window holds beyond them is the
        # harness loop, span bookkeeping and anything no layer claims.
        "trace.unattributed_share": 1.0 - (check_us + append_us) / wall_us,
    }
    lookups_us = per_decision_us("core.retained_adi.has_context") + per_decision_us(
        "core.retained_adi.users_with_privileges"
    )
    return layers, {"context_lookup_share_of_check": lookups_us / check_us}
