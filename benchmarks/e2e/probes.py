"""Traced-pass tooling: everything that looks at a layer from outside.

Spans are recorded by the harness around calls into each layer — a
delegating store proxy handed to the public constructors, the decide
call itself, the audit append — never inside the program.  Layers that
offer no seam (codec, shard queue) are measured by replaying their
public functions on the window's own requests and decisions, or as
ladder rungs that add one layer at a time.
"""

from __future__ import annotations

import asyncio
import itertools
import statistics
import threading
import time
from array import array
from contextlib import contextmanager

from repro.client import RemotePDP
from repro.core.retained_adi import RetainedADIStore
from repro.server import protocol
from repro.server.service import AuthorizationService
from repro.workload.openloop import run_open_loop

from .spec import WIRE_CONCURRENCY, WIRE_SHARDS

# Span names (index = id).  ``decide`` is the root span of a request.
SPAN_NAMES = (
    "decide",
    "core.retained_adi.has_context",
    "core.retained_adi.user_roles",
    "core.retained_adi.exercise_counts",
    "core.retained_adi.users_with_privileges",
    "core.retained_adi.apply",
    "core.retained_adi.other",
    "core.retained_adi.sqlite.read",
    "core.retained_adi.sqlite.apply",
    "audit.trail.append",
)
(
    DECIDE,
    HAS_CONTEXT,
    USER_ROLES,
    EXERCISES,
    OWNERS,
    APPLY,
    OTHER,
    SQLITE_READ,
    SQLITE_APPLY,
    TRAIL_APPEND,
) = range(len(SPAN_NAMES))
STORE_READS = (HAS_CONTEXT, USER_ROLES, EXERCISES, OWNERS)
RAW_SAMPLE_EVERY = 100  # requests whose spans are written out raw (1 %)


class SpanRecorder:
    """Spans in flat arrays: name, start, end, parent span, request index."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("l")
        self._stack: list[int] = []
        self.current_request = -1

    def begin(self, name: int) -> None:
        stack = self._stack
        self.name.append(name)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self.current_request)
        self.end.append(0)
        stack.append(len(self.start))
        self.start.append(time.perf_counter_ns())

    def finish(self) -> None:
        now = time.perf_counter_ns()
        self.end[self._stack.pop()] = now

    def aggregate(self) -> dict[str, dict]:
        """Per span name: count, total and self time (ns)."""
        count = [0] * len(SPAN_NAMES)
        total = [0] * len(SPAN_NAMES)
        children = [0] * len(self.start)
        for index in range(len(self.start)):
            duration = self.end[index] - self.start[index]
            name = self.name[index]
            count[name] += 1
            total[name] += duration
            parent = self.parent[index]
            if parent >= 0:
                children[parent] += duration
        self_time = [0] * len(SPAN_NAMES)
        for index in range(len(self.start)):
            self_time[self.name[index]] += (
                self.end[index] - self.start[index] - children[index]
            )
        return {
            SPAN_NAMES[name]: {
                "count": count[name],
                "total_ns": total[name],
                "self_ns": self_time[name],
            }
            for name in range(len(SPAN_NAMES))
            if count[name]
        }

    def decide_split(self, marker: int) -> tuple[list[int], list[int]]:
        """Decide-span durations of requests without / with a ``marker`` span."""
        marked = {
            self.request[index]
            for index in range(len(self.start))
            if self.name[index] == marker
        }
        without: list[int] = []
        with_marker: list[int] = []
        for index in range(len(self.start)):
            if self.name[index] == DECIDE:
                duration = self.end[index] - self.start[index]
                (with_marker if self.request[index] in marked else without).append(
                    duration
                )
        return without, with_marker

    def raw_sample(self) -> list[dict]:
        return [
            {
                "name": SPAN_NAMES[self.name[index]],
                "start_ns": self.start[index],
                "end_ns": self.end[index],
                "parent": self.parent[index],
                "request": self.request[index],
            }
            for index in range(len(self.start))
            if self.request[index] >= 0
            and self.request[index] % RAW_SAMPLE_EVERY == 0
        ]


class StoreProxy(RetainedADIStore):
    """A delegating retained-ADI store that records a span per call.

    The engine-facing proxy uses one span name per view.  The one
    placed under the tier (``flat=True``) folds reads and writes into
    the two ``sqlite.*`` names; its ``commits`` counts transactions: an
    apply or add outside a batch, or the end of the outermost batch.
    """

    def __init__(
        self, inner: RetainedADIStore, spans: SpanRecorder, *, flat: bool = False
    ) -> None:
        self._inner = inner
        self._spans = spans
        self._flat = flat
        self._batch_depth = 0
        self.commits = 0

    def _call(self, name: int, method, *args):
        spans = self._spans
        spans.begin(name)
        try:
            return method(*args)
        finally:
            spans.finish()

    def _write(self, method, *args):
        if self._batch_depth == 0:
            self.commits += 1
        return self._call(SQLITE_APPLY if self._flat else APPLY, method, *args)

    def _read(self, name: int, method, *args):
        return self._call(SQLITE_READ if self._flat else name, method, *args)

    # engine-facing views
    def has_context(self, effective_context):
        return self._read(HAS_CONTEXT, self._inner.has_context, effective_context)

    def user_roles(self, user_id, effective_context):
        return self._read(
            USER_ROLES, self._inner.user_roles, user_id, effective_context
        )

    def user_privilege_exercises(self, user_id, effective_context):
        return self._read(
            EXERCISES,
            self._inner.user_privilege_exercises,
            user_id,
            effective_context,
        )

    def users_with_privileges(self, privileges, effective_context):
        return self._read(
            OWNERS, self._inner.users_with_privileges, privileges, effective_context
        )

    def find(self, effective_context):
        return self._read(OTHER, self._inner.find, effective_context)

    def find_user(self, user_id, effective_context):
        return self._read(OTHER, self._inner.find_user, user_id, effective_context)

    # mutations
    def apply(self, mutation):
        return self._write(self._inner.apply, mutation)

    def apply_detailed(self, mutation):
        return self._write(self._inner.apply_detailed, mutation)

    def add(self, record):
        return self._write(self._inner.add, record)

    @contextmanager
    def batch(self):
        self._batch_depth += 1
        try:
            with self._inner.batch():
                yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self.commits += 1

    # untimed plumbing
    def records(self):
        return self._inner.records()

    def purge_context(self, effective_context):
        return self._inner.purge_context(effective_context)

    def purge_user(self, user_id):
        return self._inner.purge_user(user_id)

    def purge_older_than(self, cutoff):
        return self._inner.purge_older_than(cutoff)

    def clear(self):
        return self._inner.clear()

    def count(self):
        return self._inner.count()

    def close(self):
        self._inner.close()

    def stats(self):
        return self._inner.stats()

    def context_counts(self):
        return self._inner.context_counts()

    def invalidate_policy_memos(self):
        self._inner.invalidate_policy_memos()


def replay_protocol(requests: list, decisions: list, batch: int) -> dict:
    """Cost of the v2 and v1 codecs on the window's own traffic.

    Runs the same public functions the client and the server call, in
    the same order, and times the four legs (client encode, server
    decode, server encode, client decode) separately in microseconds
    per decision.
    """
    legs = dict.fromkeys(
        ("v2_client_encode", "v2_server_decode", "v2_server_encode", "v2_client_decode"),
        0,
    )
    v2_bytes = 0
    header = protocol.V2_HEADER_BYTES
    for offset in range(0, len(requests), batch):
        chunk = requests[offset:offset + batch]
        answers = decisions[offset:offset + batch]
        size = len(chunk)
        t0 = time.perf_counter_ns()
        payload = protocol.encode_frame_v2(
            {
                "op": protocol.OP_DECIDE_BATCH,
                "id": f"replay-{offset}",
                "requests": [protocol.request_to_wire(r) for r in chunk],
            }
        )
        legs["v2_client_encode"] += time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        parsed = protocol.batch_requests_of(protocol.decode_frame_v2(payload[header:]))
        legs["v2_server_decode"] += time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        response = protocol.encode_frame_v2(
            {
                "v": protocol.PROTOCOL_VERSION_2,
                "id": f"replay-{offset}",
                "ok": True,
                "op": protocol.OP_DECIDE_BATCH,
                "results": [
                    {"ok": True, "decision": protocol.decision_to_wire_delta(d, r)}
                    for d, r in zip(answers, parsed)
                ],
            }
        )
        legs["v2_server_encode"] += time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        entries = protocol.batch_result_entries(
            protocol.decode_frame_v2(response[header:]), size
        )
        for entry, request in zip(entries, chunk):
            protocol.decision_from_wire_delta(entry["decision"], request)
        legs["v2_client_decode"] += time.perf_counter_ns() - t0
        v2_bytes += len(payload) + len(response)

    v1 = dict.fromkeys(("v1_request", "v1_response"), 0)
    v1_bytes = 0
    for index, (request, decision) in enumerate(zip(requests, decisions)):
        t0 = time.perf_counter_ns()
        line = protocol.encode_frame(
            protocol.request_frame(
                protocol.OP_DECIDE,
                f"replay-{index}",
                request=protocol.request_to_wire(request),
            )
        )
        protocol.request_from_wire(protocol.decode_frame(line)["request"])
        v1["v1_request"] += time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        answer = protocol.encode_frame(
            protocol.response_frame(
                f"replay-{index}",
                protocol.OP_DECIDE,
                "decision",
                protocol.decision_to_wire(decision),
            )
        )
        protocol.decision_from_wire(protocol.decode_frame(answer)["decision"])
        v1["v1_response"] += time.perf_counter_ns() - t0
        v1_bytes += len(line) + len(answer)

    count = len(requests)
    result = {name: ns / 1e3 / count for name, ns in (legs | v1).items()}
    result["v2_bytes_per_decision"] = v2_bytes / count
    result["v1_bytes_per_decision"] = v1_bytes / count
    return result


def open_loop_probe(operation, requests: list, rate: float) -> dict:
    """``run_open_loop`` at ``rate``, plus how late the generator issued.

    Latency is timed from each request's scheduled arrival (the
    program's own report); lateness is issue time minus schedule.
    """
    first_clock: list[float] = []
    issued = array("d")

    def clock() -> float:
        now = time.monotonic()
        if not first_clock:
            first_clock.append(now)
        return now

    def timed(request):
        issued.append(time.monotonic())
        return operation(request)

    report = run_open_loop(timed, requests, rate, clock=clock)
    interval = 1.0 / rate
    late = sorted(
        max(0.0, at - (first_clock[0] + index * interval))
        for index, at in enumerate(issued)
    )
    return {
        "openloop.offered_per_s": report.offered_rps,
        "openloop.achieved_per_s": report.achieved_rps,
        "openloop.latency_p50_ms": report.latency_p50_ms,
        "openloop.latency_p99_ms": report.latency_p99_ms,
        "openloop.max_backlog_s": report.max_backlog_s,
        "openloop.generator_late_p99_ms": late[int(0.99 * (len(late) - 1))] * 1e3,
    }


def v1_sync_ladder(host: str, port: int, requests: list, connections: int) -> dict:
    """Closed-loop ``RemotePDP(protocol_version="v1")`` with N connections."""
    samples = [array("q") for _ in range(connections)]
    errors: list[BaseException] = []

    def drive(lane: int) -> None:
        clock = time.perf_counter_ns
        try:
            for request in requests[lane::connections]:
                t0 = clock()
                pdp.decide(request)
                samples[lane].append(clock() - t0)
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    with RemotePDP(
        host, port, pool_size=connections, protocol_version="v1", timeout=30.0
    ) as pdp:
        threads = [
            threading.Thread(target=drive, args=(lane,)) for lane in range(connections)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    rtts = sorted(itertools.chain.from_iterable(samples))
    return {
        f"client.remote.v1_sync.decisions_per_s.c{connections}": len(rtts) / elapsed,
        f"client.remote.v1_sync.rtt_p50_ms.c{connections}": statistics.median(rtts) / 1e6,
    }


def service_ladder(engine, requests: list) -> dict:
    """Two rungs on the server's own engine, no sockets.

    The first half of ``requests`` goes through
    ``AuthorizationService.submit`` on an event loop with the window's
    concurrency, the second half straight into ``engine.check``; the
    difference in CPU per decision is the shard queue and gather window.
    """
    half = len(requests) // 2
    through_service, direct = requests[:half], requests[half:]

    async def submit_rung() -> float:
        service = AuthorizationService(engine, n_shards=WIRE_SHARDS)
        await service.start()
        cursor = iter(through_service)

        async def worker() -> None:
            for request in cursor:
                await service.submit(request)

        started = time.process_time_ns()
        await asyncio.gather(*(worker() for _ in range(WIRE_CONCURRENCY)))
        spent = time.process_time_ns() - started
        await service.stop()
        return spent / 1e3 / len(through_service)

    service_us = asyncio.run(submit_rung())
    started = time.process_time_ns()
    for request in direct:
        engine.check(request)
    engine_us = (time.process_time_ns() - started) / 1e3 / len(direct)
    return {"service_us": service_us, "engine_us": engine_us}


class QueueDepthPoller:
    """Samples the ``metrics`` verb's shard queue depths during a window.

    The verb reports the current backlog only, so the deepest queue of
    a window has to be watched: one control connection, one poll every
    50 ms, kept out of the untraced rounds.
    """

    _INTERVAL_S = 0.05

    def __init__(self, host: str, port: int) -> None:
        self._pdp = RemotePDP(host, port, pool_size=1, timeout=30.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="queue-depth-poller")
        self.deepest = 0

    def _run(self) -> None:
        while not self._stop.wait(self._INTERVAL_S):
            self.deepest = max(self.deepest, *self._pdp.metrics()["queue_depths"])

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=60)
        self._pdp.close()
