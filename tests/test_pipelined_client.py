"""Behavior tests for the pipelined v2 clients.

Covers what the protocol-level tests cannot: pinned clients against
live and downlevel servers, batch coalescing under concurrency, the
post-send no-replay discipline on the pipelined path, the async client,
and the wire perf counters surfacing in both the ``metrics`` verb and
the Prometheus exposition.

The pinned-protocol and post-send cases name their client in ``client``
and are re-run over the asyncio shell by a two-line subclass, the same
way as in ``tests/test_remote_pdp.py``.
"""

import asyncio
import json
import socket
import sys
import threading
import time

import pytest

from repro.client import (
    AsyncRemotePDP,
    PDPUnavailableError,
    RemotePDP,
)
from repro.api import open_pdp
from repro.core import (
    MMEP,
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Privilege,
    Role,
    SQLiteRetainedADIStore,
    TieredADIStore,
)
from repro.errors import PDPConnectError, ProtocolError
from repro.obs import Recorder, parse_exposition
from repro.server import AuthorizationService, ServerThread, protocol
from repro.server import service as service_module
from tests.test_remote_pdp import BlockingAsyncPDP

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")

FAST = dict(timeout=2.0, backoff_base=0.001, backoff_cap=0.002)


def make_service(n_shards=2, store=None, **kwargs):
    policy_set = MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=[MMER([TELLER, AUDITOR], 2)],
                policy_id="bank",
            )
        ]
    )
    if store is None:
        store = InMemoryRetainedADIStore()
    engine = MSoDEngine(policy_set, store)
    return AuthorizationService(engine, n_shards=n_shards, **kwargs)


def make_request(user, role, timestamp=1.0):
    operation, target = (
        ("handleCash", "till://1") if role == TELLER else ("auditBooks", "l://1")
    )
    return DecisionRequest(
        user_id=user,
        roles=(role,),
        operation=operation,
        target=target,
        context_instance=ContextName.parse("Branch=York, Period=P1"),
        timestamp=timestamp,
    )


def on_threads(call, args):
    """``call(arg)`` on one thread per arg, started in order; each
    result is ``(return value or exception, seconds since the first
    thread started)``."""
    outcomes = [None] * len(args)

    def run(index, arg):
        try:
            outcome = call(arg)
        except Exception as exc:
            outcome = exc
        outcomes[index] = (outcome, time.monotonic() - started)

    threads = [
        threading.Thread(target=run, args=(index, arg))
        for index, arg in enumerate(args)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return outcomes


class V1OnlyServer:
    """A downlevel JSON-lines server.

    Mimics a pre-v2 deployment: every connection is read as v1 lines,
    so a v2 frame, which carries no newline, is never answered.  Decide
    frames are answered by a real engine so a v1 client's decisions can
    be checked for correctness.
    """

    def __init__(self):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="bank",
                )
            ]
        )
        self._engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        self._lock = threading.Lock()
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._accepting = True
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while self._accepting:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn):
        stream = conn.makefile("rb")
        try:
            while True:
                line = stream.readline()
                if not line:
                    return
                frame = json.loads(line)
                if frame.get("op") == protocol.OP_DECIDE:
                    with self._lock:
                        decision = self._engine.check(
                            protocol.request_from_wire(frame["request"])
                        )
                    reply = protocol.response_frame(
                        frame["id"],
                        protocol.OP_DECIDE,
                        "decision",
                        protocol.decision_to_wire(decision),
                    )
                else:
                    reply = protocol.error_frame(
                        frame["id"], protocol.ERR_PROTOCOL, "unknown op"
                    )
                conn.sendall(json.dumps(reply).encode() + b"\n")
        except (OSError, ValueError):  # a v2 frame is no JSON line
            pass
        finally:
            conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._accepting = False
        try:
            self._sock.close()
        except OSError:
            pass


class DieAfterBatchServer:
    """Swallows one decide-batch frame, then drops dead.

    The pipelined client has sent the batch when the connection dies,
    so the only correct outcome is ``PDPUnavailableError`` with no
    replay — this stub counts every batch frame it ever receives so a
    replay (on this or any later connection) is visible.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.batch_frames = 0
        self.connections = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._accepting = True
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while self._accepting:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with self._lock:
                self.connections += 1
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn):
        stream = conn.makefile("rb")
        try:
            header = stream.read(protocol.V2_HEADER_BYTES)
            if len(header) != protocol.V2_HEADER_BYTES:
                return
            payload = stream.read(protocol.v2_payload_length(header))
            decoded = protocol.decode_frame_v2(payload)
            if decoded.get("op") == protocol.OP_DECIDE_BATCH:
                with self._lock:
                    self.batch_frames += 1
            # Close without answering: the batch is sent, now ambiguous.
        except (OSError, ProtocolError):
            pass
        finally:
            conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._accepting = False
        try:
            self._sock.close()
        except OSError:
            pass


class HoldFirstAnswerServer:
    """Answers only a client that pipelines.

    The answer to the first ``decide-batch`` frame is held back until a
    second frame arrives, waiting at most ``hold`` seconds; a client that
    sends one frame and waits for its answer is then dropped unanswered,
    so its decides fail.  Once the second frame is in, every frame is
    answered in arrival order by a real engine.
    """

    def __init__(self, hold=2.0):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="bank",
                )
            ]
        )
        self._engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        self._hold = hold
        self._lock = threading.Lock()
        self.overlapped = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._accepting = True
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while self._accepting:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _read_frame(self, stream):
        header = stream.read(protocol.V2_HEADER_BYTES)
        if len(header) != protocol.V2_HEADER_BYTES:
            raise EOFError
        return protocol.decode_frame_v2(
            stream.read(protocol.v2_payload_length(header))
        )

    def _answer(self, conn, frame):
        requests = protocol.batch_requests_of(frame)
        with self._lock:
            decisions = [self._engine.check(r) for r in requests]
        conn.sendall(
            protocol.encode_frame_v2(
                {
                    "id": frame["id"],
                    "ok": True,
                    "op": protocol.OP_DECIDE_BATCH,
                    "results": [
                        {
                            "ok": True,
                            "decision": protocol.decision_to_wire_delta(d, r),
                        }
                        for d, r in zip(decisions, requests)
                    ],
                }
            )
        )

    def _handle(self, conn):
        stream = conn.makefile("rb")
        try:
            held = self._read_frame(stream)
            conn.settimeout(self._hold)
            try:
                second = self._read_frame(stream)
            except socket.timeout:
                return  # one frame, then a wait: drop it unanswered
            conn.settimeout(None)
            with self._lock:
                self.overlapped += 1
            self._answer(conn, held)
            self._answer(conn, second)
            while True:
                self._answer(conn, self._read_frame(stream))
        except (EOFError, OSError, ValueError, ProtocolError):
            pass
        finally:
            conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._accepting = False
        try:
            self._sock.close()
        except OSError:
            pass


class TestPipelineOverlap:
    """A burst leaves on two frames, so the server always has a second
    frame to decide while the client waits for the first answer."""

    N_DECIDES = 8

    def test_blocking_client_keeps_a_second_frame_on_the_wire(self):
        results, errors = [], []
        with HoldFirstAnswerServer() as server, RemotePDP(
            "127.0.0.1", server.port, protocol_version="v2", **FAST
        ) as pdp:

            def client(index):
                try:
                    results.append(pdp.decide(make_request(f"o{index}", TELLER)))
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(self.N_DECIDES)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not errors, errors
            assert pdp._pipe._core.in_flight == 0
        assert len(results) == self.N_DECIDES
        assert all(decision.granted for decision in results)
        assert server.overlapped == 1

    def test_async_client_keeps_a_second_frame_on_the_wire(self):
        with HoldFirstAnswerServer() as server:

            async def run():
                async with AsyncRemotePDP(
                    "127.0.0.1", server.port, protocol_version="v2", **FAST
                ) as pdp:
                    decisions = await asyncio.gather(
                        *(
                            pdp.decide(make_request(f"o{index}", TELLER))
                            for index in range(self.N_DECIDES)
                        )
                    )
                    assert pdp._pipe._core.in_flight == 0
                    return decisions

            decisions = asyncio.run(run())
        assert len(decisions) == self.N_DECIDES
        assert all(decision.granted for decision in decisions)
        assert server.overlapped == 1


class TestCarryOver:
    """A connection that dies with decides still queued behind a sent
    one: each queued decide goes out once, on the next connection, and
    fails only as sent — with no connect retries, as ``ClusterPDP``
    builds its node clients."""

    CLIENT = dict(
        protocol_version="v2", max_retries=0, batch_max=1, pipeline_window=1
    )
    requests = [make_request(f"q{index}", TELLER) for index in range(3)]

    def check(self, server, outcomes):
        for exc in outcomes:
            assert isinstance(exc, PDPUnavailableError)
            assert not isinstance(exc, PDPConnectError)
        time.sleep(0.05)  # a replay would need a new connection
        assert server.batch_frames == server.connections == len(self.requests)

    def test_blocking_client_sends_each_queued_decide_once(self):
        with DieAfterBatchServer() as server:
            with RemotePDP("127.0.0.1", server.port, **self.CLIENT, **FAST) as pdp:
                outcomes = on_threads(pdp.decide, self.requests)
            self.check(server, [outcome for outcome, _ in outcomes])

    def test_async_client_sends_each_queued_decide_once(self):
        with DieAfterBatchServer() as server:

            async def run():
                async with AsyncRemotePDP(
                    "127.0.0.1", server.port, **self.CLIENT, **FAST
                ) as pdp:
                    return await asyncio.gather(
                        *map(pdp.decide, self.requests), return_exceptions=True
                    )

            self.check(server, asyncio.run(run()))


class SilentServer(DieAfterBatchServer):
    """Reads every frame and never answers one.

    Records each request id of every ``decide-batch`` frame it ever
    receives, on any connection, so a replay is visible.
    """

    def __init__(self):
        self.request_ids = []
        super().__init__()

    def _handle(self, conn):
        stream = conn.makefile("rb")
        try:
            while True:
                header = stream.read(protocol.V2_HEADER_BYTES)
                if len(header) != protocol.V2_HEADER_BYTES:
                    return
                frame = protocol.decode_frame_v2(
                    stream.read(protocol.v2_payload_length(header))
                )
                with self._lock:
                    self.request_ids.extend(
                        r["request_id"] for r in frame["requests"]
                    )
        except (OSError, ValueError, ProtocolError):
            pass
        finally:
            conn.close()


EXECUTE = Privilege("executeDuty", "duty://1")
REVIEW = Privilege("reviewDuty", "duty://1")


class TestCallOrder:
    """The asyncio client sends decides in the order they were called.

    64 closed-loop workers share one client, as the wire benchmark
    drives it: the first 64 decides are called before any connection
    exists, each later one only after some reply.  Each pair user's
    first request is in that first burst and its conflicting second
    one (MMER roles, or MMEP privileges) is called after a reply, so a
    decide that overtakes one still waiting for the connection flips
    both of that user's decisions against a one-thread oracle.
    """

    WORKERS = 64
    PAIRS = 8
    warm_up = [make_request(f"w{index}", TELLER) for index in range(128)]

    def policy_set(self):
        return MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    mmeps=[MMEP([EXECUTE, REVIEW], 2)],
                    policy_id="bank",
                )
            ]
        )

    def stream(self, tag):
        def duty(user, privilege):
            request = make_request(user, TELLER)
            return request._replace(
                operation=privilege.operation, target=privilege.target
            )

        stream = [make_request(f"{tag}f{index}", TELLER) for index in range(160)]
        burst_end = self.WORKERS
        for k in range(self.PAIRS):
            first, second = burst_end - 1 - k, burst_end + k
            stream[first] = make_request(f"{tag}mmer{k}", TELLER)
            stream[second] = make_request(f"{tag}mmer{k}", AUDITOR, 2.0)
            first, second = burst_end - 1 - self.PAIRS - k, burst_end + self.PAIRS + k
            stream[first] = duty(f"{tag}mmep{k}", EXECUTE)
            stream[second] = duty(f"{tag}mmep{k}", REVIEW)
        return stream

    @staticmethod
    def outcomes(decisions):
        return [(d.effect, d.violation) for d in decisions]

    def oracle(self, requests):
        pdp = open_pdp(self.policy_set(), "memory")
        try:
            return self.outcomes(pdp.decide(request) for request in requests)
        finally:
            pdp.close()

    async def closed_loop(self, pdp, requests):
        decisions = [None] * len(requests)
        cursor = iter(enumerate(requests))

        async def worker():
            for index, request in cursor:
                decisions[index] = await pdp.decide(request)

        await asyncio.gather(*(worker() for _ in range(self.WORKERS)))
        return decisions

    def run_against_server(self, kills):
        """One burst on a fresh client, or ``kills`` bursts each on a
        connection re-opened after the last one was killed."""
        rounds = [self.stream(f"r{round}-") for round in range(max(kills, 1))]
        service = AuthorizationService(
            MSoDEngine(self.policy_set(), InMemoryRetainedADIStore()),
            n_shards=4,
        )
        with ServerThread(service) as server:

            async def run():
                decisions = []
                async with AsyncRemotePDP(
                    server.host,
                    server.port,
                    timeout=10.0,
                    protocol_version="v2",
                    batch_max=64,
                    pipeline_window=16,
                ) as pdp:
                    for round, requests in enumerate(rounds):
                        if kills:
                            if round == 0:  # warm both ends up first
                                await self.closed_loop(pdp, self.warm_up)
                            pdp._pipe._writer.transport.abort()
                            await asyncio.sleep(0.05)  # the reader sees it die
                        decisions += await self.closed_loop(pdp, requests)
                return decisions

            decisions = asyncio.run(run())
        oracle = self.oracle([r for requests in rounds for r in requests])
        assert {effect for effect, _ in oracle} == {"grant", "deny"}
        assert self.outcomes(decisions) == oracle

    def test_a_fresh_clients_first_burst_keeps_call_order(self):
        self.run_against_server(kills=0)

    def test_a_reopened_connection_keeps_call_order(self):
        self.run_against_server(kills=3)


class TestDecideDeadline:
    """One timer per connection enforces each decide's ``timeout``."""

    TIMEOUT = 0.3

    def client(self, port, **kwargs):
        return AsyncRemotePDP(
            "127.0.0.1",
            port,
            protocol_version="v2",
            timeout=self.TIMEOUT,
            max_retries=0,
            **kwargs,
        )

    def test_an_unanswered_decide_fails_after_timeout_and_is_never_replayed(
        self,
    ):
        requests = [make_request(f"t{index}", TELLER) for index in range(8)]
        with SilentServer() as server:

            async def run():
                loop = asyncio.get_running_loop()
                async with self.client(server.port) as pdp:
                    started = loop.time()

                    async def timed(request):
                        try:
                            await pdp.decide(request)
                        except PDPUnavailableError as exc:
                            return exc, loop.time() - started
                        raise AssertionError("a silent server answered")

                    return await asyncio.gather(*map(timed, requests))

            outcomes = asyncio.run(run())
            time.sleep(0.1)  # a replay would need a new connection
            for exc, elapsed in outcomes:
                assert not isinstance(exc, PDPConnectError)
                assert str(exc).startswith(f"no response within {self.TIMEOUT}s")
                assert self.TIMEOUT <= elapsed < self.TIMEOUT + 2.0
            assert sorted(server.request_ids) == sorted(
                request.request_id for request in requests
            )
            assert server.connections == 1

    def test_a_parked_decide_fails_the_same_way_and_a_younger_one_moves_on(
        self,
    ):
        """With a one-frame window, ``parked`` waits behind ``sent`` for
        as long as it does and fails with it, unsent.  ``younger`` was
        called half a timeout later: it carries over to a new connection,
        is sent there once, and times out in turn."""
        sent, parked, younger = (
            make_request(user, TELLER) for user in ("sent", "parked", "younger")
        )
        with SilentServer() as server:

            async def run():
                async with self.client(
                    server.port, batch_max=1, pipeline_window=1
                ) as pdp:
                    first = asyncio.gather(
                        pdp.decide(sent),
                        pdp.decide(parked),
                        return_exceptions=True,
                    )
                    await asyncio.sleep(self.TIMEOUT / 2)
                    later = await asyncio.gather(
                        pdp.decide(younger), return_exceptions=True
                    )
                    return await first + later

            errors = asyncio.run(run())
            for exc in errors:
                assert isinstance(exc, PDPUnavailableError)
                assert not isinstance(exc, PDPConnectError)
                assert str(exc).startswith(f"no response within {self.TIMEOUT}s")
            assert server.request_ids == [sent.request_id, younger.request_id]
            assert server.connections == 2

    def check_timed_out(self, server, outcomes):
        """Each decide failed as unanswered, ``timeout`` or a little more
        after the first call, and no request id reached the server
        twice."""
        for exc, elapsed in outcomes:
            assert isinstance(exc, PDPUnavailableError)
            assert not isinstance(exc, PDPConnectError)
            assert str(exc).startswith(f"no response within {self.TIMEOUT}s")
            assert self.TIMEOUT <= elapsed < self.TIMEOUT + 2.0
        assert len(set(server.request_ids)) == len(server.request_ids)

    def test_a_blocking_clients_unanswered_decides_fail_after_timeout(self):
        requests = [make_request(f"t{index}", TELLER) for index in range(8)]
        with SilentServer() as server:
            with RemotePDP(
                "127.0.0.1",
                server.port,
                protocol_version="v2",
                timeout=self.TIMEOUT,
                max_retries=0,
            ) as pdp:
                outcomes = on_threads(pdp.decide, requests)
            time.sleep(0.1)  # a replay would need a new connection
            self.check_timed_out(server, outcomes)
            assert sorted(server.request_ids) == sorted(
                request.request_id for request in requests
            )
            assert server.connections == 1

    def test_a_blocking_clients_parked_decide_fails_the_same_way(self):
        """The thread twin of the parked test above.  Threads give the
        first two calls no order, and the drop may carry the second one
        over: either way each decide times out, unanswered, once."""
        calls = [
            make_request(user, TELLER) for user in ("sent", "parked", "younger")
        ]
        with SilentServer() as server:
            with RemotePDP(
                "127.0.0.1",
                server.port,
                protocol_version="v2",
                timeout=self.TIMEOUT,
                max_retries=0,
                batch_max=1,
                pipeline_window=1,
            ) as pdp:

                def call(request):
                    if request is calls[2]:
                        time.sleep(self.TIMEOUT / 2)
                    return pdp.decide(request)

                outcomes = on_threads(call, calls)
            self.check_timed_out(server, outcomes)
            assert len(server.request_ids) == 2
            assert set(server.request_ids) <= {r.request_id for r in calls}
            assert server.connections == 2

    def test_a_burst_arms_one_timer_per_connection_not_per_decide(self):
        n_decides = 2_000
        service = make_service(n_shards=4)
        with ServerThread(service) as server:

            async def run():
                loop = asyncio.get_running_loop()
                armed = []
                call_at = loop.call_at

                def counting_call_at(when, callback, *args, **kwargs):
                    armed.append(callback)
                    return call_at(when, callback, *args, **kwargs)

                loop.call_at = counting_call_at  # call_later goes through it
                async with AsyncRemotePDP(
                    server.host, server.port, timeout=10.0, protocol_version="v2"
                ) as pdp:
                    cursor = iter(range(n_decides))

                    async def worker():
                        for index in cursor:
                            decision = await pdp.decide(
                                make_request(f"c{index}", TELLER)
                            )
                            assert decision.granted

                    await asyncio.gather(*(worker() for _ in range(64)))
                return armed

            armed = asyncio.run(run())
        assert len(armed) <= n_decides // 100


class TestPipelinedDecides:
    def test_concurrent_decides_coalesce_and_stay_correct(self):
        """Many threads through one pipelined connection: every user's
        duty sequence resolves exactly as in process, and the client's
        batch-size accounting covers every call."""
        service = make_service(n_shards=4, batch_max=16)
        perf = Recorder()
        n_users = 12
        with ServerThread(service) as server:
            with RemotePDP(
                server.host,
                server.port,
                timeout=10.0,
                protocol_version="v2",
                perf=perf,
            ) as pdp:
                results = {}
                errors = []

                def client(user):
                    try:
                        results[user] = (
                            pdp.decide(make_request(user, TELLER, 1.0)),
                            pdp.decide(make_request(user, AUDITOR, 2.0)),
                        )
                    except Exception as exc:
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(f"u{i}",))
                    for i in range(n_users)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not errors, errors

        # Per-user MSoD semantics survived batching and reordering:
        # first duty granted, mutually exclusive duty then denied.
        for user in (f"u{i}" for i in range(n_users)):
            first, second = results[user]
            assert first.granted
            assert second.denied

        counters = perf.counters()
        assert counters["client.calls"] == 2 * n_users
        sizes = perf.sizes()
        batch_sizes = sizes["client.batch_size"]
        # Every decide travelled in exactly one batch entry, and the
        # frame count never exceeds the call count.
        assert batch_sizes.total == 2 * n_users
        assert 1 <= batch_sizes.count <= 2 * n_users
        assert counters["client.frames_out"] == batch_sizes.count

    def test_many_threads_through_a_narrow_window_lose_no_decide(self):
        """More threads than cores, a two-frame window and a shortened
        switch interval: every decide is answered exactly once.  A lost
        update in the pipeline state the sender, the reader and the
        callers share would hang a caller or miscount a batch."""
        service = make_service(n_shards=4)
        perf = Recorder()
        n_threads, per_thread = 32, 20
        granted = []
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServerThread(service) as server, RemotePDP(
                server.host,
                server.port,
                timeout=20.0,
                protocol_version="v2",
                batch_max=4,
                pipeline_window=2,
                perf=perf,
            ) as pdp:

                def client(lane):
                    try:
                        for index in range(per_thread):
                            decision = pdp.decide(
                                make_request(f"s{lane}-{index}", TELLER)
                            )
                            granted.append(decision.granted)
                    except Exception as exc:
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(lane,))
                    for lane in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                # The sender raises the in-flight count, the reader lowers
                # it: a lost update between the two leaves it off zero.
                assert pdp._pipe._core.in_flight == 0
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        total = n_threads * per_thread
        assert granted == [True] * total
        counters = perf.counters()
        assert counters["client.calls"] == total
        assert perf.sizes()["client.batch_size"].total == total
        assert counters["client.frames_in"] == counters["client.frames_out"]

    def test_async_pipelined_decides(self):
        service = make_service(n_shards=4)
        with ServerThread(service) as server:

            async def run():
                async with AsyncRemotePDP(
                    server.host,
                    server.port,
                    timeout=10.0,
                    protocol_version="v2",
                ) as pdp:
                    firsts = await asyncio.gather(
                        *(
                            pdp.decide(make_request(f"a{i}", TELLER, 1.0))
                            for i in range(10)
                        )
                    )
                    seconds = await asyncio.gather(
                        *(
                            pdp.decide(make_request(f"a{i}", AUDITOR, 2.0))
                            for i in range(10)
                        )
                    )
                    return firsts, seconds

            firsts, seconds = asyncio.run(run())
        assert all(d.granted for d in firsts)
        assert all(d.denied for d in seconds)


class TestNegotiationFallback:
    """A client speaks the one protocol it was built with; nothing falls
    back."""

    client = RemotePDP

    def test_pinned_v1_decides_against_a_v1_only_server(self):
        with V1OnlyServer() as server:
            with self.client(
                "127.0.0.1", server.port, protocol_version="v1", **FAST
            ) as pdp:
                assert pdp.decide(make_request("fb", TELLER, 1.0)).granted
                assert pdp.decide(make_request("fb", AUDITOR, 2.0)).denied

    def test_forced_v2_against_v1_only_server_raises(self):
        """Unanswered, the decide fails typed once it has waited
        ``timeout``, and never hangs."""
        timeout = 0.3
        with V1OnlyServer() as server:
            with self.client(
                "127.0.0.1",
                server.port,
                protocol_version="v2",
                timeout=timeout,
                max_retries=0,
            ) as pdp:
                started = time.monotonic()
                with pytest.raises(PDPUnavailableError) as excinfo:
                    pdp.decide(make_request("fx", TELLER, 1.0))
                elapsed = time.monotonic() - started
        assert not isinstance(excinfo.value, PDPConnectError)
        assert str(excinfo.value).startswith(f"no response within {timeout}s")
        assert timeout <= elapsed < timeout + 2.0

    def test_pipelined_connect_failure_is_retriable_kind(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with self.client(
            "127.0.0.1", port, protocol_version="v2", max_retries=1, **FAST
        ) as pdp:
            with pytest.raises(PDPConnectError):
                pdp.decide(make_request("cf", TELLER, 1.0))


class TestNegotiationFallbackOverAsyncio(TestNegotiationFallback):
    client = BlockingAsyncPDP


class TestPostSendDiscipline:
    client = RemotePDP

    def test_batch_sent_then_death_is_unavailable_and_never_replayed(self):
        with DieAfterBatchServer() as server:
            with self.client(
                "127.0.0.1",
                server.port,
                protocol_version="v2",
                max_retries=3,
                **FAST,
            ) as pdp:
                with pytest.raises(PDPUnavailableError) as excinfo:
                    pdp.decide(make_request("ns", TELLER, 1.0))
                # Ambiguous loss, not a pre-send connect failure: the
                # retriable subclass must NOT be what surfaced.
                assert not isinstance(excinfo.value, PDPConnectError)
            time.sleep(0.05)  # a replay would need a new connection
            assert server.batch_frames == 1
            assert server.connections == 1


class TestPostSendDisciplineOverAsyncio(TestPostSendDiscipline):
    client = BlockingAsyncPDP


class TestWireMetrics:
    def test_wire_counters_in_metrics_verb_and_exposition(self):
        perf = Recorder()
        service = make_service(n_shards=2, perf=perf)
        with ServerThread(service) as server:
            with RemotePDP(
                server.host, server.port, timeout=10.0, protocol_version="v2"
            ) as pdp:
                for index in range(10):
                    pdp.decide(make_request(f"m{index}", TELLER, 1.0))
                body = pdp.metrics()
                text = pdp.metrics_text()

        snapshot = body["perf"]
        assert snapshot["counters"]["wire.frames_in"] >= 10
        assert snapshot["counters"]["wire.bytes_in"] > 0
        assert snapshot["counters"]["wire.bytes_out"] > 0
        assert snapshot["sizes"]["wire.batch_size"]["count"] >= 1
        assert snapshot["sizes"]["wire.batch_size"]["total_s"] == 10

        samples = parse_exposition(text)
        names = {name for name, _, _ in samples}
        assert "repro_wire_bytes_in_total" in names
        assert "repro_wire_bytes_out_total" in names
        assert "repro_wire_batch_size_bucket" in names
        assert "repro_wire_batch_size_count" in names

    def test_gather_window_knob(self, tmp_path):
        # An explicit window is honoured, even over a memory store.
        service = make_service(n_shards=2, gather_window=0.0015)
        assert service.gather_window == 0.0015
        # A non-finite window would hang a loaded worker (inf) or
        # silently disable it (nan).
        for bad in (-0.001, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                make_service(n_shards=2, gather_window=bad)

        # The default lingers only where a batch shares a commit.
        def default_window(store, n_shards):
            try:
                return make_service(n_shards=n_shards, store=store).gather_window
            finally:
                store.close()

        for n_shards in (1, 2):
            assert default_window(InMemoryRetainedADIStore(), n_shards) == 0.0
            tiered = TieredADIStore(InMemoryRetainedADIStore(), owns_warm=True)
            assert default_window(tiered, n_shards) == 0.0
        committing = {
            "sqlite-memory": lambda: SQLiteRetainedADIStore(":memory:"),
            "sqlite-file": lambda: SQLiteRetainedADIStore(str(tmp_path / "adi.db")),
            "tiered-sqlite": lambda: TieredADIStore(
                SQLiteRetainedADIStore(":memory:"), owns_warm=True
            ),
        }
        for name, open_store in committing.items():
            windows = [default_window(open_store(), n) for n in (1, 2)]
            assert windows == [min(0.002, 0.0005 * n) for n in (1, 2)], name
            assert windows[1] > windows[0], name

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_only_a_store_that_commits_in_batches_lingers(
        self, monkeypatch, backend
    ):
        """Over a burst, a loaded worker enters the linger's sleep only
        when its store commits in batches."""
        if backend == "memory":
            store = InMemoryRetainedADIStore()
        else:
            store = SQLiteRetainedADIStore(":memory:")
        service = make_service(n_shards=2, store=store)
        sleeps = []
        real_sleep = asyncio.sleep

        async def counting_sleep(delay, *args, **kwargs):
            sleeps.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        monkeypatch.setattr(service_module.asyncio, "sleep", counting_sleep)

        async def two_waves():
            await service.start()
            try:
                # The first wave queues whole batches on both shards, so
                # each worker's EMA shows load before the second wave.
                for wave in range(2):
                    futures = [
                        service.submit(make_request(f"w{index}", TELLER))
                        for index in range(16)
                    ]
                    decisions = await asyncio.gather(*futures)
                    assert all(decision.granted for decision in decisions)
            finally:
                await service.stop()

        asyncio.run(two_waves())
        assert all(shard["batches"] >= 2 for shard in service.metrics()["shards"])
        store.close()
        if backend == "memory":
            assert sleeps == []
        else:
            assert sleeps
