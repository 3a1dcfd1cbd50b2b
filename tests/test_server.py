"""Tests for the sharded authorization service and its TCP front end."""

import asyncio
import json

import pytest

from repro.core import (
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Role,
    SQLiteRetainedADIStore,
)
from repro.obs import Recorder
from repro.server import (
    AuthorizationService,
    MSoDServer,
    ServerThread,
    ServiceOverloadedError,
    ServiceUnavailableError,
    protocol,
    shard_of,
)

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")


def bank_policy_set():
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=[MMER([TELLER, AUDITOR], 2)],
                policy_id="bank",
            )
        ]
    )


def make_engine(store=None):
    return MSoDEngine(bank_policy_set(), store or InMemoryRetainedADIStore())


def make_request(user, role, index=0, period="P1"):
    operation, target = (
        ("handleCash", "till://1") if role is TELLER else ("auditBooks", "l://1")
    )
    return DecisionRequest(
        user_id=user,
        roles=(role,),
        operation=operation,
        target=target,
        context_instance=ContextName.parse(f"Branch=York, Period={period}"),
        timestamp=float(index),
    )


class TestSharding:
    def test_shard_is_deterministic_and_in_range(self):
        for n_shards in (1, 2, 7, 64):
            for user in ("alice", "bob", "", "user-9999", "ünïcode"):
                shard = shard_of(user, n_shards)
                assert 0 <= shard < n_shards
                assert shard == shard_of(user, n_shards)

    def test_shards_spread_users(self):
        shards = {shard_of(f"user-{index}", 8) for index in range(200)}
        assert len(shards) == 8


class TestService:
    def test_decide_and_metrics(self):
        async def scenario():
            service = AuthorizationService(make_engine(), n_shards=2)
            await service.start()
            grant = await service.decide(make_request("alice", TELLER))
            deny = await service.decide(make_request("alice", AUDITOR, index=1))
            await service.stop()
            return grant, deny, service.metrics()

        grant, deny, metrics = asyncio.run(scenario())
        assert grant.granted and deny.denied
        shard = shard_of("alice", 2)
        assert metrics["shards"][shard]["submitted"] == 2
        assert metrics["shards"][shard]["completed"] == 2

    def test_rejects_before_start_and_after_stop(self):
        async def scenario():
            service = AuthorizationService(make_engine())
            with pytest.raises(ServiceUnavailableError):
                service.submit(make_request("alice", TELLER))
            await service.start()
            await service.stop()
            with pytest.raises(ServiceUnavailableError):
                service.submit(make_request("alice", TELLER))

        asyncio.run(scenario())

    def test_overload_sheds_with_retry_after(self):
        async def scenario():
            service = AuthorizationService(
                make_engine(), n_shards=1, queue_depth=4, retry_after=0.125
            )
            await service.start()
            # submit() is synchronous: the worker task cannot drain until
            # we yield, so the fifth request must be shed.
            futures = [
                service.submit(make_request(f"u{index}", TELLER, index))
                for index in range(4)
            ]
            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.submit(make_request("u-late", TELLER, 99))
            assert excinfo.value.retry_after == 0.125
            decisions = await asyncio.gather(*futures)
            await service.stop()
            return decisions, service.metrics()

        decisions, metrics = asyncio.run(scenario())
        assert all(decision.granted for decision in decisions)
        assert metrics["shards"][0]["rejected"] == 1
        assert metrics["perf"]["counters"] == {}  # NOOP records nothing

    def test_graceful_drain_answers_queued_work(self):
        async def scenario():
            flushed = []

            def sink(decision):
                pass

            sink.flush = lambda: flushed.append(True)
            service = AuthorizationService(
                make_engine(), n_shards=2, audit_sink=sink
            )
            await service.start()
            futures = [
                service.submit(make_request(f"user-{index}", TELLER, index))
                for index in range(20)
            ]
            await service.stop()
            decisions = await asyncio.gather(*futures)
            return decisions, flushed

        decisions, flushed = asyncio.run(scenario())
        assert len(decisions) == 20
        assert all(decision.granted for decision in decisions)
        assert flushed == [True]

    def test_same_user_requests_serialize_in_submission_order(self):
        """One user's stream lands on one shard: FIFO, race-free."""

        async def scenario():
            service = AuthorizationService(make_engine(), n_shards=8)
            await service.start()
            futures = [
                service.submit(
                    make_request("alice", TELLER if index % 2 else AUDITOR, index)
                )
                for index in range(12)
            ]
            decisions = await asyncio.gather(*futures)
            await service.stop()
            return decisions

        decisions = asyncio.run(scenario())
        # First request (auditor) wins the MMER; every teller request
        # afterwards must deny, deterministically, because the shard
        # serializes them behind it.
        assert decisions[0].granted
        effects = [decision.effect for decision in decisions]
        assert effects == ["grant" if i % 2 == 0 else "deny" for i in range(12)]

    def test_micro_batches_share_one_store_batch(self):
        perf = Recorder()
        store = SQLiteRetainedADIStore(":memory:")

        async def scenario():
            service = AuthorizationService(
                make_engine(store), n_shards=1, batch_max=16, perf=perf
            )
            await service.start()
            futures = [
                service.submit(make_request(f"user-{index}", TELLER, index))
                for index in range(10)
            ]
            await asyncio.gather(*futures)
            await service.stop()
            return service.metrics()

        metrics = asyncio.run(scenario())
        store.close()
        # All ten were queued before the worker first ran, so they drain
        # as one micro-batch (one SQLite transaction).
        assert metrics["shards"][0]["max_batch"] == 10
        assert perf.counter("server.batches") < 10
        assert perf.counter("server.decided") == 10

    def test_engine_failure_fails_only_its_future(self):
        class ExplodingEngine:
            def __init__(self, engine):
                self._engine = engine
                self.store = engine.store
                self.perf = engine.perf

            def check(self, request):
                if request.user_id == "boom":
                    raise RuntimeError("engine exploded")
                return self._engine.check(request)

        async def scenario():
            service = AuthorizationService(ExplodingEngine(make_engine()), n_shards=1)
            await service.start()
            bad = service.submit(make_request("boom", TELLER, 0))
            good = service.submit(make_request("fine", TELLER, 1))
            results = await asyncio.gather(bad, good, return_exceptions=True)
            await service.stop()
            return results

        bad, good = asyncio.run(scenario())
        assert isinstance(bad, RuntimeError)
        assert good.granted


async def tcp_exchange(writer, reader, frame):
    writer.write(protocol.encode_frame(frame))
    await writer.drain()
    return protocol.decode_frame(await reader.readline())


class TestTCPServer:
    def run_with_server(self, scenario):
        async def runner():
            server = MSoDServer(AuthorizationService(make_engine(), n_shards=2))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    return await asyncio.wait_for(
                        scenario(server, reader, writer), timeout=20
                    )
                finally:
                    writer.close()
            finally:
                await server.stop()

        return asyncio.run(runner())

    def test_decide_round_trip(self):
        async def scenario(server, reader, writer):
            request = make_request("alice", TELLER)
            frame = protocol.request_frame(
                "decide", "c-1", request=protocol.request_to_wire(request)
            )
            return await tcp_exchange(writer, reader, frame), request

        response, request = self.run_with_server(scenario)
        assert response["ok"] is True and response["id"] == "c-1"
        decision = protocol.decision_from_wire(response["decision"])
        assert decision.granted
        assert decision.request == request

    def test_healthz_and_metrics(self):
        async def scenario(server, reader, writer):
            health = await tcp_exchange(
                writer, reader, protocol.request_frame("healthz", "h-1")
            )
            metrics = await tcp_exchange(
                writer, reader, protocol.request_frame("metrics", "m-1")
            )
            return health, metrics

        health, metrics = self.run_with_server(scenario)
        assert health["body"]["status"] == "ok"
        assert health["body"]["queue_depths"] == [0, 0]
        assert len(metrics["body"]["shards"]) == 2

    def test_malformed_frames_answered_not_fatal(self):
        async def scenario(server, reader, writer):
            responses = []
            for junk in (
                b"not json at all\n",
                b'\xff\xfe\x00garbage\n',
                b'{"v": 99, "op": "decide"}\n',
                b'{"v": 1, "op": "warp"}\n',
                b'{"v": 1, "op": "decide", "request": {"user_id": 5}}\n',
                b'[1,2,3]\n',
            ):
                writer.write(junk)
                await writer.drain()
                responses.append(protocol.decode_frame(await reader.readline()))
            # The connection and server survive: a real decide still works.
            ok = await tcp_exchange(
                writer,
                reader,
                protocol.request_frame(
                    "decide",
                    "after-junk",
                    request=protocol.request_to_wire(make_request("bob", TELLER)),
                ),
            )
            return responses, ok

        responses, ok = self.run_with_server(scenario)
        for response in responses:
            assert response["ok"] is False
            assert response["error"]["kind"] == "protocol"
        assert ok["ok"] is True

    def test_oversized_frame_closes_connection(self):
        async def scenario(server, reader, writer):
            writer.write(b"x" * (protocol.MAX_FRAME_BYTES + 100) + b"\n")
            await writer.drain()
            response = protocol.decode_frame(await reader.readline())
            eof = await reader.readline()
            return response, eof

        response, eof = self.run_with_server(scenario)
        assert response["ok"] is False
        assert response["error"]["kind"] == "protocol"
        assert eof == b""  # server closed the corrupt connection

    def test_truncated_frame_then_eof_is_harmless(self):
        """A client dying mid-frame must not wedge or crash the server."""

        async def scenario(server, reader, writer):
            writer.write(b'{"v": 1, "op": "deci')  # no newline, then EOF
            await writer.drain()
            writer.close()
            # A fresh connection still gets served.
            reader2, writer2 = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                return await tcp_exchange(
                    writer2, reader2, protocol.request_frame("healthz", "h-2")
                )
            finally:
                writer2.close()

        response = self.run_with_server(scenario)
        assert response["ok"] is True

    def test_drain_rejects_new_work_with_shutting_down(self):
        async def scenario():
            service = AuthorizationService(make_engine(), n_shards=1)
            server = MSoDServer(service)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                service._accepting = False  # simulate drain mid-connection
                response = await tcp_exchange(
                    writer,
                    reader,
                    protocol.request_frame(
                        "decide",
                        "late",
                        request=protocol.request_to_wire(
                            make_request("alice", TELLER)
                        ),
                    ),
                )
            finally:
                writer.close()
                service._accepting = True
                await server.stop()
            return response

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["error"]["kind"] == "shutting-down"


class TestServerThread:
    def test_thread_harness_round_trip(self):
        import socket

        with ServerThread(AuthorizationService(make_engine(), n_shards=2)) as server:
            assert server.port != 0
            with socket.create_connection(
                (server.host, server.port), timeout=5
            ) as sock:
                sock.sendall(
                    protocol.encode_frame(protocol.request_frame("healthz", "t-1"))
                )
                line = sock.makefile("rb").readline()
            body = json.loads(line)
            assert body["ok"] is True
