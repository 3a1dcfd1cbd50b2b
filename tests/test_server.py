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
from tests.test_protocol import BINPACK_ERA_REQUEST, DEEP

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


async def v2_exchange(writer, reader, data):
    """Send raw bytes on a v2 connection; the next frame, or ``None`` at
    EOF."""
    writer.write(data)
    await writer.drain()
    return await read_v2(reader)


async def read_v2(reader):
    try:
        header = await reader.readexactly(protocol.V2_HEADER_BYTES)
        payload = await reader.readexactly(protocol.v2_payload_length(header))
    except asyncio.IncompleteReadError:
        return None
    return protocol.decode_frame_v2(payload)


async def open_v2(writer, reader):
    """Start a v2 connection: its first bytes are a v2 frame."""
    reply = await v2_exchange(
        writer,
        reader,
        protocol.encode_frame_v2(protocol.request_frame("healthz", "v2-open")),
    )
    assert reply["ok"] is True and reply["v"] == 2
    return reply


async def exchange(version, writer, reader, frame):
    """One frame and its answer, both in protocol ``version``."""
    if version == 1:
        return await tcp_exchange(writer, reader, frame)
    return await v2_exchange(writer, reader, protocol.encode_frame_v2(frame))


#: The frame earlier clients sent to upgrade a connection to v2: now an
#: unknown op.
HELLO = protocol.request_frame("hello", "hello-1", max_version=2)


def batch_frame(frame_id, *requests):
    return protocol.request_frame(
        protocol.OP_DECIDE_BATCH,
        frame_id,
        requests=[protocol.request_to_wire(request) for request in requests],
    )


def decide_frame(frame_id, user):
    return protocol.request_frame(
        "decide",
        frame_id,
        request=protocol.request_to_wire(make_request(user, TELLER)),
    )


def v2_frame_of(payload):
    """A v2 frame with a valid header around raw ``payload`` bytes."""
    return (
        protocol.V2_HEADER.pack(protocol.V2_MAGIC, 2, 0, len(payload))
        + payload
    )


class EndpointCases:
    """Connection-start and malformed-input cases every frame endpoint
    must pass.

    Subclasses say which endpoint: ``run_with_server(scenario)`` boots
    it, connects, and runs ``scenario(server, reader, writer)``;
    ``good_frame(frame_id)`` is a request the endpoint answers ``ok``.
    """

    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
    def test_the_first_byte_fixes_the_connections_protocol(self, version):
        async def scenario(server, reader, writer):
            return [
                await exchange(version, writer, reader, self.good_frame(i))
                for i in ("first", "second")
            ]

        replies = self.run_with_server(scenario)
        assert [(r["ok"], r["id"], r["v"]) for r in replies] == [
            (True, "first", version),
            (True, "second", version),
        ]

    def test_a_peer_closing_before_its_first_byte_is_closed_silently(self):
        async def scenario(server, reader, writer):
            writer.write_eof()
            silent = await reader.read()
            return silent, await run_scenario(
                server.port,
                server,
                lambda _, reader2, writer2: tcp_exchange(
                    writer2, reader2, self.good_frame("after")
                ),
            )

        silent, after = self.run_with_server(scenario)
        assert silent == b""
        assert after["ok"] is True and after["id"] == "after"

    def test_malformed_frames_answered_not_fatal(self):
        async def scenario(server, reader, writer):
            responses = []
            for junk in (
                b"not json at all\n",
                b'\xff\xfe\x00garbage\n',
                b'{"v": 99, "op": "decide"}\n',
                b'{"v": 1, "op": "warp"}\n',
                b'{"v": 1, "op": ["decide"]}\n',
                b'{"v": 1, "op": "decide", "request": {"user_id": 5}}\n',
                b'[1,2,3]\n',
            ):
                writer.write(junk)
                await writer.drain()
                responses.append(protocol.decode_frame(await reader.readline()))
            # The connection and server survive: a real frame still works.
            ok = await tcp_exchange(
                writer, reader, self.good_frame("after-junk")
            )
            return responses, ok

        responses, ok = self.run_with_server(scenario)
        for response in responses:
            assert response["ok"] is False
            assert response["error"]["kind"] == "protocol"
        assert ok["ok"] is True and ok["id"] == "after-junk"

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
                    writer2, reader2, self.good_frame("h-2")
                )
            finally:
                writer2.close()

        response = self.run_with_server(scenario)
        assert response["ok"] is True


async def run_scenario(port, server, scenario):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await asyncio.wait_for(
            scenario(server, reader, writer), timeout=20
        )
    finally:
        writer.close()


class TestTCPServer(EndpointCases):
    def run_with_server(self, scenario):
        async def runner():
            server = MSoDServer(AuthorizationService(make_engine(), n_shards=2))
            await server.start()
            try:
                return await run_scenario(server.port, server, scenario)
            finally:
                await server.stop()

        return asyncio.run(runner())

    def good_frame(self, frame_id):
        return decide_frame(frame_id, "bob")

    @pytest.mark.parametrize("op", ["healthz", "decide"])
    def test_a_v1_line_cut_short_by_eof_is_never_run(self, op):
        """A complete frame without its newline, then a half-close: the
        connection closes unanswered, and a decide commits nothing."""
        frame = (
            decide_frame("x", "alice")
            if op == "decide"
            else protocol.request_frame("healthz", "x")
        )
        line = protocol.encode_frame(frame)
        assert line.endswith(b"\n")
        store = InMemoryRetainedADIStore()

        async def runner():
            server = MSoDServer(AuthorizationService(make_engine(store), n_shards=2))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(line[:-1])
                writer.write_eof()  # SHUT_WR
                try:
                    return await asyncio.wait_for(reader.read(), timeout=20)
                finally:
                    writer.close()
            finally:
                await server.stop()

        assert asyncio.run(runner()) == b""
        assert store.count() == 0

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

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(
                b'{"v":1,"id":1,"x":' + DEEP + b"}\n",
                id="nested-past-the-recursion-limit",
            ),
            pytest.param(
                protocol.encode_frame(decide_frame("s-1", "SURROGATE"))
                .replace(b"SURROGATE", b"\\ud800"),
                id="lone-surrogate-user-id",
            ),
        ],
    )
    def test_an_undecodable_line_is_answered_not_fatal(self, line):
        async def scenario(server, reader, writer):
            writer.write(line)
            await writer.drain()
            error = protocol.decode_frame(await reader.readline())
            health = await tcp_exchange(
                writer, reader, protocol.request_frame("healthz", "h-1")
            )
            return error, health

        error, health = self.run_with_server(scenario)
        assert error["ok"] is False and error["id"] is None
        assert error["error"]["kind"] == "protocol"
        assert health["ok"] is True and health["id"] == "h-1"

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
                    writer, reader, decide_frame("late", "alice")
                )
            finally:
                writer.close()
                service._accepting = True
                await server.stop()
            return response

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["error"]["kind"] == "shutting-down"

    # -- the v2 connection discipline, on a raw socket -----------------
    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(b"\x00" * protocol.V2_HEADER_BYTES, id="bad-magic"),
            pytest.param(
                protocol.encode_frame(protocol.request_frame("healthz", "x")),
                id="v1-json-line",
            ),
            pytest.param(
                protocol.V2_HEADER.pack(
                    protocol.V2_MAGIC, 2, 0, protocol.MAX_FRAME_BYTES_V2 + 1
                ),
                id="over-limit-length",
            ),
        ],
    )
    def test_v2_stream_corruption_gets_one_error_then_eof(self, corrupt):
        async def scenario(server, reader, writer):
            await open_v2(writer, reader)
            error = await v2_exchange(writer, reader, corrupt)
            return error, await read_v2(reader)

        error, after = self.run_with_server(scenario)
        assert error["ok"] is False and error["id"] is None
        assert error["error"]["kind"] == "protocol"
        assert after is None  # closed: the stream cannot be resynchronised

    @pytest.mark.parametrize(
        "bad, frame_id",
        [
            pytest.param(
                protocol.V2_HEADER.pack(protocol.V2_MAGIC, 2, 0, 3)
                + b"\xc1\xc1\xc1",
                None,
                id="garbled-binpack",
            ),
            pytest.param(BINPACK_ERA_REQUEST, None, id="binpack-era-payload"),
            pytest.param(
                v2_frame_of(b'{"v":2,"id":1,"x":' + DEEP + b"}"),
                None,
                id="nested-past-the-recursion-limit",
            ),
            pytest.param(
                protocol.encode_frame_v2(protocol.request_frame("warp", "w-1")),
                "w-1",
                id="unknown-op",
            ),
            pytest.param(
                protocol.encode_frame_v2(
                    protocol.request_frame(
                        protocol.OP_DECIDE_BATCH,
                        "b-bad",
                        requests=[
                            protocol.request_to_wire(
                                make_request("carol", AUDITOR)
                            ),
                            {"user_id": 5},
                        ],
                    )
                ),
                "b-bad",
                id="batch-with-one-malformed-entry",
            ),
        ],
    )
    def test_v2_payload_errors_answered_and_stream_stays_open(
        self, bad, frame_id
    ):
        async def scenario(server, reader, writer):
            await open_v2(writer, reader)
            error = await v2_exchange(writer, reader, bad)
            ok = await v2_exchange(
                writer,
                reader,
                protocol.encode_frame_v2(
                    batch_frame("b-ok", make_request("carol", TELLER))
                ),
            )
            return error, ok

        error, ok = self.run_with_server(scenario)
        assert error["ok"] is False and error["id"] == frame_id
        assert error["error"]["kind"] == "protocol"
        assert ok["ok"] is True and ok["id"] == "b-ok"
        # Nothing of the rejected batch was committed: an Auditor grant
        # from its well-formed entry would make this Teller request deny.
        assert ok["results"][0]["decision"]["effect"] == "grant"

    @pytest.mark.parametrize(
        "cut",
        [
            pytest.param(protocol.V2_HEADER_BYTES - 3, id="mid-header"),
            pytest.param(protocol.V2_HEADER_BYTES + 5, id="mid-payload"),
        ],
    )
    def test_v2_truncated_frame_then_eof_is_harmless(self, cut):
        async def scenario(server, reader, writer):
            await open_v2(writer, reader)
            frame = protocol.encode_frame_v2(
                batch_frame("b-cut", make_request("dave", TELLER))
            )
            writer.write(frame[:cut])
            await writer.drain()
            writer.close()
            return await run_scenario(
                server.port,
                server,
                lambda _, reader2, writer2: tcp_exchange(
                    writer2, reader2, protocol.request_frame("healthz", "h-3")
                ),
            )

        assert self.run_with_server(scenario)["ok"] is True

    def test_decide_batch_refused_on_a_never_upgraded_connection(self):
        async def scenario(server, reader, writer):
            refused = await tcp_exchange(
                writer, reader, batch_frame("b-v1", make_request("erin", TELLER))
            )
            ok = await tcp_exchange(writer, reader, self.good_frame("d-1"))
            return refused, ok

        refused, ok = self.run_with_server(scenario)
        assert refused["ok"] is False and refused["id"] == "b-v1"
        assert refused["error"]["kind"] == "protocol"
        assert ok["ok"] is True

    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
    def test_hello_is_an_unknown_op_and_the_connection_stays_open(
        self, version
    ):
        async def scenario(server, reader, writer):
            refused = await exchange(version, writer, reader, HELLO)
            ok = await exchange(
                version, writer, reader, protocol.request_frame("healthz", "h-5")
            )
            return refused, ok

        refused, ok = self.run_with_server(scenario)
        assert refused["ok"] is False and refused["id"] == "hello-1"
        assert refused["error"] == {
            "kind": "protocol",
            "detail": "unknown operation 'hello'",
        }
        assert ok["ok"] is True and ok["v"] == version

    def test_pipelined_batches_both_answered_and_correlate_by_id(self):
        async def scenario(server, reader, writer):
            await open_v2(writer, reader)
            writer.write(
                protocol.encode_frame_v2(
                    batch_frame("p-1", make_request("frank", TELLER))
                )
                + protocol.encode_frame_v2(
                    batch_frame(
                        "p-2",
                        make_request("grace", TELLER),
                        make_request("grace", AUDITOR),
                    )
                )
            )
            await writer.drain()
            replies = [await read_v2(reader), await read_v2(reader)]
            return {reply["id"]: reply for reply in replies}

        replies = self.run_with_server(scenario)
        assert set(replies) == {"p-1", "p-2"}
        assert [len(replies[i]["results"]) for i in ("p-1", "p-2")] == [1, 2]
        grace = replies["p-2"]["results"]
        assert grace[0]["decision"]["effect"] == "grant"
        assert grace[1]["decision"]["effect"] == "deny"  # MMER, same batch


class TestCoordinatorEndpoint(EndpointCases):
    """The cluster coordinator answers sockets from the same loop."""

    def run_with_server(self, scenario):
        import tempfile

        from repro.cluster import LocalCluster

        with tempfile.TemporaryDirectory() as data_dir:
            with LocalCluster(
                bank_policy_set(),
                1,
                data_dir,
                health_interval=3600.0,
                catchup_interval=3600.0,
                fsync=False,
            ) as cluster:
                return asyncio.run(run_scenario(cluster.port, cluster, scenario))

    def good_frame(self, frame_id):
        return protocol.request_frame(protocol.OP_ROUTE, frame_id)

    @pytest.mark.parametrize(
        "refused",
        [HELLO, decide_frame("d-1", "alice")],
        ids=["hello", "decide"],
    )
    def test_node_verbs_refused_and_connection_left_usable(self, refused):
        async def scenario(cluster, reader, writer):
            error = await tcp_exchange(writer, reader, refused)
            route = await tcp_exchange(writer, reader, self.good_frame("r-1"))
            return error, route

        error, route = self.run_with_server(scenario)
        assert error["ok"] is False and error["id"] == refused["id"]
        assert error["error"]["kind"] == "protocol"
        assert route["ok"] is True and "shards" in route["body"]

    @pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
    def test_route_and_cluster_status_in_both_protocols(self, version):
        async def scenario(cluster, reader, writer):
            return [
                await exchange(
                    version, writer, reader, protocol.request_frame(op, op)
                )
                for op in (protocol.OP_ROUTE, protocol.OP_CLUSTER_STATUS)
            ]

        route, status = self.run_with_server(scenario)
        assert route["ok"] is True and route["v"] == version
        assert "shards" in route["body"]
        assert status["ok"] is True and status["v"] == version
        assert status["id"] == protocol.OP_CLUSTER_STATUS


def test_op_tables_are_the_protocol_op_sets():
    """A verb cannot be added to one table and forgotten in the other."""
    server = MSoDServer(AuthorizationService(make_engine(), n_shards=1))
    assert set(server.handlers[1]) == protocol.KNOWN_OPS
    assert set(server.handlers[2]) == protocol.V2_OPS


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
