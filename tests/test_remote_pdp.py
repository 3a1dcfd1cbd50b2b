"""Tests for the remote PDP clients and PEP transport-failure typing.

Every ``TestRemotePDP`` case runs against both IO shells: the class
names its client in ``client``, and ``TestRemotePDPOverAsyncio``
re-runs the same bodies with :class:`BlockingAsyncPDP` — the asyncio
shell behind blocking calls — so the retry discipline is proven on
both from one set of cases.
"""

import asyncio
import inspect
import json
import random
import socket
import threading
import time

import pytest

from repro.core import (
    MMER,
    ContextName,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Role,
)
from repro.client import (
    AsyncRemotePDP,
    PDPOverloadedError,
    PDPUnavailableError,
    RemotePDP,
)
from repro.errors import PDPConnectError
from repro.framework import (
    AccessDeniedError,
    PolicyEnforcementPoint,
    SimulatedClock,
)
from repro.server import AuthorizationService, MSoDServer, ServerThread, protocol

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
YORK_P1 = ContextName.parse("Branch=York, Period=P1")


def make_service(n_shards=2, **kwargs):
    policy_set = MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=[MMER([TELLER, AUDITOR], 2)],
                policy_id="bank",
            )
        ]
    )
    engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
    return AuthorizationService(engine, n_shards=n_shards, **kwargs)


def free_port():
    """A port that was just free — nothing is listening on it."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ScriptedServer:
    """A TCP stub answering each received frame with the next scripted reply.

    Script entries are callables ``frame -> response_frame_dict`` (the
    received frame, decoded), or ``None`` to close the connection
    without answering.  Like the real server, it reads a connection's
    protocol version off its first byte and answers in it.  Used to
    exercise client retry discipline without a real engine behind the
    socket.
    """

    def __init__(self, script):
        self._script = list(script)
        self._lock = threading.Lock()
        self.requests = []
        self.connections = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._accepting = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

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
            v2 = stream.peek(1)[:1] == bytes([protocol.V2_MAGIC])
            while True:
                if v2:
                    header = stream.read(protocol.V2_HEADER_BYTES)
                    if len(header) != protocol.V2_HEADER_BYTES:
                        return
                    frame = protocol.decode_frame_v2(
                        stream.read(protocol.v2_payload_length(header))
                    )
                else:
                    line = stream.readline()
                    if not line:
                        return
                    frame = json.loads(line)
                with self._lock:
                    self.requests.append(frame)
                    reply = self._script.pop(0) if self._script else None
                if reply is None:
                    return
                conn.sendall(
                    protocol.encode_frame_v2(reply(frame))
                    if v2
                    else json.dumps(reply(frame)).encode() + b"\n"
                )
        except OSError:
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


class BlockingAsyncPDP:
    """:class:`AsyncRemotePDP` behind blocking calls on a private loop.

    Test-only: gives the asyncio shell the sync client's face (verbs
    block, ``with`` closes), so one test body serves both shells.
    """

    def __init__(self, *args, **kwargs):
        self._loop = asyncio.new_event_loop()
        self._pdp = AsyncRemotePDP(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._pdp, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            result = attr(*args, **kwargs)
            if inspect.isawaitable(result):
                return self._loop.run_until_complete(result)
            return result

        return call

    def pending_tasks(self):
        return [t for t in asyncio.all_tasks(self._loop) if not t.done()]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()  # the loop stays usable: verbs after close must raise

    def __del__(self):
        self._loop.close()


def pipeline_threads():
    return {
        t for t in threading.enumerate() if t.name.startswith("repro-pdp-")
    }


def overloaded_reply(frame, retry_after=0.001):
    return protocol.error_frame(
        frame["id"],
        protocol.ERR_OVERLOADED,
        "shard full",
        retry_after=retry_after,
    )


def healthz_reply(frame):
    return protocol.response_frame(
        frame["id"], protocol.OP_HEALTHZ, "body", {"status": "ok"}
    )


def make_request(user, role, timestamp=1.0):
    from repro.core import DecisionRequest

    operation, target = (
        ("handleCash", "till://1") if role is TELLER else ("auditBooks", "l://1")
    )
    return DecisionRequest(
        user_id=user,
        roles=(role,),
        operation=operation,
        target=target,
        context_instance=YORK_P1,
        timestamp=timestamp,
    )


FAST = dict(timeout=2.0, backoff_base=0.001, backoff_cap=0.002)


class TestRemotePDP:
    client = RemotePDP

    def test_connect_failure_is_typed(self):
        pdp = self.client("127.0.0.1", free_port(), max_retries=0, timeout=0.5)
        with pdp, pytest.raises(PDPUnavailableError):
            pdp.decide(make_request("alice", TELLER))

    def test_grant_and_deny_through_unchanged_pep(self):
        with ServerThread(make_service()) as server:
            with self.client(server.host, server.port, **FAST) as pdp:
                pep = PolicyEnforcementPoint(pdp, SimulatedClock())
                grant = pep.enforce(
                    "alice", [TELLER], "handleCash", "till://1", YORK_P1
                )
                assert grant.granted and grant.records_added >= 1
                with pytest.raises(AccessDeniedError) as excinfo:
                    pep.enforce(
                        "alice", [AUDITOR], "auditBooks", "l://1", YORK_P1
                    )
                denial = excinfo.value.decision
                assert denial.violation is not None
                assert denial.violation.constraint_kind == "MMER"

    def test_healthz_and_metrics_verbs(self):
        with ServerThread(make_service(n_shards=3)) as server:
            with self.client(server.host, server.port, **FAST) as pdp:
                pdp.decide(make_request("bob", TELLER))
                health = pdp.healthz()
                metrics = pdp.metrics()
        assert health["status"] == "ok"
        assert health["shards"] == 3
        assert sum(shard["completed"] for shard in metrics["shards"]) == 1

    def test_connections_are_pooled(self):
        script = [healthz_reply] * 5
        with ScriptedServer(script) as stub:
            with self.client("127.0.0.1", stub.port, **FAST) as pdp:
                for _ in range(5):
                    assert pdp.healthz() == {"status": "ok"}
            assert stub.connections == 1  # sequential calls reuse one socket

    def test_overload_is_retried_then_succeeds(self):
        script = [overloaded_reply, overloaded_reply, healthz_reply]
        with ScriptedServer(script) as stub:
            pdp = self.client(
                "127.0.0.1",
                stub.port,
                max_retries=2,
                rng=random.Random(1),
                **FAST,
            )
            with pdp:
                assert pdp.healthz() == {"status": "ok"}
            assert len(stub.requests) == 3

    def test_overload_raises_after_retry_budget(self):
        # The script answers whole frames, not decide-batch entries, so
        # pin the v1 decide path (v2 discipline is covered by the
        # pipelined tests).
        script = [overloaded_reply] * 3
        with ScriptedServer(script) as stub:
            pdp = self.client(
                "127.0.0.1",
                stub.port,
                max_retries=1,
                rng=random.Random(2),
                protocol_version="v1",
                **FAST,
            )
            with pdp, pytest.raises(PDPOverloadedError) as excinfo:
                pdp.decide(make_request("carol", TELLER))
            assert excinfo.value.retry_after == pytest.approx(0.001)
            assert len(stub.requests) == 2  # initial + exactly one retry

    def test_decide_is_never_retried_after_send(self):
        """A decide whose connection dies post-send must not be replayed:
        the server may already have committed the grant to history."""
        script = [None, None, None]  # close without answering, every time
        with ScriptedServer(script) as stub:
            pdp = self.client(
                "127.0.0.1",
                stub.port,
                max_retries=2,
                protocol_version="v1",
                **FAST,
            )
            with pdp, pytest.raises(PDPUnavailableError):
                pdp.decide(make_request("dave", TELLER))
            assert len(stub.requests) == 1  # no replay despite retry budget

    def test_healthz_is_retried_on_transport_failure(self):
        script = [None, healthz_reply]
        with ScriptedServer(script) as stub:
            pdp = self.client(
                "127.0.0.1",
                stub.port,
                max_retries=2,
                rng=random.Random(3),
                **FAST,
            )
            with pdp:
                assert pdp.healthz() == {"status": "ok"}
            assert len(stub.requests) == 2

    def test_mismatched_response_id_is_a_protocol_error(self):
        from repro.errors import ProtocolError

        script = [
            lambda frame: protocol.response_frame(
                "someone-else", protocol.OP_HEALTHZ, "body", {}
            )
        ]
        with ScriptedServer(script) as stub:
            pdp = self.client("127.0.0.1", stub.port, max_retries=0, **FAST)
            with pdp, pytest.raises(ProtocolError):
                pdp.healthz()

    def test_healthz_uses_its_own_short_timeout(self):
        """A wedged node must fail a probe fast, not after ``timeout``.

        The cluster's failure detector calls ``healthz`` on every tick;
        with only the (generous) decide timeout, one stuck node would
        stall detection for seconds.  ``health_timeout`` caps the probe
        alone — decides keep the long deadline.
        """
        def slow_healthz(frame):
            time.sleep(1.5)
            return healthz_reply(frame)

        with ScriptedServer([slow_healthz]) as stub:
            pdp = self.client(
                "127.0.0.1",
                stub.port,
                timeout=30.0,
                health_timeout=0.2,
                max_retries=0,
            )
            started = time.monotonic()
            with pdp, pytest.raises(PDPUnavailableError):
                pdp.healthz()
            assert time.monotonic() - started < 1.5

    def test_health_timeout_defaults_to_the_decide_timeout(self):
        with ScriptedServer([healthz_reply]) as stub:
            pdp = self.client("127.0.0.1", stub.port, timeout=5.0)
            with pdp:
                assert pdp.healthz() == {"status": "ok"}

    def test_overload_waits_out_the_servers_retry_after(self):
        """Backoff is floored at the ``retry_after`` hint, per rejection."""

        def shed(frame):
            return overloaded_reply(frame, retry_after=0.05)

        with ScriptedServer([shed, shed, healthz_reply]) as stub:
            pdp = self.client("127.0.0.1", stub.port, max_retries=2, **FAST)
            started = time.monotonic()
            with pdp:
                assert pdp.healthz() == {"status": "ok"}
            assert time.monotonic() - started >= 0.1
            assert len(stub.requests) == 3

    def test_any_verb_after_close_is_refused_and_nothing_lingers(self):
        """A closed client must not quietly reconnect: its fresh
        pipelined connection (threads / reader task) would never be
        closed again."""
        before = pipeline_threads()
        with ServerThread(make_service()) as server:
            pdp = self.client(
                server.host, server.port, protocol_version="v2", **FAST
            )
            with pdp:
                assert pdp.decide(make_request("zed", TELLER)).granted
            for verb in (
                lambda: pdp.decide(make_request("zed", AUDITOR, 2.0)),
                pdp.healthz,
                pdp.policy_version,
            ):
                with pytest.raises(PDPUnavailableError) as excinfo:
                    verb()
                assert not isinstance(excinfo.value, PDPConnectError)
            assert pipeline_threads() <= before
            if isinstance(pdp, BlockingAsyncPDP):
                assert pdp.pending_tasks() == []


class TestRemotePDPOverAsyncio(TestRemotePDP):
    client = BlockingAsyncPDP


class TestAsyncRemotePDP:
    def test_grant_deny_and_control_verbs(self):
        async def scenario():
            server = MSoDServer(make_service())
            await server.start()
            try:
                async with AsyncRemotePDP(
                    "127.0.0.1", server.port, **FAST
                ) as pdp:
                    grant = await pdp.decide(make_request("erin", TELLER))
                    deny = await pdp.decide(
                        make_request("erin", AUDITOR, timestamp=2.0)
                    )
                    health = await pdp.healthz()
                    metrics = await pdp.metrics()
            finally:
                await server.stop()
            return grant, deny, health, metrics

        grant, deny, health, metrics = asyncio.run(scenario())
        assert grant.granted and deny.denied
        assert health["status"] == "ok"
        assert sum(shard["completed"] for shard in metrics["shards"]) == 2

    def test_connect_failure_is_typed(self):
        async def scenario():
            pdp = AsyncRemotePDP(
                "127.0.0.1", free_port(), max_retries=0, timeout=0.5
            )
            with pytest.raises(PDPUnavailableError):
                await pdp.decide(make_request("frank", TELLER))
            await pdp.close()

        asyncio.run(scenario())

    def test_concurrent_clients_share_the_pool(self):
        async def scenario():
            server = MSoDServer(make_service(n_shards=4))
            await server.start()
            try:
                async with AsyncRemotePDP(
                    "127.0.0.1", server.port, pool_size=3, **FAST
                ) as pdp:
                    decisions = await asyncio.gather(
                        *(
                            pdp.decide(
                                make_request(f"user-{i}", TELLER, float(i))
                            )
                            for i in range(12)
                        )
                    )
            finally:
                await server.stop()
            return decisions

        decisions = asyncio.run(scenario())
        assert len(decisions) == 12
        assert all(decision.granted for decision in decisions)


class TestPEPTransportTyping:
    def test_pep_wraps_raw_socket_errors(self):
        class BrokenPDP:
            def decide(self, request):
                raise ConnectionResetError("peer vanished")

        pep = PolicyEnforcementPoint(BrokenPDP(), SimulatedClock())
        with pytest.raises(PDPUnavailableError) as excinfo:
            pep.request_decision(
                "gina", [TELLER], "handleCash", "till://1", YORK_P1
            )
        assert "transport failure" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ConnectionResetError)

    def test_pep_wraps_timeouts(self):
        class SlowPDP:
            def decide(self, request):
                raise TimeoutError("decide timed out")

        pep = PolicyEnforcementPoint(SlowPDP(), SimulatedClock())
        with pytest.raises(PDPUnavailableError):
            pep.request_decision(
                "hana", [TELLER], "handleCash", "till://1", YORK_P1
            )

    def test_pep_passes_through_typed_pdp_errors(self):
        class OverloadedPDP:
            def decide(self, request):
                raise PDPOverloadedError("try later", retry_after=0.5)

        pep = PolicyEnforcementPoint(OverloadedPDP(), SimulatedClock())
        with pytest.raises(PDPOverloadedError) as excinfo:
            pep.request_decision(
                "ivan", [TELLER], "handleCash", "till://1", YORK_P1
            )
        assert excinfo.value.retry_after == 0.5
