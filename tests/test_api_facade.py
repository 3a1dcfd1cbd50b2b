"""Tests for repro.api: the uniform open_pdp/open_server construction."""

import dataclasses

import pytest

from repro.api import LocalPDP, ServerHandle, open_pdp, open_server
from repro.core import (
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDPolicy,
    MSoDPolicySet,
    Role,
)
from repro.errors import PolicyError
from repro.framework.pdp import PolicyDecisionPoint
from repro.obs import Recorder

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


def make_request(user, role, index=0):
    operation, target = (
        ("handleCash", "till://1") if role is TELLER else ("auditBooks", "l://1")
    )
    return DecisionRequest(
        user_id=user,
        roles=(role,),
        operation=operation,
        target=target,
        context_instance=ContextName.parse("Branch=York, Period=P1"),
        timestamp=float(index),
        request_id=f"req-{user}-{index}",
    )


class TestOpenPDPLocal:
    def test_memory_pdp_decides_and_closes(self):
        with open_pdp(bank_policy_set()) as pdp:
            assert isinstance(pdp, LocalPDP)
            assert isinstance(pdp, PolicyDecisionPoint)
            assert pdp.decide(make_request("alice", TELLER, 0)).granted
            denied = pdp.decide(make_request("alice", AUDITOR, 1))
            assert not denied.granted

    def test_sqlite_pdp(self, tmp_path):
        path = tmp_path / "adi.db"
        with open_pdp(bank_policy_set(), store=f"sqlite:{path}") as pdp:
            assert pdp.decide(make_request("alice", TELLER, 0)).granted
        # The store survives the handle: a second "session" sees history.
        with open_pdp(bank_policy_set(), store=f"sqlite:{path}") as pdp:
            assert not pdp.decide(make_request("alice", AUDITOR, 1)).granted

    def test_policy_file_path(self, tmp_path):
        from repro.xmlpolicy import write_policy_set

        path = tmp_path / "policy.xml"
        path.write_text(write_policy_set(bank_policy_set()), encoding="utf-8")
        with open_pdp(str(path)) as pdp:
            assert pdp.decide(make_request("alice", TELLER)).granted

    def test_caller_provided_store_is_not_closed(self):
        store = InMemoryRetainedADIStore()
        with open_pdp(bank_policy_set(), store=store) as pdp:
            decision = pdp.decide(make_request("alice", TELLER))
        # Still usable after the handle closed: the caller owns it.
        assert store.count() == decision.records_added > 0

    def test_perf_recorder_threads_through(self):
        perf = Recorder()
        with open_pdp(bank_policy_set(), perf=perf) as pdp:
            assert pdp.perf is perf
            pdp.decide(make_request("alice", TELLER))
        assert perf.counter("engine.requests") == 1

    def test_trace_enables_tracer_and_slow_log(self):
        with open_pdp(bank_policy_set(), trace=True, slowlog_capacity=4) as pdp:
            assert pdp.perf.tracing
            decision = pdp.decide(make_request("alice", TELLER))
            assert decision.trace is not None
            assert len(pdp.slow_log.snapshot()) == 1

    def test_untraced_by_default(self):
        with open_pdp(bank_policy_set()) as pdp:
            assert not pdp.perf.enabled
            assert pdp.slow_log is None
            assert pdp.decide(make_request("alice", TELLER)).trace is None

    def test_close_is_idempotent(self):
        pdp = open_pdp(bank_policy_set())
        pdp.close()
        pdp.close()

    def test_notify_context_terminated_forwards(self):
        with open_pdp(bank_policy_set()) as pdp:
            decision = pdp.decide(make_request("alice", TELLER))
            purged = pdp.notify_context_terminated(
                ContextName.parse("Branch=York, Period=P1")
            )
            assert purged == decision.records_added > 0
            assert pdp.store.count() == 0


class TestSpecErrors:
    def test_rejects_unknown_store(self):
        with pytest.raises(PolicyError):
            open_pdp(bank_policy_set(), store="redis:foo")

    def test_rejects_missing_sqlite_path(self):
        with pytest.raises(PolicyError):
            open_pdp(bank_policy_set(), store="sqlite:")

    def test_rejects_bad_remote_specs(self):
        for spec in ("remote:", "remote:host", "remote:host:notaport"):
            with pytest.raises(PolicyError):
                open_pdp(store=spec)

    def test_remote_rejects_policy_and_trace(self):
        with pytest.raises(PolicyError):
            open_pdp(bank_policy_set(), store="remote:localhost:1")
        with pytest.raises(PolicyError):
            open_pdp(store="remote:localhost:1", trace=True)

    def test_rejects_non_policy(self):
        with pytest.raises(PolicyError):
            open_pdp(42)

    def test_open_server_rejects_remote_store(self):
        with pytest.raises(PolicyError):
            open_server(bank_policy_set(), store="remote:localhost:1")


class TestOpenServer:
    def test_server_round_trip_with_remote_open_pdp(self):
        with open_server(bank_policy_set(), n_shards=2) as server:
            assert isinstance(server, ServerHandle)
            assert server.port > 0
            spec = f"remote:{server.host}:{server.port}"
            with open_pdp(store=spec) as pdp:
                assert pdp.decide(make_request("alice", TELLER, 0)).granted
                assert not pdp.decide(make_request("alice", AUDITOR, 1)).granted

    def test_client_shortcut_and_engine_access(self):
        with open_server(bank_policy_set()) as server:
            with server.client() as pdp:
                decision = pdp.decide(make_request("bob", TELLER))
            assert server.engine.store.count() == decision.records_added > 0
            assert server.service.n_shards == 4

    def test_close_is_idempotent(self):
        server = open_server(bank_policy_set())
        server.close()
        server.close()

    def test_sqlite_store_closed_with_server(self, tmp_path):
        path = tmp_path / "adi.db"
        with open_server(bank_policy_set(), store=f"sqlite:{path}") as server:
            with server.client() as pdp:
                pdp.decide(make_request("alice", TELLER))
        assert path.exists()


class TestPackageLazyExports:
    def test_root_exports_resolve(self):
        import repro

        assert repro.open_pdp is open_pdp
        assert repro.open_server is open_server
        assert "open_pdp" in dir(repro)

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing


class TestUniformLifecycle:
    """Satellite (b): one lifecycle contract on every PDP implementation."""

    def test_reference_pdp_lifecycle(self):
        from repro.core import MSoDEngine, Privilege
        from repro.framework.pdp import (
            ReferenceRBACMSoDPDP,
            RoleTargetAccessPolicy,
        )

        access = RoleTargetAccessPolicy(
            {TELLER: [Privilege("handleCash", "till://1")]}
        )
        engine = MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore())
        engine_pdp = ReferenceRBACMSoDPDP(access, engine)
        with engine_pdp as pdp:
            assert pdp.perf is not None
            assert pdp.decide(make_request("alice", TELLER)).granted
        engine_pdp.close()  # idempotent

    def test_local_pdp_decision_equality_traced_vs_untraced(self, tmp_path):
        # Recorder off / counting / tracing, on every store spec.
        specs = [
            lambda name: "memory",
            lambda name: f"sqlite:{tmp_path / name}.db",
            lambda name: "tiered:memory?hot_users=2&shards=2",
        ]
        for spec in specs:
            plain = open_pdp(bank_policy_set())
            counted = open_pdp(bank_policy_set(), spec("counted"), perf=Recorder())
            traced = open_pdp(bank_policy_set(), spec("traced"), trace=True)
            try:
                for index, (user, role) in enumerate(
                    [("alice", TELLER), ("alice", AUDITOR), ("bob", AUDITOR)]
                ):
                    request = make_request(user, role, index)
                    expected = plain.decide(request)
                    assert counted.decide(request) == expected
                    got = traced.decide(request)
                    assert got == expected
                    assert got.trace is not None
                    assert dataclasses.replace(got, trace=None) == expected
            finally:
                plain.close()
                counted.close()
                traced.close()
