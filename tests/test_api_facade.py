"""Tests for repro.api: the uniform open_pdp/open_server construction."""

import pytest

from repro.api import (
    ClusterHandle,
    LocalPDP,
    ServerHandle,
    open_cluster,
    open_pdp,
    open_server,
    verify_policy,
    what_if,
)
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

    def test_returns_the_started_server_thread(self):
        from repro.server import ServerThread

        server = open_server(bank_policy_set())
        runner = server._runner
        with server:  # entering starts nothing a second time
            assert isinstance(server, ServerThread)
            assert server._runner is runner is not None
        assert server._runner is None

    def test_reload_policy_accepts_a_path_and_xml_text(self, tmp_path):
        from repro.xmlpolicy import write_policy_set

        path = tmp_path / "freed.xml"
        path.write_text(write_policy_set(freed_policy_set()), encoding="utf-8")
        with open_server(bank_policy_set()) as server:
            assert server.reload_policy(str(path)).changed
            assert server.policy_version().epoch == 2
            xml = write_policy_set(freed_policy_set())
            assert not server.reload_policy(xml).changed
            assert server.reload_policy(
                write_policy_set(bank_policy_set())
            ).changed
            assert server.policy_version().epoch == 3


def freed_policy_set():
    """Frees the Teller/Auditor pair: recorded MSoD denies flip."""
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=[MMER([TELLER, Role("employee", "Manager")], 2)],
                policy_id="bank",
            )
        ]
    )


class TestSetupFailureClosesStore:
    """A store ``open_pdp``/``open_server`` built is closed again when a
    later setup step raises."""

    @pytest.fixture
    def closed(self, monkeypatch):
        import repro.api

        closed = []
        build = repro.api.build_store

        def spy(parsed, **kwargs):
            store, owns_store = build(parsed, **kwargs)
            close = store.close

            def recorded():
                closed.append(store)
                close()

            store.close = recorded
            return store, owns_store

        monkeypatch.setattr(repro.api, "build_store", spy)
        return closed

    def test_open_pdp_with_a_bad_mode(self, tmp_path, closed):
        with pytest.raises(PolicyError, match="mode"):
            open_pdp(
                bank_policy_set(), f"sqlite:{tmp_path / 'adi.db'}", mode="bogus"
            )
        assert len(closed) == 1

    def test_open_server_with_no_shards(self, tmp_path, closed):
        with pytest.raises(ValueError, match="n_shards"):
            open_server(
                bank_policy_set(), f"sqlite:{tmp_path / 'adi.db'}", n_shards=0
            )
        assert len(closed) == 1


class TestVerifyAndWhatIf:
    def test_verify_policy_takes_every_source(self, tmp_path):
        from repro.xmlpolicy import write_policy_set

        xml = write_policy_set(bank_policy_set())
        path = tmp_path / "policy.xml"
        path.write_text(xml, encoding="utf-8")
        for source in (bank_policy_set(), xml, str(path)):
            assert verify_policy(source).ok
        duplicated = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[
                        MMER([TELLER, AUDITOR], 2),
                        MMER([AUDITOR, TELLER], 2),
                    ],
                    policy_id="bank",
                )
            ]
        )
        report = verify_policy(duplicated)
        assert not report.ok
        assert any("CONSTRAINT_DUPLICATE" in str(f) for f in report.errors)
        with pytest.raises(PolicyError):
            verify_policy(None)

    def test_what_if_replays_a_trail_open_server_recorded(self, tmp_path):
        from repro.audit import AuditTrailManager

        trail_dir = str(tmp_path / "trails")
        with AuditTrailManager(trail_dir, b"facade-key") as trails:
            with open_server(bank_policy_set(), audit=trails) as server:
                with server.client() as pdp:
                    assert pdp.decide(make_request("alice", TELLER, 0)).granted
                    assert not pdp.decide(
                        make_request("alice", AUDITOR, 1)
                    ).granted
                # The verified reload replays the same trail server-side.
                with pytest.raises(PolicyError, match="flips 1"):
                    server.reload_policy(freed_policy_set(), verify=True)
                assert server.policy_version().epoch == 1
        assert trails.verify_all() == 2
        same = what_if(bank_policy_set(), trail_dir, audit_key=b"facade-key")
        assert same.decisions_replayed == 2 and same.flip_count == 0
        freed = what_if(freed_policy_set(), trail_dir, audit_key=b"facade-key")
        assert freed.flip_count == freed.deny_to_grant == 1


class TestOpenCluster:
    def test_returns_the_started_cluster(self, tmp_path):
        from repro.cluster import LocalCluster

        with open_cluster(
            bank_policy_set(),
            str(tmp_path / "cluster"),
            n_shards=1,
            fsync=False,
            health_interval=3600.0,
        ) as cluster:
            assert isinstance(cluster, LocalCluster)
            assert isinstance(cluster, ClusterHandle)
            assert cluster.cluster is cluster
            port, runner = cluster.port, cluster._runner
            assert cluster.start() is cluster  # idempotent
            assert (cluster.port, cluster._runner) == (port, runner)
            with cluster.client() as pdp:
                assert pdp.decide(make_request("alice", TELLER, 0)).granted

    def test_reload_policy_accepts_a_path_and_xml_text(self, tmp_path):
        from repro.xmlpolicy import write_policy_set

        path = tmp_path / "freed.xml"
        path.write_text(write_policy_set(freed_policy_set()), encoding="utf-8")
        with open_cluster(
            bank_policy_set(),
            str(tmp_path / "cluster"),
            n_shards=1,
            fsync=False,
            health_interval=3600.0,
        ) as cluster:
            assert cluster.reload_policy(str(path))["changed"]
            assert not cluster.reload_policy(
                write_policy_set(freed_policy_set())
            )["changed"]
            body = cluster.canary_reload_policy(
                write_policy_set(bank_policy_set())
            )
            assert body["changed"]
            assert {
                node.policy_version().epoch for node in cluster.nodes()
            } == {3}


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
            lambda name: f"tiered:sqlite:{tmp_path / name}-tier.db?hot_users=2&shards=2",
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
                    assert got._replace(trace=None) == expected
            finally:
                plain.close()
                counted.close()
                traced.close()
