"""Tests for the rollout gate (pipeline stage 3) and the cluster canary."""

import threading

import pytest

from repro.api import open_pdp
from repro.audit import (
    EVENT_DECISION,
    AuditTrailManager,
    decision_event_payload,
)
from repro.audit.trail import TrailFollower
from repro.cluster import ClusterPDP, LocalCluster
from repro.core import (
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Role,
)
from repro.errors import PolicyError
from repro.server.service import AuthorizationService
from repro.server.testing import ServerThread
from repro.verify import GateResult, evaluate_gate
from repro.workload import bank_policy_set
from tests.cluster_oracle import LiveLoad

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
MANAGER = Role("employee", "Manager")

KEY = b"gate-test-key"
YORK_P1 = ContextName.parse("Branch=York, Period=P1")


def policy_set(mmers, policy_id="bank"):
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=mmers,
                policy_id=policy_id,
            )
        ]
    )


def clean_set():
    return policy_set([MMER([TELLER, AUDITOR], 2)])


def broken_set():
    # The same constraint twice (modulo role order) is an error finding.
    return policy_set([MMER([TELLER, AUDITOR], 2), MMER([AUDITOR, TELLER], 2)])


def swapped_set():
    # Frees the Teller/Auditor pair: recorded MSoD denies flip to grants.
    return policy_set([MMER([TELLER, MANAGER], 2)])


def make_request(user_id, role=TELLER, context=YORK_P1, timestamp=1.0):
    operation, target = (
        ("handleCash", "till://1")
        if role == TELLER
        else ("auditBooks", "ledger://1")
    )
    return DecisionRequest(
        user_id=user_id,
        roles=(role,),
        operation=operation,
        target=target,
        context_instance=context,
        timestamp=timestamp,
    )


def record_trail(directory, requests):
    trails = AuditTrailManager(directory, KEY, fsync=False)
    engine = MSoDEngine(clean_set(), InMemoryRetainedADIStore())
    for request in requests:
        trails.append(
            EVENT_DECISION,
            request.timestamp,
            decision_event_payload(engine.check(request)),
        )


def reader(directory):
    return TrailFollower(directory, KEY).poll()


DENY_HISTORY = [
    make_request("alice", TELLER, timestamp=1.0),
    make_request("alice", AUDITOR, timestamp=2.0),  # MSoD deny
]


# ----------------------------------------------------------------------
class TestEvaluateGate:
    def test_clean_set_passes_without_a_trail(self):
        gate = evaluate_gate(clean_set())
        assert gate.ok
        assert gate.whatif is None
        assert gate.reasons == ()

    def test_error_findings_fail_the_gate(self):
        gate = evaluate_gate(broken_set())
        assert not gate.ok
        assert any("CONSTRAINT_DUPLICATE" in reason for reason in gate.reasons)

    def test_flips_over_budget_fail_the_gate(self, tmp_path):
        record_trail(str(tmp_path), DENY_HISTORY)
        gate = evaluate_gate(swapped_set(), events=reader(str(tmp_path)))
        assert not gate.ok
        assert gate.whatif.flip_count == 1
        assert any("budget 0" in reason for reason in gate.reasons)

    def test_flip_budget_admits_known_flips(self, tmp_path):
        record_trail(str(tmp_path), DENY_HISTORY)
        gate = evaluate_gate(
            swapped_set(), events=reader(str(tmp_path)), max_flips=1
        )
        assert gate.ok
        assert gate.whatif.flip_count == 1

    def test_round_trip(self, tmp_path):
        record_trail(str(tmp_path), DENY_HISTORY)
        gate = evaluate_gate(swapped_set(), events=reader(str(tmp_path)))
        assert GateResult.from_dict(gate.to_dict()) == gate


# ----------------------------------------------------------------------
class TestLocalPDPGate:
    def test_verified_reload_refuses_broken_set(self):
        with open_pdp(clean_set()) as pdp:
            with pytest.raises(PolicyError, match="verification gate"):
                pdp.reload_policy(broken_set(), verify=True)
            assert pdp.policy_version().epoch == 1

    def test_force_overrides_the_gate(self):
        with open_pdp(clean_set()) as pdp:
            report = pdp.reload_policy(broken_set(), verify=True, force=True)
            assert report.changed
            assert pdp.policy_version().epoch == 2

    def test_verified_reload_applies_a_clean_set(self):
        with open_pdp(clean_set()) as pdp:
            report = pdp.reload_policy(swapped_set(), verify=True)
            assert report.changed
            assert pdp.policy_version().epoch == 2


# ----------------------------------------------------------------------
@pytest.fixture
def trail_server(tmp_path):
    """A server that records its decisions to a replayable audit trail."""
    trail_dir = str(tmp_path / "trails")
    trails = AuditTrailManager(trail_dir, KEY, fsync=False)

    def audit_sink(decision):
        trails.append(
            EVENT_DECISION,
            decision.request.timestamp,
            decision_event_payload(decision),
        )

    def trail_reader():
        return TrailFollower(trail_dir, KEY).poll()

    engine = MSoDEngine(clean_set(), InMemoryRetainedADIStore())
    service = AuthorizationService(
        engine,
        n_shards=2,
        audit_sink=audit_sink,
        trail_reader=trail_reader,
    )
    with ServerThread(service, owns=[engine.store]) as server:
        yield server


class TestRemotePDPGate:
    def test_remote_gate_refuses_and_leaves_epoch_untouched(
        self, trail_server
    ):
        from repro.client import RemotePDP

        with RemotePDP(trail_server.host, trail_server.port) as pdp:
            for request in DENY_HISTORY:
                pdp.decide(request)
            # Static half: error findings refuse.
            with pytest.raises(PolicyError, match="verification gate"):
                pdp.reload_policy(broken_set(), verify=True)
            # Differential half: a flip over budget refuses.
            with pytest.raises(PolicyError, match="flips 1"):
                pdp.reload_policy(swapped_set(), verify=True, max_flips=0)
            assert pdp.policy_version().epoch == 1
            # Budgeting the known flip admits the same candidate.
            report = pdp.reload_policy(
                swapped_set(), verify=True, max_flips=1
            )
            assert report.changed
            assert pdp.policy_version().epoch == 2

    def test_remote_verify_and_whatif_verbs(self, trail_server):
        from repro.client import RemotePDP

        with RemotePDP(trail_server.host, trail_server.port) as pdp:
            for request in DENY_HISTORY:
                pdp.decide(request)
            body = pdp.verify_policy(broken_set())
            assert body["ok"] is False
            assert any(
                "CONSTRAINT_DUPLICATE" in str(f) for f in body["findings"]
            )
            whatif = pdp.what_if(swapped_set())
            assert whatif["flip_count"] == 1
            assert whatif["deny_to_grant"] == 1

    def test_verify_metrics_counters_render(self, trail_server):
        from repro.client import RemotePDP

        with RemotePDP(trail_server.host, trail_server.port) as pdp:
            for request in DENY_HISTORY:
                pdp.decide(request)
            pdp.verify_policy(broken_set())
            pdp.what_if(swapped_set())
            text = pdp.metrics_text()
        assert 'repro_verify_findings_total{severity="error"} 1' in text
        assert "repro_whatif_flips_total 1" in text

    def test_policy_status_surfaces_swap_findings(self, trail_server):
        from repro.client import RemotePDP

        redundant = policy_set(
            [MMER([TELLER, AUDITOR], 2), MMER([TELLER, AUDITOR, MANAGER], 2)]
        )
        with RemotePDP(trail_server.host, trail_server.port) as pdp:
            pdp.reload_policy(redundant, verify=True)
            status = pdp.policy_status()
        assert any(
            "MMER_REDUNDANT" in finding for finding in status["findings"]
        )


# ----------------------------------------------------------------------
@pytest.fixture
def gate_cluster(tmp_path):
    cluster = LocalCluster(
        bank_policy_set(),
        2,
        str(tmp_path / "cluster"),
        store="memory",
        health_interval=30.0,
        catchup_interval=30.0,
        fsync=False,
    ).start()
    yield cluster
    cluster.stop()


def versions(cluster):
    """Every node's ``(epoch, digest)``, keyed by node name."""
    return {
        node.name: (version.epoch, version.digest)
        for node in cluster.nodes()
        for version in [node.policy_version()]
    }


class TestClusterGate:
    def test_a_shard_added_after_a_reload_boots_the_live_set(self, tmp_path):
        """The joining shard runs the set the live nodes were reloaded
        to, not the one the cluster was built with: a user the cutover
        moves there keeps the live Teller/Manager separation."""
        cluster = LocalCluster(
            clean_set(),
            2,
            str(tmp_path / "grow"),
            store="memory",
            health_interval=30.0,
            catchup_interval=30.0,
            fsync=False,
        ).start()
        try:
            cluster.reload_policy(swapped_set())
            live = {digest for _, digest in versions(cluster).values()}
            joined = cluster.add_shard()
            cluster.wait_reshard(timeout=30.0)
            moved = next(
                f"user-{index}"
                for index in range(1000)
                if cluster.ring.shard_for(f"user-{index}") == joined
            )
            with ClusterPDP((cluster.host, cluster.port)) as pdp:
                assert pdp.decide(make_request(moved, TELLER, timestamp=1.0)).granted
                assert not pdp.decide(
                    make_request(moved, MANAGER, timestamp=2.0)
                ).granted
            assert len(live) == 1
            assert {digest for _, digest in versions(cluster).values()} == live
            assert {
                node["policy_digest"]
                for shard in cluster.status()["shards"].values()
                for node in shard["nodes"]
            } == live
        finally:
            cluster.stop()

    def test_reload_refuses_broken_set_before_touching_any_node(
        self, gate_cluster
    ):
        with pytest.raises(PolicyError, match="CONSTRAINT_DUPLICATE"):
            gate_cluster.reload_policy(broken_set())
        for node in gate_cluster.nodes():
            assert node.policy_version().epoch == 1

    def test_canary_rollout_applies_cluster_wide(self, gate_cluster):
        body = gate_cluster.canary_reload_policy(swapped_set())
        assert body["changed"]
        assert body["canary"]["replay"]["flip_count"] == 0
        for node in gate_cluster.nodes():
            assert node.policy_version().epoch == 2

    def test_canary_rejects_on_replay_flips_and_rolls_the_standby_back(
        self, gate_cluster
    ):
        # Build MSoD-deny history on one shard through the router.
        user = next(
            f"user-{index}"
            for index in range(1000)
            if gate_cluster.ring.shard_for(f"user-{index}")
            == gate_cluster.shard_names[0]
        )
        with ClusterPDP((gate_cluster.host, gate_cluster.port)) as pdp:
            assert pdp.decide(
                make_request(user, TELLER, timestamp=1.0)
            ).granted
            assert not pdp.decide(
                make_request(user, AUDITOR, timestamp=2.0)
            ).granted
        shard = gate_cluster.shard(gate_cluster.shard_names[0])
        before = versions(gate_cluster)
        with pytest.raises(PolicyError, match="canary rollout rejected"):
            gate_cluster.canary_reload_policy(
                swapped_set(),
                shard_name=gate_cluster.shard_names[0],
                max_flips=0,
                timeout=0.5,
            )
        assert versions(gate_cluster) == before
        # The rejected replay's flip is counted on the canary primary.
        text = shard.primary.service.metrics_text()
        assert "repro_whatif_flips_total 1" in text

    def test_canary_rejects_on_live_flips_and_rolls_the_standby_back(
        self, gate_cluster, monkeypatch
    ):
        """Until admission passes the load is Teller alone, which both
        sets grant, so the recorded history holds no flip.  Then each
        Teller is followed by a Manager in the same instance, which the
        bank set grants and the candidate's Teller/Manager MMER denies:
        only the observation window can reject the candidate."""
        import repro.verify.gate

        name = gate_cluster.shard_names[0]
        shard = gate_cluster.shard(name)
        user = next(
            f"user-{index}"
            for index in range(1000)
            if gate_cluster.ring.shard_for(f"user-{index}") == name
        )
        admitted, switched, reports = threading.Event(), [], []
        admit = repro.verify.gate.admit_reload
        what_if = shard.primary.service.what_if

        def admit_reload(*args, **kwargs):
            gate = admit(*args, **kwargs)
            admitted.set()
            return gate

        def replay(candidate):
            reports.append(what_if(candidate))
            return reports[-1]

        monkeypatch.setattr(repro.verify.gate, "admit_reload", admit_reload)
        monkeypatch.setattr(shard.primary.service, "what_if", replay)

        def probes(_, serial):
            context = ContextName.parse(f"Branch=Live, Period=L{serial}")
            roles = (TELLER,)
            if admitted.is_set():
                switched.append(serial)
                roles = (TELLER, MANAGER)
            return [
                make_request(user, role, context, float(serial))
                for role in roles
            ]

        before = versions(gate_cluster)
        candidate = policy_set(
            [MMER([TELLER, AUDITOR], 2), MMER([TELLER, MANAGER], 2)]
        )
        with ClusterPDP((gate_cluster.host, gate_cluster.port)) as pdp:
            with LiveLoad(pdp, probes) as load:
                load.wait_for(3)
                with pytest.raises(PolicyError, match="rollout rejected"):
                    gate_cluster.canary_reload_policy(
                        candidate,
                        shard_name=name,
                        min_decisions=4,
                        timeout=30.0,
                    )
        assert not load.errors
        [report] = reports
        assert report.decisions_replayed >= 3
        assert report.flip_count >= 1
        assert all(flip.timestamp >= min(switched) for flip in report.flips)
        assert versions(gate_cluster) == before

    def test_canary_window_counts_only_decisions_in_the_trail(
        self, gate_cluster, monkeypatch
    ):
        """Each audit append here lags the service's own count of the
        decision by 0.2 s.  The window must still end with its last
        decision in the trail, so the replay covers all of them."""
        import time

        import repro.verify.gate

        name = gate_cluster.shard_names[0]
        primary = gate_cluster.shard(name).primary
        user = next(
            f"user-{index}"
            for index in range(1000)
            if gate_cluster.ring.shard_for(f"user-{index}") == name
        )
        admitted = threading.Event()
        admit = repro.verify.gate.admit_reload
        append = primary._trails.append

        def admit_reload(*args, **kwargs):
            gate = admit(*args, **kwargs)
            admitted.set()
            return gate

        def slow_append(*args):
            time.sleep(0.2)
            append(*args)

        monkeypatch.setattr(repro.verify.gate, "admit_reload", admit_reload)
        monkeypatch.setattr(primary._trails, "append", slow_append)
        window, granted, errors = 3, [], []

        def load():
            try:
                admitted.wait(30.0)
                for serial in range(window):
                    context = ContextName.parse(f"Branch=Win, Period=W{serial}")
                    granted.append(
                        pdp.decide(
                            make_request(user, TELLER, context, float(serial))
                        ).granted
                    )
            except Exception as exc:  # reported by the asserts below
                errors.append(exc)

        with ClusterPDP((gate_cluster.host, gate_cluster.port)) as pdp:
            thread = threading.Thread(target=load)
            thread.start()
            try:
                body = gate_cluster.canary_reload_policy(
                    swapped_set(),
                    shard_name=name,
                    min_decisions=window,
                    timeout=30.0,
                )
            finally:
                thread.join(timeout=60.0)
        assert not thread.is_alive() and not errors
        assert granted == [True] * window
        assert body["canary"]["live_decisions"] == window
        assert body["canary"]["replay"]["decisions_replayed"] == window

    def test_canary_reads_its_primary_history_once(
        self, tmp_path, monkeypatch
    ):
        """The window starts at the trail's tip, so only the replay reads
        the recorded history: the first, sealed segment is read from
        its start exactly once during the rollout."""
        import os

        import repro.audit.trail

        cluster = LocalCluster(
            bank_policy_set(),
            2,
            str(tmp_path / "cluster"),
            store="memory",
            health_interval=30.0,
            catchup_interval=30.0,
            fsync=False,
            audit_max_records=3,
        ).start()
        try:
            name = cluster.shard_names[0]
            primary = cluster.shard(name).primary
            user = next(
                f"user-{index}"
                for index in range(1000)
                if cluster.ring.shard_for(f"user-{index}") == name
            )
            with ClusterPDP((cluster.host, cluster.port)) as pdp:
                for serial in range(7):
                    context = ContextName.parse(f"Branch=Hist, Period=H{serial}")
                    assert pdp.decide(
                        make_request(user, TELLER, context, float(serial))
                    ).granted
            first = os.path.join(primary.trail_dir, "audit-000000.log")
            assert os.path.exists(first)
            reads = []
            read_segment = repro.audit.trail._read_segment

            def counted(path, key, cursor):
                if path == first and cursor.offset == 0:
                    reads.append(path)
                return read_segment(path, key, cursor)

            monkeypatch.setattr(repro.audit.trail, "_read_segment", counted)
            body = cluster.canary_reload_policy(swapped_set(), shard_name=name)
        finally:
            cluster.stop()
        assert body["canary"]["replay"]["decisions_replayed"] == 7
        assert len(reads) == 1

    def test_canary_refuses_a_failed_replay_without_swapping(
        self, gate_cluster, monkeypatch
    ):
        """A replay that raises is a typed ``policy`` refusal: in process
        and over the wire, where the client does not retry it."""
        from repro.errors import AuditTrailError

        name = gate_cluster.shard_names[0]
        primary = gate_cluster.shard(name).primary

        def broken(candidate):
            raise AuditTrailError("trail hash chain broken")

        monkeypatch.setattr(primary.service, "what_if", broken)
        before = versions(gate_cluster)
        with pytest.raises(PolicyError, match="replay failed"):
            gate_cluster.canary_reload_policy(swapped_set(), shard_name=name)
        assert versions(gate_cluster) == before

        attempts = []
        rollout = gate_cluster.canary_reload_policy

        def counted(*args, **kwargs):
            attempts.append(args)
            return rollout(*args, **kwargs)

        monkeypatch.setattr(gate_cluster, "canary_reload_policy", counted)
        with ClusterPDP((gate_cluster.host, gate_cluster.port)) as pdp:
            with pytest.raises(PolicyError, match="replay failed"):
                pdp.reload_policy(swapped_set(), canary=True)
            assert len(attempts) == 1
            assert set(pdp.refresh_route()["shards"]) == set(
                gate_cluster.shard_names
            )
        assert versions(gate_cluster) == before

    def test_canary_on_a_dead_primary_is_a_typed_refusal_over_the_wire(
        self, tmp_path, monkeypatch
    ):
        """A refused rollout answers the client once and keeps serving.

        The coordinator must turn the executor's ``ClusterError`` into
        the error frame ``reshard`` sends for the same exception — not
        drop the connection, which makes the client re-run a retriable
        canary rollout until its attempts run out.
        """
        from repro.api import open_cluster
        from repro.errors import ProtocolError

        with open_cluster(
            bank_policy_set(),
            str(tmp_path / "cluster"),
            n_shards=2,
            store="memory",
            health_interval=3600.0,
            fsync=False,
        ) as handle:
            cluster = handle.cluster
            handle.kill_primary(handle.shard_names[0])
            attempts = []
            rollout = cluster.canary_reload_policy

            def counted(*args, **kwargs):
                attempts.append(args)
                return rollout(*args, **kwargs)

            monkeypatch.setattr(cluster, "canary_reload_policy", counted)
            with handle.client() as pdp:
                with pytest.raises(ProtocolError, match="no live primary"):
                    pdp.reload_policy(swapped_set(), canary=True)
                assert len(attempts) == 1
                assert set(pdp.cluster_status()["shards"]) == set(
                    handle.shard_names
                )
