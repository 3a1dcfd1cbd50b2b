"""Tests for :mod:`repro.cluster`: ring, fencing, journal, routing.

The failover fault-injection test lives in
``tests/test_cluster_failover.py``; this module covers the building
blocks — the consistent-hash ring, a single node's role/epoch gate and
exactly-once journal, audit-log-shipped standby replication and the
routing client against a healthy cluster.
"""

import time

import pytest

from repro.audit import EVENT_DECISION, decision_event_payload
from repro.audit.trail import AuditTrailManager
from repro.client import RemotePDP
from repro.cluster import (
    ROLE_PRIMARY,
    ROLE_STANDBY,
    ClusterNode,
    ClusterPDP,
    HashRing,
    LocalCluster,
)
from repro.cluster.node import _BoundedJournal
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
from repro.errors import (
    AuditTrailError,
    ClusterError,
    PDPFencedError,
    PDPNotPrimaryError,
    PDPUnavailableError,
    ProtocolError,
)
from repro.workload import AUDITOR, TELLER, bank_policy_set
from repro.xmlpolicy import bank_policy_set as last_step_bank_policy_set
from tests.cluster_oracle import store_digest

YORK_P1 = ContextName.parse("Branch=York, Period=P1")


def make_request(user_id, role=TELLER, context=YORK_P1, timestamp=1.0,
                 request_id=None):
    operation, target = (
        ("handleCash", "till://1")
        if role == TELLER
        else ("auditBooks", "ledger://1")
    )
    kwargs = {} if request_id is None else {"request_id": request_id}
    return DecisionRequest(
        user_id=user_id,
        roles=(role,),
        operation=operation,
        target=target,
        context_instance=context,
        timestamp=timestamp,
        **kwargs,
    )


def make_commit_audit(user_id, request_id, context=YORK_P1, timestamp=3.0):
    """The Example-1 bank policy's last step, which purges ``context``."""
    return DecisionRequest(
        user_id=user_id,
        roles=(AUDITOR,),
        operation="CommitAudit",
        target="http://audit.location.com/audit",
        context_instance=context,
        timestamp=timestamp,
        request_id=request_id,
    )


# ----------------------------------------------------------------------
class TestHashRing:
    def test_same_inputs_same_mapping(self):
        users = [f"u{i}" for i in range(200)]
        ring_a = HashRing(["s0", "s1", "s2"])
        ring_b = HashRing(["s0", "s1", "s2"])
        assert [ring_a.shard_for(u) for u in users] == [
            ring_b.shard_for(u) for u in users
        ]

    def test_shard_order_is_irrelevant(self):
        users = [f"u{i}" for i in range(200)]
        ring_a = HashRing(["s0", "s1", "s2"])
        ring_b = HashRing(["s2", "s0", "s1"])
        assert [ring_a.shard_for(u) for u in users] == [
            ring_b.shard_for(u) for u in users
        ]

    def test_every_shard_gets_users(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        counts = ring.distribution(f"u{i:04d}" for i in range(1000))
        assert set(counts) == set(ring.shard_names)
        assert all(count > 0 for count in counts.values())
        assert sum(counts.values()) == 1000

    def test_rejects_bad_shard_lists(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing([""])
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)

    def test_single_shard_takes_everything(self):
        ring = HashRing(["only"])
        assert ring.shard_for("anyone") == "only"


# ----------------------------------------------------------------------
@pytest.fixture
def primary_node(tmp_path):
    node = ClusterNode(
        "n1",
        "s0",
        bank_policy_set(),
        InMemoryRetainedADIStore(),
        str(tmp_path / "trails"),
        b"test-key",
        role=ROLE_PRIMARY,
        epoch=1,
        fsync=False,
    )
    node.start()
    yield node
    node.stop()


class TestClusterNodeGate:
    def test_primary_decides(self, primary_node):
        with RemotePDP(primary_node.host, primary_node.port) as pdp:
            decision = pdp.decide(make_request("alice"), epoch=1)
        assert decision.granted

    def test_standby_refuses_decides(self, primary_node):
        primary_node.demote()
        with RemotePDP(primary_node.host, primary_node.port) as pdp:
            with pytest.raises(PDPNotPrimaryError):
                pdp.decide(make_request("alice"))

    def test_stale_epoch_is_fenced(self, primary_node):
        primary_node.promote(epoch=3)
        with RemotePDP(primary_node.host, primary_node.port) as pdp:
            with pytest.raises(PDPFencedError):
                pdp.decide(make_request("alice"), epoch=2)
            # Claiming no epoch at all is allowed (plain RemotePDP use).
            assert pdp.decide(make_request("alice"), epoch=None).granted

    def test_health_reports_cluster_identity(self, primary_node):
        with RemotePDP(primary_node.host, primary_node.port) as pdp:
            body = pdp.healthz()
        cluster = dict(body["cluster"])
        policy_digest = cluster.pop("policy_digest")
        assert len(policy_digest) == 64
        assert cluster == {
            "node": "n1",
            "shard": "s0",
            "role": ROLE_PRIMARY,
            "epoch": 1,
            "policy_epoch": 1,
        }


class TestExactlyOnceJournal:
    def test_duplicate_request_id_returns_recorded_outcome(
        self, primary_node
    ):
        request = make_request("alice", request_id="req-dup-1")
        with RemotePDP(primary_node.host, primary_node.port) as pdp:
            first = pdp.decide(request)
            again = pdp.decide(request)
        assert first.effect == again.effect == "grant"
        # The retry was answered from the journal, not re-evaluated:
        # the store holds the records exactly once.
        records = [
            r
            for r in primary_node.store.records()
            if r.request_id == "req-dup-1"
        ]
        assert len(records) == len(first.adi_adds)

    def test_denies_are_journaled_too(self, primary_node):
        with RemotePDP(primary_node.host, primary_node.port) as pdp:
            pdp.decide(make_request("bob", TELLER, timestamp=1.0))
            denied = make_request(
                "bob", AUDITOR, timestamp=2.0, request_id="req-deny-1"
            )
            first = pdp.decide(denied)
            again = pdp.decide(denied)
        assert first.effect == again.effect == "deny"

    def test_request_id_collision_is_rejected(self, primary_node):
        with RemotePDP(primary_node.host, primary_node.port) as pdp:
            pdp.decide(make_request("alice", request_id="req-shared"))
            with pytest.raises(ProtocolError, match="already used"):
                pdp.decide(make_request("carol", request_id="req-shared"))

    def test_a_retried_deny_is_the_first_answer(self, primary_node):
        with RemotePDP(primary_node.host, primary_node.port) as pdp:
            pdp.decide(make_request("dave", TELLER, timestamp=1.0))
            denied = make_request(
                "dave", AUDITOR, timestamp=2.0, request_id="req-deny-2"
            )
            first = pdp.decide(denied)
            again = pdp.decide(denied)
        assert first.denied and first.violation is not None
        assert again == first

    def test_a_retried_last_step_grant_is_the_first_answer(self, tmp_path):
        node = ClusterNode(
            "n1",
            "s0",
            last_step_bank_policy_set(),
            InMemoryRetainedADIStore(),
            str(tmp_path / "trails"),
            b"test-key",
            role=ROLE_PRIMARY,
            epoch=1,
            fsync=False,
        )
        node.start()
        try:
            with RemotePDP(node.host, node.port) as pdp:
                pdp.decide(make_request("erin", TELLER, timestamp=1.0))
                last = make_commit_audit("frank", "req-commit-1")
                first = pdp.decide(last)
                again = pdp.decide(last)
        finally:
            node.stop()
        assert first.granted and first.records_purged > 0
        assert again == first

    def test_a_retry_after_failover_is_the_trail_record(self, tmp_path):
        """The promoted standby answers from the trail's record: every
        field the trail holds, no violation object, no purge count, and
        the request without its environment."""
        cluster = LocalCluster(
            last_step_bank_policy_set(),
            1,
            str(tmp_path / "cluster"),
            store="memory",
            health_interval=30.0,
            catchup_interval=30.0,
            fsync=False,
        ).start()
        try:
            shard = cluster.shard_names[0]
            requests = [
                make_request("gina", TELLER, timestamp=1.0)._replace(
                    environment={"terminal": "t1"}
                ),
                make_request("gina", AUDITOR, timestamp=2.0),
                make_commit_audit("hank", "req-commit-2"),
            ]
            primary = cluster.shard(shard).primary
            with RemotePDP(primary.host, primary.port) as pdp:
                firsts = [pdp.decide(request) for request in requests]
            cluster.promote(shard)
            primary = cluster.shard(shard).primary
            with RemotePDP(primary.host, primary.port) as pdp:
                agains = [pdp.decide(request) for request in requests]
        finally:
            cluster.stop()
        assert [first.effect for first in firsts] == ["grant", "deny", "grant"]
        assert firsts[2].records_purged > 0
        for first, again in zip(firsts, agains):
            assert again == first._replace(
                request=first.request._replace(environment={}),
                violation=None,
                records_purged=0,
            )


# ----------------------------------------------------------------------
class TestStandbyReplication:
    def test_catch_up_replays_the_primary_trail(self, tmp_path):
        policy_set = bank_policy_set()
        primary = ClusterNode(
            "p",
            "s0",
            policy_set,
            InMemoryRetainedADIStore(),
            str(tmp_path / "p-trails"),
            b"k",
            role=ROLE_PRIMARY,
            epoch=1,
            fsync=False,
        )
        standby = ClusterNode(
            "b",
            "s0",
            policy_set,
            InMemoryRetainedADIStore(),
            str(tmp_path / "b-trails"),
            b"k",
            role=ROLE_STANDBY,
        )
        primary.start()
        try:
            with RemotePDP(primary.host, primary.port) as pdp:
                for i in range(20):
                    role = TELLER if i % 3 else AUDITOR
                    pdp.decide(
                        make_request(f"u{i % 5}", role, timestamp=float(i))
                    )
        finally:
            primary.stop()
        standby.catch_up(primary.trail_dir)
        assert store_digest(standby.store) == store_digest(primary.store)
        assert standby.journal_size == primary.journal_size

        # Replay is idempotent: a second (and third) tick changes nothing.
        standby.catch_up(primary.trail_dir)
        standby.catch_up(primary.trail_dir)
        assert store_digest(standby.store) == store_digest(primary.store)

    def test_idle_catch_up_tick_never_scans_the_store(
        self, tmp_path, monkeypatch
    ):
        # A standby ticks every few hundred ms; a tick whose new tail
        # holds no grant must cost O(new tail) on the store side too.
        policy_set = bank_policy_set()
        primary_trails = AuditTrailManager(str(tmp_path / "p-trails"), b"k")
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        for i in range(6):
            decision = engine.check(
                make_request(f"u{i % 2}", TELLER, timestamp=float(i))
            )
            primary_trails.append(
                EVENT_DECISION,
                float(i),
                decision_event_payload(decision),
            )
        standby = ClusterNode(
            "b",
            "s0",
            policy_set,
            InMemoryRetainedADIStore(),
            str(tmp_path / "b-trails"),
            b"k",
        )
        scans = []
        original = standby.store.records
        monkeypatch.setattr(
            standby.store,
            "records",
            lambda: scans.append(1) or original(),
        )
        first = standby.catch_up(primary_trails.directory)
        assert first.records_replayed > 0
        assert len(scans) == 1  # the multiset, built at the first add
        second = standby.catch_up(primary_trails.directory)
        assert second.events_scanned == 0
        assert len(scans) == 1  # the idle tick added no scan
        assert store_digest(standby.store) == store_digest(engine.store)

    def test_catch_up_mirrors_grants_from_every_policy_epoch(self, tmp_path):
        # The standby boots on the primary's *second* set, which matches
        # none of the contexts the primary granted under its first.
        def exclusive(pattern):
            return MSoDPolicySet(
                [
                    MSoDPolicy(
                        ContextName.parse(pattern),
                        mmers=[MMER([TELLER, AUDITOR], 2)],
                    )
                ]
            )

        primary_trails = AuditTrailManager(str(tmp_path / "p-trails"), b"k")
        engine = MSoDEngine(
            exclusive("Branch=*, Period=!"), InMemoryRetainedADIStore()
        )
        contexts = ["Branch=York, Period=P1", "Branch=Hull, Period=P1"]
        for stamp, context in enumerate(contexts):
            decision = engine.check(
                make_request(
                    "u0",
                    context=ContextName.parse(context),
                    timestamp=float(stamp),
                )
            )
            primary_trails.append(
                EVENT_DECISION, float(stamp), decision_event_payload(decision)
            )
        second = exclusive("Filing=*, Case=!")
        engine.swap_policy(second)
        decision = engine.check(
            make_request(
                "u1", context=ContextName.parse("Filing=F1, Case=C1"),
                timestamp=9.0,
            )
        )
        primary_trails.append(
            EVENT_DECISION, 9.0, decision_event_payload(decision)
        )
        standby = ClusterNode(
            "b",
            "s0",
            second,
            InMemoryRetainedADIStore(),
            str(tmp_path / "b-trails"),
            b"k",
        )
        standby.catch_up(primary_trails.directory)
        assert engine.store.count() > 2
        assert store_digest(standby.store) == store_digest(engine.store)

    def test_max_events_seals_the_lineage(self, tmp_path):
        policy_set = bank_policy_set()
        primary = ClusterNode(
            "p",
            "s0",
            policy_set,
            InMemoryRetainedADIStore(),
            str(tmp_path / "p-trails"),
            b"k",
            role=ROLE_PRIMARY,
            epoch=1,
            fsync=False,
        )
        primary.start()
        try:
            with RemotePDP(primary.host, primary.port) as pdp:
                for i in range(10):
                    pdp.decide(
                        make_request(
                            f"u{i}",
                            TELLER,
                            context=ContextName.parse(
                                f"Branch=B{i}, Period=P1"
                            ),
                            timestamp=float(i),
                        )
                    )
        finally:
            primary.stop()
        total = len(
            list(AuditTrailManager(primary.trail_dir, b"k").events())
        )
        standby = ClusterNode(
            "b",
            "s0",
            policy_set,
            InMemoryRetainedADIStore(),
            str(tmp_path / "b-trails"),
            b"k",
        )
        standby.catch_up(primary.trail_dir, max_events=total - 4)
        assert standby.journal_size == primary.journal_size - 4


# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def quiet_cluster(tmp_path_factory):
    """A healthy 2-shard cluster with background loops slowed to a crawl."""
    cluster = LocalCluster(
        bank_policy_set(),
        2,
        str(tmp_path_factory.mktemp("cluster")),
        store="memory",
        health_interval=30.0,
        catchup_interval=30.0,
        fsync=False,
    ).start()
    yield cluster
    cluster.stop()


class TestLocalClusterRouting:
    def test_decides_land_on_the_ring_shard(self, quiet_cluster):
        users = [f"user-{i}" for i in range(24)]
        with ClusterPDP((quiet_cluster.host, quiet_cluster.port)) as pdp:
            for i, user in enumerate(users):
                decision = pdp.decide(
                    make_request(user, timestamp=float(i))
                )
                assert decision.granted
        for shard_name in quiet_cluster.shard_names:
            primary = quiet_cluster.shard(shard_name).primary
            stored_users = {r.user_id for r in primary.store.records()}
            expected = {
                u
                for u in users
                if quiet_cluster.ring.shard_for(u) == shard_name
            }
            assert stored_users == expected

    def test_status_and_route_shapes(self, quiet_cluster):
        with ClusterPDP((quiet_cluster.host, quiet_cluster.port)) as pdp:
            route = pdp.route()
            status = pdp.cluster_status()
        assert set(route["shards"]) == set(quiet_cluster.shard_names)
        for entry in route["shards"].values():
            host, port = entry["address"]
            assert isinstance(host, str) and port > 0
            assert entry["epoch"] >= 1
        for shard in status["shards"].values():
            roles = {node["role"] for node in shard["nodes"]}
            assert roles == {ROLE_PRIMARY, ROLE_STANDBY}
            assert shard["failovers"] == 0

    def test_coordinator_metrics_expose_per_node_gauges(self, quiet_cluster):
        with ClusterPDP((quiet_cluster.host, quiet_cluster.port)) as pdp:
            text = pdp.cluster_metrics_text()
        for family in (
            "repro_cluster_node_up",
            "repro_cluster_node_primary",
            "repro_cluster_node_epoch",
            "repro_cluster_route_version",
            "repro_cluster_failovers_total",
        ):
            assert family in text
        with ClusterPDP((quiet_cluster.host, quiet_cluster.port)) as pdp:
            node_text = pdp.node_metrics_text("user-1")
        assert "repro_shard_queue_depth" in node_text

    def test_healthz_passthrough_names_the_owning_node(self, quiet_cluster):
        with ClusterPDP((quiet_cluster.host, quiet_cluster.port)) as pdp:
            body = pdp.healthz("user-1")
        shard = quiet_cluster.ring.shard_for("user-1")
        assert body["cluster"]["shard"] == shard
        assert body["cluster"]["role"] == ROLE_PRIMARY


class TestClusterPDPConstruction:
    def test_needs_exactly_one_of_coordinator_and_static_route(self):
        with pytest.raises(ClusterError):
            ClusterPDP()
        with pytest.raises(ClusterError):
            ClusterPDP(
                ("127.0.0.1", 1), static_route={"shards": {"s": {}}}
            )

    def test_static_route_works_without_a_coordinator(self, quiet_cluster):
        route = LocalClusterRouteProbe(quiet_cluster).route()
        with ClusterPDP(static_route=route) as pdp:
            assert pdp.decide(
                make_request("static-user", timestamp=99.0)
            ).granted

    def test_static_route_errors_surface_immediately(self):
        route = {
            "version": 1,
            "vnodes": 8,
            "shards": {
                "s0": {"address": ["127.0.0.1", 1], "epoch": 1},
            },
        }
        with ClusterPDP(static_route=route, timeout=0.5) as pdp:
            with pytest.raises(PDPUnavailableError):
                pdp.decide(make_request("anyone"))

    def test_malformed_route_is_rejected(self):
        with pytest.raises(ClusterError):
            ClusterPDP(static_route={"shards": {}})


class LocalClusterRouteProbe:
    """Fetch a cluster's route the way an operator would (one request)."""

    def __init__(self, cluster):
        self._cluster = cluster

    def route(self):
        with ClusterPDP(
            (self._cluster.host, self._cluster.port)
        ) as pdp:
            return pdp.route()


# ----------------------------------------------------------------------
class TestOpenClusterFacade:
    def test_open_cluster_round_trip(self, tmp_path):
        from repro.api import open_cluster

        with open_cluster(
            bank_policy_set(),
            str(tmp_path / "cluster"),
            n_shards=2,
            store="memory",
            health_interval=30.0,
            fsync=False,
        ) as handle:
            assert len(handle.shard_names) == 2
            with handle.client() as pdp:
                assert pdp.decide(make_request("facade-user")).granted
            status = handle.status()
            assert set(status["shards"]) == set(handle.shard_names)

    def test_open_cluster_rejects_unknown_store(self, tmp_path):
        from repro.api import open_cluster
        from repro.errors import PolicyError

        with pytest.raises(PolicyError):
            open_cluster(
                bank_policy_set(), str(tmp_path / "x"), store="bogus"
            )


# ----------------------------------------------------------------------
class TestBoundedJournal:
    def test_fifo_eviction_beyond_cap(self):
        journal = _BoundedJournal(3)
        for n in range(5):
            journal[f"req-{n}"] = {"n": n}
        assert len(journal) == 3
        assert list(journal) == ["req-2", "req-3", "req-4"]

    def test_reinsert_moves_to_back(self):
        journal = _BoundedJournal(2)
        journal["a"] = {"n": 0}
        journal["b"] = {"n": 1}
        journal["a"] = {"n": 2}  # hot id refreshed, now newest
        journal["c"] = {"n": 3}  # evicts b, the oldest
        assert list(journal) == ["a", "c"]

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ClusterError):
            _BoundedJournal(0)

    def test_node_journal_respects_cap_and_still_dedupes(self, tmp_path):
        node = ClusterNode(
            "n1",
            "s0",
            bank_policy_set(),
            InMemoryRetainedADIStore(),
            str(tmp_path / "trails"),
            b"test-key",
            role=ROLE_PRIMARY,
            epoch=1,
            fsync=False,
            journal_max=5,
        )
        node.start()
        try:
            with RemotePDP(node.host, node.port) as pdp:
                for i in range(8):
                    pdp.decide(
                        make_request(
                            f"u{i}",
                            timestamp=float(i),
                            request_id=f"req-{i}",
                        )
                    )
                assert node.journal_size == 5
                # A recent request_id still short-circuits to the
                # recorded outcome instead of a second evaluation.
                first = pdp.decide(
                    make_request("u7", timestamp=7.0, request_id="req-7")
                )
                assert first.records_added == 1
                assert node.journal_size == 5
        finally:
            node.stop()


# ----------------------------------------------------------------------
class TestCoordinatorLoopResilience:
    def _one_shard_cluster(self, tmp_path, **overrides):
        options = dict(
            store="memory",
            health_interval=30.0,
            catchup_interval=30.0,
            fsync=False,
        )
        options.update(overrides)
        return LocalCluster(
            bank_policy_set(), 1, str(tmp_path / "cluster"), **options
        ).start()

    def test_catchup_loop_survives_tick_errors(self, tmp_path):
        cluster = self._one_shard_cluster(tmp_path, catchup_interval=0.05)
        try:
            state = cluster.shard("shard-0")
            original = state.standby.catch_up
            calls = []

            def flaky(*args, **kwargs):
                calls.append(len(calls))
                if len(calls) <= 2:
                    raise AuditTrailError("simulated replay failure")
                return original(*args, **kwargs)

            state.standby.catch_up = flaky
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and len(calls) < 4:
                time.sleep(0.05)
            # The loop outlived the failing ticks and kept replaying.
            assert len(calls) >= 4
            assert cluster.status()["loop_errors"]["catchup"] >= 2
        finally:
            cluster.stop()

    def test_health_loop_survives_promote_failure(self, tmp_path):
        cluster = self._one_shard_cluster(
            tmp_path,
            health_interval=0.05,
            health_timeout=0.2,
            health_failures=1,
        )
        try:
            state = cluster.shard("shard-0")
            standby = state.standby
            original = standby.catch_up
            failing = {"on": True}

            def flaky(*args, **kwargs):
                if failing["on"]:
                    raise AuditTrailError("simulated standby glitch")
                return original(*args, **kwargs)

            standby.catch_up = flaky
            cluster.kill_primary("shard-0")
            deadline = time.monotonic() + 10.0
            while (
                time.monotonic() < deadline
                and cluster.status()["loop_errors"]["health"] < 2
            ):
                time.sleep(0.05)
            # Promotion failed repeatedly but the loop is still alive
            # and still trying...
            assert cluster.status()["loop_errors"]["health"] >= 2
            assert state.failovers == 0
            # ...so once the fault clears, failover completes.
            failing["on"] = False
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and state.failovers < 1:
                time.sleep(0.05)
            assert state.failovers >= 1
            assert state.primary is standby
            assert state.primary.role == ROLE_PRIMARY
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
class TestClientRetryDiscipline:
    def test_post_send_failure_is_not_resent_into_the_same_lineage(
        self, tmp_path
    ):
        cluster = LocalCluster(
            bank_policy_set(),
            1,
            str(tmp_path / "cluster"),
            store="memory",
            health_interval=30.0,
            catchup_interval=30.0,
            fsync=False,
        ).start()
        try:
            with ClusterPDP(
                (cluster.host, cluster.port),
                failover_wait=0.6,
                retry_interval=0.05,
            ) as pdp:
                sent = []

                class PostSendFailing:
                    def decide(self, request, *, epoch=None):
                        sent.append(request.request_id)
                        raise PDPUnavailableError(
                            "PDP transport failure: timed out"
                        )

                pdp.route()  # install the routing table first
                pdp._pdp_for = lambda address: PostSendFailing()
                with pytest.raises(PDPUnavailableError):
                    pdp.decide(make_request("stuck-user"))
                # The epoch never advanced, so the request went out
                # exactly once: a resend could double-evaluate on a
                # live-but-slow primary.
                assert len(sent) == 1
        finally:
            cluster.stop()

    def test_post_send_failure_is_resent_after_epoch_bump(self, tmp_path):
        cluster = LocalCluster(
            bank_policy_set(),
            1,
            str(tmp_path / "cluster"),
            store="memory",
            health_interval=30.0,
            catchup_interval=0.05,
            fsync=False,
        ).start()
        try:
            with ClusterPDP(
                (cluster.host, cluster.port),
                failover_wait=10.0,
                retry_interval=0.05,
            ) as pdp:
                real_pdp_for = pdp._pdp_for
                first_send = {"pending": True}

                class FailsOnceAfterFailover:
                    def decide(self, request, *, epoch=None):
                        # Simulate: the frame went out, the primary
                        # stalled, and the operator forced failover.
                        cluster.promote("shard-0")
                        raise PDPUnavailableError(
                            "PDP transport failure: timed out"
                        )

                def patched(address):
                    if first_send["pending"]:
                        first_send["pending"] = False
                        return FailsOnceAfterFailover()
                    return real_pdp_for(address)

                pdp.route()
                pdp._pdp_for = patched
                decision = pdp.decide(make_request("bumped-user"))
                assert decision.granted
                assert cluster.shard("shard-0").epoch == 2
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
class TestForcedFailoverOfLivePrimary:
    def test_no_acknowledged_decision_is_dropped(self, tmp_path):
        """Operator-forced failover of a *live* primary (the documented
        public use of ``promote``): every decision acknowledged before
        the promote call must survive into the new primary, which only
        holds if the old primary is demoted before the seal is counted.
        """
        policy_set = bank_policy_set()
        cluster = LocalCluster(
            policy_set,
            1,
            str(tmp_path / "cluster"),
            store="memory",
            health_interval=30.0,
            catchup_interval=0.05,
            fsync=False,
        ).start()
        try:
            requests = [
                make_request(
                    f"user-{i % 7}",
                    TELLER if i % 3 else AUDITOR,
                    context=ContextName.parse(f"Branch=B{i % 4}, Period=P1"),
                    timestamp=float(i),
                )
                for i in range(30)
            ]
            from repro.core import MSoDEngine

            engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
            effects = []
            with ClusterPDP(
                (cluster.host, cluster.port), failover_wait=15.0
            ) as pdp:
                for index, request in enumerate(requests):
                    if index == len(requests) // 2:
                        cluster.promote("shard-0")
                    effects.append(pdp.decide(request).effect)
            assert effects == [engine.check(r).effect for r in requests]
            state = cluster.shard("shard-0")
            assert state.epoch == 2
            assert store_digest(state.primary.store) == store_digest(
                engine.store
            )
        finally:
            cluster.stop()
