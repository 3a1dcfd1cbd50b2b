"""Elastic resharding: ring diffs, the trail follower, migration state,
the rebalance planner and end-to-end online split/drain.

The fault-injection paths (coordinator crash plus source-primary kill
mid-migration) live in ``test_reshard_failover.py``; this module covers
the fault-free machinery.
"""

import json
import os
import threading
import time

import pytest

from repro.audit.trail import (
    EVENT_DECISION,
    AuditTrailManager,
    TrailFollower,
)
from repro.cluster import (
    HashRing,
    LocalCluster,
    Migration,
    RingDiff,
    plan_rebalance,
)
from repro.cluster.client import ClusterPDP
from repro.cluster.reshard import KIND_SPLIT, PHASE_CUTOVER
from repro.core import (
    MMER,
    ContextName,
    DecisionRequest,
    MSoDPolicy,
    MSoDPolicySet,
    Role,
    store_digest,
)
from repro.errors import AuditTrailError, ClusterError, ProtocolError
from repro.workload import bank_policy_set

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")

USERS = [f"elastic-user-{i}" for i in range(24)]


def teller_request(user, serial):
    # The user is embedded in the Period value (the '!' component the
    # bank policy binds), keeping every effective policy context
    # private to its user.
    return DecisionRequest(
        user_id=user,
        roles=(TELLER,),
        operation="handleCash",
        target="till://cash",
        context_instance=ContextName.parse(
            f"Branch={user}, Period={user}-S{serial}"
        ),
        timestamp=float(serial),
    )


# ----------------------------------------------------------------------
class TestRingDiff:
    def test_split_moves_only_onto_the_added_shard(self):
        old = HashRing(["shard-0", "shard-1"])
        diff = old.diff(old.with_shard("shard-2"))
        assert diff.added == ("shard-2",)
        assert diff.removed == ()
        moved = 0
        for user in (f"u{i:04d}" for i in range(2000)):
            move = diff.moved(user)
            if move is not None:
                moved += 1
                assert move[1] == "shard-2"
                assert move[0] in ("shard-0", "shard-1")
        # Consistent hashing: roughly 1/3 of users move, never all.
        assert 0 < moved < 2000

    def test_drain_moves_only_off_the_removed_shard(self):
        old = HashRing(["shard-0", "shard-1", "shard-2"])
        diff = old.diff(old.without_shard("shard-2"))
        assert diff.removed == ("shard-2",)
        for user in (f"u{i:04d}" for i in range(2000)):
            move = diff.moved(user)
            if move is not None:
                assert move[0] == "shard-2"

    def test_mover_predicates_partition_the_moved_set(self):
        old = HashRing(["shard-0", "shard-1"])
        diff = old.diff(old.with_shard("shard-2"))
        users = [f"u{i:04d}" for i in range(1000)]
        for user in users:
            move = diff.moved(user)
            owners = [
                (source, target)
                for source, target in diff.moves()
                if diff.mover_predicate(source, target)(user)
            ]
            if move is None:
                assert owners == []
            else:
                assert owners == [move]

    def test_identical_rings_move_nobody(self):
        ring = HashRing(["a", "b", "c"])
        diff = RingDiff(ring, HashRing(["a", "b", "c"]))
        assert all(
            diff.moved(f"u{i}") is None for i in range(500)
        )

    def test_vnode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RingDiff(HashRing(["a"], vnodes=8), HashRing(["a"], vnodes=16))


# ----------------------------------------------------------------------
class TestTrailFollower:
    KEY = b"follower-key"

    def _manager(self, tmp_path, max_records=3):
        return AuditTrailManager(
            str(tmp_path / "trails"), self.KEY, max_records=max_records
        )

    def _append(self, manager, n, start=0):
        for i in range(start, start + n):
            manager.append(
                EVENT_DECISION, float(i), {"seq_payload": i}
            )

    def test_sees_every_event_across_rotated_segments(self, tmp_path):
        manager = self._manager(tmp_path)
        self._append(manager, 10)
        follower = TrailFollower(manager.directory, self.KEY)
        polled = list(follower.poll())
        assert [e.payload["seq_payload"] for e in polled] == list(range(10))
        assert [e.event_type for e in polled] == [EVENT_DECISION] * 10
        # Nothing new: an immediate re-poll yields nothing.
        assert list(follower.poll()) == []

    def test_position_resumes_after_json_round_trip(self, tmp_path):
        manager = self._manager(tmp_path)
        self._append(manager, 4)
        follower = TrailFollower(manager.directory, self.KEY)
        assert len(list(follower.poll())) == 4
        # Serialise the position as the coordinator's state file does.
        position = json.loads(json.dumps(follower.position()))
        self._append(manager, 5, start=4)
        resumed = TrailFollower(
            manager.directory, self.KEY, position=position
        )
        tail = list(resumed.poll())
        assert [e.payload["seq_payload"] for e in tail] == [4, 5, 6, 7, 8]

    def test_interleaved_appends_and_polls_lose_nothing(self, tmp_path):
        manager = self._manager(tmp_path, max_records=2)
        follower = TrailFollower(manager.directory, self.KEY)
        seen = []
        for round_no in range(5):
            self._append(manager, 3, start=round_no * 3)
            seen.extend(
                e.payload["seq_payload"] for e in follower.poll()
            )
        assert seen == list(range(15))

    def test_tampered_tail_raises(self, tmp_path):
        manager = self._manager(tmp_path, max_records=100)
        self._append(manager, 6)
        path = manager.trail_paths()[0]
        with open(path, "rb") as handle:
            lines = handle.readlines()
        # Flip a payload byte in the middle record; keep valid JSON.
        lines[3] = lines[3].replace(b'"seq_payload": 3', b'"seq_payload": 9')
        with open(path, "wb") as handle:
            handle.writelines(lines)
        follower = TrailFollower(manager.directory, self.KEY)
        with pytest.raises(AuditTrailError):
            list(follower.poll())

    def test_corrupt_interior_line_raises_instead_of_stalling(
        self, tmp_path
    ):
        # Only a *last* line can be an append in flight.  An unparsable
        # line with sealed records after it is damage: the poll must
        # raise (so the catch-up / reshard loops count and log it)
        # rather than return nothing forever.
        manager = self._manager(tmp_path, max_records=100)
        self._append(manager, 10)
        path = manager.trail_paths()[0]
        with open(path, "rb") as handle:
            lines = handle.readlines()
        lines[4] = b'{"garbage\n'
        with open(path, "wb") as handle:
            handle.writelines(lines)
        follower = TrailFollower(manager.directory, self.KEY)
        polled = []
        with pytest.raises(AuditTrailError, match="corrupt JSON"):
            for event in follower.poll():
                polled.append(event.payload["seq_payload"])
        assert polled == [0, 1, 2, 3]
        assert follower.position()["seq"] == 4
        # Every later poll reports the damage again.
        with pytest.raises(AuditTrailError, match="corrupt JSON"):
            list(follower.poll())
        # The strict reader agrees: one verifier, one verdict.
        with pytest.raises(AuditTrailError, match="corrupt JSON"):
            list(AuditTrailManager(manager.directory, self.KEY).events())

    def test_partial_final_line_is_not_an_error(self, tmp_path):
        manager = self._manager(tmp_path, max_records=100)
        self._append(manager, 3)
        path = manager.trail_paths()[0]
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 3, "ts": 3.0, "type": "decis')
        follower = TrailFollower(manager.directory, self.KEY)
        polled = list(follower.poll())
        assert [e.payload["seq_payload"] for e in polled] == [0, 1, 2]
        # A restarted writer re-opens the trail (detecting the torn
        # tail with a warning), truncates it away on its next append,
        # and the follower picks the new record up from its held
        # position — which sits exactly at the last verified record.
        with pytest.warns(UserWarning):
            reopened = self._manager(tmp_path, max_records=100)
        self._append(reopened, 1, start=3)
        assert [
            e.payload["seq_payload"] for e in follower.poll()
        ] == [3]


# ----------------------------------------------------------------------
class TestMigrationState:
    def test_round_trips_through_json(self):
        migration = Migration(
            KIND_SPLIT,
            "shard-2",
            ("shard-0", "shard-1"),
            ("shard-0", "shard-1", "shard-2"),
            64,
            ticks=7,
            users_moved=12,
            events_imported=40,
            trail_dirs={"shard-0": ["/tmp/a", "/tmp/b"]},
            cursors={
                "shard-2@/tmp/a": {
                    "segment": 1,
                    "offset": 2048,
                    "hash": "ab" * 32,
                    "seq": 5,
                }
            },
        )
        clone = Migration.from_dict(
            json.loads(json.dumps(migration.to_dict()))
        )
        assert clone.to_dict() == migration.to_dict()
        assert clone.cursor("shard-2", "/tmp/a")["offset"] == 2048
        assert clone.cursor("shard-2", "/tmp/b") is None

    def test_rejects_unknown_kind_and_phase(self):
        with pytest.raises(ClusterError):
            Migration("shuffle", "s", ("a",), ("a", "b"), 64)
        with pytest.raises(ClusterError):
            Migration(
                KIND_SPLIT, "s", ("a",), ("a", "b"), 64, phase="paused"
            )

    def test_split_sources_are_the_old_shards(self):
        migration = Migration(
            KIND_SPLIT,
            "shard-2",
            ("shard-0", "shard-1"),
            ("shard-0", "shard-1", "shard-2"),
            64,
        )
        assert set(migration.sources()) == {"shard-0", "shard-1"}
        for source, target, predicate in migration.moves():
            assert target == "shard-2"
            assert callable(predicate)


# ----------------------------------------------------------------------
class TestPlanRebalance:
    def test_balanced_cluster_plans_nothing(self):
        plan = plan_rebalance({"shard-0": 100, "shard-1": 104})
        assert plan["action"] == "none"
        assert plan["imbalance"] < 1.5
        assert plan["total_users"] == 204

    def test_hot_shard_plans_a_split(self):
        plan = plan_rebalance({"shard-0": 300, "shard-1": 60})
        assert plan["action"] == "split"
        assert plan["hot_shard"] == "shard-0"
        assert plan["imbalance"] >= 1.5

    def test_threshold_is_respected(self):
        counts = {"shard-0": 300, "shard-1": 60}
        assert plan_rebalance(counts, threshold=10.0)["action"] == "none"

    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusterError):
            plan_rebalance({})


# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def elastic_cluster(tmp_path_factory):
    """A 2-shard cluster with the reshard loop live but health/catch-up
    loops slowed so tests control all other state transitions."""
    cluster = LocalCluster(
        bank_policy_set(),
        2,
        str(tmp_path_factory.mktemp("elastic")),
        store="memory",
        health_interval=30.0,
        catchup_interval=30.0,
        fsync=False,
    ).start()
    yield cluster
    cluster.stop()


class TestOnlineResharding:
    def test_split_then_drain_preserves_placement_and_history(
        self, elastic_cluster
    ):
        cluster = elastic_cluster
        with ClusterPDP((cluster.host, cluster.port)) as pdp:
            for serial, user in enumerate(USERS):
                assert pdp.decide(teller_request(user, serial)).granted

            route_before = pdp.route()["version"]

            # ---- 2 -> 3 split.
            added = cluster.add_shard()
            status = cluster.wait_reshard(timeout=60.0)
            split = status["last_migration"]
            assert split["kind"] == "split"
            assert split["phase"] == "done"
            assert added in cluster.shard_names
            assert sorted(status["serving_shards"]) == sorted(
                cluster.shard_names
            )

            ring3 = cluster.ring
            moved = [u for u in USERS if ring3.shard_for(u) == added]
            assert moved, "the split moved nobody; widen USERS"
            for shard_name in cluster.shard_names:
                resident = {
                    r.user_id
                    for r in cluster.shard(shard_name).primary.store.records()
                }
                expected = {
                    u for u in USERS if ring3.shard_for(u) == shard_name
                }
                assert resident == expected

            # Clients re-route: the route version moved past the two
            # cutover bumps and decides still land (movers included).
            assert pdp.refresh_route()["version"] > route_before
            for serial, user in enumerate(moved):
                assert pdp.decide(
                    teller_request(user, 100 + serial)
                ).granted

            # An MMER probe against imported history: the Auditor role
            # in a context the user exercised as Teller must deny on
            # the *new* owner.
            probe_user = moved[0]
            denied = pdp.decide(
                DecisionRequest(
                    user_id=probe_user,
                    roles=(AUDITOR,),
                    operation="auditBooks",
                    target="ledger://books",
                    context_instance=ContextName.parse(
                        f"Branch={probe_user}, Period={probe_user}-S0"
                    ),
                    timestamp=999.0,
                )
            )
            assert not denied.granted

            # ---- 3 -> 2 drain of the shard we just added.
            cluster.drain_shard(added)
            status = cluster.wait_reshard(timeout=60.0)
            drain = status["last_migration"]
            assert drain["kind"] == "drain"
            assert drain["phase"] == "done"
            assert added not in cluster.shard_names
            assert sorted(cluster.shard_names) == ["shard-0", "shard-1"]

            ring2 = cluster.ring
            for shard_name in cluster.shard_names:
                resident = {
                    r.user_id
                    for r in cluster.shard(shard_name).primary.store.records()
                }
                expected = {
                    u for u in USERS if ring2.shard_for(u) == shard_name
                }
                assert resident == expected

            # History survived the round trip: the same MMER probe
            # still denies on the user's original owner.
            denied = pdp.decide(
                DecisionRequest(
                    user_id=probe_user,
                    roles=(AUDITOR,),
                    operation="auditBooks",
                    target="ledger://books",
                    context_instance=ContextName.parse(
                        f"Branch={probe_user}, Period={probe_user}-S0"
                    ),
                    timestamp=1000.0,
                )
            )
            assert not denied.granted

    def test_joining_standby_mirrors_history_made_after_a_reload(
        self, tmp_path
    ):
        """The joiner's standby replicates what its primary imported,
        though both nodes boot a set that matches none of it."""
        filing = MSoDPolicySet(
            [
                *bank_policy_set(),
                MSoDPolicy(
                    ContextName.parse("Filing=*, Case=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="filing",
                ),
            ]
        )
        cluster = LocalCluster(
            bank_policy_set(),
            1,
            str(tmp_path),
            store="memory",
            health_interval=30.0,
            catchup_interval=30.0,
            fsync=False,
        ).start()
        try:
            assert cluster.reload_policy(filing)["changed"]
            with ClusterPDP((cluster.host, cluster.port)) as pdp:
                for serial in range(40):
                    user = f"filer-{serial}"
                    assert pdp.decide(
                        DecisionRequest(
                            user_id=user,
                            roles=(TELLER,),
                            operation="handleCash",
                            target="till://cash",
                            context_instance=ContextName.parse(
                                f"Filing=F{serial}, Case={user}"
                            ),
                            timestamp=float(serial),
                        )
                    ).granted
            added = cluster.add_shard()
            cluster.wait_reshard(timeout=60.0)
            joiner = cluster.shard(added)
            assert joiner.primary.store.count() > 0
            joiner.standby.catch_up(joiner.primary.trail_dir)
            assert store_digest(joiner.standby.store) == store_digest(
                joiner.primary.store
            )
        finally:
            cluster.stop()

    def test_status_reports_resident_users_and_store_stats(
        self, elastic_cluster
    ):
        with ClusterPDP(
            (elastic_cluster.host, elastic_cluster.port)
        ) as pdp:
            status = pdp.cluster_status()
            reshard = pdp.reshard_status()
        for shard_name, shard in status["shards"].items():
            assert isinstance(shard["resident_users"], int)
            assert shard["resident_users"] >= 0
            assert isinstance(shard["stats"], dict)
            assert "resident_users" in shard["stats"]
        assert reshard["active"] is False
        assert reshard["migrations_total"].get("split") == 1
        assert reshard["migrations_total"].get("drain") == 1
        assert reshard["users_moved_total"] > 0
        stats = elastic_cluster.shard_stats()
        assert set(stats) == set(elastic_cluster.shard_names)

    def test_reshard_metric_families_scrape(self, elastic_cluster):
        with ClusterPDP(
            (elastic_cluster.host, elastic_cluster.port)
        ) as pdp:
            text = pdp.cluster_metrics_text()
        for family in (
            "repro_reshard_migrations_total",
            "repro_reshard_users_moved_total",
            "repro_reshard_cutover_pause_seconds",
            "repro_cluster_shard_resident_users",
        ):
            assert family in text, family

    def test_rebalance_plan_and_guards(self, elastic_cluster):
        plan = elastic_cluster.rebalance(threshold=1.5)
        assert plan["action"] in ("none", "split")
        assert set(plan["resident_users"]) == set(
            elastic_cluster.shard_names
        )
        with pytest.raises(ClusterError):
            elastic_cluster.drain_shard("no-such-shard")

    def test_concurrent_migrations_rejected(self, elastic_cluster):
        added = elastic_cluster.add_shard()
        try:
            with pytest.raises(ClusterError):
                elastic_cluster.add_shard()
            with pytest.raises(ClusterError):
                elastic_cluster.drain_shard("shard-0")
        finally:
            elastic_cluster.wait_reshard(timeout=60.0)
            elastic_cluster.drain_shard(added)
            elastic_cluster.wait_reshard(timeout=60.0)


def test_a_sqlite_split_purges_each_source_node_in_one_apply(
    tmp_path, monkeypatch
):
    """The cutover names all of a source node's movers in one store
    apply (one transaction on SQLite), and the movers then decide on
    their new owner as one node holding the whole history would."""
    from repro.api import open_pdp

    def auditor_request(user, serial, period):
        return DecisionRequest(
            user_id=user,
            roles=(AUDITOR,),
            operation="auditBooks",
            target="ledger://books",
            context_instance=ContextName.parse(
                f"Branch={user}, Period={user}-S{period}"
            ),
            timestamp=float(serial),
        )

    cluster = LocalCluster(
        bank_policy_set(),
        2,
        str(tmp_path),
        store="sqlite",
        health_interval=30.0,
        catchup_interval=30.0,
        fsync=False,
    ).start()
    try:
        with ClusterPDP((cluster.host, cluster.port)) as pdp:
            before = [teller_request(user, i) for i, user in enumerate(USERS)]
            got = [pdp.decide(request) for request in before]
            sources = [cluster.shard(name) for name in cluster.shard_names]
            for state in sources:
                state.standby.catch_up(state.primary.trail_dir)
            applied: dict[str, list] = {}
            nodes = [n for state in sources for n in (state.primary, state.standby)]
            for node in nodes:
                real = node.store.apply_detailed

                def spy(mutation, real=real, name=node.name):
                    applied.setdefault(name, []).append(mutation)
                    return real(mutation)

                monkeypatch.setattr(node.store, "apply_detailed", spy)
            old_ring = cluster.ring
            added = cluster.add_shard()
            cluster.wait_reshard(timeout=60.0)
            moved = [user for user in USERS if cluster.ring.shard_for(user) == added]
            assert moved, "the split moved nobody; widen USERS"
            for state in sources:
                movers = {u for u in moved if old_ring.shard_for(u) == state.name}
                for node in (state.primary, state.standby):
                    purges = [set(m.purge_users) for m in applied.get(node.name, ())]
                    assert purges == ([movers] if movers else []), node.name
            pdp.refresh_route()
            after = [
                request
                for serial, user in enumerate(moved)
                for request in (
                    teller_request(user, 100 + serial),
                    # Denied by the imported history (MMER), then granted
                    # in a period of its own.
                    auditor_request(user, 200 + serial, USERS.index(user)),
                    auditor_request(user, 300 + serial, 300 + serial),
                )
            ]
            got += [pdp.decide(request) for request in after]
    finally:
        cluster.stop()
    with open_pdp(bank_policy_set(), "memory") as oracle:
        expected = [oracle.decide(request) for request in before + after]

    def outcome(decision):
        return decision.granted, decision.records_added, decision.records_purged

    assert list(map(outcome, got)) == list(map(outcome, expected))
    assert {decision.granted for decision in expected[len(before):]} == {
        True,
        False,
    }


def test_rebalance_with_a_dead_primary_is_a_typed_refusal(tmp_path):
    """The planner reads the same per-shard stats as ``status``: a
    killed primary's closed store is a refusal naming the shard, over
    the wire a protocol error that leaves the connection serving."""
    from repro.api import open_cluster

    with open_cluster(
        bank_policy_set(),
        str(tmp_path / "cluster"),
        n_shards=2,
        store="sqlite",
        health_interval=60.0,
    ) as cluster:
        cluster.kill_primary("shard-0")
        with pytest.raises(ClusterError, match="shard-0"):
            cluster.rebalance()
        with ClusterPDP((cluster.host, cluster.port)) as pdp:
            with pytest.raises(ProtocolError, match="shard-0"):
                pdp.resize("rebalance")
            assert pdp.route()["version"] >= 1


# ----------------------------------------------------------------------
class TestRestartStableTopology:
    def test_cold_restart_restores_ring_and_route_version(self, tmp_path):
        data_dir = str(tmp_path / "cluster")
        cluster = LocalCluster(
            bank_policy_set(),
            2,
            data_dir,
            store="memory",
            health_interval=30.0,
            catchup_interval=30.0,
            fsync=False,
        ).start()
        try:
            with ClusterPDP((cluster.host, cluster.port)) as pdp:
                for serial, user in enumerate(USERS[:8]):
                    pdp.decide(teller_request(user, serial))
            cluster.add_shard()
            cluster.wait_reshard(timeout=60.0)
            shards_before = sorted(cluster.shard_names)
            version_before = cluster.reshard_status()["route_version"]
            totals_before = cluster.reshard_status()["migrations_total"]
        finally:
            cluster.stop()

        assert os.path.exists(
            os.path.join(data_dir, "coordinator-state.json")
        )
        reborn = LocalCluster(
            bank_policy_set(),
            2,  # ignored: the persisted 3-shard topology wins
            data_dir,
            store="memory",
            health_interval=30.0,
            catchup_interval=30.0,
            fsync=False,
        ).start()
        try:
            assert sorted(reborn.shard_names) == shards_before
            status = reborn.reshard_status()
            assert status["route_version"] >= version_before
            assert status["migrations_total"] == totals_before
            assert status["active"] is False
        finally:
            reborn.stop()

    def test_fresh_boot_without_state_uses_requested_shards(self, tmp_path):
        cluster = LocalCluster(
            bank_policy_set(),
            3,
            str(tmp_path / "fresh"),
            store="memory",
            health_interval=30.0,
            catchup_interval=30.0,
            fsync=False,
        ).start()
        try:
            assert sorted(cluster.shard_names) == [
                "shard-0",
                "shard-1",
                "shard-2",
            ]
        finally:
            cluster.stop()
