"""Fault injection for online resharding.

The worst cases ISSUE 9 names: the coordinator dies mid-migration, and
a *source* shard's primary dies while its users' history is still being
imported.  The migration must resume from the persisted state file,
walk the promoted standby's fresh trail lineage as well as the dead
primary's sealed one, and finish with placement and history intact —
no lost decisions, no MMER leaks.

These tests freeze the migration by crashing the coordinator *first*,
so the primary kill is guaranteed to land mid-migration rather than
racing a fast catch-up.  The last one runs a whole split and drain
under sustained four-worker load and checks every decision against the
per-shard oracle.
"""

import time

import pytest

from repro.cluster import LocalCluster
from repro.cluster.client import ClusterPDP
from repro.core import ContextName, DecisionRequest, Role
from repro.workload import bank_policy_set
from tests.cluster_oracle import LiveLoad, oracle_failures

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")

USERS = [f"fault-user-{i}" for i in range(24)]


def teller_request(user, serial):
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


def auditor_probe(user, serial, timestamp):
    return DecisionRequest(
        user_id=user,
        roles=(AUDITOR,),
        operation="auditBooks",
        target="ledger://books",
        context_instance=ContextName.parse(
            f"Branch={user}, Period={user}-S{serial}"
        ),
        timestamp=timestamp,
    )


@pytest.fixture(scope="class")
def fault_cluster(tmp_path_factory):
    """Default (fast) health/catch-up loops: kills must fail over."""
    cluster = LocalCluster(
        bank_policy_set(),
        2,
        str(tmp_path_factory.mktemp("reshard-faults")),
        store="memory",
        fsync=False,
    ).start()
    yield cluster
    cluster.stop()


@pytest.mark.usefixtures("fault_cluster")
class TestReshardUnderFaults:
    def test_split_survives_coordinator_and_source_primary_death(
        self, fault_cluster
    ):
        cluster = fault_cluster
        with ClusterPDP(
            (cluster.host, cluster.port), failover_wait=30.0
        ) as pdp:
            for serial, user in enumerate(USERS):
                assert pdp.decide(teller_request(user, serial)).granted

        added = cluster.add_shard()
        status = cluster.reshard_status()
        assert status["active"]

        # Freeze the migration, then kill a source primary while it is
        # frozen: the death is unambiguously mid-migration, and only
        # the restarted coordinator can promote the standby.
        cluster.crash_coordinator()
        source = status["migration"]["old_shards"][0]
        killed = cluster.kill_primary(source)
        time.sleep(0.3)
        cluster.restart_coordinator()

        final = cluster.wait_reshard(timeout=60.0)
        split = final["last_migration"]
        assert split["phase"] == "done"
        assert split["kind"] == "split"
        # With no live load the catch-up converges on its first tick,
        # so the import may finish entirely from the dead primary's
        # sealed lineage; the promotion races behind it.  (Under the
        # sustained load of test_split_and_drain_under_sustained_load
        # the import usually walks both lineages.)
        assert split["trail_dirs"][source]
        deadline = time.monotonic() + 15.0
        while cluster.shard(source).failovers < 1:
            assert time.monotonic() < deadline, (
                "killed source primary never failed over"
            )
            time.sleep(0.05)
        assert cluster.shard(source).primary.name != killed

        ring = cluster.ring
        assert added in ring.shard_names
        for shard_name in cluster.shard_names:
            resident = {
                r.user_id
                for r in cluster.shard(shard_name).primary.store.records()
            }
            expected = {
                u for u in USERS if ring.shard_for(u) == shard_name
            }
            assert resident == expected

        # Post-split decides land for moved users, and imported history
        # still drives MMER denials on the new owner.
        moved = [u for u in USERS if ring.shard_for(u) == added]
        assert moved
        with ClusterPDP(
            (cluster.host, cluster.port), failover_wait=30.0
        ) as pdp:
            for serial, user in enumerate(moved):
                assert pdp.decide(
                    teller_request(user, 200 + serial)
                ).granted
            denied = pdp.decide(auditor_probe(moved[0], 0, 500.0))
            assert not denied.granted

    def test_drain_survives_subject_primary_death(self, fault_cluster):
        cluster = fault_cluster
        subject = next(
            name
            for name in cluster.shard_names
            if name not in ("shard-0", "shard-1")
        )
        moved_before = {
            r.user_id
            for r in cluster.shard(subject).primary.store.records()
        }
        assert moved_before

        cluster.drain_shard(subject)
        cluster.crash_coordinator()
        cluster.kill_primary(subject)
        time.sleep(0.3)
        cluster.restart_coordinator()

        final = cluster.wait_reshard(timeout=60.0)
        drain = final["last_migration"]
        assert drain["phase"] == "done"
        assert drain["kind"] == "drain"
        assert subject not in cluster.shard_names
        assert sorted(cluster.shard_names) == ["shard-0", "shard-1"]

        # Every drained user landed on a survivor with history intact.
        ring = cluster.ring
        for user in moved_before:
            owner = ring.shard_for(user)
            resident = {
                r.user_id
                for r in cluster.shard(owner).primary.store.records()
            }
            assert user in resident

        with ClusterPDP(
            (cluster.host, cluster.port), failover_wait=30.0
        ) as pdp:
            probe_user = sorted(moved_before)[0]
            denied = pdp.decide(auditor_probe(probe_user, 0, 600.0))
            assert not denied.granted
            serial = 300
            for user in sorted(moved_before):
                serial += 1
                assert pdp.decide(teller_request(user, serial)).granted


def test_split_and_drain_under_sustained_load(tmp_path):
    """A 2→3 split and a 3→2 drain while four workers keep deciding.

    The split loses its coordinator and then a source primary while it
    is frozen; the drain loses its subject's primary as it starts, so
    it finishes from the promoted standby plus the dead primary's sealed
    trail.  Each user's contexts are private to it (the user is in the
    bound Period value), so per-worker order is all the oracle needs.
    """

    def probes(index, serial):
        user = f"load-user-{index}-{serial % 8}"
        batch = [teller_request(user, serial)]
        if serial % 5 == 0:
            # Auditor where the user was Teller: whichever node owns
            # the user at that moment must deny it.
            batch.append(auditor_probe(user, serial, serial + 0.5))
        return batch

    with LocalCluster(
        bank_policy_set(), 2, str(tmp_path / "cluster"), store="memory"
    ).start() as cluster, cluster.client(failover_wait=60.0) as pdp:
        with LiveLoad(pdp, probes, workers=4) as load:
            load.wait_for(40)
            added = cluster.add_shard()
            status = cluster.reshard_status()
            cluster.crash_coordinator()
            cluster.kill_primary(status["migration"]["old_shards"][0])
            time.sleep(0.3)
            cluster.restart_coordinator()
            split = cluster.wait_reshard(timeout=120.0)["last_migration"]
            load.wait_for(160)
            assert "action" in cluster.rebalance()
            cluster.drain_shard(added)
            cluster.kill_primary(added)
            drain = cluster.wait_reshard(timeout=120.0)["last_migration"]
            load.wait_for(240)
        assert not load.errors
        status = pdp.cluster_status()
        reshard = pdp.reshard_status()
        metrics_text = pdp.cluster_metrics_text()
        requests, effects = zip(*load.decided())
        assert "deny" in effects
        assert oracle_failures(
            cluster, bank_policy_set(), requests, effects
        ) == []

    assert (split["kind"], split["phase"]) == ("split", "done")
    assert (drain["kind"], drain["phase"]) == ("drain", "done")
    assert not reshard["active"]
    assert sorted(reshard["serving_shards"]) == ["shard-0", "shard-1"]
    assert sum(s["failovers"] for s in status["shards"].values()) >= 1
    for shard in status["shards"].values():
        assert "resident_users" in shard and "stats" in shard
    for family in (
        "repro_reshard_migrations_total",
        "repro_reshard_users_moved_total",
        "repro_reshard_cutover_pause_seconds",
        "repro_cluster_shard_resident_users",
    ):
        assert family in metrics_text, family
