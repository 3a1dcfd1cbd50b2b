"""Fault injection: kill a shard primary mid-workload.

The acceptance test for the cluster subsystem, on memory nodes at 2
shards and on SQLite nodes at 3.  A policy reload lands a quarter of
the way into a hot-user + distinct-user workload, the hot user's
primary dies halfway, and a canary rollout then runs under live load
on a healthy shard.  Both new sets only add policies over contexts no
workload touches, so the epoch moves while the bank policy's per-shard
oracles stay valid.  Afterwards: promotion under a bumped fencing
epoch, every live node on the final epoch, decisions and retained ADI
equal to the oracles', no Teller/Auditor co-holding, every audited
decision stamped with its epoch, metric families scraping, and the
dead primary's epoch fenced.
"""

import itertools

import pytest

from repro.audit import EVENT_DECISION
from repro.audit.trail import TrailFollower
from repro.client import RemotePDP
from repro.cluster import ClusterPDP, LocalCluster
from repro.core import (
    MMCD,
    MMER,
    ContextName,
    DecisionRequest,
    MSoDPolicy,
    MSoDPolicySet,
    Privilege,
)
from repro.errors import PDPFencedError, PDPUnavailableError
from repro.workload import (
    AUDITOR,
    HANDLE_CASH,
    TELLER,
    bank_policy_set,
    decision_request_stream,
    hot_user_stream,
)
from tests.cluster_oracle import LiveLoad, oracle_failures

COORDINATOR_FAMILIES = """repro_cluster_node_up repro_cluster_node_primary
repro_cluster_node_epoch repro_cluster_failovers_total repro_policy_epoch
repro_policy_reloads_total""".split()


@pytest.fixture
def boot(tmp_path):
    """Start clusters with fast health checks; stop them afterwards."""
    clusters = []

    def boot(policy_set, n_shards, store):
        clusters.append(
            LocalCluster(
                policy_set,
                n_shards,
                str(tmp_path / f"cluster-{len(clusters)}"),
                store=store,
                health_interval=0.15,
                health_timeout=0.5,
                health_failures=2,
                catchup_interval=0.2,
                fsync=True,
            ).start()
        )
        return clusters[-1]

    yield boot
    for cluster in clusters:
        cluster.stop()


@pytest.fixture
def cluster(boot):
    return boot(bank_policy_set(), 2, "memory")


def probe(user_id, role, privilege, context, timestamp):
    return DecisionRequest(
        user_id=user_id,
        roles=(role,),
        operation=privilege.operation,
        target=privilege.target,
        context_instance=context,
        timestamp=timestamp,
    )


def extend(policy_set, context, policy_id):
    policy = MSoDPolicy(
        ContextName.parse(context),
        mmers=[MMER([TELLER, AUDITOR], 2)],
        policy_id=policy_id,
    )
    return MSoDPolicySet(list(policy_set) + [policy])


def kill_reload_and_canary(cluster):
    policy_set = bank_policy_set()
    extended_set = extend(policy_set, "Region=*, Quarter=!", "regional")
    canary_set = extend(extended_set, "Desk=*, Cycle=!", "desk")
    requests = list(
        itertools.chain(
            hot_user_stream(80, user_id="hot-user"),
            decision_request_stream(80, n_users=30),
        )
    )
    hot_shard = cluster.ring.shard_for("hot-user")
    old_primary = cluster.shard(hot_shard).primary
    old_epoch = cluster.shard(hot_shard).epoch
    canary_shard = next(n for n in cluster.shard_names if n != hot_shard)
    canary_user = next(
        user
        for user in map("canary-user-{}".format, itertools.count())
        if cluster.ring.shard_for(user) == canary_shard
    )

    def canary_probes(_, serial):
        context = ContextName.parse(f"Branch=Canary, Period=C{serial}")
        stamp = 1e4 + serial
        return [probe(canary_user, TELLER, HANDLE_CASH, context, stamp)]

    effects = []
    with cluster.client(failover_wait=30.0) as pdp:
        for index, request in enumerate(requests):
            if index == len(requests) // 4:
                assert pdp.reload_policy(extended_set)["changed"]
                assert pdp.policy_version().epoch == 2
                nodes = pdp.policy_status()["nodes"]
                assert {name: v["epoch"] for name, v in nodes.items()} == {
                    node.name: 2 for node in cluster.nodes()
                }
            if index == len(requests) // 2:
                assert cluster.kill_primary(hot_shard) == old_primary.name
            effects.append(pdp.decide(request).effect)

        with LiveLoad(pdp, canary_probes) as load:
            body = cluster.canary_reload_policy(
                canary_set,
                shard_name=canary_shard,
                max_flips=0,
                min_decisions=5,
                timeout=30.0,
            )
        assert not load.errors and body["changed"]
        assert body["canary"]["replay"]["flip_count"] == 0
        assert body["canary"]["live_decisions"] >= 1
        for request, effect in load.decided():
            requests.append(request)
            effects.append(effect)
        status = pdp.cluster_status()
        metrics_text = pdp.cluster_metrics_text()
        node_metrics = pdp.node_metrics_text("hot-user")

    state = cluster.shard(hot_shard)
    assert state.failovers >= 1 and state.epoch > old_epoch
    assert state.primary.name != old_primary.name
    assert status["shards"][hot_shard]["failovers"] >= 1
    # Boot (1), reload (2), canary (3): every live node ends on 3.
    epochs = {
        node["name"]: node["policy_epoch"]
        for shard in status["shards"].values()
        for node in shard["nodes"]
        if node["up"]
    }
    assert set(epochs.values()) == {3}, epochs
    for family in COORDINATOR_FAMILIES:
        assert family in metrics_text, family
    assert "repro_shard_queue_depth" in node_metrics

    stamps = []
    for name in cluster.shard_names:
        for node in (cluster.shard(name).primary, cluster.shard(name).standby):
            follower = TrailFollower(node.trail_dir, b"cluster-trail-key")
            stamps.extend(
                "policy_epoch" in (event.payload or {})
                for event in follower.poll()
                if event.event_type == EVENT_DECISION
            )
    assert len(stamps) >= len(requests) and all(stamps)

    assert oracle_failures(cluster, policy_set, requests, effects) == []

    new_primary = cluster.shard(hot_shard).primary
    with RemotePDP(new_primary.host, new_primary.port) as raw:
        with pytest.raises(PDPFencedError):
            raw.decide(requests[0], epoch=old_epoch)


def test_primary_killed_mid_workload(cluster):
    kill_reload_and_canary(cluster)


def test_primary_killed_mid_workload_on_sqlite_shards(boot):
    kill_reload_and_canary(boot(bank_policy_set(), 3, "sqlite"))


def test_mmcd_owner_survives_failover(boot):
    """The owner bound before a primary kill still excludes a second
    user after the failover, and still completes its own duty.  One
    shard: per-user routing refuses an MMCD on more."""
    review = Privilege("review", "filing")
    signoff = Privilege("signoff", "filing")
    policy = MSoDPolicy(
        ContextName.parse("Filing=*, Case=!"),
        constraints=[MMCD([review, signoff])],
        policy_id="filing-duty-binding",
    )
    cluster = boot(MSoDPolicySet([policy]), 1, "sqlite")
    case = ContextName.parse("Filing=Annual, Case=2026")
    with cluster.client(failover_wait=30.0) as pdp:
        def decide(user, privilege, stamp):
            return pdp.decide(probe(user, AUDITOR, privilege, case, stamp))

        assert decide("owner", review, 1.0).granted
        cluster.kill_primary("shard-0")
        assert not decide("intruder", signoff, 2.0).granted
        assert decide("owner", signoff, 3.0).granted
    assert cluster.shard("shard-0").failovers >= 1


def test_static_route_client_cannot_fail_over(cluster):
    """Without a coordinator there is no fresh route: errors surface."""
    with ClusterPDP((cluster.host, cluster.port)) as pdp:
        route = pdp.route()
    hot_shard = cluster.ring.shard_for("hot-user")
    cluster.kill_primary(hot_shard)
    with ClusterPDP(static_route=route, timeout=1.0) as pdp:
        with pytest.raises(PDPUnavailableError):
            for request in hot_user_stream(5, user_id="hot-user"):
                pdp.decide(request)
