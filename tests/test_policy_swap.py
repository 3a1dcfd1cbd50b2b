"""A policy swap is one assignment, and a reload is analysed once.

The retained ADI records what users did; a policy set only judges
those facts.  Every store memo is keyed by an effective context name
and holds a function of the records under that name, so a swap there
and back leaves each memo object in place (and never enters
``store.batch()``), and reads stay equal to the base-class scan
definitions.  Static analysis belongs to admission
(:func:`repro.verify.gate.admit_reload`): one ``analyze_policy_set``
per reload, verified or not, and an error finding refuses an
unverified reload on every handle unless ``force``.
"""

from __future__ import annotations

import pytest

from repro.api import open_pdp, open_server, open_store
from repro.cluster import LocalCluster
from repro.core import (
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Privilege,
    Role,
    SQLiteRetainedADIStore,
    TieredADIStore,
)
from repro.errors import PolicyError
from repro.framework import ReferenceRBACMSoDPDP, RoleTargetAccessPolicy
from repro.verify import gate, static
from repro.workload import bank_policy_set
from tests.test_property_store_differential import (
    _OPS,
    _QUERIES,
    _USERS,
    _assert_views_match_scan,
    _policy_set,
)

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
MANAGER = Role("employee", "Manager")


def _bank_set(mmers):
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=mmers,
                policy_id="bank",
            )
        ]
    )


def clean_set():
    return _bank_set([MMER([TELLER, AUDITOR], 2)])


def freed_set():
    return _bank_set([MMER([TELLER, MANAGER], 2)])


def duplicate_set():
    # The same constraint twice (modulo role order): CONSTRAINT_DUPLICATE.
    return _bank_set([MMER([TELLER, AUDITOR], 2), MMER([AUDITOR, TELLER], 2)])


# ----------------------------------------------------------------------
def _store(backend):
    if backend == "memory":
        return InMemoryRetainedADIStore()
    if backend == "sqlite":  # the spec-built default tier
        return open_store("sqlite::memory:")
    warm = SQLiteRetainedADIStore(":memory:")
    return TieredADIStore(warm, hot_users=2, owns_warm=True)


def _memos(store) -> list[tuple[str, dict]]:
    """Every effective-context memo ``store`` holds, labelled."""
    if isinstance(store, TieredADIStore):
        memos = [("presence", store._presence._memo)]
        for shard in store._shards:
            memos.extend(
                (f"aggregate {user}", entry._memo)
                for user, entry in shard.entries.items()
            )
        warm = _memos(store._warm)
        return memos + [(f"warm {label}", memo) for label, memo in warm]
    if isinstance(store, SQLiteRetainedADIStore):
        return []  # SQL only: it holds no memo
    return [("presence", store._presence._memo)] + [
        (f"aggregate {user}", aggregate._memo)
        for user, aggregate in store._by_user.items()
    ]


def _warm(engine, store) -> None:
    """Grant some history for every user, then read every view of it."""
    for index, user in enumerate(_USERS):
        for step, (op, dept) in enumerate(zip(_OPS, ("d1", "d2", "d1"))):
            engine.check(
                DecisionRequest(
                    user_id=user,
                    roles=(Role("role", "Clerk"),),
                    operation=op[0],
                    target=op[1],
                    context_instance=ContextName.parse(
                        f"Dept={dept}, Case=c{step}"
                    ),
                    timestamp=float(index * 10 + step),
                    request_id=f"{user}-{step}",
                )
            )
    for query in _QUERIES:
        store.has_context(query)
        for user in _USERS[-2:]:  # the two users a tiered store keeps hot
            store.user_roles(user, query)
            store.user_privilege_exercises(user, query)
        store.users_with_privileges((Privilege(*_OPS[0]),), query)


@pytest.mark.parametrize("backend", ["memory", "sqlite", "tiered"])
def test_swap_and_rollback_touch_no_memo(backend, monkeypatch):
    store = _store(backend)
    base = _policy_set()
    swapped = MSoDPolicySet(
        list(base)
        + [
            MSoDPolicy(
                business_context=ContextName.parse("Dept=!, Case=*"),
                mmers=[
                    MMER([Role("role", "Auditor"), Role("role", "Manager")], 2)
                ],
                policy_id="p-swap",
            )
        ]
    )
    engine = MSoDEngine(base, store)
    try:
        _warm(engine, store)
        before = _memos(store)
        labels = [label for label, _ in before]
        assert "presence" in labels and "aggregate carol" in labels
        assert all(
            memo for label, memo in before if not label.startswith("warm")
        ), before

        def no_batch():
            raise AssertionError("a policy swap entered store.batch()")

        with monkeypatch.context() as patch:
            patch.setattr(store, "batch", no_batch)
            assert engine.swap_policy(swapped).changed
            assert engine.swap_policy(base).changed
            assert engine.swap_policy(swapped).changed

        after = _memos(store)
        assert [label for label, _ in after] == labels
        for (label, old), (_, new) in zip(before, after):
            assert new is old, f"{backend}: the swap rebound the {label} memo"
        _assert_views_match_scan(store, f"{backend} after swapping there and back")
    finally:
        store.close()


# ----------------------------------------------------------------------
@pytest.fixture
def analyses(monkeypatch):
    """Every ``analyze_policy_set`` call, wherever it is reached from."""
    calls = []
    analyze = static.analyze_policy_set

    def counting(policy_set, *args, **kwargs):
        calls.append(policy_set)
        return analyze(policy_set, *args, **kwargs)

    monkeypatch.setattr(static, "analyze_policy_set", counting)
    monkeypatch.setattr(gate, "analyze_policy_set", counting)
    return calls


@pytest.fixture
def quiet_cluster(analyses, tmp_path):
    cluster = LocalCluster(
        bank_policy_set(),
        2,
        str(tmp_path / "cluster"),
        store="memory",
        health_interval=30.0,
        catchup_interval=30.0,
        fsync=False,
    ).start()
    del analyses[:]  # booting is not a reload
    yield cluster
    cluster.stop()


class TestOneAnalysisPerReload:
    @pytest.mark.parametrize("verify", [True, False])
    def test_local(self, analyses, verify):
        with open_pdp(clean_set()) as pdp:
            report = pdp.reload_policy(freed_set(), verify=verify)
        assert report.changed
        assert len(analyses) == 1

    @pytest.mark.parametrize("verify", [True, False])
    def test_over_the_wire(self, analyses, verify):
        from repro.client import RemotePDP

        with open_server(clean_set()) as server:
            with RemotePDP(server.host, server.port) as pdp:
                report = pdp.reload_policy(freed_set(), verify=verify)
        assert report.changed
        assert len(analyses) == 1

    def test_cluster_admits_once_then_once_per_live_node(
        self, analyses, quiet_cluster
    ):
        assert quiet_cluster.reload_policy(freed_set())["changed"]
        assert len(analyses) == 1 + len(list(quiet_cluster.nodes()))

    def test_cluster_canary_admits_once(self, analyses, quiet_cluster):
        """Admission, then one per live node: neither the canary's
        replay nor the rollout after it admits the set a second time."""
        body = quiet_cluster.canary_reload_policy(freed_set())
        assert body["changed"] and body["canary"]["replay"]["flip_count"] == 0
        assert len(analyses) == 1 + len(list(quiet_cluster.nodes()))


# ----------------------------------------------------------------------
class TestUnverifiedReloadIsAnalysed:
    def test_local(self):
        with open_pdp(clean_set()) as pdp:
            with pytest.raises(PolicyError, match="CONSTRAINT_DUPLICATE"):
                pdp.reload_policy(duplicate_set())
            assert pdp.policy_version().epoch == 1
            assert pdp.reload_policy(duplicate_set(), force=True).changed

    def test_remote(self):
        from repro.client import RemotePDP

        with open_server(clean_set()) as server:
            with RemotePDP(server.host, server.port) as pdp:
                with pytest.raises(PolicyError, match="CONSTRAINT_DUPLICATE"):
                    pdp.reload_policy(duplicate_set())
                assert pdp.policy_version().epoch == 1
                assert pdp.reload_policy(duplicate_set(), force=True).changed

    def test_reference_pdp(self):
        access = RoleTargetAccessPolicy(
            {TELLER: [Privilege("handleCash", "till://1")]}
        )
        engine = MSoDEngine(clean_set(), InMemoryRetainedADIStore())
        pdp = ReferenceRBACMSoDPDP(access, engine)
        with pytest.raises(PolicyError, match="CONSTRAINT_DUPLICATE"):
            pdp.reload_policy(duplicate_set())
        assert engine.policy_epoch == 1
        assert pdp.reload_policy(freed_set()).changed
