"""Tests for the tiered (hot/warm) retained-ADI store.

The tiered store keeps per-user aggregates for a bounded LRU set of
users over an authoritative warm layer, hydrating cold users lazily.
These tests pin the behaviours the scale bench relies on: reads agree
with an always-resident oracle through eviction/rehydration cycles,
writes keep hot aggregates and the context-presence index in sync,
hydration happens entirely under the user's shard lock (a concurrent
reader never observes a partially-built aggregate), and ``stats()``
reports the counters the metrics endpoint exports.
"""

import sys
import threading
import time

import pytest

from repro.core import (
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    RetainedADIRecord,
    Role,
    SQLiteRetainedADIStore,
    TieredADIStore,
    store_digest,
)
from repro.errors import StoreError

ROOT = ContextName.root()
TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")


def record(user, index, *, role=TELLER, branch="York", granted_at=None):
    return RetainedADIRecord(
        user_id=user,
        roles=(role,),
        operation="handleCash",
        target="till://1",
        context_instance=ContextName.parse(f"Branch={branch}, Period=P1"),
        granted_at=float(index) if granted_at is None else granted_at,
        request_id=f"req-{user}-{index}",
    )


def tiered(**kwargs):
    kwargs.setdefault("hot_users", 2)
    kwargs.setdefault("shards", 1)
    return TieredADIStore(InMemoryRetainedADIStore(), **kwargs)


class TestConstruction:
    def test_rejects_nonpositive_budgets(self):
        warm = InMemoryRetainedADIStore()
        with pytest.raises(StoreError):
            TieredADIStore(warm, hot_users=0)
        with pytest.raises(StoreError):
            TieredADIStore(warm, hot_users=4, shards=0)

    def test_rejects_tiered_warm_layer(self):
        with pytest.raises(StoreError):
            TieredADIStore(tiered())

    def test_shards_never_exceed_hot_budget(self):
        store = TieredADIStore(
            InMemoryRetainedADIStore(), hot_users=3, shards=16
        )
        assert store.stats()["hot_shards"] == 3

    def test_adopts_prepopulated_warm_layer(self):
        warm = InMemoryRetainedADIStore()
        warm.add(record("alice", 0))
        store = TieredADIStore(warm, hot_users=4)
        assert store.has_context(ContextName.parse("Branch=York, Period=P1"))
        assert store.user_roles("alice", ROOT) == frozenset({TELLER})


class TestEvictionAndRehydration:
    def test_lru_evicts_least_recent_and_rehydrates(self):
        store = tiered(hot_users=2)
        for user in ("u0", "u1", "u2"):
            store.add(record(user, 0))
        # Residency is read-driven (writes to cold users stay warm-only).
        store.user_roles("u0", ROOT)
        store.user_roles("u1", ROOT)
        store.user_roles("u0", ROOT)  # u0 now most recent
        store.user_roles("u2", ROOT)  # hydrates u2, evicts u1
        assert set(store.resident_users()) == {"u0", "u2"}
        # The evicted user's history is intact and rehydrates lazily.
        before = store.stats()["hydrations"]
        assert store.user_roles("u1", ROOT) == frozenset({TELLER})
        stats = store.stats()
        assert stats["hydrations"] == before + 1
        assert stats["evictions"] >= 1
        assert stats["resident_users"] <= 2

    def test_reads_match_always_resident_oracle_across_cycles(self):
        oracle = InMemoryRetainedADIStore()
        store = tiered(hot_users=2)
        users = [f"u{index}" for index in range(6)]
        for index, user in enumerate(users * 3):
            rec = record(user, index, branch=f"B{index % 2}")
            oracle.add(rec)
            store.add(record(user, index, branch=f"B{index % 2}"))
        query = ContextName.parse("Branch=B1, Period=P1")
        for user in users:
            assert store.user_roles(user, query) == oracle.user_roles(
                user, query
            )
            assert store.user_privilege_exercises(
                user, query
            ) == oracle.user_privilege_exercises(user, query)
            assert [r.request_id for r in store.find_user(user, ROOT)] == [
                r.request_id for r in oracle.find_user(user, ROOT)
            ]
        assert store.stats()["evictions"] > 0
        assert store_digest(store) == store_digest(oracle)

    def test_write_to_evicted_user_lands_in_warm(self):
        store = tiered(hot_users=1)
        store.add(record("u0", 0))
        store.add(record("u1", 0))  # evicts u0
        store.add(record("u0", 1))  # cold write: warm only
        assert len(store.find_user("u0", ROOT)) == 2


class TestPurges:
    def test_purge_user_drops_hot_entry_and_presence(self):
        store = tiered(hot_users=4)
        store.add(record("alice", 0))
        store.add(record("bob", 0, branch="Leeds"))
        assert store.purge_user("alice") == 1
        assert "alice" not in store.resident_users()
        assert store.user_roles("alice", ROOT) == frozenset()
        assert not store.has_context(
            ContextName.parse("Branch=York, Period=P1")
        )
        assert store.has_context(ContextName.parse("Branch=Leeds, Period=P1"))

    def test_purge_older_than_updates_hot_aggregates(self):
        store = tiered(hot_users=4)
        store.add(record("alice", 0, granted_at=1.0))
        store.add(record("alice", 1, granted_at=5.0))
        store.user_roles("alice", ROOT)  # resident
        assert store.purge_older_than(2.0) == 1
        assert [r.request_id for r in store.find_user("alice", ROOT)] == [
            "req-alice-1"
        ]

    @pytest.mark.parametrize("purge", ["purge_user", "purge_older_than"])
    def test_wide_purges_forget_their_contexts_in_one_batch(
        self, purge, monkeypatch
    ):
        """Many vanished contexts reach the presence memo as one batch.

        One ``forget`` call is what lets its bulk rule replace a memo
        sweep per doomed record (the cutover-pause cost) by one sweep.
        """
        from repro.core.store_memory import _ContextPresence

        store = tiered(hot_users=4)
        branches = [f"B{n}" for n in range(12)]
        for index, branch in enumerate(branches):
            store.add(record("alice", index, branch=branch, granted_at=1.0))
        store.add(record("bob", 0, branch="Leeds", granted_at=9.0))
        contexts = [
            ContextName.parse(f"Branch={branch}, Period=P1")
            for branch in [*branches, "Leeds"]
        ]
        assert all(store.has_context(context) for context in contexts)
        batches = []
        forget = _ContextPresence.forget

        def spy(presence, vanished):
            vanished = list(vanished)
            if presence is store._presence:  # not the warm layer's own
                batches.append(len(vanished))
            forget(presence, vanished)

        monkeypatch.setattr(_ContextPresence, "forget", spy)
        if purge == "purge_user":
            assert store.purge_user("alice") == 12
        else:
            assert store.purge_older_than(5.0) == 12
        assert batches == [12]
        assert [store.has_context(context) for context in contexts] == (
            [False] * 12 + [True]
        )
        assert store.context_counts() == store.warm.context_counts()

    def test_purge_context_and_clear(self):
        store = tiered(hot_users=4)
        store.add(record("alice", 0))
        store.add(record("alice", 1, branch="Leeds"))
        assert store.purge_context(ContextName.parse("Branch=York")) == 1
        assert store.count() == 1
        assert store.clear() == 1
        assert store.count() == 0
        assert not store.has_context(ROOT.parse("Branch=Leeds"))


class TestStatsAndPlumbing:
    def test_stats_shape(self):
        store = tiered(hot_users=2)
        store.add(record("alice", 0))
        store.user_roles("alice", ROOT)  # hydrate
        stats = store.stats()
        assert stats["backend"] == "tiered"
        assert stats["records"] == 1
        assert stats["resident_users"] == 1
        assert stats["hot_capacity"] == 2
        assert stats["warm"]["backend"] == "memory"

    def test_close_owns_warm(self, tmp_path):
        warm = SQLiteRetainedADIStore(str(tmp_path / "warm.db"))
        store = TieredADIStore(warm, hot_users=2, owns_warm=True)
        store.add(record("alice", 0))
        store.close()
        with pytest.raises(Exception):
            warm.count()


class _SlowWarm:
    """Warm-layer wrapper whose ``find_user`` trickles records out,
    widening the hydration window a racing reader could observe."""

    def __init__(self, inner, started):
        self._inner = inner
        self._started = started

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def find_user(self, user_id, effective_context):
        records = self._inner.find_user(user_id, effective_context)

        def trickle():
            self._started.set()
            for rec in records:
                time.sleep(0.005)
                yield rec

        return trickle()


class TestHydrationLocking:
    def test_concurrent_reader_never_sees_partial_hydration(self):
        """Hydration runs under the user's shard lock: a reader racing a
        slow hydration blocks and then sees the complete aggregate,
        never a prefix of it."""
        warm = InMemoryRetainedADIStore()
        n_records = 8
        for index in range(n_records):
            warm.add(record("alice", index, branch=f"B{index}"))
        started = threading.Event()
        store = TieredADIStore(
            _SlowWarm(warm, started), hot_users=2, shards=1
        )
        observed = []

        def racing_reader():
            started.wait(timeout=5.0)
            observed.append(len(store.find_user("alice", ROOT)))

        reader = threading.Thread(target=racing_reader)
        reader.start()
        hydrated = store.find_user("alice", ROOT)
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert len(hydrated) == n_records
        assert observed == [n_records]
        # Both threads were served by a single hydration.
        assert store.stats()["hydrations"] == 1

    def test_parallel_users_on_distinct_shards(self):
        store = TieredADIStore(
            InMemoryRetainedADIStore(), hot_users=8, shards=4
        )
        users = [f"u{index}" for index in range(16)]
        for index, user in enumerate(users):
            store.add(record(user, index))
        errors = []

        def worker(user):
            try:
                for _ in range(50):
                    assert store.user_roles(user, ROOT) == frozenset({TELLER})
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(u,)) for u in users]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


    def test_a_shards_row_table_survives_racing_hydration_eviction_and_writes(
        self,
    ):
        """A hot shard's aggregates share its row table: users evicted
        (freeing rows) and hydrated (reusing them) while a writer adds
        must each keep exactly their own rows."""
        store = tiered(hot_users=3, shards=1)
        users = [f"u{index}" for index in range(8)]
        for index, user in enumerate(users):
            store.add(record(user, index, branch=f"B{index}"))
        errors = []

        def reader(user):
            try:
                for _ in range(150):
                    held = store.find_user(user, ROOT)
                    assert held and {r.user_id for r in held} == {user}
                    assert store.user_roles(user, ROOT) == frozenset({TELLER})
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer():
            try:
                for index in range(150):
                    user = users[index % len(users)]
                    store.add(record(user, 100 + index, branch=f"W{index % 5}"))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(u,)) for u in users]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.stats()["evictions"] > 0
        for user in users:
            assert store.find_user(user, ROOT) == store.warm.find_user(user, ROOT)

class TestEngineIntegration:
    def test_engine_decisions_match_always_resident_backend(self):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="bank",
                )
            ]
        )
        oracle_store = InMemoryRetainedADIStore()
        hot_store = tiered(hot_users=2)
        oracle = MSoDEngine(policy_set, oracle_store)
        engine = MSoDEngine(policy_set, hot_store)
        users = [f"u{index}" for index in range(6)]
        for index in range(60):
            user = users[index % len(users)]
            role = TELLER if index % 5 else AUDITOR
            operation, target = (
                ("handleCash", "till://1")
                if role is TELLER
                else ("auditBooks", "ledger://1")
            )
            request = DecisionRequest(
                user_id=user,
                roles=(role,),
                operation=operation,
                target=target,
                context_instance=ContextName.parse(
                    f"Branch=B{index % 3}, Period=P{index % 2}"
                ),
                timestamp=float(index),
                request_id=f"r{index}",
            )
            expected = oracle.check(request)
            actual = engine.check(request)
            assert (actual.effect, actual.records_added) == (
                expected.effect,
                expected.records_added,
            ), f"diverged at step {index}"
        assert hot_store.stats()["evictions"] > 0
        assert store_digest(hot_store) == store_digest(oracle_store)
