"""Unit tests for the two aggregate classes every store composes."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ContextName,
    InMemoryRetainedADIStore,
    Privilege,
    RetainedADIRecord,
    Role,
    SQLiteRetainedADIStore,
    TieredADIStore,
)
from repro.core.adi_index import _ContextPresence, _UserAggregate
from repro.workload import BankScaleConfig, bank_scale_history
from tests.test_property_context import pooled_names

_CLERK = Role("role", "Clerk")
_AUDITOR = Role("role", "Auditor")
_ROOT = ContextName.root()


def _record(record_id, context="Dept=d1", request_id=None, role=_CLERK, op="op"):
    return RetainedADIRecord(
        user_id="u1",
        roles=(role,),
        operation=op,
        target="t",
        context_instance=ContextName.parse(context),
        granted_at=float(record_id),
        request_id=request_id or f"r{record_id}",
        record_id=record_id,
    )


class TestUserAggregate:
    def test_add_and_remove_are_idempotent_by_record_id(self):
        aggregate = _UserAggregate()
        record = _record(1)
        assert aggregate.add(record) is not None
        assert aggregate.add(record) is None
        assert aggregate.records(_ROOT) == [record]
        assert aggregate.exercises(_ROOT) == [Privilege("op", "t")]
        assert aggregate.remove([record]) == [record]
        assert aggregate.remove([record]) == []
        assert aggregate.remove([_record(2, context="Dept=d9")]) == []
        assert aggregate.buckets == {}
        assert aggregate.roles(_ROOT) == frozenset()

    def test_new_bucket_is_appended_to_matching_memo_entries_only(self):
        aggregate = _UserAggregate()
        aggregate.add(_record(1, context="Dept=d1"))
        d1, d2 = ContextName.parse("Dept=d1"), ContextName.parse("Dept=d2")
        assert aggregate.roles(d1) == {_CLERK}
        assert aggregate.roles(d2) == frozenset()
        memo = aggregate._memo
        aggregate.add(_record(2, context="Dept=d2, Case=c1", role=_AUDITOR))
        assert aggregate._memo is memo  # maintained in place, not rebuilt
        assert aggregate.roles(d1) == {_CLERK}
        assert aggregate.roles(d2) == {_AUDITOR}
        assert aggregate.roles(_ROOT) == {_CLERK, _AUDITOR}

    def test_bucket_deletion_drops_the_memo(self):
        aggregate = _UserAggregate()
        first, second = _record(1), _record(2)
        aggregate.add(first)
        aggregate.add(second)
        aggregate.add(_record(3, context="Dept=d2"))
        assert len(aggregate.records(_ROOT)) == 3
        memo = aggregate._memo
        aggregate.remove([first])  # bucket survives: memo kept
        assert aggregate._memo is memo
        aggregate.remove([second])  # bucket gone: memo rebound, not cleared
        assert aggregate._memo == {} and aggregate._memo is not memo
        assert memo != {}
        assert [r.record_id for r in aggregate.records(_ROOT)] == [3]

    def test_exercise_is_the_earliest_record_of_each_request(self):
        # Step 5.iv stores one record per matched role; the request
        # counts once, as its earliest record's privilege, in id order.
        aggregate = _UserAggregate()
        earliest = _record(1, request_id="rA", op="first")
        aggregate.add(_record(2, request_id="rB", op="other"))
        aggregate.add(_record(3, request_id="rA", op="later", role=_AUDITOR))
        aggregate.add(earliest)
        assert aggregate.exercises(_ROOT) == [
            Privilege("first", "t"),
            Privilege("other", "t"),
        ]
        aggregate.remove([earliest])
        assert aggregate.exercises(_ROOT) == [
            Privilege("other", "t"),
            Privilege("later", "t"),
        ]
        assert aggregate.roles(_ROOT) == {_CLERK, _AUDITOR}


class TestContextPresence:
    def test_counts_follow_adds_and_forgets(self):
        d1 = ContextName.parse("Dept=d1")
        presence = _ContextPresence({d1: 2})
        presence.add(d1)
        presence.forget([d1, d1, ContextName.parse("Dept=never-seen")])
        assert presence.counts == {d1: 1}
        assert presence.has_context(d1)
        presence.forget([d1])
        assert presence.counts == {}
        assert not presence.has_context(d1)

    def test_absence_is_not_memoised_and_a_new_context_sweeps_nothing(self):
        presence = _ContextPresence()
        d1, d2 = ContextName.parse("Dept=d1"), ContextName.parse("Dept=d2")
        assert not presence.has_context(d1)
        assert not presence.has_context(d2)
        assert presence._memo == {}
        presence.add(ContextName.parse("Dept=d1, Case=c1"))
        assert presence._memo == {}  # add never touches the memo
        assert presence.has_context(d1) and not presence.has_context(d2)
        assert presence._memo == {d1: True}

    def test_vanished_context_drops_only_matching_true_entries(self):
        d1c1 = ContextName.parse("Dept=d1, Case=c1")
        d2c1 = ContextName.parse("Dept=d2, Case=c1")
        presence = _ContextPresence({d1c1: 1, d2c1: 1})
        d1, d2, d3 = (ContextName.parse(f"Dept=d{n}") for n in (1, 2, 3))
        assert presence.has_context(d1) and presence.has_context(d2)
        assert not presence.has_context(d3)
        assert presence._memo == {d1: True, d2: True}
        presence.forget([d1c1])
        assert presence._memo == {d2: True}
        assert not presence.has_context(d1)
        assert presence._postings == {(0, "d2"): {d2c1}, (1, "c1"): {d2c1}}

    def test_bulk_forget_drops_every_true_entry_and_recomputes(self):
        doomed = [ContextName.parse(f"Dept=d{n}") for n in range(9)]
        kept = ContextName.parse("Dept=kept")
        absent = ContextName.parse("Dept=absent")
        presence = _ContextPresence({context: 1 for context in [*doomed, kept]})
        for query in [*doomed, kept, _ROOT]:
            assert presence.has_context(query)
        assert not presence.has_context(absent)
        assert len(doomed) > _ContextPresence._BULK_FORGET
        presence.forget(doomed)
        # One matcher-free drop: even the still-true entries go, and the
        # next queries recompute from the posting map.
        assert presence._memo == {}
        assert presence.counts == {kept: 1}
        assert presence._postings == {(0, "kept"): {kept}}
        assert presence.has_context(kept) and presence.has_context(_ROOT)
        assert not any(presence.has_context(context) for context in doomed)


_BANK = BankScaleConfig(n_users=2_000)


def _preloaded(backend):
    if backend == "memory":
        store = InMemoryRetainedADIStore()
    elif backend == "sqlite":
        store = SQLiteRetainedADIStore(":memory:")
    else:
        warm = SQLiteRetainedADIStore(":memory:")
        store = TieredADIStore(warm, hot_users=64, shards=2, owns_warm=True)
    with store.batch():
        for record in bank_scale_history(_BANK, 4):
            store.add(record)
    return store


def _aggregates(store):
    if isinstance(store, TieredADIStore):
        return {
            user_id: entry
            for shard in store._shards
            for user_id, entry in shard.entries.items()
        }
    return store._index._by_user


def _folded(store):
    return {
        (user_id, context)
        for user_id, aggregate in _aggregates(store).items()
        for context, bucket in aggregate.buckets.items()
        if bucket._folded is not None
    }


class TestIdleHistory:
    """Preloaded history nobody asks about costs its records and no more."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "tiered"])
    def test_a_read_folds_only_the_queried_users_matching_buckets(
        self, backend
    ):
        store = _preloaded(backend)
        try:
            store.has_context(_ROOT)  # builds SQLite's lock-step index
            users = ["u0000000", "u0000024"]  # division 0, branch 0 and 1
            for user_id in users:  # hydrates the tiered users, unfolded
                assert len(store.find_user(user_id, _ROOT)) == 4
            assert len(_aggregates(store)) >= len(users)
            assert _folded(store) == set()
            query = ContextName.parse(
                "Region=*, Division=D00, Branch=*, Period=P1"
            )
            expected = set()
            for user_id, read in zip(
                users, (store.user_roles, store.user_privilege_exercises)
            ):
                assert read(user_id, query)
                expected |= {
                    (user_id, context)
                    for context in _aggregates(store)[user_id].buckets
                    if query.matcher.matches(context)
                }
                assert _folded(store) == expected
            assert len(expected) == len(users)
        finally:
            store.close()

    def test_memory_store_bytes_per_record(self):
        """Traced bytes the memory store holds per preloaded record.

        Measured at this size (8 000 records; the fixed cost of 3 840
        parsed contexts weighs more than at ``engine-hot``'s 80 000):
        2 440 B when every bucket built its aggregates on ``add``, and
        1 172 B with folds deferred to the first read, shared strings
        and one-record lists.  The ceiling is the latter plus 25 %.
        """
        tracemalloc.start()
        try:
            store = InMemoryRetainedADIStore()
            for record in bank_scale_history(_BANK, 4):
                store.add(record)
            gc.collect()
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traced / store.count() <= 1_465


_VALUES = ("x", "y", "z")
_LIVE = pooled_names(_VALUES, max_depth=3)  # depth 0 is the root
_EFFECTIVE = pooled_names(_VALUES + ("*", "!"), max_depth=4)  # may outgrow every live one
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _LIVE),
        st.tuples(st.just("forget"), st.lists(_LIVE, max_size=12)),
    ),
    max_size=40,
)


class TestContextMatchingProperty:
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, queries=st.lists(_EFFECTIVE, min_size=1, max_size=8))
    def test_matching_is_the_brute_force_filter_and_postings_stay_exact(
        self, ops, queries
    ):
        presence = _ContextPresence()
        for op, argument in ops:
            if op == "add":
                presence.add(argument)
            else:
                presence.forget(argument)
            live = presence.counts
            for effective in queries:
                brute = set(filter(effective.matcher.matches, live))
                assert set(presence.matching(effective)) == brute
                assert presence.has_context(effective) == bool(brute)
            expected: dict = {}
            for context in live:
                for position, component in enumerate(context):
                    expected.setdefault((position, component.value), set()).add(
                        context
                    )
            # Equality rules out an empty posting and a vanished context.
            assert presence._postings == expected
