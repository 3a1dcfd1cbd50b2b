"""Unit tests for the two aggregate classes every store composes."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_store
from repro.core import (
    ADIMutation,
    ContextName,
    InMemoryRetainedADIStore,
    Privilege,
    RetainedADIRecord,
    Role,
    SQLiteRetainedADIStore,
    TieredADIStore,
)
from repro.core.admin import CONTROLLER_ROLE, RetainedADIManagementPort
from repro.core.store_memory import _ContextBucket, _ContextPresence, _UserAggregate
from repro.workload import BankScaleConfig, bank_scale_history
from tests.test_property_context import pooled_names

_CLERK = Role("role", "Clerk")
_AUDITOR = Role("role", "Auditor")
_ROOT = ContextName.root()


def _record(
    record_id, context="Dept=d1", request_id=None, role=_CLERK, op="op", user="u1"
):
    return RetainedADIRecord(
        user_id=user,
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


def _rebuilt(records):
    """An aggregate built from scratch, in id order, never read before."""
    aggregate = _UserAggregate()
    for record in sorted(records, key=lambda r: r.record_id):
        aggregate.add(record)
    return aggregate


def _views(aggregate, context=_ROOT):
    return (
        aggregate.roles(context),
        aggregate.exercises(context),
        aggregate.records(context),
    )


def _held(aggregate, context):
    """The records ``context``'s pair holds, built from its rows."""
    held = aggregate.buckets[context]
    rows = held.rows if type(held) is _ContextBucket else [held]
    return aggregate.table.records(rows)


class TestOneRecordPairs:
    """A pair holds its one record's row; the second builds a bucket."""

    def test_second_record_promotes_the_pair_everywhere_it_is_held(self):
        store = InMemoryRetainedADIStore()
        d1, d2 = ContextName.parse("Dept=d1"), ContextName.parse("Dept=d2")
        first = store.add(_record(5, request_id="rA"))
        store.add(_record(6, context="Dept=d2", role=_AUDITOR))
        aggregate = store._by_user["u1"]
        assert aggregate._memo is None  # no read yet
        row = aggregate.buckets[d1]
        assert type(row) is int and _held(aggregate, d1) == [first]
        assert store._by_context[d1] == {"u1": row}
        for query in (d1, d2, _ROOT):
            _views(aggregate, query)
        memo = dict(aggregate._memo)
        second = store.add(_record(3, request_id="rA", role=_AUDITOR, op="first"))
        bucket = aggregate.buckets[d1]
        assert type(bucket) is _ContextBucket
        assert _held(aggregate, d1) == [first, second]
        assert store._by_context[d1] == {"u1": bucket}
        assert all(aggregate._memo[query] is memo[query] for query in memo)
        assert aggregate._memo[d1] == [bucket]
        assert bucket in aggregate._memo[_ROOT]
        assert row not in aggregate._memo[_ROOT]
        assert aggregate._memo[d2] == [aggregate.buckets[d2]]
        rebuilt = _rebuilt(aggregate.records(_ROOT))
        for query in (d1, d2, _ROOT):
            assert _views(aggregate, query) == _views(rebuilt, query)
        assert aggregate.exercises(d1) == [Privilege("op", "t")]

    def test_a_second_record_with_a_lower_id_sorts_first(self):
        # A tier's hydration and hot update can file a pair's records out
        # of id order; the promoted bucket is in id order regardless.
        aggregate = _UserAggregate()
        d1 = ContextName.parse("Dept=d1")
        later = _record(5, request_id="rA")
        aggregate.add(later)
        _views(aggregate, d1)
        earlier = _record(3, request_id="rA", role=_AUDITOR, op="first")
        aggregate.add(earlier)  # arrives second, sorts first
        assert _held(aggregate, d1) == [earlier, later]
        assert aggregate.exercises(d1) == [Privilege("first", "t")]

    @pytest.mark.parametrize("promoted", [False, True])
    def test_adding_a_held_record_is_a_no_op_by_id(self, promoted):
        aggregate = _UserAggregate()
        held = [_record(1)] + ([_record(2)] if promoted else [])
        for record in held:
            aggregate.add(record)
        before = aggregate.buckets[held[0].context_instance]
        for record in held:
            assert aggregate.add(record) is None
            assert aggregate.add(_record(record.record_id)) is None  # a copy
        assert aggregate.buckets == {held[0].context_instance: before}
        assert aggregate.records(_ROOT) == held
        assert aggregate.exercises(_ROOT) == [Privilege("op", "t")] * len(held)

    def test_removing_a_bare_record_deletes_the_pair_and_drops_the_memo(self):
        store = InMemoryRetainedADIStore()
        d1 = ContextName.parse("Dept=d1")
        bare = store.add(_record(1))
        kept = store.add(_record(2, context="Dept=d2"))
        aggregate = store._by_user["u1"]
        assert aggregate.roles(d1) == {_CLERK}
        memo = aggregate._memo
        store.apply(ADIMutation(purge_record_ids=(bare.record_id,)))
        assert d1 not in aggregate.buckets and d1 not in store._by_context
        assert store.context_counts() == {kept.context_instance: 1}
        assert aggregate._memo == {} and memo
        assert _views(aggregate) == _views(_rebuilt([kept]))

    def test_removing_from_a_promoted_bucket_keeps_the_others(self):
        store = InMemoryRetainedADIStore()
        d1 = ContextName.parse("Dept=d1")
        records = [
            store.add(_record(n, role=role))
            for n, role in ((1, _CLERK), (2, _AUDITOR), (3, _CLERK))
        ]
        aggregate = store._by_user["u1"]
        bucket = aggregate.buckets[d1]
        assert aggregate.roles(d1) == {_CLERK, _AUDITOR}
        memo = aggregate._memo
        store.apply(ADIMutation(purge_record_ids=(records[1].record_id,)))
        assert aggregate.buckets[d1] is bucket  # still a bucket, not demoted
        assert store._by_context[d1] == {"u1": bucket}
        assert aggregate._memo is memo
        assert _held(aggregate, d1) == [records[0], records[2]]
        assert store.context_counts() == {d1: 2}
        assert _views(aggregate) == _views(_rebuilt([records[0], records[2]]))
        store.apply(ADIMutation(purge_record_ids=(1, 3)))
        assert aggregate.buckets == {} and store._by_context == {}

    def test_earliest_record_orders_exercises_through_promotion_and_removal(self):
        # Read between every change, so each fold is kept up to date in
        # place; each answer must equal a fold built from scratch.
        aggregate = _UserAggregate()
        steps = [
            ("add", _record(4, request_id="rB", op="b")),
            ("add", _record(2, context="Dept=d2", request_id="rA", op="a2")),
            ("add", _record(6, request_id="rA", op="a6")),  # promotes d1
            ("add", _record(1, request_id="rB", op="b1")),  # earlier rB
            ("add", _record(3, context="Dept=d2", request_id="rC", op="c")),
            ("remove", _record(1, request_id="rB", op="b1")),
            ("remove", _record(2, context="Dept=d2", request_id="rA", op="a2")),
        ]
        held = []
        for op, record in steps:
            if op == "add":
                aggregate.add(record)
                held.append(record)
            else:
                aggregate.remove([record])
                held.remove(record)
            for query in ("Dept=d1", "Dept=d2", "Dept=*"):
                query = ContextName.parse(query)
                assert _views(aggregate, query) == _views(_rebuilt(held), query)
        assert aggregate.exercises(_ROOT) == [
            Privilege("c", "t"), Privilege("b", "t"), Privilege("a6", "t")
        ]


class TestMemoryStoreWithoutAnIdMap:
    """The memory store keeps no by-id copy; its management operations
    walk its aggregates and answer as SQLite does on the same mutations."""

    @staticmethod
    def _run(store):
        for n, (user, context) in enumerate(
            [("u1", "Dept=d1"), ("u2", "Dept=d2"), ("u1", "Dept=d1"),
             ("u3", "Dept=d1"), ("u2", "Dept=d3"), ("u1", "Dept=d2")]
        ):
            store.add(_record(n + 1, context=context, user=user))
        port = RetainedADIManagementPort(store)
        seen = [store.count(), [r.record_id for r in store.records()]]
        seen.append(store.purge_older_than(3.0))  # ids 1 and 2 go
        seen.append(port.remove_record([CONTROLLER_ROLE], 3).affected)
        seen.append(port.remove_record([CONTROLLER_ROLE], 3).affected)
        seen.append(port.remove_record([CONTROLLER_ROLE], 99).affected)
        seen += [store.count(), [r.record_id for r in store.records()]]
        seen.append(store.purge_older_than(100.0))
        seen += [store.count(), list(store.records())]
        return seen

    def test_pinned_management_results_equal_sqlite(self):
        memory = InMemoryRetainedADIStore()
        assert not hasattr(memory, "_records")
        sqlite = SQLiteRetainedADIStore(":memory:")
        try:
            expected = [6, [1, 2, 3, 4, 5, 6], 2, 1, 0, 0, 3, [4, 5, 6], 3, 0, []]
            assert self._run(memory) == expected
            assert self._run(sqlite) == expected
        finally:
            sqlite.close()


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
#: Two periods for four records a user: each pair holds two records.
_BANK_REPEATS = BankScaleConfig(n_users=2_000, n_periods=2)


def _preloaded(backend, config=_BANK):
    if backend == "memory":
        store = InMemoryRetainedADIStore()
    elif backend == "sqlite":  # the spec-built default tier
        store = open_store("sqlite::memory:")
    else:
        warm = SQLiteRetainedADIStore(":memory:")
        store = TieredADIStore(warm, hot_users=64, shards=2, owns_warm=True)
    with store.batch():
        for record in bank_scale_history(config, 4):
            store.add(record)
    return store


def _aggregates(store):
    if isinstance(store, TieredADIStore):
        return {
            user_id: entry
            for shard in store._shards
            for user_id, entry in shard.entries.items()
        }
    return store._by_user


def _buckets(store):
    return {
        (user_id, context): held
        for user_id, aggregate in _aggregates(store).items()
        for context, held in aggregate.buckets.items()
        if type(held) is _ContextBucket
    }


def _folded(store):
    return {
        pair
        for pair, bucket in _buckets(store).items()
        if bucket._folded is not None
    }


_QUERY = ContextName.parse("Region=*, Division=D00, Branch=*, Period=P1")


class TestIdleHistory:
    """Preloaded history nobody asks about costs its records and no more."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "tiered"])
    def test_one_record_pairs_build_no_bucket_even_when_read(self, backend):
        store = _preloaded(backend)
        try:
            users = ["u0000000", "u0000024"]
            for user_id in users:  # hydrates the tiered users
                assert len(store.find_user(user_id, _ROOT)) == 4
                assert store.user_roles(user_id, _QUERY)
                assert store.user_privilege_exercises(user_id, _QUERY)
            assert len(_aggregates(store)) >= len(users)
            assert _buckets(store) == {}
        finally:
            store.close()

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "tiered"])
    def test_a_read_folds_only_the_queried_users_matching_buckets(
        self, backend
    ):
        store = _preloaded(backend, _BANK_REPEATS)
        try:
            users = ["u0000000", "u0000024"]  # division 0, branch 0 and 1
            for user_id in users:  # hydrates the tiered users, unfolded
                assert len(store.find_user(user_id, _ROOT)) == 4
            assert len(_aggregates(store)) >= len(users)
            assert _buckets(store) and _folded(store) == set()
            expected = set()
            for user_id, read in zip(
                users, (store.user_roles, store.user_privilege_exercises)
            ):
                assert read(user_id, _QUERY)
                expected |= {
                    (user_id, context)
                    for context in _aggregates(store)[user_id].buckets
                    if _QUERY.matcher.matches(context)
                }
                assert _folded(store) == expected
            assert len(expected) == len(users)
        finally:
            store.close()

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "tiered"])
    def test_no_record_object_stays_resident(self, backend):
        """The rows are the only resident copy: a record is built to be
        handed out, and goes with its last reference."""
        gc.collect()
        # Held, so no record made below can take one of their ids.
        before = [obj for obj in gc.get_objects() if type(obj) is RetainedADIRecord]
        known = {id(obj) for obj in before}
        store = _preloaded(backend)
        try:
            for user_id in ("u0000000", "u0000024"):  # hydrates tiered users
                assert store.user_roles(user_id, _QUERY)
                assert len(store.find_user(user_id, _ROOT)) == 4
            assert len(store.find(_QUERY)) > 0
            gc.collect()
            resident = [
                obj
                for obj in gc.get_objects()
                if type(obj) is RetainedADIRecord and id(obj) not in known
            ]
            assert resident == []
        finally:
            store.close()

    def test_memory_store_bytes_per_record(self):
        """Traced bytes and GC-tracked objects per preloaded record.

        Measured at this size (8 000 records; the fixed cost of 3 840
        parsed contexts weighs more than at ``engine-hot``'s 80 000):
        2 440 B when every bucket built its aggregates on ``add``;
        1 192 B and 6.9 objects with folds deferred to the first read,
        shared strings, one-record lists and a by-id map; 1 027 B and
        4.9 objects with a one-record pair holding its record and no
        by-id map; 665 B and 1.5 objects with the records packed into
        rows and parsed names sharing their components.  Each ceiling
        is the last plus 25 %, rounded.
        """
        gc.collect()
        tracked = len(gc.get_objects())
        tracemalloc.start()
        try:
            store = InMemoryRetainedADIStore()
            for record in bank_scale_history(_BANK, 4):
                store.add(record)
            gc.collect()
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tracked = len(gc.get_objects()) - tracked
        assert traced / store.count() <= 831
        assert tracked / store.count() <= 1.9


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
