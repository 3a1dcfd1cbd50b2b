"""Regression tests for store index hygiene and purge atomicity.

Two defects fixed alongside the hot-path work:

* the in-memory store's user index used to keep record ids after a
  delete, so long-lived users accumulated stale entries without bound;
* the SQLite ``purge_context``/``apply`` used to select doomed rows via
  ``find()`` *before* taking the store lock, so a concurrent ``add``
  could slip a matching record into the select-to-delete window and
  survive the purge;
* the SQLite purges committed the caller's open ``batch()`` early, after
  which each later decision in the batch paid its own commit.
"""

import sqlite3
import threading

import pytest

from repro.core import (
    ContextName,
    InMemoryRetainedADIStore,
    Privilege,
    RetainedADIRecord,
    Role,
    SQLiteRetainedADIStore,
)
from repro.core.retained_adi import ADIMutation


def _record(index, user="u1", context="Dept=d1"):
    return RetainedADIRecord(
        user_id=user,
        roles=(Role("role", "Clerk"),),
        operation="op",
        target="t",
        context_instance=ContextName.parse(context),
        granted_at=float(index),
        request_id=f"r{index}",
    )


class TestInMemoryIndexHygiene:
    def test_purge_fully_unlinks_user_entries(self):
        store = InMemoryRetainedADIStore()
        for index in range(5):
            store.add(_record(index))
        assert store.purge_context(ContextName.parse("Dept=d1")) == 5
        assert store.count() == 0
        # The user index must not retain empty/stale entries.
        assert store.stats()["resident_users"] == 0
        assert store.context_counts() == {}

    def test_repeated_add_purge_cycles_do_not_leak(self):
        store = InMemoryRetainedADIStore()
        context = ContextName.parse("Dept=d1")
        for cycle in range(50):
            store.add(_record(cycle))
            assert store.purge_context(context) == 1
        assert store.stats()["resident_users"] == 0
        assert store.find_user("u1", context) == []
        assert store.user_roles("u1", context) == frozenset()

    def test_purge_user_and_clear_unlink_everything(self):
        store = InMemoryRetainedADIStore()
        store.add(_record(0, user="u1"))
        store.add(_record(1, user="u2"))
        assert store.purge_user("u1") == 1
        assert store.stats()["resident_users"] == 1
        assert store.context_counts() == {ContextName.parse("Dept=d1"): 1}
        assert store.clear() == 1
        assert store.stats()["resident_users"] == 0
        assert store.context_counts() == {}

    def test_partial_purge_keeps_other_contexts(self):
        store = InMemoryRetainedADIStore()
        store.add(_record(0, context="Dept=d1"))
        store.add(_record(1, context="Dept=d2"))
        store.purge_context(ContextName.parse("Dept=d1"))
        assert [r.context_instance for r in store.find_user(
            "u1", ContextName.root()
        )] == [ContextName.parse("Dept=d2")]


class TestSQLiteReadsUnderLock:
    def test_reads_touch_the_table_only_under_lock(self):
        """Every read runs its SQL under ``self._lock``.

        ``records()``/``find()``/``find_user()`` once fetched rows under
        the lock and deserialised them into a row cache after releasing
        it, racing concurrent tiered hydrations.  Reads now decode what
        they select under the lock, and the engine's views (the scan
        definitions over them) and the tier's seeds read the same way.
        """
        store = SQLiteRetainedADIStore(":memory:")

        class LockChecked:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                assert store._lock.locked(), f"{name} used unlocked"
                return getattr(self._inner, name)

        conn = store._conn
        try:
            for index in range(3):
                store.add(_record(index))
            reads = (
                lambda: list(store.records()),
                lambda: store.find(ContextName.parse("Dept=d1")),
                lambda: store.find_user("u1", ContextName.root()),
            )
            scope = ContextName.parse("Dept=d1")
            store._conn = LockChecked(conn)
            for read in reads:  # decoded from the table
                assert len(read()) == 3
            assert store.has_context(scope)
            assert store.user_roles("u1", scope)
            assert store.users_with_privileges([Privilege("op", "t")], scope)
            assert store.context_counts() == {scope: 3}
            assert store.owner_counts([Privilege("op", "t")])
        finally:
            store._conn = conn
            store.close()


class TestSQLitePurgeAtomicity:
    def test_purge_context_does_not_preselect_via_find(self, monkeypatch):
        """Candidate selection must happen inside the locked transaction."""
        store = SQLiteRetainedADIStore(":memory:")
        try:
            store.add(_record(0))

            def poisoned_find(effective_context):
                raise AssertionError(
                    "purge_context must not select candidates through the "
                    "unlocked find() path"
                )

            monkeypatch.setattr(store, "find", poisoned_find)
            assert store.purge_context(ContextName.parse("Dept=d1")) == 1
            assert store.count() == 0
        finally:
            store.close()

    def test_apply_does_not_preselect_via_find(self, monkeypatch):
        store = SQLiteRetainedADIStore(":memory:")
        try:
            store.add(_record(0))
            monkeypatch.setattr(
                store,
                "find",
                lambda *_: pytest.fail("apply must not call find()"),
            )
            mutation = ADIMutation(
                adds=[_record(1, context="Dept=d2")],
                purge_contexts=[ContextName.parse("Dept=d1")],
            )
            assert store.apply(mutation) == 1
            assert [
                str(record.context_instance) for record in store.records()
            ] == ["Dept=d2"]
        finally:
            store.close()

    def test_concurrent_adds_never_survive_a_purge_window(self):
        """Records added while purges run either die or postdate the purge.

        The old select-then-lock window let a concurrent add land
        *before* the delete yet escape the doomed set.  With selection
        inside the transaction that interleaving is impossible: after
        the final purge round no record inserted before it can remain.
        """
        store = SQLiteRetainedADIStore(":memory:")
        context = ContextName.parse("Dept=d1")
        stop = threading.Event()

        def adder():
            index = 1000
            while not stop.is_set():
                store.add(_record(index))
                index += 1

        thread = threading.Thread(target=adder)
        thread.start()
        try:
            for _ in range(100):
                store.purge_context(context)
        finally:
            stop.set()
            thread.join()
        survivors = store.find(context)
        final_purge_floor = max(
            (record.record_id for record in survivors), default=0
        )
        store.purge_context(context)
        assert store.find(context) == []
        # Sanity: the index/cache stayed consistent with the table.
        assert store.count() == 0
        assert final_purge_floor >= 0
        store.close()


class TestSQLitePurgeInsideBatch:
    @pytest.mark.parametrize(
        "purge",
        [
            lambda store: store.purge_context(ContextName.parse("Dept=d9")),
            lambda store: store.purge_user("nobody"),
            lambda store: store.purge_older_than(-1.0),
            lambda store: store.clear(),
        ],
        ids=["purge_context", "purge_user", "purge_older_than", "clear"],
    )
    def test_a_purge_joins_the_open_batch(self, tmp_path, purge):
        """Nothing of an open batch is visible to another connection.

        Not after the purge, and not after a decision that follows it:
        each purge is a savepoint of the batch transaction, which
        commits once, when the batch exits.
        """
        path = str(tmp_path / "adi.db")
        store = SQLiteRetainedADIStore(path)
        observer = sqlite3.connect(path)

        def committed_rows():
            (rows,) = observer.execute(
                "SELECT COUNT(*) FROM retained_adi"
            ).fetchone()
            return rows

        try:
            store.add(_record(0))
            with store.batch():
                store.apply(ADIMutation(adds=[_record(1)]))
                purge(store)
                assert store._conn.in_transaction
                assert committed_rows() == 1
                store.apply(ADIMutation(adds=[_record(2)]))
                assert committed_rows() == 1
            assert committed_rows() == store.count() > 0
        finally:
            observer.close()
            store.close()
