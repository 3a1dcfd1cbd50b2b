"""Unit tests for the retained-ADI stores (Sections 4.1-4.3, 5.2, 6)."""

import json
import re
import sqlite3
import sys

import pytest

from repro.api import open_store
from repro.core.constraints import Privilege, Role
from repro.core.context import ContextName
from repro.core.decision import DecisionRequest, Effect
from repro.core.engine import MSoDEngine
from repro.core.retained_adi import (
    ADIMutation,
    RetainedADIRecord,
    _shared_roles,
    store_digest,
)
from repro.core.store_memory import InMemoryRetainedADIStore
from repro.core.store_sqlite import SQLiteRetainedADIStore
from repro.core.tiered import TieredADIStore
from repro.errors import StoreError
from repro.workload.generator import bank_policy_set

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")


def record(
    user="alice",
    roles=(TELLER,),
    operation="handleCash",
    target="till://1",
    context="Branch=York, Period=2006",
    at=1.0,
    request_id="req-1",
):
    return RetainedADIRecord(
        user_id=user,
        roles=tuple(roles),
        operation=operation,
        target=target,
        context_instance=ContextName.parse(context),
        granted_at=at,
        request_id=request_id,
    )


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    if request.param == "memory":
        yield InMemoryRetainedADIStore()
    else:
        sqlite_store = SQLiteRetainedADIStore(":memory:")
        yield sqlite_store
        sqlite_store.close()


class TestRecord:
    def test_privilege_view(self):
        assert record().privilege == Privilege("handleCash", "till://1")

    def test_in_context_wildcard(self):
        rec = record(context="Branch=York, Period=2006")
        assert rec.in_context(ContextName.parse("Branch=*, Period=2006"))
        assert not rec.in_context(ContextName.parse("Branch=*, Period=2007"))

    def test_dict_round_trip(self):
        rec = record(roles=(TELLER, AUDITOR))
        restored = RetainedADIRecord.from_dict(rec.to_dict(), record_id=9)
        assert restored.user_id == rec.user_id
        assert restored.roles == rec.roles
        assert restored.context_instance == rec.context_instance
        assert restored.record_id == 9


class TestStoreBasics:
    def test_add_assigns_record_id(self, store):
        stored = store.add(record())
        assert stored.record_id is not None
        assert store.count() == 1

    def test_records_iterates_all(self, store):
        store.add(record(request_id="r1"))
        store.add(record(user="bob", request_id="r2"))
        assert {rec.user_id for rec in store.records()} == {"alice", "bob"}

    def test_find_by_context(self, store):
        store.add(record(context="Branch=York, Period=2006"))
        store.add(record(context="Branch=Leeds, Period=2006", request_id="r2"))
        store.add(record(context="Branch=York, Period=2007", request_id="r3"))
        found = store.find(ContextName.parse("Branch=*, Period=2006"))
        assert len(found) == 2

    def test_find_user_scopes_to_user(self, store):
        store.add(record(user="alice"))
        store.add(record(user="bob", request_id="r2"))
        found = store.find_user("alice", ContextName.parse("Branch=*, Period=2006"))
        assert len(found) == 1
        assert found[0].user_id == "alice"

    def test_has_context(self, store):
        assert not store.has_context(ContextName.parse("Branch=*, Period=2006"))
        store.add(record())
        assert store.has_context(ContextName.parse("Branch=*, Period=2006"))

    def test_purge_context_removes_subordinates(self, store):
        store.add(record(context="Branch=York, Period=2006"))
        store.add(record(context="Branch=York, Period=2006, Till=1", request_id="r2"))
        store.add(record(context="Branch=York, Period=2007", request_id="r3"))
        removed = store.purge_context(ContextName.parse("Branch=*, Period=2006"))
        assert removed == 2
        assert store.count() == 1

    def test_purge_user(self, store):
        store.add(record(user="alice"))
        store.add(record(user="bob", request_id="r2"))
        assert store.purge_user("alice") == 1
        assert {rec.user_id for rec in store.records()} == {"bob"}

    def test_purge_users_wider_than_one_select(self, store):
        """More users than one ``IN (…)`` select binds: the purge still
        reports each of their records once, in record-id order."""
        users = [f"u{n}" for n in range(2_500)]
        with store.batch():
            for n, user in enumerate(users * 2):
                store.add(record(user=user, request_id=f"r{n}"))
        doomed = users[::-1][:2_000] + users[-10:]  # out of order, repeated
        purged = store.apply_detailed(ADIMutation(purge_users=tuple(doomed)))
        ids = [rec.record_id for rec in purged.purged_records]
        assert ids == sorted(ids) and len(ids) == 4_000
        assert {rec.user_id for rec in purged.purged_records} == set(doomed)
        assert store.user_ids() == set(users) - set(doomed)

    def test_purge_older_than(self, store):
        store.add(record(at=1.0))
        store.add(record(at=5.0, request_id="r2"))
        assert store.purge_older_than(3.0) == 1
        assert store.count() == 1

    def test_clear(self, store):
        store.add(record())
        store.add(record(request_id="r2"))
        assert store.clear() == 2
        assert store.count() == 0


class TestStoreViews:
    def test_user_roles_aggregates(self, store):
        store.add(record(roles=(TELLER,)))
        store.add(record(roles=(AUDITOR,), request_id="r2"))
        roles = store.user_roles("alice", ContextName.parse("Branch=*, Period=2006"))
        assert roles == {TELLER, AUDITOR}

    def test_user_roles_respects_context(self, store):
        store.add(record(roles=(TELLER,), context="Branch=York, Period=2006"))
        roles = store.user_roles("alice", ContextName.parse("Branch=*, Period=2007"))
        assert roles == frozenset()

    def test_privilege_exercises_dedupe_by_request(self, store):
        # One decision request may add several role records (step 5.iv);
        # they count as one exercise of the operation.
        store.add(record(roles=(TELLER,), request_id="same"))
        store.add(record(roles=(AUDITOR,), request_id="same"))
        store.add(record(request_id="other"))
        exercises = store.user_privilege_exercises(
            "alice", ContextName.parse("Branch=*, Period=2006")
        )
        assert len(exercises) == 2

    def test_privilege_exercises_preserve_multiplicity(self, store):
        store.add(record(request_id="r1"))
        store.add(record(request_id="r2"))
        exercises = store.user_privilege_exercises(
            "alice", ContextName.parse("Branch=*, Period=2006")
        )
        assert len(exercises) == 2

    def test_owner_counts_group_each_listed_privilege(self, store):
        store.add(record(user="alice", request_id="r1"))
        store.add(record(user="alice", roles=(AUDITOR,), request_id="r1"))
        store.add(record(user="bob", context="Branch=Hull, Period=2006"))
        store.add(record(user="carol", operation="auditBooks", target="ledger://1"))
        cash = Privilege("handleCash", "till://1")
        books = Privilege("auditBooks", "ledger://1")
        never = Privilege("close", "ledger://1")
        york = ContextName.parse("Branch=York, Period=2006")
        hull = ContextName.parse("Branch=Hull, Period=2006")
        assert store.owner_counts([cash, never]) == {
            cash: {york: {"alice": 2}, hull: {"bob": 1}},
            never: {},
        }
        assert store.owner_counts([books]) == {books: {york: {"carol": 1}}}
        assert store.owner_counts([]) == {}


class TestMutation:
    def test_apply_purges_then_adds(self, store):
        store.add(record())
        mutation = ADIMutation(
            adds=[record(context="Branch=York, Period=2007", request_id="r2")],
            purge_contexts=[ContextName.parse("Branch=*, Period=2006")],
        )
        store.apply(mutation)
        contexts = {str(rec.context_instance) for rec in store.records()}
        assert contexts == {"Branch=York, Period=2007"}


class TestDigest:
    def test_digest_reflects_content_not_backend(self):
        memory = InMemoryRetainedADIStore()
        sqlite_store = SQLiteRetainedADIStore(":memory:")
        for target in (memory, sqlite_store):
            target.add(record())
            target.add(record(user="bob", request_id="r2"))
        assert store_digest(memory) == store_digest(sqlite_store)
        sqlite_store.close()

    def test_digest_changes_on_add(self):
        store = InMemoryRetainedADIStore()
        before = store_digest(store)
        store.add(record())
        assert store_digest(store) != before


class TestSQLiteSpecifics:
    def test_persistence_across_connections(self, tmp_path):
        path = str(tmp_path / "adi.db")
        first = SQLiteRetainedADIStore(path)
        first.add(record())
        first.close()
        second = SQLiteRetainedADIStore(path)
        assert second.count() == 1
        assert next(iter(second.records())).user_id == "alice"
        second.close()

    def test_closed_store_raises(self):
        store = SQLiteRetainedADIStore(":memory:")
        store.close()
        with pytest.raises(StoreError):
            store.add(record())
        with pytest.raises(StoreError):
            store.count()

    def test_close_is_idempotent(self):
        store = SQLiteRetainedADIStore(":memory:")
        store.close()
        store.close()

    def test_warm_bytes_counts_pages_in_use_not_free_ones(self, tmp_path):
        store = SQLiteRetainedADIStore(str(tmp_path / "adi.db"))
        try:
            with store.batch():
                for index in range(2_000):
                    store.add(record(
                        user=f"user-{index:05d}", at=float(index),
                        target=f"till://{index}", request_id=f"req-{index}",
                    ))
            before = store.stats()["warm_bytes"]
            assert store.purge_older_than(1_900.0) == 1_900
            (pages,) = store._conn.execute("PRAGMA page_count").fetchone()
            (free,) = store._conn.execute("PRAGMA freelist_count").fetchone()
            (size,) = store._conn.execute("PRAGMA page_size").fetchone()
            assert free > 0  # the purge left free pages in the file
            assert store.stats()["warm_bytes"] == (pages - free) * size < before
        finally:
            store.close()


def fresh(text):
    """An equal copy of ``text`` that is not the interned object."""
    return "".join(list(text))


@pytest.fixture(params=["sqlite", "tiered:sqlite"])
def file_store(request, tmp_path):
    """A file-backed SQLite store, bare or as a tier's warm layer."""
    path = str(tmp_path / "adi.db")
    warm = SQLiteRetainedADIStore(path, max_row_cache=4)
    store = warm
    if request.param == "tiered:sqlite":
        store = TieredADIStore(warm, hot_users=2, shards=1, owns_warm=True)
    yield store, warm, path
    store.close()


class TestStampedRecord:
    """The record a write returns is the one the file holds."""

    @pytest.mark.parametrize("via", ["add", "apply_detailed"])
    def test_returned_record_is_the_row(self, file_store, via):
        store, warm, path = file_store
        given = record(
            user=fresh("alice"),
            roles=(Role(fresh("employee"), fresh("Teller")), AUDITOR),
            operation=fresh("handleCash"),
            target=fresh("till://7"),
            context="Branch=York, Period=2006, Till=7",
            at=12.5,
            request_id="req-stamp",
        )
        store.add(record(request_id="earlier"))
        if via == "add":
            stored = store.add(given)
        else:
            (stored,) = store.apply_detailed(ADIMutation(adds=[given])).added
        cursor = warm._conn.execute(
            "SELECT * FROM retained_adi WHERE record_id = ?", (stored.record_id,)
        )
        columns = dict(zip([column for column, *_ in cursor.description],
                           cursor.fetchone()))
        assert json.loads(columns.pop("roles")) == [
            [role.role_type, role.value] for role in given.roles
        ]
        assert columns == {
            "record_id": stored.record_id,
            "user_id": given.user_id,
            "operation": given.operation,
            "target": given.target,
            "context": str(given.context_instance),
            "granted_at": given.granted_at,
            "request_id": given.request_id,
        }
        assert stored == given._replace(record_id=stored.record_id)
        assert stored.user_id is sys.intern("alice")
        assert stored.operation is sys.intern("handleCash")
        assert stored.target is sys.intern("till://7")
        assert stored.roles is _shared_roles((TELLER, AUDITOR))
        store.close()
        reopened = SQLiteRetainedADIStore(path)
        try:
            by_id = {rec.record_id: rec for rec in reopened.records()}
            assert by_id[stored.record_id] == stored
        finally:
            reopened.close()


class TestWarmLayerSQL:
    """What the SQLite store asks its file, and the schema it keeps."""

    @staticmethod
    def traced_selects(conn, call):
        statements = []
        conn.set_trace_callback(statements.append)
        try:
            call()
        finally:
            conn.set_trace_callback(None)
        return [sql for sql in statements if sql.lstrip().upper().startswith("SELECT")]

    def test_hydration_is_one_user_id_search(self, tmp_path):
        path = str(tmp_path / "adi.db")
        warm = SQLiteRetainedADIStore(path, max_row_cache=4)
        tier = TieredADIStore(warm, hot_users=2, shards=1, owns_warm=True)
        tier.add(record(user="alice"))
        tier.add(record(user="alice", context="Branch=Hull, Period=2007",
                        roles=(AUDITOR,), request_id="r2"))
        tier.add(record(user="bob", request_id="r3"))
        cold = TieredADIStore(warm, hot_users=2, shards=1)
        selects = self.traced_selects(
            warm._conn,
            lambda: cold.user_roles("alice", ContextName.parse("Branch=*, Period=2006")),
        )
        assert len(selects) == 1
        (sql,) = selects
        assert "LIKE" not in sql.upper()
        (where,) = re.findall(r"WHERE (.*) ORDER BY", sql)
        assert where == "user_id = 'alice'"
        plan = " ".join(
            row[-1] for row in warm._conn.execute("EXPLAIN QUERY PLAN " + sql)
        )
        assert "idx_adi_user" in plan
        assert cold.user_roles("alice", ContextName.root()) == {TELLER, AUDITOR}
        tier.close()

    @pytest.mark.parametrize(
        "policy",
        [
            "Branch=*, Period=2006",
            "Branch=Y%rk, Period=*",
            "Branch=Y_rk, Period=2006",
            "Branch=York",
            "Branch=york",
            "Branch=*, Period=20_6",
        ],
    )
    def test_non_root_reads_still_narrow_by_context(self, policy):
        contexts = [
            "Branch=York, Period=2006",
            "Branch=York, Period=2006, Till=1",
            "Branch=Y%rk, Period=2006",
            "Branch=Y_rk, Period=2006",
            "Branch=YXrk, Period=2006",
            "Branch=york, Period=2006",
            "Branch=York, Period=20_6",
            "Branch=York, Period=2016",
        ]
        sqlite_store = SQLiteRetainedADIStore(":memory:")
        memory = InMemoryRetainedADIStore()
        for index, context in enumerate(contexts):
            for target in (sqlite_store, memory):
                for user in ("alice", "bob"):
                    target.add(record(user=user, context=context,
                                      request_id=f"r{index}"))
        context = ContextName.parse(policy)

        def key(records):
            return sorted((r.user_id, str(r.context_instance)) for r in records)

        found = []
        selects = self.traced_selects(
            sqlite_store._conn,
            lambda: found.extend(
                [sqlite_store.find(context), sqlite_store.find_user("alice", context)]
            ),
        )
        assert key(found[0]) == key(memory.find(context))
        assert key(found[1]) == key(memory.find_user("alice", context))
        assert len(selects) == 2
        assert all("LIKE" in sql for sql in selects)
        assert "user_id = 'alice'" in selects[1]
        sqlite_store.close()

    def test_opening_drops_the_unused_context_index(self, tmp_path):
        path = str(tmp_path / "old.db")
        records = [
            record(user=f"u{n % 3}", context=f"Branch=B{n % 4}, Period=2006",
                   request_id=f"r{n}")
            for n in range(12)
        ]
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE retained_adi (
                record_id INTEGER PRIMARY KEY AUTOINCREMENT,
                user_id TEXT NOT NULL,
                context TEXT NOT NULL,
                payload TEXT NOT NULL,
                granted_at REAL NOT NULL
            );
            CREATE INDEX idx_adi_user ON retained_adi(user_id);
            CREATE INDEX idx_adi_context ON retained_adi(context);
            """
        )
        conn.executemany(
            "INSERT INTO retained_adi (user_id, context, payload, granted_at)"
            " VALUES (?, ?, ?, ?)",
            [
                (r.user_id, str(r.context_instance),
                 json.dumps(r.to_dict(), sort_keys=True), r.granted_at)
                for r in records
            ],
        )
        conn.commit()
        conn.close()
        oracle = InMemoryRetainedADIStore(records)
        for _ in range(2):  # a second open finds nothing left to drop
            store = SQLiteRetainedADIStore(path)
            try:
                indexes = {
                    name
                    for (name,) in store._conn.execute(
                        "SELECT name FROM sqlite_master WHERE type = 'index'"
                    )
                }
                assert "idx_adi_context" not in indexes
                assert "idx_adi_user" in indexes
                assert store_digest(store) == store_digest(oracle)
                assert store.context_counts() == oracle.context_counts()
            finally:
                store.close()


class TestPayloadMigration:
    """A file whose rows hold a JSON ``payload`` is rewritten once, on open."""

    OLD_SCHEMA = """
        CREATE TABLE retained_adi (
            record_id INTEGER PRIMARY KEY AUTOINCREMENT,
            user_id TEXT NOT NULL,
            context TEXT NOT NULL,
            payload TEXT NOT NULL,
            granted_at REAL NOT NULL
        );
        CREATE INDEX idx_adi_user ON retained_adi(user_id);
        CREATE INDEX idx_adi_context ON retained_adi(context);
    """

    @classmethod
    def old_file(cls, path, records, deleted):
        """An old-schema file holding ``records``, then ``deleted`` removed;
        the records it keeps, read as the old store read them."""
        conn = sqlite3.connect(path)
        conn.executescript(cls.OLD_SCHEMA)
        conn.executemany(
            "INSERT INTO retained_adi (user_id, context, payload, granted_at)"
            " VALUES (?, ?, ?, ?)",
            [
                (r.user_id, str(r.context_instance),
                 json.dumps(r.to_dict(), sort_keys=True), r.granted_at)
                for r in records
            ],
        )
        conn.executemany(
            "DELETE FROM retained_adi WHERE record_id = ?", [(n,) for n in deleted]
        )
        conn.commit()
        kept = [
            RetainedADIRecord.from_dict(json.loads(payload), record_id)
            for record_id, payload in conn.execute(
                "SELECT record_id, payload FROM retained_adi ORDER BY record_id"
            )
        ]
        conn.close()
        return kept

    @staticmethod
    def snapshot(path):
        """What an open that migrates nothing must leave as it found."""
        conn = sqlite3.connect(path)
        try:
            return (
                conn.execute("PRAGMA schema_version").fetchone(),
                conn.execute("SELECT * FROM retained_adi ORDER BY record_id").fetchall(),
                conn.execute("SELECT * FROM sqlite_sequence").fetchall(),
            )
        finally:
            conn.close()

    def test_old_file_is_migrated_once_keeping_ids_and_sequence(self, tmp_path):
        path = str(tmp_path / "old.db")
        history = [
            record(user=f"u{n % 3}", roles=(TELLER, AUDITOR)[: 1 + n % 2],
                   context=f"Branch=B{n % 4}, Period=2006", at=n + 0.25,
                   request_id=f"r{n}")
            for n in range(12)
        ]
        # The highest id goes: only the sequence still remembers it.
        before = self.old_file(path, history, deleted=(5, 12))
        assert [r.record_id for r in before] == [1, 2, 3, 4, 6, 7, 8, 9, 10, 11]

        store = SQLiteRetainedADIStore(path)
        try:
            after = list(store.records())
            assert after == before
            for got, old in zip(after, before):
                assert [type(field) for field in got] == [type(field) for field in old]
            columns = [
                name
                for _, name, *_ in store._conn.execute("PRAGMA table_info(retained_adi)")
            ]
            assert columns == [
                "record_id", "user_id", "roles", "operation", "target",
                "context", "granted_at", "request_id",
            ]
            # The old table's pages went back with a VACUUM.
            assert store._conn.execute("PRAGMA freelist_count").fetchone() == (0,)
        finally:
            store.close()

        migrated = self.snapshot(path)
        SQLiteRetainedADIStore(path).close()
        assert self.snapshot(path) == migrated  # a second open changes nothing

        store = SQLiteRetainedADIStore(path)
        try:
            assert store.add(record(request_id="next")).record_id == 13
        finally:
            store.close()

    def test_migrated_store_decides_as_a_memory_oracle(self, tmp_path):
        path = str(tmp_path / "old.db")
        history = [
            record(user=f"u{n % 4}", roles=((TELLER,), (AUDITOR,))[n % 3 == 0],
                   context=f"Branch=B{n % 3}, Period=2006", at=float(n),
                   request_id=f"r{n}")
            for n in range(24)
        ]
        kept = self.old_file(path, history, deleted=(24,))
        oracle = MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore(kept))
        store = SQLiteRetainedADIStore(path)
        try:
            engine = MSoDEngine(bank_policy_set(), store)
            effects = []
            for n in range(36):
                request = DecisionRequest(
                    f"u{n % 5}", ((TELLER,), (AUDITOR,))[n % 2], "handleCash",
                    "till://1", ContextName.parse(f"Branch=B{n % 4}, Period=2006"),
                    100.0 + n, request_id=f"q{n}",
                )
                decision = engine.check(request)
                assert decision == oracle.check(request), n
                effects.append(decision.effect)
            assert set(effects) == {Effect.GRANT, Effect.DENY}
            assert store_digest(store) == store_digest(oracle.store)
        finally:
            store.close()


class TestGrantedAtType:
    """``granted_at`` reads back a ``float`` from every store, however added."""

    @pytest.mark.parametrize(
        "kind", ["memory", "sqlite", "sqlite-spec", "tiered:sqlite"]
    )
    def test_int_granted_at_comes_back_a_float(self, kind):
        store = {
            "memory": InMemoryRetainedADIStore,
            "sqlite": lambda: SQLiteRetainedADIStore(":memory:"),
            "sqlite-spec": lambda: open_store("sqlite::memory:"),
            "tiered:sqlite": lambda: TieredADIStore(
                SQLiteRetainedADIStore(":memory:"), hot_users=1, shards=1,
                owns_warm=True,
            ),
        }[kind]()
        try:
            returned = [store.add(record(user="alice", at=5))]
            returned += store.apply_detailed(
                ADIMutation(adds=[record(user="bob", at=7, request_id="r2")])
            ).added
            found = [
                *store.records(),
                *store.find(ContextName.parse("Branch=York")),
                *store.find_user("alice", ContextName.root()),
                *store.find_user("bob", ContextName.root()),
            ]
            assert [r.granted_at for r in returned + found] == [5.0, 7.0] * 4
            assert all(type(r.granted_at) is float for r in returned + found)
        finally:
            store.close()


class _FailNextCommit:
    """A connection whose next commit fails and leaves its transaction open,
    as a failed ``COMMIT`` does; ``with`` rolls it back, like sqlite3's."""

    def __init__(self, conn):
        self._conn = conn
        self.armed = True

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def commit(self):
        if self.armed:
            self.armed = False
            raise sqlite3.OperationalError("disk I/O error")
        self._conn.commit()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._conn.rollback()
            return False
        try:
            self.commit()
        except sqlite3.Error:
            self._conn.rollback()
            raise
        return False


class TestFailedCommit:
    def test_failed_add_leaves_no_row_the_live_index_missed(self, tmp_path):
        """The live index is the spec-built store's hot layer and fold."""
        path = str(tmp_path / "adi.db")
        store = open_store(f"sqlite:{path}")
        scope = ContextName.parse("Branch=*, Period=2006")
        cash = [Privilege("handleCash", "till://1")]
        assert store.user_roles("alice", scope) == frozenset()  # resident
        assert store.users_with_privileges(cash, scope) == frozenset()  # seeded
        store.warm._conn = _FailNextCommit(store.warm._conn)
        with pytest.raises((StoreError, sqlite3.Error)) as failed:
            store.add(record(user="alice", roles=(TELLER,)))
        store.apply(ADIMutation(adds=[record(user="bob", request_id="r2")]))
        live = (
            store.user_roles("alice", scope),
            store.users_with_privileges(cash, scope),
            store_digest(store),
        )
        store.close()
        reopened = open_store(f"sqlite:{path}")
        try:
            assert live == (
                reopened.user_roles("alice", scope),
                reopened.users_with_privileges(cash, scope),
                store_digest(reopened),
            )
            assert live[1] == {"bob"}
        finally:
            reopened.close()
        assert failed.type is StoreError

    @pytest.mark.parametrize("tiered", [False, True], ids=["sqlite", "tiered:sqlite"])
    def test_failed_batch_commit_leaves_no_row_the_live_views_keep(
        self, tmp_path, tiered
    ):
        path = str(tmp_path / "adi.db")
        warm = SQLiteRetainedADIStore(path)
        store = TieredADIStore(warm, hot_users=4) if tiered else warm
        scope = ContextName.parse("Branch=*, Period=2006")
        york = ContextName.parse("Branch=York, Period=2006")
        cash = [Privilege("handleCash", "till://1")]
        store.apply(ADIMutation(adds=[record(user="bob", request_id="r0")]))
        assert store.user_roles("alice", scope) == frozenset()  # resident
        assert store.users_with_privileges(cash, scope) == {"bob"}  # seeded
        warm._conn = _FailNextCommit(warm._conn)
        with pytest.raises(StoreError):
            with store.batch():
                store.apply(ADIMutation(adds=[record(user="alice", request_id="r1")]))
                store.apply(ADIMutation(adds=[
                    record(user="carol", context="Branch=Hull, Period=2006",
                           request_id="r2")
                ]))
        hull = ContextName.parse("Branch=Hull, Period=2006")
        live = (
            store.user_roles("alice", scope),
            store.users_with_privileges(cash, scope),
            store_digest(store),
            store.has_context(york),
            store.has_context(hull),
        )
        store.close()
        warm.close()
        reopened = SQLiteRetainedADIStore(path)
        try:
            assert live == (
                reopened.user_roles("alice", scope),
                reopened.users_with_privileges(cash, scope),
                store_digest(reopened),
                reopened.has_context(york),
                reopened.has_context(hull),
            )
            assert reopened.count() == 1
        finally:
            reopened.close()
