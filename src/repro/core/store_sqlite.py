"""The SQLite retained-ADI store (paper Section 6).

:class:`SQLiteRetainedADIStore`, its column codec and the migration of
files whose rows held a JSON payload.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager, nullcontext, suppress
from functools import lru_cache
from itertools import starmap
from operator import attrgetter
from sys import intern
from typing import Iterable, Iterator

from repro.core.constraints import Privilege, Role
from repro.core.context import ContextName
from repro.core.retained_adi import (
    ADIApplyOutcome,
    ADIMutation,
    OwnerCounts,
    RetainedADIRecord,
    RetainedADIStore,
    _shared_roles,
    _stamped,
)
from repro.errors import StoreError

_ROOT = ContextName.root()


# The SQLite store's table: one typed column per record field.
_CREATE_TABLE = """
    CREATE TABLE IF NOT EXISTS retained_adi (
        record_id INTEGER PRIMARY KEY AUTOINCREMENT,
        user_id TEXT NOT NULL,
        roles TEXT NOT NULL,
        operation TEXT NOT NULL,
        target TEXT NOT NULL,
        context TEXT NOT NULL,
        granted_at REAL NOT NULL,
        request_id TEXT NOT NULL
    )
"""
# RetainedADIRecord's fields up to record_id, in order: with record_id
# selected after them, a row unpacks as the record does.
_COLUMNS = "user_id, roles, operation, target, context, granted_at, request_id"
_INSERT = f"INSERT INTO retained_adi ({_COLUMNS}) VALUES (?, ?, ?, ?, ?, ?, ?)"
#: Values bound per ``IN (…)`` select: SQLite before 3.32 allows 999.
_IN_CHUNK = 999


@lru_cache(maxsize=4096)
def _roles_text(roles: tuple[Role, ...]) -> str:
    """The ``roles`` column's JSON text for a roles tuple."""
    return json.dumps([[role.role_type, role.value] for role in roles])


@lru_cache(maxsize=4096)
def _roles_of(text: str) -> tuple[Role, ...]:
    """The shared roles tuple a ``roles`` column's text holds."""
    return _shared_roles(tuple(starmap(Role, json.loads(text))))


def _row(record: RetainedADIRecord) -> tuple:
    """``record``'s column values, in ``_COLUMNS`` order."""
    user_id, roles, operation, target, context, at, request_id, _ = record
    return (user_id, _roles_text(roles), operation, target, str(context), at,
            request_id)


class SQLiteRetainedADIStore(RetainedADIStore):
    """Retained ADI in a relational database (the Section 6 proposal).

    Records survive PDP restarts without replaying audit trails.  Context
    matching with ``*`` wildcards cannot be expressed as a plain SQL
    prefix query, so candidate rows are narrowed by user where possible
    and matched in Python; this keeps semantics identical across
    backends.

    **Schema.**  One ``retained_adi`` row per record, each field in its
    own column: ``record_id`` (``INTEGER PRIMARY KEY AUTOINCREMENT``, so
    an id is never reused), ``user_id``, ``roles`` (JSON text
    ``[[type, value], ...]``), ``operation``, ``target``, ``context``
    (the instance's text), ``granted_at`` (``REAL``, so it reads back a
    ``float`` however it was added) and ``request_id``, with one index,
    ``idx_adi_user``.  A read selects the columns in record field order
    and builds each record from them directly; the roles text goes
    through a bounded table each way, so only a roles set not seen
    lately is encoded or decoded.  A file written when each row also
    held its record as a JSON ``payload`` column is migrated once, in
    one transaction, when it is opened (:meth:`_migrate_payload`):
    every ``record_id`` and the AUTOINCREMENT sequence are kept, and
    no ``payload`` column is left.

    The store is SQL only and keeps nothing resident: every read builds
    its records from the rows it selects, and the engine's views are the
    base class's scan definitions over :meth:`find` and
    :meth:`find_user`.  It is the durable format and the warm layer of
    :class:`~repro.core.tiered.TieredADIStore`, which is what the
    ``sqlite`` store specs build: the tier answers the views from its
    aggregates and reads this store only to hydrate a user, to seed
    them (:meth:`context_counts`, :meth:`owner_counts`), and for the
    management operations.  ``max_row_cache`` is accepted (and checked)
    for callers written against the row cache this store used to keep;
    it bounds nothing now.

    **Threading discipline.**  The connection is opened with
    ``check_same_thread=False`` and every statement runs under the
    single ``self._lock``, so the store is safe to share across the
    serving worker pool: sqlite3 never sees concurrent statements on
    the one connection.  WAL journal mode (file-backed databases only)
    lets *other* connections — e.g. an operator's ``python -m repro
    history`` against a live server's database — read without blocking
    the writer, and ``busy_timeout`` makes cross-connection lock
    collisions wait instead of failing with ``database is locked``.
    """

    #: How long (ms) a statement waits on another connection's lock
    #: before sqlite3 raises ``database is locked``.
    BUSY_TIMEOUT_MS = 5_000

    commits_in_batches = True

    def __init__(
        self, path: str = ":memory:", *, max_row_cache: int | None = None
    ) -> None:
        if max_row_cache is not None and max_row_cache < 1:
            raise StoreError("max_row_cache must be >= 1 (or None)")
        try:
            self._conn = sqlite3.connect(path, check_same_thread=False)
            self._conn.execute(f"PRAGMA busy_timeout={self.BUSY_TIMEOUT_MS}")
            # WAL applies to file-backed databases; in-memory databases
            # report their own "memory" mode, which is fine — there is
            # no second connection to contend with.
            self._conn.execute("PRAGMA journal_mode=WAL")
            # SQLite's default page cache (2 MiB) thrashes the user_id
            # index B-tree once the file outgrows it — bank-scale
            # preloads drop to a few thousand scattered inserts/s.
            # 64 MiB keeps the hot interior pages resident.
            self._conn.execute("PRAGMA cache_size=-65536")
        except sqlite3.Error as exc:  # pragma: no cover - environment issue
            raise StoreError(f"cannot open retained-ADI database {path!r}") from exc
        self._lock = threading.Lock()
        self._batch_depth = 0
        self._closed = False
        self._conn.execute(_CREATE_TABLE)
        migrated = self._migrate_payload()
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_adi_user ON retained_adi(user_id)"
        )
        # No query can use a context index (case-insensitive LIKE never
        # searches a BINARY one), so files that still carry it drop it.
        self._conn.execute("DROP INDEX IF EXISTS idx_adi_context")
        self._conn.commit()
        if migrated:
            # The old table's pages, over half the file, are free now.
            # Should another connection keep VACUUM from handing them
            # back, later inserts reuse them instead.
            with suppress(sqlite3.Error):
                self._conn.execute("VACUUM")

    def _has_payload(self) -> bool:
        return any(
            name == "payload"
            for (_, name, *_) in self._conn.execute("PRAGMA table_info(retained_adi)")
        )

    def _migrate_payload(self) -> bool:
        """Rewrite a file whose rows are a JSON ``payload`` into typed columns.

        One transaction: the old table is renamed aside, each row is
        decoded through :meth:`RetainedADIRecord.from_dict` and inserted
        under its own ``record_id``, the old table's AUTOINCREMENT
        sequence is carried over, and the old table (with its indexes)
        is dropped.  ``BEGIN IMMEDIATE`` and the re-check under it keep
        two processes opening one old file from migrating it twice.
        True when this call rewrote the table.
        """
        if not self._has_payload():
            return False
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            with conn:  # commits, or rolls the whole rewrite back
                if not self._has_payload():
                    return False
                conn.execute("ALTER TABLE retained_adi RENAME TO retained_adi_payload")
                conn.execute(_CREATE_TABLE)
                records = (
                    RetainedADIRecord.from_dict(json.loads(payload), record_id)
                    for record_id, payload in conn.execute(
                        "SELECT record_id, payload FROM retained_adi_payload"
                    )
                )
                conn.executemany(
                    f"INSERT INTO retained_adi ({_COLUMNS}, record_id)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    ((*_row(record), record.record_id) for record in records),
                )
                conn.execute("DELETE FROM sqlite_sequence WHERE name = 'retained_adi'")
                conn.execute(
                    "UPDATE sqlite_sequence SET name = 'retained_adi'"
                    " WHERE name = 'retained_adi_payload'"
                )
                conn.execute("DROP TABLE retained_adi_payload")
        except (sqlite3.Error, ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"cannot migrate retained-ADI rows: {exc}") from exc
        return True

    @staticmethod
    def _context_like_pattern(effective_context: ContextName) -> str:
        """A SQL LIKE *prefilter* for matching a non-root context.

        ``*`` components become ``%``; a trailing ``%`` admits
        subordinate instances.  LIKE wildcards can cross component
        boundaries (and LIKE ignores ASCII case), so matches are
        over-approximate — every candidate is re-checked precisely in
        Python.  The prefilter drops rows of a table scan, or of the
        ``user_id`` search, before records are built from them; it does
        not keep the scan off unrelated rows, since no index serves a
        case-insensitive LIKE.
        """

        def escape(text: str) -> str:
            return (
                text.replace("\\", "\\\\")
                .replace("%", "\\%")
                .replace("_", "\\_")
            )

        return ", ".join(
            escape(component.ctx_type)
            + "="
            + ("%" if component.is_wildcard else escape(component.value))
            for component in effective_context
        ) + "%"

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreError("retained-ADI store is closed")

    def _insert_locked(self, record: RetainedADIRecord) -> RetainedADIRecord:
        """The one INSERT: the stored record, with its assigned id.

        Caller owns the lock and the enclosing transaction.
        """
        cursor = self._conn.execute(_INSERT, _row(record))
        return _stamped(record, cursor.lastrowid)

    def add(self, record: RetainedADIRecord) -> RetainedADIRecord:
        self._ensure_open()
        with self._lock:
            # Inside an open batch() the insert joins the batch
            # transaction and durability is deferred to its single
            # commit; committing here would close that transaction
            # early and pay one fsync per record — the difference
            # between ~3k and ~100k adds/s on bulk replays.  Outside
            # one, a failed commit rolls the insert back.
            with nullcontext() if self._batch_depth else self._atomic_locked():
                return self._insert_locked(record)

    def _select_locked(
        self, where: str = "", params: tuple = ()
    ) -> list[RetainedADIRecord]:
        """The one SELECT: rows in id order, as records.  Caller holds the lock."""
        rows = self._conn.execute(
            f"SELECT {_COLUMNS}, record_id FROM retained_adi{where}"
            " ORDER BY record_id",
            params,
        ).fetchall()
        new, parse = tuple.__new__, ContextName.parse
        return [
            new(RetainedADIRecord, (
                intern(user_id), _roles_of(roles), intern(operation),
                intern(target), parse(context), at, request_id, record_id,
            ))
            for user_id, roles, operation, target, context, at, request_id, record_id
            in rows
        ]

    def _in_context_locked(
        self, effective_context: ContextName, user_id: str | None = None
    ) -> list[RetainedADIRecord]:
        """Records matching a context (optionally of one user).

        A purge MUST select its doomed records through this inside the
        same locked transaction as the deletes: selecting first and
        locking later would let a concurrent ``add`` slip a matching
        record in between and survive the purge.
        """
        if effective_context.is_root:  # every instance is subordinate to it
            if user_id is None:
                return self._select_locked()
            return self._select_locked(" WHERE user_id = ?", (user_id,))
        where = " WHERE context LIKE ? ESCAPE '\\'"
        params: tuple = (self._context_like_pattern(effective_context),)
        if user_id is not None:
            where += " AND user_id = ?"
            params += (user_id,)
        matches = effective_context.matcher.matches
        return [
            record
            for record in self._select_locked(where, params)
            if matches(record.context_instance)
        ]

    def records(self) -> Iterator[RetainedADIRecord]:
        self._ensure_open()
        with self._lock:
            return iter(self._in_context_locked(_ROOT))

    def find(self, effective_context: ContextName) -> list[RetainedADIRecord]:
        self._ensure_open()
        with self._lock:
            return self._in_context_locked(effective_context)

    def find_user(
        self, user_id: str, effective_context: ContextName
    ) -> list[RetainedADIRecord]:
        self._ensure_open()
        with self._lock:
            return self._in_context_locked(effective_context, user_id)

    def clear(self) -> int:
        self._ensure_open()
        with self._lock:
            with self._atomic_locked():
                cursor = self._conn.execute("DELETE FROM retained_adi")
        return cursor.rowcount

    def count(self) -> int:
        self._ensure_open()
        with self._lock:
            (total,) = self._conn.execute(
                "SELECT COUNT(*) FROM retained_adi"
            ).fetchone()
        return total

    def user_ids(self) -> set[str]:
        """One walk of the ``user_id`` index; no record is built."""
        self._ensure_open()
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT user_id FROM retained_adi"
            ).fetchall()
        return {user_id for (user_id,) in rows}

    def stats(self) -> dict:
        """``warm_bytes`` counts the file's pages in use, not its free ones."""
        self._ensure_open()
        with self._lock:
            (page_count,) = self._conn.execute("PRAGMA page_count").fetchone()
            (free,) = self._conn.execute("PRAGMA freelist_count").fetchone()
            (page_size,) = self._conn.execute("PRAGMA page_size").fetchone()
        return {
            **super().stats(),
            "backend": "sqlite",
            "warm_bytes": (page_count - free) * page_size,
        }

    def context_counts(self) -> dict[ContextName, int]:
        """Per-context record counts in one GROUP BY; no record is built.

        A scan of the table (``context`` has no index): the tiered store
        seeds its presence aggregates from this at open.
        """
        self._ensure_open()
        with self._lock:
            rows = self._conn.execute(
                "SELECT context, COUNT(*) FROM retained_adi GROUP BY context"
            ).fetchall()
        return {ContextName.parse(text): count for text, count in rows}

    def owner_counts(self, privileges: Iterable[Privilege]) -> OwnerCounts:
        """One GROUP BY over the listed privileges' rows; no record is built."""
        owners: OwnerCounts = {privilege: {} for privilege in privileges}
        where = " OR ".join(["(operation = ? AND target = ?)"] * len(owners))
        self._ensure_open()
        with self._lock:
            rows = self._conn.execute(
                "SELECT operation, target, context, user_id, COUNT(*)"
                f" FROM retained_adi WHERE {where or 0}"
                " GROUP BY operation, target, context, user_id",
                [value for privilege in owners for value in privilege],
            ).fetchall()
        new, parse = tuple.__new__, ContextName.parse
        for operation, target, context, user_id, count in rows:
            fold = owners[new(Privilege, (operation, target))]
            fold.setdefault(parse(context), {})[intern(user_id)] = count
        return owners

    def _select_in_locked(
        self, column: str, values: tuple
    ) -> list[RetainedADIRecord]:
        """Rows whose ``column`` is one of ``values``, in id order: one
        ``IN (…)`` select per :data:`_IN_CHUNK` values, so a cutover naming
        many users stays under SQLite's bound-variable limit.  Lock held.
        """
        records: list[RetainedADIRecord] = []
        for start in range(0, len(values), _IN_CHUNK):
            chunk = values[start:start + _IN_CHUNK]
            marks = ", ".join("?" * len(chunk))
            records += self._select_locked(f" WHERE {column} IN ({marks})", chunk)
        records.sort(key=attrgetter("record_id"))
        return records

    def _apply_sql_locked(self, mutation: ADIMutation) -> ADIApplyOutcome:
        """Run a mutation's SQL (purges then adds) on the open cursor.

        Every purge selects its doomed rows here, inside the caller's
        transaction, and one ``DELETE`` pass removes them all.  Caller
        owns the lock and the enclosing transaction/savepoint.
        """
        selected = [self._in_context_locked(c) for c in mutation.purge_contexts]
        selected.append(self._select_in_locked("record_id", mutation.purge_record_ids))
        selected.append(self._select_in_locked("user_id", mutation.purge_users))
        if mutation.purge_before is not None:
            where = " WHERE granted_at < ?"
            selected.append(self._select_locked(where, (mutation.purge_before,)))
        evicted: dict[int, RetainedADIRecord] = {}
        for records in selected:
            for record in records:
                evicted.setdefault(record.record_id, record)
        if evicted:
            self._conn.executemany(
                "DELETE FROM retained_adi WHERE record_id = ?",
                [(record_id,) for record_id in evicted],
            )
        added = [self._insert_locked(record) for record in mutation.adds]
        return ADIApplyOutcome(list(evicted.values()), added)

    def apply_detailed(self, mutation: ADIMutation) -> ADIApplyOutcome:
        """Apply the whole mutation in ONE SQLite transaction.

        A decision's purges and adds either all land or none do, even if
        the process dies mid-commit — the property the audit-trail
        recovery path otherwise has to repair.  Candidate selection for
        the purges happens *inside* the transaction (no
        select-then-lock window), and the batched adds share the single
        commit instead of paying one fsync each — or, inside an open
        :meth:`batch`, the batch's commit.
        """
        self._ensure_open()
        with self._lock:
            with self._atomic_locked():
                return self._apply_sql_locked(mutation)

    @contextmanager
    def _atomic_locked(self):
        """Run the enclosed SQL atomically: a savepoint inside :meth:`batch`
        (whose one commit it must not pre-empt, or each later decision
        in the batch pays its own fsync), else its own transaction.
        """
        try:
            if self._batch_depth:
                self._conn.execute("SAVEPOINT msod_apply")
                try:
                    yield
                except BaseException:
                    self._conn.execute("ROLLBACK TO SAVEPOINT msod_apply")
                    raise
                finally:
                    self._conn.execute("RELEASE SAVEPOINT msod_apply")
            else:
                with self._conn:  # implicit BEGIN ... COMMIT/ROLLBACK
                    yield
        except sqlite3.Error as exc:
            raise StoreError(f"mutation failed atomically: {exc}") from exc

    @contextmanager
    def batch(self):
        """One explicit transaction (one fsync) around many ``apply`` calls.

        Each enclosed decision still commits or rolls back atomically
        via its savepoint; the batch only defers durability.  Re-entrant
        across shard workers sharing this store: concurrent batches
        coalesce into the single open transaction, which commits when
        the last batch exits.  Decisions already released from their
        savepoints are committed even if a later decision in the batch
        raises — a layer over this store (the tier) has already
        published them, and rolling the table back underneath it would
        desynchronise the two.  A failed commit rolls it all back and
        raises.
        """
        self._ensure_open()
        with self._lock:
            if self._batch_depth == 0 and not self._conn.in_transaction:
                self._conn.execute("BEGIN IMMEDIATE")
            self._batch_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._batch_depth -= 1
                if self._batch_depth == 0 and self._conn.in_transaction:
                    try:
                        self._conn.commit()
                    except sqlite3.Error as exc:
                        self._conn.rollback()
                        raise StoreError(f"batch commit failed: {exc}") from exc

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._conn.close()
