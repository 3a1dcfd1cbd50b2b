"""Retained Access-control Decision Information (paper Sections 4.1-4.3).

The retained ADI is the history of *granted* decisions that the PDP needs
in order to evaluate MSoD policies.  Each record is the 6-tuple of
Section 4.2: user ID, activated role(s), operation granted, target
accessed, business-context instance, and time of the grant decision.  Two
bookkeeping fields are added: a store-assigned ``record_id`` and the
``request_id`` of the decision request that produced the record (step 5.iv
adds one record per matched role for a single request; grouping by
``request_id`` lets privilege-exercise counting treat them as one event).

Two store backends are provided:

* :class:`InMemoryRetainedADIStore` — what the paper's first PERMIS
  implementation used (Section 5.2, rebuilt from audit trails at start-up).
* :class:`SQLiteRetainedADIStore` — the "secure relational database" the
  paper proposes as its next implementation (Section 6), which avoids the
  audit-trail replay cost measured in ``benchmarks/bench_recovery_
  scalability.py``.  It is SQL only: its engine views are the
  :class:`RetainedADIStore` scan definitions, and the ``sqlite`` store
  specs serve it through :class:`~repro.core.tiered.TieredADIStore`,
  whose aggregates answer them.

Both honour the same :class:`RetainedADIStore` interface so the engine and
benchmarks can ablate them.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import starmap
from operator import attrgetter
from sys import intern
from typing import Iterable, Iterator, NamedTuple

from repro.core.adi_index import (
    _ContextPresence,
    _Held,
    _held_rows,
    _Rows,
    _rows_of,
    _UserAggregate,
)
from repro.core.constraints import Privilege, Role, TypedTuple
from repro.core.context import ContextName
from repro.errors import StoreError

_ROOT = ContextName.root()

#: Per privilege, each concrete context's users and their record counts.
OwnerCounts = dict[Privilege, dict[ContextName, dict[str, int]]]


@lru_cache(maxsize=4096)
def _shared_roles(roles: tuple[Role, ...]) -> tuple[Role, ...]:
    """The first-seen equal ``roles`` tuple, for stored records to share.

    The table is bounded, and in practice sized by the role vocabulary.
    Stored ``str`` fields are shared through :func:`sys.intern`, whose
    entries go with their last reference.
    """
    return roles


class _RecordFields(NamedTuple):
    user_id: str
    roles: tuple[Role, ...]
    operation: str
    target: str
    context_instance: ContextName
    granted_at: float
    request_id: str
    record_id: int | None = None


class RetainedADIRecord(TypedTuple, _RecordFields):
    """One granted decision retained for MSoD evaluation."""

    __slots__ = ()

    @property
    def privilege(self) -> Privilege:
        # The granted request's own pair: built without the checks.
        return tuple.__new__(Privilege, self[2:4])

    def in_context(self, effective_context: ContextName) -> bool:
        """True when this record's instance matches the policy context.

        Step 3: "Retained ADI context instance matches if it is equal or
        subordinate to policy context, noting that policy context of *
        matches all instance values."
        """
        return self.context_instance.is_equal_or_subordinate_to(effective_context)

    def to_dict(self) -> dict:
        """JSON-compatible representation (for audit trails)."""
        return {
            "user_id": self.user_id,
            "roles": [[role.role_type, role.value] for role in self.roles],
            "operation": self.operation,
            "target": self.target,
            "context_instance": str(self.context_instance),
            "granted_at": self.granted_at,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: dict, record_id: int | None = None) -> "RetainedADIRecord":
        # Built as a tuple: a trail replay decodes one per retained grant.
        return tuple.__new__(cls, (
            intern(data["user_id"]),
            _shared_roles(tuple(starmap(Role, data["roles"]))),
            intern(data["operation"]),
            intern(data["target"]),
            ContextName.parse(data["context_instance"]),
            data["granted_at"],
            data["request_id"],
            record_id,
        ))


def _stamped(record: RetainedADIRecord, record_id: int) -> RetainedADIRecord:
    """``record`` as a store holds it: strings interned, roles shared, id
    set, ``granted_at`` a ``float`` (as every store reads it back)."""
    user_id, roles, operation, target, context, at, request_id, _ = record
    return tuple.__new__(
        RetainedADIRecord,
        (intern(user_id), _shared_roles(roles), intern(operation),
         intern(target), context, float(at), request_id, record_id),
    )


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


@dataclass(slots=True)
class ADIApplyOutcome:
    """What one applied :class:`ADIMutation` actually did to a store.

    ``purged_records`` holds each deleted record once, however many of
    the mutation's purge contexts it matched: its length is the purge
    count every backend reports (the engine's ``records_purged``), and
    layered stores (the tiered hot/warm split) retire each record from
    their aggregates exactly once.  ``added`` carries the stored
    records with their warm-layer-assigned ids.
    """

    purged_records: list[RetainedADIRecord]
    added: list[RetainedADIRecord]


@dataclass(slots=True)
class ADIMutation:
    """A buffered set of store mutations, committed only on grant.

    Section 4.2 note: "if the access request is denied, then no change
    needs to be made to the retained ADI database".  The engine builds one
    :class:`ADIMutation` per request and applies it atomically iff the
    final decision is a grant.  The management purges (Section 4.3) are
    mutations too, applied in the same locked step: ``purge_record_ids``
    deletes the named records, ``purge_users`` the named users' and
    ``purge_before`` those granted before that time.
    """

    adds: list[RetainedADIRecord] = field(default_factory=list)
    purge_contexts: list[ContextName] = field(default_factory=list)
    purge_record_ids: tuple[int, ...] = ()
    purge_users: tuple[str, ...] = ()
    purge_before: float | None = None


class RetainedADIStore:
    """Abstract interface every retained-ADI backend implements."""

    #: Whether :meth:`batch` groups applies into one commit.  A serving
    #: worker lingers to grow its batch only when this is true.
    commits_in_batches = False

    def add(self, record: RetainedADIRecord) -> RetainedADIRecord:
        """Persist one record, returning it with ``record_id`` assigned."""
        raise NotImplementedError

    def records(self) -> Iterator[RetainedADIRecord]:
        """Iterate over every retained record."""
        raise NotImplementedError

    def find(self, effective_context: ContextName) -> list[RetainedADIRecord]:
        """Records whose instance is equal/subordinate to the context."""
        raise NotImplementedError

    def find_user(
        self, user_id: str, effective_context: ContextName
    ) -> list[RetainedADIRecord]:
        """Like :meth:`find`, restricted to one user."""
        raise NotImplementedError

    def has_context(self, effective_context: ContextName) -> bool:
        """True when any record matches the context (step 3 existence)."""
        return bool(self.find(effective_context))

    def purge_context(self, effective_context: ContextName) -> int:
        """Delete all records matching the context; return the count."""
        return self.apply(ADIMutation(purge_contexts=[effective_context]))

    def purge_user(self, user_id: str) -> int:
        """Delete all records for a user (management port operation)."""
        return self.apply(ADIMutation(purge_users=(user_id,)))

    def purge_older_than(self, cutoff: float) -> int:
        """Delete records granted before ``cutoff`` (management port)."""
        return self.apply(ADIMutation(purge_before=cutoff))

    def clear(self) -> int:
        """Delete everything; return the number of deleted records."""
        raise NotImplementedError

    def count(self) -> int:
        raise NotImplementedError

    def user_ids(self) -> set[str]:
        """The users holding at least one record.

        The generic implementation scans :meth:`records`; backends with
        a per-user index override it.
        """
        return {record.user_id for record in self.records()}

    def close(self) -> None:
        """Release any underlying resources.  Idempotent."""

    def stats(self) -> dict:
        """Uniform introspection snapshot, shared by every backend.

        Keys present on every store: ``backend``, ``records``,
        ``resident_users`` (users whose aggregates are held in memory),
        ``evictions`` and ``hydrations`` (monotonic counters, zero for
        backends that never evict).  Backends append backend-specific
        keys (e.g. ``warm_bytes`` for SQLite files, ``hot_capacity``
        for the tiered store).  Surfaced through the serving layer's
        ``metrics`` verb and Prometheus exposition.
        """
        return {
            "backend": type(self).__name__,
            "records": self.count(),
            "resident_users": 0,
            "evictions": 0,
            "hydrations": 0,
        }

    def context_counts(self) -> dict[ContextName, int]:
        """Record count per distinct concrete context instance.

        The tiered store seeds its context-presence aggregates from
        this at attach time; the generic implementation scans
        :meth:`records`, backends with an index override it.
        """
        counts: dict[ContextName, int] = {}
        for record in self.records():
            context = record.context_instance
            counts[context] = counts.get(context, 0) + 1
        return counts

    def owner_counts(self, privileges: Iterable[Privilege]) -> OwnerCounts:
        """Per listed privilege (each has an entry), its owners' counts.

        The tiered store seeds its owner fold from this; the generic
        implementation scans :meth:`records`, SQLite groups in SQL.
        """
        owners: OwnerCounts = {privilege: {} for privilege in privileges}
        for record in self.records():
            fold = owners.get(record.privilege)
            if fold is not None:
                users = fold.setdefault(record.context_instance, {})
                users[record.user_id] = users.get(record.user_id, 0) + 1
        return owners

    # ------------------------------------------------------------------
    def apply(self, mutation: ADIMutation) -> int:
        """Apply a buffered mutation: purges first, then adds.

        Purge-before-add matters: a granted *last step* both terminates
        the context (purging its history) and must not leave its own
        record behind — step 7 deletes instead of storing.  The engine
        only puts adds and purges for *different* policies in one
        mutation, and purges always win for their own context.

        Returns the number of distinct records purged.
        """
        return len(self.apply_detailed(mutation).purged_records)

    def apply_detailed(self, mutation: ADIMutation) -> ADIApplyOutcome:
        """Like :meth:`apply`, but reporting what was deleted and added.

        The store's one write path but for :meth:`add` and :meth:`clear`,
        atomic as a whole (one decision = one transaction).  Purges run
        first — each context, then the ids, the users, the cutoff — each
        selecting, in record-id order, what the earlier ones left, so a
        deleted record is reported once.  Layered stores need the record
        sets, not just counts, to keep their aggregates in lock-step.
        """
        raise NotImplementedError

    @contextmanager
    def batch(self):
        """Group several :meth:`apply` calls into one durability unit.

        The serving workers drain each shard queue in micro-batches and
        wrap the whole batch in ``with store.batch():`` so a backend can
        pay one fsync for the batch instead of one per decision.  Each
        decision stays individually atomic (the SQLite backend runs it
        in a savepoint); the batch is *not* an all-or-nothing unit.  The
        default is a no-op so in-memory backends need no changes.
        """
        yield self

    # Helper views used by the engine --------------------------------
    def user_roles(
        self, user_id: str, effective_context: ContextName
    ) -> frozenset[Role]:
        """Roles the user has historically activated in the context."""
        return frozenset(
            role
            for record in self.find_user(user_id, effective_context)
            for role in record.roles
        )

    def user_privilege_exercises(
        self, user_id: str, effective_context: ContextName
    ) -> list[Privilege]:
        """Privileges historically exercised, one entry per request.

        Records created from the same decision request (same
        ``request_id``) count as a single exercise of the operation/target
        pair.
        """
        seen_requests: set[str] = set()
        exercises: list[Privilege] = []
        for record in self.find_user(user_id, effective_context):
            if record.request_id in seen_requests:
                continue
            seen_requests.add(record.request_id)
            exercises.append(record.privilege)
        return exercises

    def users_with_privileges(
        self,
        privileges: Iterable[Privilege],
        effective_context: ContextName,
    ) -> frozenset[str]:
        """Users with a retained exercise of any listed privilege in scope.

        The combination-of-duty ownership view: which users already
        performed a step of an MMCD bound set within the effective
        context.  The generic implementation scans :meth:`find`;
        backends with per-context indexes may override it.
        """
        wanted = set(privileges)
        return frozenset(
            record.user_id
            for record in self.find(effective_context)
            if record.privilege in wanted
        )


class InMemoryRetainedADIStore(RetainedADIStore):
    """Retained ADI held in memory (paper Section 5.2).

    Records live as packed rows of one :class:`~repro.core.adi_index._Rows`
    table, filed by ``(user, concrete context)`` pair: ``_by_user`` holds
    each user's :class:`~repro.core.adi_index._UserAggregate`,
    ``_by_context`` each live context's pairs, and ``_presence`` counts
    each live context once, for matching.  Concrete contexts are few
    beside the records, so context-scoped queries (the hot path of
    algorithm steps 3 and 7) walk a handful of pairs and the engine's
    history views never scan.  Deleting a record unlinks it from every
    field and frees its row, so long-lived users accumulate no stale
    entries.  The rows are the only copy: :meth:`apply_detailed`, every
    purge's one path, selects a context's rows through the presence and
    a user's from their aggregate, and walks all of them only for a
    purge by record id or by age (as :meth:`records` does).  Records
    are built only to be handed out.  ``users_with_privileges`` walks
    the matching pairs: the tier's owner fold would cost every add its
    upkeep.
    """

    def __init__(self, records: Iterable[RetainedADIRecord] = ()) -> None:
        self._next_id = 1
        self._empty()
        for record in records:
            self.add(record)

    def _empty(self) -> None:
        self._rows = _Rows()
        self._by_user: dict[str, _UserAggregate] = {}
        self._by_context: dict[ContextName, dict[str, _Held]] = {}
        self._presence = _ContextPresence()

    def add(self, record: RetainedADIRecord) -> RetainedADIRecord:
        stored = _stamped(record, self._next_id)
        self._next_id += 1
        user_id = stored.user_id
        aggregate = self._by_user.get(user_id)
        if aggregate is None:
            aggregate = self._by_user[user_id] = _UserAggregate(self._rows)
        # The id is fresh, so the aggregate files the record.  A new pair
        # holds a row; a promoted one, a bucket of two rows.  A bucket
        # already filed here keeps its place.
        held = aggregate.add(stored)
        if type(held) is int or len(held.rows) == 2:
            context = stored.context_instance
            by_users = self._by_context.get(context)
            if by_users is None:
                by_users = self._by_context[context] = {}
                self._presence.add(context)
            by_users[user_id] = held
        return stored

    def _user(self, user_id: str) -> _UserAggregate:
        """The user's aggregate to fold over; an empty one if unknown."""
        return self._by_user.get(user_id) or _UserAggregate(self._rows)

    def _context_rows(self, effective_context: ContextName) -> list[int]:
        """The rows within the context, in record-id order."""
        by_context = self._by_context
        return _rows_of(
            self._rows,
            (
                held
                for context in self._presence.matching(effective_context)
                for held in by_context[context].values()
            ),
        )

    def records(self) -> Iterator[RetainedADIRecord]:
        return iter(self.find(_ROOT))

    def find(self, effective_context: ContextName) -> list[RetainedADIRecord]:
        return self._rows.records(self._context_rows(effective_context))

    def find_user(
        self, user_id: str, effective_context: ContextName
    ) -> list[RetainedADIRecord]:
        return self._user(user_id).records(effective_context)

    def has_context(self, effective_context: ContextName) -> bool:
        return self._presence.has_context(effective_context)

    def _delete(self, rows: list[int]) -> list[RetainedADIRecord]:
        """Delete the records the rows hold; those records."""
        records = self._rows.records(rows)
        by_user: dict[str, list[RetainedADIRecord]] = {}
        for record in records:
            by_user.setdefault(record.user_id, []).append(record)
        vanished: list[ContextName] = []
        for user_id, mine in by_user.items():
            aggregate = self._by_user[user_id]
            aggregate.remove(mine)
            for context in {record.context_instance for record in mine}:
                if context not in aggregate.buckets:
                    by_users = self._by_context[context]
                    del by_users[user_id]
                    if not by_users:
                        del self._by_context[context]
                        vanished.append(context)
            if not aggregate.buckets:
                del self._by_user[user_id]
        self._presence.forget(vanished)
        return records

    def clear(self) -> int:
        removed = self.count()
        self._empty()
        return removed

    def count(self) -> int:
        return len(self._rows)

    def user_ids(self) -> set[str]:
        return set(self._by_user)

    def stats(self) -> dict:
        return {
            **super().stats(),
            "backend": "memory",
            "resident_users": len(self._by_user),
        }

    def context_counts(self) -> dict[ContextName, int]:
        return {
            context: sum(len(_held_rows(held)) for held in by_users.values())
            for context, by_users in self._by_context.items()
        }

    def apply_detailed(self, mutation: ADIMutation) -> ADIApplyOutcome:
        table = self._rows
        evicted: list[RetainedADIRecord] = []
        # Each purge's rows go before the next selects: none is reported twice.
        for context in mutation.purge_contexts:
            evicted += self._delete(self._context_rows(context))
        if mutation.purge_record_ids:
            wanted, ids = set(mutation.purge_record_ids), table.record_ids
            evicted += self._delete(
                [row for row in self._context_rows(_ROOT) if ids[row] in wanted]
            )
        if mutation.purge_users:
            rows = [
                row
                for user_id in set(mutation.purge_users)
                for row in self._user(user_id).rows(_ROOT)
            ]
            evicted += self._delete(sorted(rows, key=table.record_ids.__getitem__))
        cutoff = mutation.purge_before
        if cutoff is not None:
            at = table.granted_at
            evicted += self._delete(
                [row for row in self._context_rows(_ROOT) if at[row] < cutoff]
            )
        added = [self.add(record) for record in mutation.adds]
        return ADIApplyOutcome(evicted, added)

    # Aggregate-backed engine views ----------------------------------
    def user_roles(
        self, user_id: str, effective_context: ContextName
    ) -> frozenset[Role]:
        return self._user(user_id).roles(effective_context)

    def user_privilege_exercises(
        self, user_id: str, effective_context: ContextName
    ) -> list[Privilege]:
        return self._user(user_id).exercises(effective_context)

    def users_with_privileges(
        self,
        privileges: Iterable[Privilege],
        effective_context: ContextName,
    ) -> frozenset[str]:
        """Users holding a row of a listed privilege within the context."""
        wanted = set(privileges)
        operations, targets = self._rows.operations, self._rows.targets
        new = tuple.__new__
        owners: set[str] = set()
        by_context = self._by_context
        for context in self._presence.matching(effective_context):
            for user_id, held in by_context[context].items():
                if user_id in owners:
                    continue
                for row in _held_rows(held):
                    if new(Privilege, (operations[row], targets[row])) in wanted:
                        owners.add(user_id)
                        break
        return frozenset(owners)


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


def store_digest(store: RetainedADIStore) -> tuple:
    """A hashable snapshot of a store's contents, for invariant tests.

    Property tests assert that a denied request leaves the digest
    unchanged (the Section 4.2 note).
    """
    return tuple(
        sorted(
            (
                record.user_id,
                tuple(sorted(str(role) for role in record.roles)),
                record.operation,
                record.target,
                str(record.context_instance),
                record.request_id,
            )
            for record in store.records()
        )
    )
