"""Retained Access-control Decision Information (paper Sections 4.1-4.3).

The retained ADI is the history of *granted* decisions that the PDP needs
in order to evaluate MSoD policies.  Each record is the 6-tuple of
Section 4.2: user ID, activated role(s), operation granted, target
accessed, business-context instance, and time of the grant decision.  Two
bookkeeping fields are added: a store-assigned ``record_id`` and the
``request_id`` of the decision request that produced the record (step 5.iv
adds one record per matched role for a single request; grouping by
``request_id`` lets privilege-exercise counting treat them as one event).

This module holds the record, the :class:`ADIMutation` a decision
applies, and the :class:`RetainedADIStore` protocol with its scan
definitions.  It imports no backend; each has its own module:

* :mod:`repro.core.store_memory` — :class:`InMemoryRetainedADIStore`,
  what the paper's first PERMIS implementation used (Section 5.2,
  rebuilt from audit trails at start-up), beside the packed rows and
  aggregates it composes;
* :mod:`repro.core.store_sqlite` — :class:`SQLiteRetainedADIStore`, the
  "secure relational database" the paper proposes as its next
  implementation (Section 6).  It is SQL only: its engine views are the
  scan definitions, and the ``sqlite`` store specs serve it through
  :class:`~repro.core.tiered.TieredADIStore`, whose aggregates answer
  them.

All honour the same protocol so the engine and benchmarks can ablate
them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import starmap
from sys import intern
from typing import Iterable, Iterator, NamedTuple

from repro.core.constraints import Privilege, Role, TypedTuple
from repro.core.context import ContextName

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


def __getattr__(name: str):
    # PEP 562: the e2e harness imports the SQLite backend from here.
    if name != "SQLiteRetainedADIStore":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.core.store_sqlite import SQLiteRetainedADIStore
    return SQLiteRetainedADIStore


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
