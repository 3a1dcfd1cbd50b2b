"""Tiered retained-ADI storage: hot in-memory aggregates over a warm layer.

The in-memory store keeps one resident aggregate per user *forever*, so
its memory grows with **total** users — fatal for a bank-scale
deployment where 10^6 users exist but only a few percent are active in
any window.  The SQLite store keeps nothing resident, so on its own
every engine view is a query of its table.  This tier is the one
durable shape: the ``sqlite`` and ``tiered:sqlite`` store specs both
build it.

:class:`TieredADIStore` splits the store in two:

* **warm layer** — any :class:`~repro.core.retained_adi.RetainedADIStore`
  (in practice SQLite) holding *every* record.  It is the authoritative
  layer: it assigns record ids, and every mutation commits there first,
  atomically, before any hot state changes.
* **hot layer** — one :class:`~repro.core.adi_index._UserAggregate`
  per resident user (the memory store keeps one per user), sharded
  by ``crc32(user_id)`` with per-shard LRU eviction bounded by
  ``hot_users``; a shard's aggregates pack their records into the
  shard's one row table.  A cold user's entry is **lazily hydrated**
  from the warm layer on first touch, under that user's shard lock;
  inactive users are evicted without any write-back (the warm layer
  already holds their records) and free their rows, so RSS scales with
  the *active* set.

Context presence (algorithm step 3/7 existence checks) is answered from
a store-wide :class:`~repro.core.adi_index._ContextPresence`, seeded
once at open from the warm layer's ``context_counts()`` (for SQLite one
``GROUP BY`` scan of the table) and maintained incrementally — it is
bounded by the number of distinct concrete contexts, not by users, and
never touches the warm layer on the hot path.  So is the combination-of-
duty owner view (``users_with_privileges``), from an owner fold kept per
privilege, seeded by one warm ``owner_counts()`` the first time that
privilege is asked about: a store never asked keeps none.

**Consistency discipline.**  All mutations serialize on one store-wide
write lock and commit to the warm layer first; hot updates after the
commit are *idempotent* (guarded by record id), so a hydration racing
between the warm commit and the hot update — possible because hydration
runs under only the user's shard lock — can never double-count a
record.  Reads of one user (including hydration itself) serialize on
that user's shard lock, so a concurrent decide can never observe a
partially-hydrated aggregate; reads of distinct users on different
shards proceed concurrently.  Lock order is always shard → warm (reads)
or write → warm, then write → shard (mutations); the warm layer never
calls back into the tier, so the order is acyclic.  See ``docs/SCALE.md``.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.core.adi_index import _ContextPresence, _Rows, _UserAggregate
from repro.core.constraints import Privilege, Role
from repro.core.context import ContextName
from repro.core.retained_adi import (
    ADIApplyOutcome,
    ADIMutation,
    OwnerCounts,
    RetainedADIRecord,
    RetainedADIStore,
)
from repro.errors import StoreError

_ROOT = ContextName.root()


class _HotShard:
    """One LRU shard of resident user entries, their rows, and its lock."""

    __slots__ = ("lock", "entries", "rows", "capacity", "evictions", "hydrations")

    def __init__(self, capacity: int) -> None:
        self.lock = threading.RLock()
        self.entries: "OrderedDict[str, _UserAggregate]" = OrderedDict()
        self.rows = _Rows()
        self.capacity = capacity
        self.evictions = 0
        self.hydrations = 0


class TieredADIStore(RetainedADIStore):
    """Hot per-user aggregates with LRU eviction over a warm store.

    Parameters
    ----------
    warm:
        The authoritative backing store holding every record.  The
        tiered store never calls its engine views (``has_context`` /
        ``user_roles`` / ``user_privilege_exercises`` /
        ``users_with_privileges``): it reads the warm layer by user
        (hydration), to seed its aggregates, and for the management
        reads (``find``, ``records``).  Every write but :meth:`add` and
        :meth:`clear` — a decision's mutation and each management purge
        alike — is one warm ``apply_detailed``, whose outcome
        :meth:`_absorb_outcome_locked` folds into the hot layer.
    hot_users:
        Total resident-user budget, split across the shards.  The
        hot layer holds at most this many user entries; the LRU tail
        is evicted (no write-back needed) as new users hydrate.
    shards:
        Hot-layer lock shards.  Reads and hydrations of users on
        different shards proceed concurrently.
    owns_warm:
        When true, :meth:`close` closes the warm store too (set by
        the spec-driven builder, :func:`repro.storespec.build_store`).
    """

    def __init__(
        self,
        warm: RetainedADIStore,
        *,
        hot_users: int = 10_000,
        shards: int = 8,
        owns_warm: bool = False,
    ) -> None:
        if hot_users < 1:
            raise StoreError("tiered store needs hot_users >= 1")
        if shards < 1:
            raise StoreError("tiered store needs shards >= 1")
        if isinstance(warm, TieredADIStore):
            raise StoreError("tiered warm layer must not itself be tiered")
        shards = min(shards, hot_users)
        self._warm = warm
        self._owns_warm = owns_warm
        self._hot_users = hot_users
        base, extra = divmod(hot_users, shards)
        self._shards = [
            _HotShard(base + (1 if index < extra else 0))
            for index in range(shards)
        ]
        self._write_lock = threading.RLock()
        self._meta_lock = threading.Lock()
        self._presence = _ContextPresence(warm.context_counts())
        self._owners: OwnerCounts = {}  # the owner fold

    # -- sharding ------------------------------------------------------
    def _shard_for(self, user_id: str) -> _HotShard:
        return self._shards[
            zlib.crc32(user_id.encode("utf-8")) % len(self._shards)
        ]

    def _entry_locked(self, shard: _HotShard, user_id: str) -> _UserAggregate:
        """Fetch-or-hydrate one user's entry.  Caller holds the shard lock.

        Hydration (the warm read) happens entirely under the shard lock,
        so a concurrent reader of the same user blocks until the
        aggregate is complete rather than observing a partially-built one.
        """
        entry = shard.entries.get(user_id)
        if entry is not None:
            shard.entries.move_to_end(user_id)
            return entry
        entry = _UserAggregate(shard.rows)
        for record in self._warm.find_user(user_id, _ROOT):
            entry.add(record)
        shard.entries[user_id] = entry
        shard.hydrations += 1
        while len(shard.entries) > shard.capacity:
            shard.entries.popitem(last=False)[1].release()
            shard.evictions += 1
        return entry

    # -- interface: reads ---------------------------------------------
    def has_context(self, effective_context: ContextName) -> bool:
        with self._meta_lock:
            return self._presence.has_context(effective_context)

    def user_roles(
        self, user_id: str, effective_context: ContextName
    ) -> frozenset[Role]:
        shard = self._shard_for(user_id)
        with shard.lock:
            return self._entry_locked(shard, user_id).roles(effective_context)

    def user_privilege_exercises(
        self, user_id: str, effective_context: ContextName
    ) -> list[Privilege]:
        shard = self._shard_for(user_id)
        with shard.lock:
            return self._entry_locked(shard, user_id).exercises(
                effective_context
            )

    def users_with_privileges(
        self,
        privileges: Iterable[Privilege],
        effective_context: ContextName,
    ) -> frozenset[str]:
        wanted = set(privileges)
        with self._meta_lock:
            if wanted <= self._owners.keys():
                return self._owners_locked(wanted, effective_context)
        # Seeded under the write lock, so no mutation commits between
        # the warm read and the fold it is counted into.
        with self._write_lock, self._meta_lock:
            missing = wanted - self._owners.keys()
            if missing:
                self._owners.update(self._warm.owner_counts(missing))
            return self._owners_locked(wanted, effective_context)

    def _owners_locked(
        self, privileges: set[Privilege], effective_context: ContextName
    ) -> frozenset[str]:
        folds = [self._owners[privilege] for privilege in privileges]
        return frozenset(
            user_id
            for context in self._presence.matching(effective_context)
            for fold in folds
            for user_id in fold.get(context, ())
        )

    def find_user(
        self, user_id: str, effective_context: ContextName
    ) -> list[RetainedADIRecord]:
        shard = self._shard_for(user_id)
        with shard.lock:
            return self._entry_locked(shard, user_id).records(effective_context)

    def find(self, effective_context: ContextName) -> list[RetainedADIRecord]:
        return self._warm.find(effective_context)

    def records(self) -> Iterator[RetainedADIRecord]:
        return self._warm.records()

    def count(self) -> int:
        return self._warm.count()

    def user_ids(self) -> set[str]:
        return self._warm.user_ids()

    def context_counts(self) -> dict[ContextName, int]:
        with self._meta_lock:
            return dict(self._presence.counts)

    # -- interface: mutations -----------------------------------------
    def _absorb_outcome_locked(self, outcome: ADIApplyOutcome) -> None:
        """Fold one committed warm mutation into the hot/meta layers.

        Caller holds the write lock, so no other mutation interleaves;
        per-user updates take the shard lock and are idempotent, which
        makes them safe against hydrations that already read the
        committed warm state.  Every purge arrives here, as one batch:
        the vanished contexts reach the presence in one ``forget``, and
        a resident entry left without records is dropped.
        """
        with self._meta_lock:
            self._presence.forget(
                record.context_instance for record in outcome.purged_records
            )
            for record in outcome.added:
                self._presence.add(record.context_instance)
            if self._owners:
                self._fold_owners_locked(outcome.purged_records, -1)
                self._fold_owners_locked(outcome.added, 1)
        by_user: dict[
            str, tuple[list[RetainedADIRecord], list[RetainedADIRecord]]
        ] = {}
        for record in outcome.purged_records:
            by_user.setdefault(record.user_id, ([], []))[0].append(record)
        for record in outcome.added:
            by_user.setdefault(record.user_id, ([], []))[1].append(record)
        for user_id, (removed, added) in by_user.items():
            shard = self._shard_for(user_id)
            with shard.lock:
                entry = shard.entries.get(user_id)
                if entry is None:
                    continue  # cold user: warm already holds the truth
                entry.remove(removed)
                for record in added:
                    entry.add(record)
                if entry.buckets:
                    shard.entries.move_to_end(user_id)
                else:
                    del shard.entries[user_id]  # no rows left to free

    def _fold_owners_locked(
        self, records: list[RetainedADIRecord], step: int
    ) -> None:
        """Count records into the seeded owner folds.  Meta lock held."""
        for record in records:
            fold = self._owners.get(record.privilege)
            if fold is None:
                continue
            context, user_id = record.context_instance, record.user_id
            users = fold.setdefault(context, {})
            count = users.get(user_id, 0) + step
            if count:
                users[user_id] = count
            else:
                del users[user_id]
                if not users:
                    del fold[context]

    def apply_detailed(self, mutation: ADIMutation) -> ADIApplyOutcome:
        with self._write_lock:
            outcome = self._warm.apply_detailed(mutation)
            self._absorb_outcome_locked(outcome)
        return outcome

    def add(self, record: RetainedADIRecord) -> RetainedADIRecord:
        with self._write_lock:
            stored = self._warm.add(record)
            self._absorb_outcome_locked(ADIApplyOutcome([], [stored]))
        return stored

    def clear(self) -> int:
        with self._write_lock:
            removed = self._warm.clear()
            self._reseed_locked()
        return removed

    def _reseed_locked(self) -> None:
        """Drop the hot layer and the owner fold; re-seed presence."""
        for shard in self._shards:
            with shard.lock:
                shard.entries.clear()
                shard.rows = _Rows()
        with self._meta_lock:
            self._presence = _ContextPresence(self._warm.context_counts())
            self._owners = {}

    # -- lifecycle / plumbing -----------------------------------------
    @contextmanager
    def batch(self):
        try:
            with self._warm.batch():
                yield self
        except StoreError:
            # A failed commit rolled back adds the hot layer absorbed.
            with self._write_lock:
                self._reseed_locked()
            raise

    @property
    def commits_in_batches(self) -> bool:
        return self._warm.commits_in_batches

    def stats(self) -> dict:
        resident = 0
        evictions = 0
        hydrations = 0
        for shard in self._shards:
            with shard.lock:
                resident += len(shard.entries)
                evictions += shard.evictions
                hydrations += shard.hydrations
        warm_stats = self._warm.stats()
        return {
            "backend": "tiered",
            "records": warm_stats["records"],
            "resident_users": resident,
            "evictions": evictions,
            "hydrations": hydrations,
            "hot_capacity": self._hot_users,
            "hot_shards": len(self._shards),
            "warm": warm_stats,
        }

    @property
    def warm(self) -> RetainedADIStore:
        """The authoritative backing store (test/management access)."""
        return self._warm

    def resident_users(self) -> list[str]:
        """User ids currently resident in the hot layer (for tests)."""
        users: list[str] = []
        for shard in self._shards:
            with shard.lock:
                users.extend(shard.entries)
        return users

    def close(self) -> None:
        if self._owns_warm:
            self._warm.close()
