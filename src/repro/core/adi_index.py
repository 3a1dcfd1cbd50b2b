"""Incremental aggregates over the retained ADI, shared by every backend.

Steps 3, 5 and 6 of the Section 4.2 algorithm ask whether a context has
started (:class:`_ContextPresence`) and which roles a user activated and
which privileges it exercised there (:class:`_UserAggregate`).
:class:`_UserContextIndex` composes the two for the always-resident
stores, :class:`~repro.core.tiered.TieredADIStore` as LRU shards of
aggregates plus one presence.  None of them locks: the composing store
owns the discipline.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Union

from repro.core.constraints import Privilege, Role
from repro.core.context import ContextName

if TYPE_CHECKING:
    from repro.core.retained_adi import RetainedADIRecord

_RECORD_ID = attrgetter("record_id")
#: A bucket's fold: its roles, and per request its earliest record.
_Fold = tuple[set[Role], dict[str, "RetainedADIRecord"]]


class _ContextBucket:
    """The records of a ``(user, concrete-context)`` pair holding several.

    A pair holds its first record bare (:class:`_UserAggregate`); the
    second builds this bucket.  ``records`` is id-ordered.
    :meth:`fold` computes, the first time a query reaches the bucket,
    the activated roles and, per ``request_id``, the *earliest* record:
    step 5.iv stores one record per matched role, but they count as one
    privilege exercise.  ``add`` keeps a fold up to date; ``discard``
    (a purge: rare, and usually of the whole bucket) drops it for a
    refold.
    """

    __slots__ = ("records", "_folded")

    def __init__(self, records: list[RetainedADIRecord]) -> None:
        self.records = records
        self._folded: _Fold | None = None

    def add(self, record: RetainedADIRecord) -> bool:
        """File one record; ``False`` when its id is already held."""
        records = self.records
        record_id = record.record_id
        if records[-1].record_id < record_id:
            records.append(record)
        else:
            at = bisect_left(records, record_id, key=_RECORD_ID)
            if at < len(records) and records[at].record_id == record_id:
                return False
            records.insert(at, record)
        if self._folded is not None:
            roles, exercises = self._folded
            roles.update(record.roles)
            first = exercises.get(record.request_id)
            if first is None or record_id < first.record_id:
                exercises[record.request_id] = record
        return True

    def discard(self, record_ids: set[int]) -> list[RetainedADIRecord]:
        """Drop the held records among ``record_ids``; the ones dropped."""
        dropped = [r for r in self.records if r.record_id in record_ids]
        if dropped:
            self.records = [r for r in self.records if r.record_id not in record_ids]
            self._folded = None
        return dropped

    def fold(self) -> _Fold:
        if self._folded is None:
            roles: set[Role] = set()
            exercises: dict[str, RetainedADIRecord] = {}
            for record in self.records:  # id order: the first is earliest
                roles.update(record.roles)
                exercises.setdefault(record.request_id, record)
            self._folded = (roles, exercises)
        return self._folded


#: What a ``(user, context)`` pair holds: its one record, or its bucket.
_Held = Union["RetainedADIRecord", _ContextBucket]


def _records_of(holders: Iterable[_Held]) -> list[RetainedADIRecord]:
    """Every record the holders hold, in record-id order."""
    found: list[RetainedADIRecord] = []
    for held in holders:
        if type(held) is _ContextBucket:
            found.extend(held.records)
        else:
            found.append(held)
    found.sort(key=_RECORD_ID)
    return found


class _UserAggregate:
    """One user's records by concrete context, and the folds over them.

    ``buckets`` maps each concrete context to what its pair holds: the
    one record itself, the shape most pairs keep for life, or from the
    second record on a :class:`_ContextBucket`, which stays until the
    pair is deleted.

    ``add``/``remove`` are **idempotent** by record id: a tiered
    mutation's hot update may race a hydration that already read the
    committed warm state, and must not count a record twice.

    ``_memo`` maps an effective context to the list of matching holders,
    amortising context matching across requests and within one.  The
    first query builds it: most users are never asked about.  A new pair
    is appended to the matching cached lists and a promoted one replaced
    in them; any pair deletion simply drops the memo (deletions are
    rare — context termination or admin purges).
    """

    __slots__ = ("buckets", "_memo")

    #: Memo-size guard: effective contexts are policy-derived and few,
    #: but an adversarial query stream must not grow the memo unboundedly.
    _MEMO_LIMIT = 1024

    def __init__(self) -> None:
        self.buckets: dict[ContextName, _Held] = {}
        self._memo: dict[ContextName, list[_Held]] | None = None

    # -- maintenance ---------------------------------------------------
    def add(self, record: RetainedADIRecord) -> _Held | None:
        """File one record; what its pair now holds, ``None`` if held."""
        context = record.context_instance
        held = self.buckets.get(context)
        if held is None:
            holder: _Held = record
        elif type(held) is _ContextBucket:
            return held if held.add(record) else None
        elif held.record_id == record.record_id:
            return None  # hydration already saw this committed record
        else:  # the pair's second record
            holder = _ContextBucket(sorted((held, record), key=_RECORD_ID))
        self.buckets[context] = holder
        if self._memo:
            for effective, matching in self._memo.items():
                if effective.matcher.matches(context):
                    if held is None:
                        matching.append(holder)
                    else:
                        matching[matching.index(held)] = holder
        return holder

    def remove(self, records: Iterable[RetainedADIRecord]) -> list[RetainedADIRecord]:
        """Retire this user's listed records; the ones that were held.

        One pass per touched pair.  A record not held was hydrated
        after the warm delete, so it is already gone.
        """
        doomed: dict[ContextName, set[int]] = {}
        for record in records:
            doomed.setdefault(record.context_instance, set()).add(record.record_id)
        removed: list[RetainedADIRecord] = []
        for context, record_ids in doomed.items():
            held = self.buckets.get(context)
            if type(held) is _ContextBucket:
                removed.extend(held.discard(record_ids))
                if held.records:
                    continue
            elif held is not None and held.record_id in record_ids:
                removed.append(held)
            else:
                continue
            del self.buckets[context]
            if self._memo:
                # Drop the memo for lazy rebuild rather than surgically
                # pruning every cached list.
                self._memo = {}
        return removed

    # -- folds ---------------------------------------------------------
    def _matching(self, effective_context: ContextName) -> list[_Held]:
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        matching = memo.get(effective_context)
        if matching is None:
            if len(memo) >= self._MEMO_LIMIT:
                memo.clear()
            matches = effective_context.matcher.matches
            matching = memo[effective_context] = [
                held
                for context, held in self.buckets.items()
                if matches(context)
            ]
        return matching

    def roles(self, effective_context: ContextName) -> frozenset[Role]:
        """Roles the user has activated within the effective context."""
        roles: set[Role] = set()
        for held in self._matching(effective_context):
            if type(held) is _ContextBucket:
                roles.update(held.fold()[0])
            else:
                roles.update(held.roles)
        return frozenset(roles)

    def exercises(self, effective_context: ContextName) -> list[Privilege]:
        """Privileges exercised, one per request, in record-id order."""
        firsts: list[RetainedADIRecord] = []
        for held in self._matching(effective_context):
            if type(held) is _ContextBucket:
                firsts.extend(held.fold()[1].values())
            else:
                firsts.append(held)
        firsts.sort(key=_RECORD_ID)
        seen_requests: set[str] = set()
        exercises: list[Privilege] = []
        for record in firsts:
            if record.request_id in seen_requests:
                continue
            seen_requests.add(record.request_id)
            exercises.append(record.privilege)
        return exercises

    def records(self, effective_context: ContextName) -> list[RetainedADIRecord]:
        """The user's records within the context, in record-id order."""
        return _records_of(self._matching(effective_context))


class _ContextPresence:
    """Which concrete contexts hold records, indexed for context matching.

    ``counts`` maps each concrete context instance to its record count;
    it is bounded by the number of distinct contexts, not by users.
    ``_postings`` maps each ``(position, component value)`` of a live
    context to the live contexts holding it, and changes exactly where
    ``counts`` gains or loses a key.  :meth:`matching` is the one
    enumeration of the live contexts within an effective context: it
    walks the smallest posting among the effective context's concrete
    components (all of ``counts`` only when it names none) and verifies
    each candidate with the compiled matcher — postings are filed by
    value alone, so the matcher is what tells ``Dept=x`` from ``Case=x``.

    ``_memo`` holds the effective contexts known to have started, and
    only those.  "Not started" is never memoised: a miss costs one short
    posting walk, whereas a remembered ``False`` would have to be looked
    for on every new concrete context.  Two rules keep the memo true:

    * a *vanished* context can only stale the entries that matched it,
      which are dropped for lazy recomputation;
    * past ``_BULK_FORGET`` vanished contexts in one call the memo is
      dropped whole, without matching.
    """

    __slots__ = ("counts", "_postings", "_memo")

    #: Memo-size guard, as for :class:`_UserAggregate`.
    _MEMO_LIMIT = 4096
    _BULK_FORGET = 8

    def __init__(self, counts: Mapping[ContextName, int] | None = None) -> None:
        self.counts: dict[ContextName, int] = dict(counts or ())
        self._postings: dict[tuple[int, str], set[ContextName]] = {}
        self._memo: dict[ContextName, bool] = {}
        for context in self.counts:
            self._post(context)

    def _post(self, context: ContextName) -> None:
        postings = self._postings
        for key in context.component_keys():
            postings.setdefault(key, set()).add(context)

    def add(self, context: ContextName) -> None:
        """Count one more record in a concrete context."""
        count = self.counts.get(context, 0)
        self.counts[context] = count + 1
        if not count:
            self._post(context)

    def forget(self, contexts: Iterable[ContextName]) -> None:
        """Count one record fewer in each listed concrete context."""
        counts = self.counts
        postings = self._postings
        vanished: list[ContextName] = []
        for context in contexts:
            count = counts.get(context, 0)
            if count > 1:
                counts[context] = count - 1
            elif count:
                del counts[context]
                vanished.append(context)
                for key in context.component_keys():
                    posting = postings[key]
                    posting.remove(context)
                    if not posting:
                        del postings[key]
        memo = self._memo
        if not vanished or not memo:
            return
        # Per-context invalidation is a full memo sweep with a matcher
        # call per entry; a user can own hundreds of concrete contexts
        # (one per grant under per-user period naming), and a reshard
        # cutover purges many users back to back while the memo sits at
        # its limit — that product is what a fenced cutover pause would
        # be made of.  Past a handful of vanished contexts it is
        # strictly cheaper to drop the memo without matching; it
        # repopulates lazily.
        if len(vanished) > self._BULK_FORGET:
            memo.clear()
            return
        stale = [
            effective
            for effective in memo
            if any(map(effective.matcher.matches, vanished))
        ]
        for effective in stale:
            del memo[effective]

    def matching(self, effective_context: ContextName) -> Iterator[ContextName]:
        """The live concrete contexts within ``effective_context``, lazily."""
        matcher = effective_context.matcher
        candidates: Iterable[ContextName] = self.counts
        for key in matcher.concrete:
            posting = self._postings.get(key)
            if posting is None:
                return iter(())
            if len(posting) < len(candidates):
                candidates = posting
        return filter(matcher.matches, candidates)

    def has_context(self, effective_context: ContextName) -> bool:
        memo = self._memo
        if effective_context in memo:
            return True
        if next(self.matching(effective_context), None) is None:
            return False
        if len(memo) >= self._MEMO_LIMIT:
            memo.clear()
        memo[effective_context] = True
        return True


class _UserContextIndex:
    """Records filed by ``(user, concrete context instance)``.

    The number of distinct concrete instances (and of instances any one
    user has touched) is tiny compared to the record count, so
    context-scoped queries walk a handful of pairs — each answering
    from its one record or its bucket's fold — instead of scanning
    every record;
    cross-user queries find their contexts through
    :meth:`_ContextPresence.matching`, not by scanning the live ones.

    Both always-resident backends share this structure: the in-memory
    store uses it as its primary index, the SQLite store as a lazily
    built cache kept in lock-step with the table.
    """

    __slots__ = ("_by_user", "_by_context", "_presence")

    def __init__(self) -> None:
        self._by_user: dict[str, _UserAggregate] = {}
        self._by_context: dict[ContextName, dict[str, _Held]] = {}
        self._presence = _ContextPresence()

    # -- maintenance ---------------------------------------------------
    def add(self, record: RetainedADIRecord) -> None:
        user_id = record.user_id
        aggregate = self._by_user.get(user_id)
        if aggregate is None:
            aggregate = self._by_user[user_id] = _UserAggregate()
        held = aggregate.add(record)
        if held is not None:
            context = record.context_instance
            self._by_context.setdefault(context, {})[user_id] = held
            self._presence.add(context)

    def remove(self, records: Iterable[RetainedADIRecord]) -> None:
        """Retire records, skipping those not held (idempotent by id)."""
        by_user: dict[str, list[RetainedADIRecord]] = {}
        for record in records:
            by_user.setdefault(record.user_id, []).append(record)
        forgotten: list[ContextName] = []
        for user_id, mine in by_user.items():
            aggregate = self._by_user.get(user_id)
            if aggregate is None:
                continue
            removed = aggregate.remove(mine)
            for context in {record.context_instance for record in removed}:
                if context not in aggregate.buckets:
                    by_users = self._by_context[context]
                    del by_users[user_id]
                    if not by_users:
                        del self._by_context[context]
            if not aggregate.buckets:
                del self._by_user[user_id]
            forgotten.extend(record.context_instance for record in removed)
        self._presence.forget(forgotten)

    # -- queries -------------------------------------------------------
    def resident_users(self) -> int:
        return len(self._by_user)

    def context_counts(self) -> dict[ContextName, int]:
        return dict(self._presence.counts)

    def has_context(self, effective_context: ContextName) -> bool:
        return self._presence.has_context(effective_context)

    def context_records(
        self, effective_context: ContextName
    ) -> list[RetainedADIRecord]:
        by_context = self._by_context
        return _records_of(
            held
            for context in self._presence.matching(effective_context)
            for held in by_context[context].values()
        )

    def user(self, user_id: str) -> _UserAggregate:
        """The user's aggregate to fold over; an empty one if unknown."""
        return self._by_user.get(user_id) or _UserAggregate()
