"""Incremental aggregates over the retained ADI, shared by every backend.

Steps 3, 5 and 6 of the Section 4.2 algorithm ask whether a context has
started (:class:`_ContextPresence`) and which roles a user activated and
which privileges it exercised there (:class:`_UserAggregate`).
:class:`~repro.core.retained_adi.InMemoryRetainedADIStore` composes
the two as one aggregate per user and a by-context view,
:class:`~repro.core.tiered.TieredADIStore` as LRU shards of aggregates
plus one presence.  None of them locks: the composing store
owns the discipline.

The records themselves are packed rows of a :class:`_Rows` table, one
per memory store or hot shard; aggregates hold row numbers.  A
:class:`~repro.core.retained_adi.RetainedADIRecord` is built only when a
store hands records out.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping, Union

from repro.core.constraints import Privilege, Role
from repro.core.context import ContextName

if TYPE_CHECKING:
    from repro.core.retained_adi import RetainedADIRecord

#: A bucket's fold: its roles, and per request its earliest row.
_Fold = tuple[set[Role], dict[str, int]]


class _Rows:
    """Retained records as packed rows: one column per field.

    ``record_ids`` and ``granted_at`` are typed arrays, so a row's id and
    time are 16 bytes and no objects.  The other columns hold references
    the stores already share — interned strings, shared role tuples,
    interned context names — and the request id.  A row's number is its
    position in every column; :meth:`release` clears a row's references
    and :meth:`add` reuses its number.
    """

    __slots__ = (
        "record_ids", "granted_at", "user_ids", "roles", "operations",
        "targets", "contexts", "request_ids", "_free",
    )

    def __init__(self) -> None:
        self.record_ids = array("q")
        self.granted_at = array("d")
        self.user_ids: list[str | None] = []
        self.roles: list[tuple[Role, ...] | None] = []
        self.operations: list[str | None] = []
        self.targets: list[str | None] = []
        self.contexts: list[ContextName | None] = []
        self.request_ids: list[str | None] = []
        self._free = array("q")

    def add(self, record: RetainedADIRecord) -> int:
        """Pack one record into a row; its row number."""
        user_id, roles, operation, target, context, at, request_id, record_id = record
        if self._free:
            row = self._free.pop()
            self.record_ids[row] = record_id
            self.granted_at[row] = at
            self.user_ids[row] = user_id
            self.roles[row] = roles
            self.operations[row] = operation
            self.targets[row] = target
            self.contexts[row] = context
            self.request_ids[row] = request_id
            return row
        self.record_ids.append(record_id)
        self.granted_at.append(at)
        self.user_ids.append(user_id)
        self.roles.append(roles)
        self.operations.append(operation)
        self.targets.append(target)
        self.contexts.append(context)
        self.request_ids.append(request_id)
        return len(self.user_ids) - 1

    def __len__(self) -> int:
        """The rows in use."""
        return len(self.record_ids) - len(self._free)

    def release(self, rows: Iterable[int]) -> None:
        """Free rows for reuse, dropping their references."""
        for row in rows:
            self.user_ids[row] = self.roles[row] = self.operations[row] = None
            self.targets[row] = self.contexts[row] = self.request_ids[row] = None
            self._free.append(row)

    def records(self, rows: Iterable[int]) -> list[RetainedADIRecord]:
        """The records the rows hold, in the order given."""
        # Imported here: retained_adi imports this module at load time.
        from repro.core.retained_adi import RetainedADIRecord

        new = tuple.__new__
        ids, at, users, roles = (
            self.record_ids, self.granted_at, self.user_ids, self.roles
        )
        operations, targets = self.operations, self.targets
        contexts, requests = self.contexts, self.request_ids
        return [
            new(RetainedADIRecord, (
                users[row], roles[row], operations[row], targets[row],
                contexts[row], at[row], requests[row], ids[row],
            ))
            for row in rows
        ]


class _ContextBucket:
    """The rows of a ``(user, concrete-context)`` pair holding several.

    A pair holds its first record's row number bare
    (:class:`_UserAggregate`); the second builds this bucket.  ``rows``
    is in record-id order.  :meth:`fold` computes, the first time a
    query reaches the bucket, the activated roles and, per
    ``request_id``, the row of the *earliest* record: step 5.iv stores
    one record per matched role, but they count as one privilege
    exercise.  ``add`` keeps a fold up to date; ``discard`` (a purge:
    rare, and usually of the whole bucket) drops it for a refold.
    """

    __slots__ = ("rows", "_folded")

    def __init__(self, rows: array) -> None:
        self.rows = rows
        self._folded: _Fold | None = None

    def add(self, table: _Rows, row: int) -> bool:
        """File one packed row; ``False`` when its record id is already held."""
        rows = self.rows
        ids = table.record_ids
        record_id = ids[row]
        if ids[rows[-1]] < record_id:
            rows.append(row)
        else:
            at = bisect_left(rows, record_id, key=ids.__getitem__)
            if at < len(rows) and ids[rows[at]] == record_id:
                return False
            rows.insert(at, row)
        if self._folded is not None:
            roles, exercises = self._folded
            roles.update(table.roles[row])
            request_id = table.request_ids[row]
            first = exercises.get(request_id)
            if first is None or record_id < ids[first]:
                exercises[request_id] = row
        return True

    def discard(self, table: _Rows, record_ids: Collection[int]) -> list[int]:
        """Unlink the rows whose ids are listed; the rows unlinked."""
        ids = table.record_ids
        dropped = [row for row in self.rows if ids[row] in record_ids]
        if dropped:
            self.rows = array(
                "q", [row for row in self.rows if ids[row] not in record_ids]
            )
            self._folded = None
        return dropped

    def fold(self, table: _Rows) -> _Fold:
        if self._folded is None:
            roles: set[Role] = set()
            exercises: dict[str, int] = {}
            held_roles, requests = table.roles, table.request_ids
            for row in self.rows:  # id order: the first is earliest
                roles.update(held_roles[row])
                exercises.setdefault(requests[row], row)
            self._folded = (roles, exercises)
        return self._folded


#: What a ``(user, context)`` pair holds: its one row, or its bucket.
_Held = Union[int, _ContextBucket]


def _held_rows(held: _Held) -> Iterable[int]:
    return held.rows if type(held) is _ContextBucket else (held,)


def _rows_of(table: _Rows, holders: Iterable[_Held]) -> list[int]:
    """Every row the holders hold, in record-id order."""
    found: list[int] = []
    for held in holders:
        if type(held) is _ContextBucket:
            found.extend(held.rows)
        else:
            found.append(held)
    found.sort(key=table.record_ids.__getitem__)
    return found


class _UserAggregate:
    """One user's records by concrete context, and the folds over them.

    ``buckets`` maps each concrete context to what its pair holds: the
    row number of its one record, the shape most pairs keep for life, or
    from the second record on a :class:`_ContextBucket`, which stays
    until the pair is deleted.  The rows live in ``table``, which the
    aggregate may share with others (a memory store's, a hot shard's).

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

    __slots__ = ("table", "buckets", "_memo")

    #: Memo-size guard: effective contexts are policy-derived and few,
    #: but an adversarial query stream must not grow the memo unboundedly.
    _MEMO_LIMIT = 1024

    def __init__(self, table: _Rows | None = None) -> None:
        self.table = _Rows() if table is None else table
        self.buckets: dict[ContextName, _Held] = {}
        self._memo: dict[ContextName, list[_Held]] | None = None

    # -- maintenance ---------------------------------------------------
    def add(self, record: RetainedADIRecord) -> _Held | None:
        """File one record; what its pair now holds, ``None`` if held.

        The record is packed first: a record already held (by id) is
        rare, and releasing its row is cheaper than a second lookup of
        the pair on every add.
        """
        context = record.context_instance
        table = self.table
        row = table.add(record)
        held = self.buckets.setdefault(context, row)
        if held is row:  # a new pair: a held row is never the one just packed
            holder: _Held = row
        elif type(held) is _ContextBucket:
            if held.add(table, row):
                return held
            table.release((row,))
            return None
        elif table.record_ids[held] == record.record_id:
            table.release((row,))
            return None  # hydration already saw this committed record
        else:  # the pair's second record
            pair = (held, row) if table.record_ids[held] < record.record_id else (row, held)
            holder = self.buckets[context] = _ContextBucket(array("q", pair))
        if self._memo:
            for effective, matching in self._memo.items():
                if effective.matcher.matches(context):
                    if holder is row:
                        matching.append(holder)
                    else:
                        matching[matching.index(held)] = holder
        return holder

    def remove(self, records: Iterable[RetainedADIRecord]) -> list[RetainedADIRecord]:
        """Retire this user's listed records; the ones that were held.

        One pass per touched pair.  A record not held was hydrated
        after the warm delete, so it is already gone.
        """
        doomed: dict[ContextName, dict[int, RetainedADIRecord]] = {}
        for record in records:
            doomed.setdefault(record.context_instance, {})[record.record_id] = record
        table = self.table
        ids = table.record_ids
        removed: list[RetainedADIRecord] = []
        for context, by_id in doomed.items():
            held = self.buckets.get(context)
            if type(held) is _ContextBucket:
                dropped = held.discard(table, by_id)
                removed.extend(by_id[ids[row]] for row in dropped)
                table.release(dropped)
                if held.rows:
                    continue
            elif held is not None and ids[held] in by_id:
                removed.append(by_id[ids[held]])
                table.release((held,))
            else:
                continue
            del self.buckets[context]
            if self._memo:
                # Drop the memo for lazy rebuild rather than surgically
                # pruning every cached list.
                self._memo = {}
        return removed

    def release(self) -> None:
        """Free every row this aggregate holds (it is being dropped)."""
        table = self.table
        for held in self.buckets.values():
            table.release(_held_rows(held))

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
        table = self.table
        held_roles = table.roles
        roles: set[Role] = set()
        for held in self._matching(effective_context):
            if type(held) is _ContextBucket:
                roles.update(held.fold(table)[0])
            else:
                roles.update(held_roles[held])
        return frozenset(roles)

    def exercises(self, effective_context: ContextName) -> list[Privilege]:
        """Privileges exercised, one per request, in record-id order."""
        table = self.table
        firsts: list[int] = []
        for held in self._matching(effective_context):
            if type(held) is _ContextBucket:
                firsts.extend(held.fold(table)[1].values())
            else:
                firsts.append(held)
        firsts.sort(key=table.record_ids.__getitem__)
        requests, operations, targets = (
            table.request_ids, table.operations, table.targets
        )
        new = tuple.__new__
        seen_requests: set[str] = set()
        exercises: list[Privilege] = []
        for row in firsts:
            request_id = requests[row]
            if request_id in seen_requests:
                continue
            seen_requests.add(request_id)
            # The granted request's own pair: built without the checks.
            exercises.append(new(Privilege, (operations[row], targets[row])))
        return exercises

    def rows(self, effective_context: ContextName) -> list[int]:
        """The user's rows within the context, in record-id order."""
        return _rows_of(self.table, self._matching(effective_context))

    def records(self, effective_context: ContextName) -> list[RetainedADIRecord]:
        """The user's records within the context, in record-id order."""
        return self.table.records(self.rows(effective_context))


class _ContextPresence:
    """Which concrete contexts hold records, indexed for context matching.

    ``counts`` maps each concrete context instance to how often it was
    added and not yet forgotten — its record count in a tier, 1 in the
    memory store; it is bounded by the number of distinct
    contexts, not by users.
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
        """Count a concrete context once more."""
        count = self.counts.get(context, 0)
        self.counts[context] = count + 1
        if not count:
            self._post(context)

    def forget(self, contexts: Iterable[ContextName]) -> None:
        """Count each listed concrete context once less."""
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

