"""Retained-ADI recovery from secure audit trails (paper Section 5.2).

"At start up, the PDP reads in its policy, and then processes the last
*n* audit trails starting from time *t* ... It extracts the retained ADI
from these according to its current set of MSoD policies.  Once its
retained ADI is recovered to memory, the PDP is ready to start making
access control decisions again."

The paper flags this replay as its scalability limitation (Section 6);
``benchmarks/bench_recovery_scalability.py`` measures it against the
SQLite store that needs no replay.

Replay is **idempotent**: records already present in the target store
are not added twice, so running the same recovery repeatedly — or
resuming a partially-applied one — converges on the same store.  That
property is what lets :mod:`repro.cluster` reuse this exact code path
as *replication*: a warm standby simply re-runs recovery over its
primary's shipped trails on every catch-up tick (see
``docs/CLUSTER.md``).  A standby passes ``policy_set=None``: it mirrors
what the trail recorded rather than re-filtering it, and ``journal``
captures every decision outcome by request id (its exactly-once dedupe
table).  A reshard import has its own per-event rules but applies each
mutation through the same :class:`IdempotentApply`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, MutableMapping

from repro.core.context import ContextName
from repro.core.decision import Decision, Effect
from repro.core.policy import MSoDPolicySet
from repro.core.retained_adi import RetainedADIRecord, RetainedADIStore
from repro.audit.trail import (
    EVENT_DECISION,
    EVENT_PURGE,
    AuditEvent,
    AuditTrailManager,
)


def decision_event_payload(decision: Decision) -> dict:
    """Serialise a decision (and its ADI mutation) for the audit trail."""
    request = decision.request
    return {
        "effect": decision.effect,
        "reason": decision.reason,
        "request": {
            "user_id": request.user_id,
            "roles": [[role.role_type, role.value] for role in request.roles],
            "operation": request.operation,
            "target": request.target,
            "context_instance": str(request.context_instance),
            "request_id": request.request_id,
            "timestamp": request.timestamp,
        },
        "matched_policies": list(decision.matched_policy_ids),
        "adi_adds": [record.to_dict() for record in decision.adi_adds],
        "adi_purges": [str(context) for context in decision.adi_purged_contexts],
        # Which policy regime produced this decision.  Distinct from the
        # cluster fencing "epoch" the audit sink stamps: that versions
        # the *primary lineage*, this versions the *policy set*.
        "policy_epoch": decision.policy_epoch,
        "policy_digest": decision.policy_digest,
    }


def _record_key(record: RetainedADIRecord) -> tuple:
    """The identity of a retained record, independent of ``record_id``."""
    return (
        record.user_id,
        tuple(sorted((role.role_type, role.value) for role in record.roles)),
        record.operation,
        record.target,
        str(record.context_instance),
        record.granted_at,
        record.request_id,
    )


class _PreexistingRecords:
    """Multiset of record identities already present in the store.

    One grant may legitimately retain several identity-equal records
    (step 5.iv adds one per matched constraint), so this is a counted
    multiset, not a set: each replayed add *consumes* one pre-existing
    copy if available and only hits the store when none remain.
    Replayed purges discard the unconsumed copies they would have
    removed from the store.
    """

    def __init__(self, store: RetainedADIStore) -> None:
        self._counts: dict[tuple, int] = {}
        self._contexts: dict[tuple, ContextName] = {}
        for record in store.records():
            key = _record_key(record)
            self._counts[key] = self._counts.get(key, 0) + 1
            self._contexts[key] = record.context_instance

    def consume(self, record: RetainedADIRecord) -> bool:
        """Match one pre-existing copy; True when the add must be skipped."""
        key = _record_key(record)
        remaining = self._counts.get(key, 0)
        if remaining <= 0:
            return False
        if remaining == 1:
            del self._counts[key]
            del self._contexts[key]
        else:
            self._counts[key] = remaining - 1
        return True

    def purge(self, effective_context: ContextName) -> None:
        dead = [
            key
            for key, context in self._contexts.items()
            if context.is_equal_or_subordinate_to(effective_context)
        ]
        for key in dead:
            del self._counts[key]
            del self._contexts[key]


class IdempotentApply:
    """Replays recorded ADI mutations into a store at most once each.

    The invariant behind recovery, standby catch-up and reshard import:
    N passes over the same trail leave the store exactly as one pass
    does.  What the store already held is snapshotted at the pass's
    first add — early enough that one grant's identity-equal records
    are never collapsed, and not at all on a tail without grants, so an
    idle catch-up tick never scans the store.
    """

    def __init__(self, store: RetainedADIStore) -> None:
        self._store = store
        self._preexisting: _PreexistingRecords | None = None

    def purge(self, context_text: str) -> None:
        context = ContextName.parse(context_text)
        self._store.purge_context(context)
        if self._preexisting is not None:
            self._preexisting.purge(context)

    def unseen(
        self, records: list[RetainedADIRecord]
    ) -> list[RetainedADIRecord]:
        """The records the store does not hold yet — the ones to add."""
        if not records:
            return []
        if self._preexisting is None:
            self._preexisting = _PreexistingRecords(self._store)
        return [r for r in records if not self._preexisting.consume(r)]


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """Statistics from one recovery run."""

    events_scanned: int
    records_replayed: int
    records_skipped: int
    purges_replayed: int


def recover_retained_adi(
    trails: AuditTrailManager | None,
    policy_set: MSoDPolicySet | None,
    store: RetainedADIStore,
    last_n_trails: int | None = None,
    since: float = 0.0,
    *,
    journal: MutableMapping[str, dict] | None = None,
    user_filter: Callable[[str], bool] | None = None,
    events: Iterable[AuditEvent] | None = None,
) -> RecoveryReport:
    """Rebuild a retained-ADI store by replaying granted decisions.

    Only records whose business-context instance is still matched by
    ``policy_set`` are recovered ("according to its current set of MSoD
    policies"); ``policy_set=None`` recovers every recorded add, which
    is how a mirror reproduces its source's store whatever sets the
    trail was written under.  Purge events replay unconditionally so
    contexts terminated before the restart stay terminated.  Records
    already in ``store`` are not added twice, so the call is idempotent
    (the multiset of what it holds is built at the pass's first add).

    Parameters
    ----------
    journal:
        Optional mapping populated with every decision event's payload
        keyed by ``request_id`` (grants *and* denies).  A cluster
        standby uses this as its exactly-once table: a client retrying
        a decide whose outcome the dead primary already committed gets
        the recorded answer instead of a double evaluation.
    user_filter:
        Optional ``user_id -> bool`` predicate restricting which adds
        are replayed and which decision outcomes enter ``journal``;
        events for other users are skipped (purges still replay
        unconditionally — context termination is store-wide).
    events:
        Optional pre-verified event source replacing
        ``trails.events(...)`` (``trails`` may then be ``None``).  A
        cluster standby passes an incremental
        :class:`~repro.audit.trail.TrailFollower` stream here so each
        catch-up tick replays only the new tail instead of re-parsing
        and re-verifying the whole lineage.  To stop at a cutoff,
        bound the source with ``itertools.islice`` first: it consumes
        exactly the bound, so a stateful source never advances past an
        event the replay did not examine.
    """
    events_scanned = 0
    replayed = 0
    skipped = 0
    purges = 0
    target = IdempotentApply(store)
    if events is None:
        events = trails.events(last_n_trails=last_n_trails, since=since)
    for event in events:
        events_scanned += 1
        if event.event_type == EVENT_DECISION:
            payload = event.payload
            if journal is not None:
                request = payload.get("request", {})
                request_id = request.get("request_id")
                if request_id and (
                    user_filter is None
                    or user_filter(request.get("user_id", ""))
                ):
                    journal[request_id] = payload
            if payload.get("effect") != Effect.GRANT:
                continue
            for context_text in payload.get("adi_purges", ()):
                target.purge(context_text)
                purges += 1
            adds = [
                RetainedADIRecord.from_dict(record_dict)
                for record_dict in payload.get("adi_adds", ())
            ]
            fresh = target.unseen([
                record
                for record in adds
                if (user_filter is None or user_filter(record.user_id))
                and (
                    policy_set is None
                    or policy_set.is_relevant(record.context_instance)
                )
            ])
            for record in fresh:
                store.add(record)
            replayed += len(fresh)
            skipped += len(adds) - len(fresh)
        elif event.event_type == EVENT_PURGE:
            target.purge(event.payload["context"])
            purges += 1
    return RecoveryReport(
        events_scanned=events_scanned,
        records_replayed=replayed,
        records_skipped=skipped,
        purges_replayed=purges,
    )
