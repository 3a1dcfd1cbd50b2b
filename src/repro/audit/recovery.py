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
captures every decision by request id (its exactly-once dedupe table).
A reshard import has its own per-event rules but applies each mutation
through the same :meth:`IdempotentApply.apply`.

A decision event has one writer, :func:`decision_event_payload`, and one
reader, :func:`decision_from_event`; nothing else reads its request.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, MutableMapping

from repro.core.constraints import Role
from repro.core.context import ContextName
from repro.core.decision import Decision, DecisionRequest, Effect
from repro.core.policy import MSoDPolicySet
from repro.core.retained_adi import RetainedADIRecord, RetainedADIStore
from repro.audit.trail import (
    EVENT_DECISION,
    EVENT_PURGE,
    AuditEvent,
    AuditTrailManager,
)
from repro.errors import AuditTrailError, ReproError


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


def _recorded_mutation(
    payload: dict,
) -> tuple[tuple[ContextName, ...], tuple[RetainedADIRecord, ...]]:
    """A decision event's purged contexts and added records."""
    return (
        tuple(ContextName.parse(text) for text in payload["adi_purges"]),
        tuple(RetainedADIRecord.from_dict(item) for item in payload["adi_adds"]),
    )


def decision_from_event(payload: dict) -> Decision:
    """Read a decision event back: the inverse of :func:`decision_event_payload`.

    Every field the event records comes back equal, and
    ``records_added`` is the number of recorded adds, as the engine
    counts it.  The fields it does not record take their defaults: the
    request's environment (condition-gated RBAC grants happen before
    the MSoD step and are folded into the recorded effect), the
    violation, ``records_purged``, the records' store ids and the trace.
    Raises :class:`~repro.errors.AuditTrailError` on a payload its
    writer cannot have produced.
    """
    try:
        request = payload["request"]
        purged, adds = _recorded_mutation(payload)
        return Decision(
            effect=payload["effect"],
            request=DecisionRequest(
                user_id=request["user_id"],
                roles=tuple(Role(*role) for role in request["roles"]),
                operation=request["operation"],
                target=request["target"],
                context_instance=ContextName.parse(request["context_instance"]),
                timestamp=request["timestamp"],
                request_id=request["request_id"],
            ),
            matched_policy_ids=tuple(payload["matched_policies"]),
            records_added=len(adds),
            reason=payload["reason"],
            adi_adds=adds,
            adi_purged_contexts=purged,
            # Absent from events written before policy versions existed.
            policy_epoch=payload.get("policy_epoch", 0),
            policy_digest=payload.get("policy_digest", ""),
        )
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise AuditTrailError(f"malformed decision event: {exc!r}") from exc


def _record_key(record: RetainedADIRecord) -> tuple:
    """The identity of a retained record, independent of ``record_id``."""
    user_id, roles, operation, target, context, at, request_id, _ = record
    return (user_id, tuple(sorted(roles)), operation, target, context, at, request_id)


class IdempotentApply:
    """Replays recorded ADI mutations into a store at most once each.

    The invariant behind recovery, standby catch-up and reshard import:
    N passes over the same trail leave the store exactly as one pass
    does.  What the store already held is snapshotted at the pass's
    first add — early enough that one grant's identity-equal records
    are never collapsed, and not at all on a tail without grants, so an
    idle catch-up tick never scans the store.  The snapshot is a
    counted multiset, since one grant may retain several identity-equal
    records (step 5.iv adds one per matched constraint): each replayed
    add consumes one held copy if any remains, and a replayed purge
    drops the copies it removed from the store.
    """

    def __init__(self, store: RetainedADIStore) -> None:
        self._store = store
        self._held: Counter | None = None

    def purge(self, context: ContextName) -> None:
        self._store.purge_context(context)
        if self._held is not None:
            for key in [
                key for key in self._held
                if key[4].is_equal_or_subordinate_to(context)
            ]:
                del self._held[key]

    def apply(
        self,
        purged: Iterable[ContextName],
        adds: Iterable[RetainedADIRecord],
    ) -> list[RetainedADIRecord]:
        """Apply one recorded grant: its purges, then those of its adds
        the store does not hold yet.  Returns the records added."""
        for context in purged:
            self.purge(context)
        adds = list(adds)
        if not adds:
            return []
        held = self._held
        if held is None:
            held = self._held = Counter(map(_record_key, self._store.records()))
        fresh = []
        for record in adds:
            key = _record_key(record)
            if held.get(key):
                held[key] -= 1
            else:
                fresh.append(record)
                self._store.add(record)
        return fresh


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
    journal: MutableMapping[str, Decision] | None = None,
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
        Optional mapping populated with every recorded decision, read
        by :func:`decision_from_event` and keyed by ``request_id``
        (grants *and* denies).  A cluster
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
            if journal is None:
                # Start-up recovery parses the mutation, no request.
                if payload.get("effect") != Effect.GRANT:
                    continue
                purged, adds = _recorded_mutation(payload)
            else:
                decision = decision_from_event(payload)
                request = decision.request
                if user_filter is None or user_filter(request.user_id):
                    journal[request.request_id] = decision
                if not decision.granted:
                    continue
                purged, adds = decision.adi_purged_contexts, decision.adi_adds
            fresh = target.apply(purged, (
                record
                for record in adds
                if (user_filter is None or user_filter(record.user_id))
                and (
                    policy_set is None
                    or policy_set.is_relevant(record.context_instance)
                )
            ))
            purges += len(purged)
            replayed += len(fresh)
            skipped += len(adds) - len(fresh)
        elif event.event_type == EVENT_PURGE:
            target.purge(ContextName.parse(event.payload["context"]))
            purges += 1
    return RecoveryReport(
        events_scanned=events_scanned,
        records_replayed=replayed,
        records_skipped=skipped,
        purges_replayed=purges,
    )
