"""Differential what-if replay (stage 2 of the verification pipeline).

A recorded audit trail is the ground truth of what the production PDP
decided.  Replaying its decision stream through a fresh engine loaded
with a *candidate* policy set answers the operator's question before a
hot reload: **which past decisions would have gone the other way?**

The replay is sequential and self-contained: the candidate engine
starts from an empty retained-ADI store and accumulates its *own*
history as it re-decides each recorded request in trail order.  Management purges
recorded in the trail replay against the candidate store too, so
context terminations line up.

The result is deterministic: trails are read in sealed order, the
engine is single-threaded, and the stores are exact — the same trail
and candidate produce bit-identical :class:`WhatIfReport` objects
whether the replay store is in-memory or SQLite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.audit.recovery import decision_from_event
from repro.audit.trail import EVENT_DECISION, EVENT_PURGE, AuditEvent
from repro.core.context import ContextName
from repro.core.decision import Decision
from repro.core.engine import MODE_STRICT, MSoDEngine
from repro.core.policy import MSoDPolicySet
from repro.core.policy_epoch import policy_set_digest
from repro.core.retained_adi import RetainedADIStore
from repro.core.store_memory import InMemoryRetainedADIStore


@dataclass(frozen=True, slots=True)
class DecisionFlip:
    """One recorded decision the candidate set would decide differently."""

    request_id: str
    user_id: str
    operation: str
    target: str
    context_instance: str
    timestamp: float
    recorded_effect: str
    replayed_effect: str
    recorded_reason: str
    replayed_reason: str
    replayed_policy_id: str
    replayed_constraint: str

    @classmethod
    def of(cls, recorded: Decision, replayed: Decision) -> "DecisionFlip":
        """The flip of the ``recorded`` decision to the ``replayed`` one
        of the same request."""
        request, violation = recorded.request, replayed.violation
        return cls(
            request_id=request.request_id,
            user_id=request.user_id,
            operation=request.operation,
            target=request.target,
            context_instance=str(request.context_instance),
            timestamp=request.timestamp,
            recorded_effect=recorded.effect,
            replayed_effect=replayed.effect,
            recorded_reason=recorded.reason,
            replayed_reason=replayed.reason,
            replayed_policy_id=(
                violation.policy_id
                if violation is not None
                else ";".join(replayed.matched_policy_ids)
            ),
            replayed_constraint=(
                violation.constraint_repr if violation is not None else ""
            ),
        )

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "user_id": self.user_id,
            "operation": self.operation,
            "target": self.target,
            "context_instance": self.context_instance,
            "timestamp": self.timestamp,
            "recorded_effect": self.recorded_effect,
            "replayed_effect": self.replayed_effect,
            "recorded_reason": self.recorded_reason,
            "replayed_reason": self.replayed_reason,
            "replayed_policy_id": self.replayed_policy_id,
            "replayed_constraint": self.replayed_constraint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionFlip":
        return cls(
            request_id=str(data.get("request_id", "")),
            user_id=str(data.get("user_id", "")),
            operation=str(data.get("operation", "")),
            target=str(data.get("target", "")),
            context_instance=str(data.get("context_instance", "")),
            timestamp=float(data.get("timestamp", 0.0)),
            recorded_effect=str(data.get("recorded_effect", "")),
            replayed_effect=str(data.get("replayed_effect", "")),
            recorded_reason=str(data.get("recorded_reason", "")),
            replayed_reason=str(data.get("replayed_reason", "")),
            replayed_policy_id=str(data.get("replayed_policy_id", "")),
            replayed_constraint=str(data.get("replayed_constraint", "")),
        )

    def __str__(self) -> str:
        return (
            f"{self.recorded_effect}->{self.replayed_effect} "
            f"{self.user_id} {self.operation}@{self.target} "
            f"[{self.context_instance}] ({self.replayed_reason})"
        )


@dataclass(frozen=True, slots=True)
class WhatIfReport:
    """The outcome of one differential replay."""

    candidate_digest: str
    events_scanned: int
    decisions_replayed: int
    flips: tuple[DecisionFlip, ...]
    # Exact flip total; may exceed ``len(flips)`` when detail was capped.
    flip_count: int = 0

    @property
    def grant_to_deny(self) -> int:
        return sum(
            1 for flip in self.flips if flip.replayed_effect == "deny"
        )

    @property
    def deny_to_grant(self) -> int:
        return sum(
            1 for flip in self.flips if flip.replayed_effect == "grant"
        )

    def to_dict(self) -> dict:
        return {
            "candidate_digest": self.candidate_digest,
            "events_scanned": self.events_scanned,
            "decisions_replayed": self.decisions_replayed,
            "flips": [flip.to_dict() for flip in self.flips],
            "flip_count": self.flip_count,
            "grant_to_deny": self.grant_to_deny,
            "deny_to_grant": self.deny_to_grant,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WhatIfReport":
        flips = data.get("flips", [])
        if not isinstance(flips, list):
            raise TypeError("what-if report flips must be a list")
        details = tuple(DecisionFlip.from_dict(item) for item in flips)
        return cls(
            candidate_digest=str(data.get("candidate_digest", "")),
            events_scanned=int(data.get("events_scanned", 0)),
            decisions_replayed=int(data.get("decisions_replayed", 0)),
            flips=details,
            flip_count=int(data.get("flip_count", len(details))),
        )


def what_if_replay(
    events: Iterable[AuditEvent],
    candidate_set: MSoDPolicySet,
    store: RetainedADIStore | None = None,
    *,
    max_flips_recorded: int = 1000,
    mode: str = MODE_STRICT,
) -> WhatIfReport:
    """Replay a recorded decision stream under a candidate policy set.

    Parameters
    ----------
    events:
        The verified trail events in sealed order — a
        :class:`~repro.audit.trail.TrailFollower`'s ``poll()`` when the
        trail may still be growing.
    store:
        The retained-ADI store backing the replay engine (fresh
        in-memory store by default).  Must start empty unless it holds
        deliberately pre-seeded state.
    max_flips_recorded:
        Cap on the per-flip detail retained in the report (counts are
        always exact).
    """
    if store is None:
        store = InMemoryRetainedADIStore()
    engine = MSoDEngine(candidate_set, store, mode=mode)
    events_scanned = 0
    decisions_replayed = 0
    flips: list[DecisionFlip] = []
    flip_count = 0
    for event in events:
        events_scanned += 1
        if event.event_type == EVENT_PURGE:
            store.purge_context(ContextName.parse(event.payload["context"]))
            continue
        if event.event_type != EVENT_DECISION:
            continue
        recorded = decision_from_event(event.payload)
        replayed = engine.check(recorded.request)
        decisions_replayed += 1
        if replayed.effect == recorded.effect:
            continue
        flip_count += 1
        if len(flips) < max_flips_recorded:
            flips.append(DecisionFlip.of(recorded, replayed))
    return WhatIfReport(
        candidate_digest=policy_set_digest(candidate_set),
        events_scanned=events_scanned,
        decisions_replayed=decisions_replayed,
        flips=tuple(flips),
        flip_count=flip_count,
    )
