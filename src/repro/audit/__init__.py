"""Secure audit trail and retained-ADI recovery (Section 5.2, ref [5]).

A decision event is written by :func:`decision_event_payload` and read
back, as a :class:`~repro.core.decision.Decision`, by
:func:`decision_from_event` alone: recovery's journal, standby catch-up,
reshard import and the what-if replay all read it that way.
"""

from repro.audit.recovery import (
    RecoveryReport,
    decision_event_payload,
    decision_from_event,
    recover_retained_adi,
)
from repro.audit.trail import (
    EVENT_ADMIN,
    EVENT_DECISION,
    EVENT_PURGE,
    GENESIS_HASH,
    AuditEvent,
    AuditTrailManager,
    SecureAuditTrail,
)

__all__ = [
    "SecureAuditTrail",
    "AuditTrailManager",
    "AuditEvent",
    "GENESIS_HASH",
    "EVENT_DECISION",
    "EVENT_PURGE",
    "EVENT_ADMIN",
    "decision_event_payload",
    "decision_from_event",
    "recover_retained_adi",
    "RecoveryReport",
]
