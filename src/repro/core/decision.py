"""Decision request/response types exchanged between PEP and PDP.

Section 4.1 lists the parameters the AEF/PEP must pass to the ADF/PDP for
an MSoD-capable RBAC decision:

1. the user's attributes/roles — with the user's ID now *mandatory*, so
   that the PDP can link the user's sessions together;
2. the requested operation and its parameters;
3. the requested target object;
4. environmental/contextual information (e.g. time of day);
5. the business-context instance (kept as a separate parameter because
   the hierarchical matching rules of Section 4.2 apply to it).
"""

from __future__ import annotations

import itertools
from math import inf
from typing import TYPE_CHECKING, Mapping, NamedTuple

from repro.core.constraints import Privilege, Role, TypedTuple
from repro.core.context import ContextName
from repro.errors import PolicyError

if TYPE_CHECKING:  # avoid a hard dependency of core on the obs layer
    from repro.core.retained_adi import RetainedADIRecord
    from repro.obs.trace import DecisionTrace

_REQUEST_COUNTER = itertools.count(1)


def next_request_id() -> str:
    """A process-unique identifier for a decision request."""
    return f"req-{next(_REQUEST_COUNTER):08d}"


class _RequestFields(NamedTuple):
    user_id: str
    roles: tuple[Role, ...]
    operation: str
    target: str
    context_instance: ContextName
    timestamp: float
    environment: Mapping[str, str]
    request_id: str


class DecisionRequest(TypedTuple, _RequestFields):
    """One access-control decision request (the five Section 4.1 inputs)."""

    __slots__ = ()

    def __new__(cls, user_id: str, roles: tuple[Role, ...], operation: str,
                target: str, context_instance: ContextName, timestamp: float = 0.0,
                environment: Mapping[str, str] | None = None,
                request_id: str | None = None) -> "DecisionRequest":
        if not user_id:
            raise PolicyError(
                "MSoD decisions require the user's ID (paper Section 4.1)"
            )
        if not context_instance.is_concrete:
            raise PolicyError(
                "the business-context instance passed by the PEP must be "
                f"concrete, got {context_instance}"
            )
        try:  # it becomes granted_at, which every store must hold alike
            finite = -inf < timestamp < inf
        except TypeError:
            finite = False
        if not finite:
            raise PolicyError(f"the timestamp must be a finite number, got {timestamp!r}")
        return tuple.__new__(cls, (
            user_id, roles, operation, target, context_instance, timestamp,
            {} if environment is None else environment,  # a fresh one each
            next_request_id() if request_id is None else request_id))

    @property
    def privilege(self) -> Privilege:
        return Privilege(self.operation, self.target)


class Effect:
    """Decision outcomes."""

    GRANT = "grant"
    DENY = "deny"


class _ViolationFields(NamedTuple):
    policy_id: str
    #: A registry key from :data:`repro.core.constraints.CONSTRAINT_KINDS`
    #: ("MMER", "MMEP", "MMCD", "ADMIN_BOUNDARY", ...).  Free-form on the
    #: wire so new kinds are additive for v1/v2 peers.
    constraint_kind: str
    constraint_repr: str
    effective_context: ContextName
    detail: str


class MSoDViolation(TypedTuple, _ViolationFields):
    """Details of the constraint that triggered a deny."""

    __slots__ = ()


class _DecisionFields(NamedTuple):
    effect: str
    request: DecisionRequest
    violation: MSoDViolation | None = None
    matched_policy_ids: tuple[str, ...] = ()
    records_added: int = 0
    records_purged: int = 0
    reason: str = ""
    adi_adds: tuple[RetainedADIRecord, ...] = ()
    adi_purged_contexts: tuple[ContextName, ...] = ()
    policy_epoch: int = 0
    policy_digest: str = ""
    trace: DecisionTrace | None = None


class Decision(TypedTuple, _DecisionFields):
    """The PDP's answer, with MSoD diagnostics for auditing.

    ``adi_adds`` and ``adi_purged_contexts`` expose the retained-ADI
    mutation the grant committed, so the PERMIS PDP can log it to the
    secure audit trail and recovery can replay it (Section 5.2).  The
    added records carry ``record_id=None``: the id is the store's.

    ``policy_epoch`` and ``policy_digest`` identify the policy version
    (see :mod:`repro.core.policy_epoch`) the decision was evaluated
    under.  A decision is evaluated wholly under one version — the
    engine reads its active version once per request — so recovery and
    standby replay can re-apply it under the policy that produced it.
    The defaults (``0`` / ``""``) only appear on decisions deserialised
    from pre-epoch payloads.

    ``trace`` is the optional observability annotation: a
    :class:`~repro.obs.trace.DecisionTrace` attached by a tracing
    :class:`~repro.obs.recorder.Recorder`.  It is metadata about
    *how* the decision was computed, not part of the decision itself,
    so it is excluded from equality — decisions are bit-identical with
    tracing on or off.  A decision is an immutable
    :class:`~repro.core.constraints.TypedTuple`; ``_replace`` copies it.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:  # every field but ``trace``
        return type(other) is Decision and self[:-1] == other[:-1]

    @property
    def granted(self) -> bool:
        return self.effect == Effect.GRANT

    @property
    def denied(self) -> bool:
        return self.effect == Effect.DENY

    def __str__(self) -> str:
        verdict = self.effect.upper()
        core = (
            f"{verdict} {self.request.user_id} {self.request.operation}"
            f"@{self.request.target} [{self.request.context_instance}]"
        )
        if self.violation is not None:
            core += f" ({self.violation.constraint_kind}: {self.violation.detail})"
        return core
