"""Per-decision structured traces for the MSoD decision pipeline.

A :class:`DecisionTrace` is the observability twin of a
:class:`~repro.core.decision.Decision`: it records *how* the decision
was reached — the timed pipeline stages it passed through (``pdp.rbac``,
``engine.match``, ``engine.constraints``, ``store.commit``, ...), which
MSoD policies matched, and, on a deny, exactly which policy and
constraint fired.  A denied request can therefore be traced back through
RBAC check → policy match → constraint evaluation → ADI commit without a
debugger.

Traces are built by the pipeline's one
:class:`~repro.obs.recorder.Recorder` once its ``trace_decisions()`` has
been called: the ``span`` calls that feed its stage histograms also
append to the open trace, so span names and histogram stage names are
the same vocabulary.  The outermost pipeline layer's ``finish`` seals
the trace, attaches it to the decision (via ``Decision._replace``)
and offers it to the slow-decision log.

This module is deliberately standalone — it imports nothing from
:mod:`repro.core` — so the wire protocol and the CLI can (de)serialise
traces without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "TraceSpan",
    "TraceViolation",
    "DecisionTrace",
]


@dataclass(frozen=True, slots=True)
class TraceSpan:
    """One timed pipeline stage inside a decision trace.

    ``offset_s`` is the span's start relative to the start of the whole
    trace, so spans render as a waterfall without absolute clocks.
    """

    name: str
    offset_s: float
    duration_s: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "offset_s": self.offset_s,
            "duration_s": self.duration_s,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TraceSpan":
        name = raw.get("name") if isinstance(raw, Mapping) else None
        if not isinstance(name, str):
            raise ValueError("trace span name must be a string")
        return cls(
            name=name,
            offset_s=_number(raw, "offset_s"),
            duration_s=_number(raw, "duration_s"),
        )


@dataclass(frozen=True, slots=True)
class TraceViolation:
    """The deny annotation: which policy and constraint fired."""

    policy_id: str
    constraint_kind: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "policy_id": self.policy_id,
            "constraint_kind": self.constraint_kind,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "TraceViolation":
        for key in ("policy_id", "constraint_kind", "detail"):
            if not isinstance(raw, Mapping) or not isinstance(raw.get(key), str):
                raise ValueError(f"trace violation {key} must be a string")
        return cls(
            policy_id=raw["policy_id"],
            constraint_kind=raw["constraint_kind"],
            detail=raw["detail"],
        )


@dataclass(frozen=True, slots=True)
class DecisionTrace:
    """The sealed, immutable trace of one decision.

    ``requested_at`` is the request's own (application) timestamp;
    span offsets/durations come from the recorder's monotonic clock.
    """

    request_id: str
    user_id: str
    effect: str
    total_s: float
    requested_at: float
    spans: tuple[TraceSpan, ...] = ()
    matched_policy_ids: tuple[str, ...] = ()
    violation: TraceViolation | None = None
    records_added: int = 0
    records_purged: int = 0
    #: Policy epoch the decision was evaluated under (0 = pre-epoch
    #: trace payloads; live engines stamp epochs starting at 1).
    policy_epoch: int = 0

    def span(self, name: str) -> TraceSpan | None:
        """The first span with this name, or None."""
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def stage_durations(self) -> dict[str, float]:
        """Total duration per stage name (a span name may repeat)."""
        durations: dict[str, float] = {}
        for span in self.spans:
            durations[span.name] = durations.get(span.name, 0.0) + span.duration_s
        return durations

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "user_id": self.user_id,
            "effect": self.effect,
            "total_s": self.total_s,
            "requested_at": self.requested_at,
            "spans": [span.to_dict() for span in self.spans],
            "matched_policy_ids": list(self.matched_policy_ids),
            "violation": (
                None if self.violation is None else self.violation.to_dict()
            ),
            "records_added": self.records_added,
            "records_purged": self.records_purged,
            "policy_epoch": self.policy_epoch,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "DecisionTrace":
        """Rebuild a trace; raises ValueError on malformed input."""
        if not isinstance(raw, Mapping):
            raise ValueError("trace must be a mapping")
        for key in ("request_id", "user_id", "effect"):
            if not isinstance(raw.get(key), str):
                raise ValueError(f"trace {key} must be a string")
        spans_raw = raw.get("spans", [])
        matched_raw = raw.get("matched_policy_ids", [])
        if not isinstance(spans_raw, list):
            raise ValueError("trace spans must be a list")
        if not isinstance(matched_raw, list) or not all(
            isinstance(item, str) for item in matched_raw
        ):
            raise ValueError("trace matched_policy_ids must be a string list")
        violation_raw = raw.get("violation")
        records_added = raw.get("records_added", 0)
        records_purged = raw.get("records_purged", 0)
        policy_epoch = raw.get("policy_epoch", 0)
        for key, value in (
            ("records_added", records_added),
            ("records_purged", records_purged),
            ("policy_epoch", policy_epoch),
        ):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"trace {key} must be an integer")
        return cls(
            request_id=raw["request_id"],
            user_id=raw["user_id"],
            effect=raw["effect"],
            total_s=_number(raw, "total_s"),
            requested_at=_number(raw, "requested_at"),
            spans=tuple(TraceSpan.from_dict(item) for item in spans_raw),
            matched_policy_ids=tuple(matched_raw),
            violation=(
                None
                if violation_raw is None
                else TraceViolation.from_dict(violation_raw)
            ),
            records_added=records_added,
            records_purged=records_purged,
            policy_epoch=policy_epoch,
        )

    def render(self) -> str:
        """A human-readable waterfall (the ``decide --trace`` output)."""
        lines = [
            f"trace {self.request_id} {self.effect.upper()} "
            f"user={self.user_id} total={self.total_s * 1e6:.1f}us"
        ]
        if self.matched_policy_ids:
            lines.append(
                "  matched policies: " + ", ".join(self.matched_policy_ids)
            )
        if self.policy_epoch:
            lines.append(f"  policy epoch: {self.policy_epoch}")
        for span in self.spans:
            lines.append(
                f"  {span.name:<20} +{span.offset_s * 1e6:8.1f}us "
                f"{span.duration_s * 1e6:8.1f}us"
            )
        if self.violation is not None:
            lines.append(
                f"  violation: {self.violation.policy_id} "
                f"({self.violation.constraint_kind}) {self.violation.detail}"
            )
        if self.records_added or self.records_purged:
            lines.append(
                f"  adi: +{self.records_added} record(s), "
                f"-{self.records_purged} purged"
            )
        return "\n".join(lines)


def _number(raw: Mapping[str, Any], key: str) -> float:
    value = raw.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"trace {key} must be a number")
    return float(value)
