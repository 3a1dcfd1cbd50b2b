"""Versioned wire formats for the MSoD authorization service.

**v1** is JSON lines: one frame is one UTF-8 JSON object terminated by
``\\n``.  Every frame carries the protocol version (``"v"``) and a
caller-chosen correlation id (``"id"``) echoed verbatim in the
response, so clients may pipeline.

**v2** is a length-prefixed compact binary encoding negotiated
per-connection: a connection always *starts* in v1 and may send a
``hello`` frame; once the server answers with ``version: 2`` both sides
switch to binary frames (struct-packed 8-byte header + a msgpack-style
payload, no external dependencies — see :func:`pack_payload`).  The
payload is the *same* frame dict as v1, so every op round-trips
unchanged; v2 additionally understands ``decide-batch``, which carries
N requests (and N per-entry results) per frame.  v1 clients never send
``hello`` and keep working byte-identically; v1 servers answer
``hello`` with a ``protocol`` error, which v2-capable clients treat as
"speak v1".

Request frames (client → server)::

    {"v": 1, "id": "c-1", "op": "decide", "request": {...}}
    {"v": 1, "id": "c-2", "op": "healthz"}
    {"v": 1, "id": "c-3", "op": "metrics"}
    {"v": 1, "id": "c-4", "op": "metrics", "format": "prometheus"}
    {"v": 1, "id": "c-5", "op": "slowlog"}

``metrics`` defaults to the JSON snapshot body; ``"format":
"prometheus"`` asks for the text exposition instead (the body is then
one string).  ``slowlog`` returns the server's retained slowest-decision
traces (empty unless the server was started with tracing enabled).

Response frames (server → client)::

    {"v": 1, "id": "c-1", "ok": true,  "op": "decide", "decision": {...}}
    {"v": 1, "id": "c-2", "ok": true,  "op": "healthz", "body": {...}}
    {"v": 1, "id": "c-1", "ok": false, "error": {"kind": "overloaded",
                                                 "detail": "...",
                                                 "retry_after": 0.05}}

The (de)serializers reuse the process-internal types unchanged — a
:class:`~repro.core.decision.DecisionRequest` survives a round trip
bit-identically (including its client-assigned ``request_id``), which is
what lets the differential serving tests assert remote == in-process.

Every malformed input — truncated JSON, oversized frames, bad UTF-8,
wrong types, unknown versions — raises :class:`ProtocolError` and
nothing else; a worker must never crash on attacker-controlled bytes.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Mapping

from repro.core.context import ContextName
from repro.core.constraints import Role
from repro.core.decision import Decision, DecisionRequest, Effect, MSoDViolation
from repro.core.retained_adi import RetainedADIRecord
from repro.errors import ProtocolError, ReproError
from repro.obs.trace import DecisionTrace

#: Current wire-format version; mismatches are rejected, not guessed at.
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's encoded size.  The asyncio server reads
#: lines with this limit, so an attacker cannot buffer unbounded bytes.
MAX_FRAME_BYTES = 1 << 20

#: Error kinds a server may emit (the ``error.kind`` field).
ERR_PROTOCOL = "protocol"
ERR_OVERLOADED = "overloaded"
ERR_SHUTTING_DOWN = "shutting-down"
ERR_INTERNAL = "internal"
#: Cluster fencing (see :mod:`repro.cluster`): the frame carried an
#: ``epoch`` below the node's current one — the client's routing table
#: is stale and it must re-fetch the route before retrying.
ERR_FENCED = "fenced"
#: The node is a standby (or demoted primary) for this user's shard and
#: refuses to decide; the client must re-route.
ERR_NOT_PRIMARY = "not-primary"
#: A ``policy-reload`` offered a set the analyzer rejected (or XML that
#: does not parse).  Purely a caller error; the active policy is intact.
ERR_POLICY = "policy"

#: Operations understood by the server.  ``policy-status`` reports the
#: active policy version (epoch + content digest); ``policy-reload``
#: atomically swaps in the policy set carried as XML under the
#: ``policy_xml`` key.  Both are additive v1 verbs: old servers answer
#: them with a ``protocol`` error, old clients simply never send them.
OP_DECIDE = "decide"
OP_HEALTHZ = "healthz"
OP_METRICS = "metrics"
OP_SLOWLOG = "slowlog"
OP_POLICY_STATUS = "policy-status"
OP_POLICY_RELOAD = "policy-reload"
#: Version negotiation (additive v1 verb): carries ``max_version``, the
#: highest protocol version the client can speak; the server answers
#: with the version this connection will use from the next frame on.
#: Old servers answer ``hello`` with a ``protocol`` error, which a
#: v2-capable client treats as "this endpoint speaks v1 only".
OP_HELLO = "hello"
#: Policy verification verbs (additive v1 verbs).  ``verify`` runs the
#: structured static analyzer over the candidate set carried as
#: ``policy_xml``; ``whatif`` replays the server's recorded audit trail
#: under the candidate and reports flipped decisions.  ``policy-reload``
#: additionally accepts optional ``verify``/``max_flips``/``force``
#: fields (see :func:`reload_options_of`) gating the swap server-side.
OP_VERIFY = "verify"
OP_WHATIF = "whatif"
KNOWN_OPS = frozenset(
    {
        OP_DECIDE,
        OP_HEALTHZ,
        OP_METRICS,
        OP_SLOWLOG,
        OP_POLICY_STATUS,
        OP_POLICY_RELOAD,
        OP_VERIFY,
        OP_WHATIF,
        OP_HELLO,
    }
)

#: Batched decide (v2 connections only): the frame carries a
#: ``requests`` list and the response a same-length, same-order
#: ``results`` list of per-entry ``{"ok": true, "decision": ...}`` /
#: ``{"ok": false, "error": ...}`` outcomes.  Deliberately *not* in
#: ``KNOWN_OPS``: a v1 endpoint must reject it (cross-talk safety).
OP_DECIDE_BATCH = "decide-batch"
#: Ops a negotiated v2 connection accepts.
V2_OPS = KNOWN_OPS | {OP_DECIDE_BATCH}

#: Operations understood by the cluster coordinator (router) endpoint,
#: in addition to ``healthz``/``metrics``.  ``route`` returns the
#: current routing table (shard → primary address + epoch); clients
#: refresh it on startup and whenever a node answers ``fenced`` or
#: ``not-primary``.  ``cluster-status`` is the human-facing summary.
OP_ROUTE = "route"
OP_CLUSTER_STATUS = "cluster-status"
#: Online resharding verbs (coordinator only).  ``reshard`` carries an
#: ``action`` (``add-node`` / ``drain`` / ``rebalance``) plus an
#: optional ``shard`` and, for rebalance, ``apply`` and ``threshold``
#: (absent means 1.5); the response body is the resulting reshard
#: status (or rebalance plan).
#: ``reshard-status`` reports the in-flight migration, the last
#: completed one and the lifetime counters.
OP_RESHARD = "reshard"
OP_RESHARD_STATUS = "reshard-status"

RESHARD_ACTION_ADD = "add-node"
RESHARD_ACTION_DRAIN = "drain"
RESHARD_ACTION_REBALANCE = "rebalance"
RESHARD_ACTIONS = frozenset(
    {RESHARD_ACTION_ADD, RESHARD_ACTION_DRAIN, RESHARD_ACTION_REBALANCE}
)


def reshard_options_of(
    frame: Mapping[str, Any],
) -> tuple[str, str | None, bool, float]:
    """The validated ``(action, shard, apply, threshold)`` of a reshard
    frame."""
    action = frame.get("action")
    if action not in RESHARD_ACTIONS:
        raise ProtocolError(
            f"reshard action must be one of {sorted(RESHARD_ACTIONS)}, "
            f"got {action!r}"
        )
    shard = frame.get("shard")
    if shard is not None and not isinstance(shard, str):
        raise ProtocolError("reshard.shard must be a string shard name")
    if action == RESHARD_ACTION_DRAIN and not shard:
        raise ProtocolError("reshard drain requires a shard name")
    apply = frame.get("apply", False)
    if not isinstance(apply, bool):
        raise ProtocolError("reshard.apply must be a boolean")
    threshold = frame.get("threshold", 1.5)
    if (
        isinstance(threshold, bool)
        or not isinstance(threshold, (int, float))
        or not threshold > 0
    ):
        raise ProtocolError("reshard.threshold must be a positive number")
    return action, shard, apply, float(threshold)

#: Bodies the ``metrics`` verb can produce.
METRICS_FORMAT_JSON = "json"
METRICS_FORMAT_PROMETHEUS = "prometheus"
METRICS_FORMATS = frozenset({METRICS_FORMAT_JSON, METRICS_FORMAT_PROMETHEUS})


def metrics_format_of(frame: Mapping[str, Any]) -> str:
    """The validated ``format`` field of a metrics frame."""
    fmt = frame.get("format", METRICS_FORMAT_JSON)
    if fmt not in METRICS_FORMATS:
        raise ProtocolError(
            f"metrics format must be one of {sorted(METRICS_FORMATS)}, "
            f"got {fmt!r}"
        )
    return fmt


# ---------------------------------------------------------------------------
# Frame envelope
# ---------------------------------------------------------------------------
def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """Serialise one frame to its newline-terminated UTF-8 bytes."""
    data = json.dumps(dict(payload), separators=(",", ":")).encode("utf-8")
    if len(data) + 1 > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data) + 1} bytes exceeds MAX_FRAME_BYTES"
        )
    return data + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one received line into a frame dict, validating the envelope."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds limit")
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    text = text.strip()
    if not text:
        raise ProtocolError("empty frame")
    try:
        frame = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this endpoint speaks v{PROTOCOL_VERSION})"
        )
    return frame


def request_frame(op: str, frame_id: str, **fields: Any) -> dict:
    """Build a client request frame envelope."""
    return {"v": PROTOCOL_VERSION, "id": frame_id, "op": op, **fields}


def response_frame(frame_id: Any, op: str, body_key: str, body: Any) -> dict:
    """Build a success response frame."""
    return {
        "v": PROTOCOL_VERSION,
        "id": frame_id,
        "ok": True,
        "op": op,
        body_key: body,
    }


def error_frame(
    frame_id: Any,
    kind: str,
    detail: str,
    retry_after: float | None = None,
) -> dict:
    """Build an error response frame."""
    error: dict[str, Any] = {"kind": kind, "detail": detail}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"v": PROTOCOL_VERSION, "id": frame_id, "ok": False, "error": error}


# ---------------------------------------------------------------------------
# Typed field helpers (every wrong shape must become a ProtocolError)
# ---------------------------------------------------------------------------
def _require(mapping: Any, key: str, kind: type, what: str) -> Any:
    if not isinstance(mapping, dict):
        raise ProtocolError(f"{what} must be a JSON object")
    value = mapping.get(key)
    if not isinstance(value, kind):
        raise ProtocolError(
            f"{what}.{key} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _number(mapping: dict, key: str, what: str) -> float:
    value = mapping.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{what}.{key} must be a number")
    return float(value)


def _roles_from_wire(raw: Any, what: str) -> tuple[Role, ...]:
    if not isinstance(raw, list):
        raise ProtocolError(f"{what}.roles must be a list")
    roles = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(part, str) for part in item)
        ):
            raise ProtocolError(
                f"{what}.roles entries must be [type, value] string pairs"
            )
        roles.append(Role(item[0], item[1]))
    return tuple(roles)


def _context_from_wire(raw: Any, what: str) -> ContextName:
    if not isinstance(raw, str):
        raise ProtocolError(f"{what} must be a context-name string")
    try:
        return ContextName.parse(raw)
    except ReproError as exc:
        raise ProtocolError(f"{what} is not a valid context name: {exc}") from exc


# ---------------------------------------------------------------------------
# DecisionRequest
# ---------------------------------------------------------------------------
def request_to_wire(request: DecisionRequest) -> dict:
    """Serialise a :class:`DecisionRequest` for the ``decide`` frame."""
    return {
        "user_id": request.user_id,
        "roles": [[role.role_type, role.value] for role in request.roles],
        "operation": request.operation,
        "target": request.target,
        "context_instance": str(request.context_instance),
        "timestamp": request.timestamp,
        "environment": dict(request.environment),
        "request_id": request.request_id,
    }


def request_from_wire(raw: Any) -> DecisionRequest:
    """Rebuild a :class:`DecisionRequest`; raises ProtocolError on junk."""
    what = "request"
    user_id = _require(raw, "user_id", str, what)
    operation = _require(raw, "operation", str, what)
    target = _require(raw, "target", str, what)
    request_id = _require(raw, "request_id", str, what)
    roles = _roles_from_wire(raw.get("roles"), what)
    context = _context_from_wire(raw.get("context_instance"), f"{what}.context_instance")
    timestamp = _number(raw, "timestamp", what)
    environment = raw.get("environment", {})
    if not isinstance(environment, dict) or not all(
        isinstance(key, str) and isinstance(value, str)
        for key, value in environment.items()
    ):
        raise ProtocolError(f"{what}.environment must map strings to strings")
    try:
        return DecisionRequest(
            user_id=user_id,
            roles=roles,
            operation=operation,
            target=target,
            context_instance=context,
            timestamp=timestamp,
            environment=environment,
            request_id=request_id,
        )
    except ReproError as exc:
        # e.g. empty user id, non-concrete context: a *semantic* protocol
        # violation, still never a worker crash.
        raise ProtocolError(f"invalid decision request: {exc}") from exc


# ---------------------------------------------------------------------------
# Decision (with full MSoD diagnostics, for the remote audit trail)
# ---------------------------------------------------------------------------
def _record_to_wire(record: RetainedADIRecord) -> dict:
    payload = record.to_dict()
    payload["record_id"] = record.record_id
    return payload


def _record_from_wire(raw: Any) -> RetainedADIRecord:
    what = "decision.adi_adds[]"
    _require(raw, "user_id", str, what)
    record_id = raw.get("record_id")
    if record_id is not None and not isinstance(record_id, int):
        raise ProtocolError(f"{what}.record_id must be an integer or null")
    try:
        return RetainedADIRecord.from_dict(raw, record_id=record_id)
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid retained-ADI record: {exc}") from exc


def _violation_to_wire(violation: MSoDViolation) -> dict:
    return {
        "policy_id": violation.policy_id,
        "constraint_kind": violation.constraint_kind,
        "constraint_repr": violation.constraint_repr,
        "effective_context": str(violation.effective_context),
        "detail": violation.detail,
    }


def _violation_from_wire(raw: Any) -> MSoDViolation:
    what = "decision.violation"
    return MSoDViolation(
        policy_id=_require(raw, "policy_id", str, what),
        constraint_kind=_require(raw, "constraint_kind", str, what),
        constraint_repr=_require(raw, "constraint_repr", str, what),
        effective_context=_context_from_wire(
            raw.get("effective_context"), f"{what}.effective_context"
        ),
        detail=_require(raw, "detail", str, what),
    )


def decision_to_wire(decision: Decision) -> dict:
    """Serialise a :class:`Decision` for the ``decide`` response.

    The observability trace, when the serving engine runs with tracing
    enabled, rides along under the ``trace`` key; decisions made with
    tracing off serialise exactly as before (no key at all), keeping
    the differential serving tests byte-identical.
    """
    wire = {
        "effect": decision.effect,
        "request": request_to_wire(decision.request),
        "violation": (
            None
            if decision.violation is None
            else _violation_to_wire(decision.violation)
        ),
        "matched_policy_ids": list(decision.matched_policy_ids),
        "records_added": decision.records_added,
        "records_purged": decision.records_purged,
        "reason": decision.reason,
        "adi_adds": [_record_to_wire(record) for record in decision.adi_adds],
        "adi_purged_contexts": [
            str(context) for context in decision.adi_purged_contexts
        ],
    }
    if decision.policy_epoch:
        # Additive keys (absent on pre-epoch decisions): old clients
        # ignore them, old payloads parse with the 0/"" defaults.
        wire["policy_epoch"] = decision.policy_epoch
        wire["policy_digest"] = decision.policy_digest
    if decision.trace is not None:
        wire["trace"] = decision.trace.to_dict()
    return wire


def decision_from_wire(raw: Any) -> Decision:
    """Rebuild a :class:`Decision`; raises ProtocolError on junk."""
    return _decision_from_wire(raw, None)


def _record_is_request_derived(
    record: RetainedADIRecord, request: DecisionRequest
) -> bool:
    """True when a retained record is exactly the request's own grant."""
    return (
        record.user_id == request.user_id
        and record.roles == tuple(request.roles)
        and record.operation == request.operation
        and record.target == request.target
        and record.context_instance == request.context_instance
        and record.granted_at == request.timestamp
        and record.request_id == request.request_id
    )


def decision_to_wire_delta(
    decision: Decision, request: DecisionRequest
) -> dict:
    """Serialise a decision for a v2 batch entry, delta-encoded.

    A batch entry answers exactly one request the client already holds,
    so the dominant payload bytes — the request echo and the retained
    records a grant derives from that same request — are elided: the
    echo is omitted when it equals the submitted request, and each
    request-derived record collapses to its bare ``record_id`` (an
    integer, or ``None`` for stores that assign no ids).  Anything that
    does not round-trip through the request (a cached dedup decision
    for a different submission, purge-survivor records) stays in the
    full form, so :func:`decision_from_wire_delta` reconstructs the
    identical :class:`Decision` either way.
    """
    wire: dict = {
        "effect": decision.effect,
        "violation": (
            None
            if decision.violation is None
            else _violation_to_wire(decision.violation)
        ),
        "matched_policy_ids": list(decision.matched_policy_ids),
        "records_added": decision.records_added,
        "records_purged": decision.records_purged,
        "reason": decision.reason,
        "adi_adds": [
            record.record_id
            if _record_is_request_derived(record, request)
            else _record_to_wire(record)
            for record in decision.adi_adds
        ],
        "adi_purged_contexts": [
            str(context) for context in decision.adi_purged_contexts
        ],
    }
    if decision.request is not request and decision.request != request:
        wire["request"] = request_to_wire(decision.request)
    if decision.policy_epoch:
        wire["policy_epoch"] = decision.policy_epoch
        wire["policy_digest"] = decision.policy_digest
    if decision.trace is not None:
        wire["trace"] = decision.trace.to_dict()
    return wire


def decision_from_wire_delta(raw: Any, request: DecisionRequest) -> Decision:
    """Rebuild a batch-entry :class:`Decision` against its own request.

    The inverse of :func:`decision_to_wire_delta`: a missing request
    echo resolves to ``request`` itself, and integer/``None`` entries
    in ``adi_adds`` reinflate to the record the request's grant would
    have produced.  Full-form entries (dicts) parse exactly as in v1.
    """
    if not isinstance(raw, Mapping):
        raise ProtocolError("decision must be a map")
    return _decision_from_wire(raw, request)


def _decision_from_wire(raw: Any, delta_request: DecisionRequest | None) -> Decision:
    what = "decision"
    effect = _require(raw, "effect", str, what)
    if effect not in (Effect.GRANT, Effect.DENY):
        raise ProtocolError(f"{what}.effect must be grant or deny")
    matched = raw.get("matched_policy_ids", [])
    if not isinstance(matched, list) or not all(
        isinstance(item, str) for item in matched
    ):
        raise ProtocolError(f"{what}.matched_policy_ids must be a string list")
    violation_raw = raw.get("violation")
    adds_raw = raw.get("adi_adds", [])
    purged_raw = raw.get("adi_purged_contexts", [])
    if not isinstance(adds_raw, list):
        raise ProtocolError(f"{what}.adi_adds must be a list")
    if not isinstance(purged_raw, list):
        raise ProtocolError(f"{what}.adi_purged_contexts must be a list")
    records_added = raw.get("records_added", 0)
    records_purged = raw.get("records_purged", 0)
    if isinstance(records_added, bool) or not isinstance(records_added, int):
        raise ProtocolError(f"{what}.records_added must be an integer")
    if isinstance(records_purged, bool) or not isinstance(records_purged, int):
        raise ProtocolError(f"{what}.records_purged must be an integer")
    policy_epoch = raw.get("policy_epoch", 0)
    if isinstance(policy_epoch, bool) or not isinstance(policy_epoch, int):
        raise ProtocolError(f"{what}.policy_epoch must be an integer")
    policy_digest = raw.get("policy_digest", "")
    if not isinstance(policy_digest, str):
        raise ProtocolError(f"{what}.policy_digest must be a string")
    trace_raw = raw.get("trace")
    if trace_raw is None:
        trace = None
    else:
        try:
            trace = DecisionTrace.from_dict(trace_raw)
        except ValueError as exc:
            raise ProtocolError(f"invalid decision trace: {exc}") from exc
    request_raw = raw.get("request")
    if delta_request is not None and request_raw is None:
        request = delta_request
    else:
        request = request_from_wire(request_raw)
    adi_adds: list[RetainedADIRecord] = []
    for item in adds_raw:
        if isinstance(item, Mapping):
            adi_adds.append(_record_from_wire(item))
        elif delta_request is not None and (
            item is None
            or (isinstance(item, int) and not isinstance(item, bool))
        ):
            # Delta marker: the record is the request's own grant.
            adi_adds.append(
                RetainedADIRecord(
                    user_id=delta_request.user_id,
                    roles=tuple(delta_request.roles),
                    operation=delta_request.operation,
                    target=delta_request.target,
                    context_instance=delta_request.context_instance,
                    granted_at=delta_request.timestamp,
                    request_id=delta_request.request_id,
                    record_id=item,
                )
            )
        else:
            raise ProtocolError(f"{what}.adi_adds[] entries must be records")
    return Decision(
        trace=trace,
        effect=effect,
        request=request,
        violation=(
            None if violation_raw is None else _violation_from_wire(violation_raw)
        ),
        matched_policy_ids=tuple(matched),
        records_added=records_added,
        records_purged=records_purged,
        reason=_require(raw, "reason", str, what),
        adi_adds=tuple(adi_adds),
        adi_purged_contexts=tuple(
            _context_from_wire(item, f"{what}.adi_purged_contexts[]")
            for item in purged_raw
        ),
        policy_epoch=policy_epoch,
        policy_digest=policy_digest,
    )


def policy_xml_of(frame: Mapping[str, Any]) -> str:
    """The validated ``policy_xml`` field of a ``policy-reload`` frame."""
    return _require(frame, "policy_xml", str, "policy-reload")


def reload_options_of(frame: Mapping[str, Any]) -> tuple[bool, int, bool]:
    """The optional verification-gate fields of a ``policy-reload`` frame.

    Returns ``(verify, max_flips, force)``.  All three are optional on
    the wire (old clients never send them) and default to the ungated
    pre-verification behaviour: ``(False, 0, False)``.
    """
    verify = frame.get("verify", False)
    if not isinstance(verify, bool):
        raise ProtocolError("policy-reload.verify must be a boolean")
    force = frame.get("force", False)
    if not isinstance(force, bool):
        raise ProtocolError("policy-reload.force must be a boolean")
    max_flips = frame.get("max_flips", 0)
    if isinstance(max_flips, bool) or not isinstance(max_flips, int):
        raise ProtocolError("policy-reload.max_flips must be an integer")
    if max_flips < 0:
        raise ProtocolError("policy-reload.max_flips must be >= 0")
    return verify, max_flips, force


def reload_principal_of(frame: Mapping[str, Any]) -> str | None:
    """The optional ``principal`` field of a ``policy-reload`` frame.

    Additive: old clients never send it and the swap proceeds unguarded.
    When present, the server checks the principal against admin-boundary
    constraints of the *outgoing* policy set before swapping.
    """
    principal = frame.get("principal")
    if principal is None:
        return None
    if not isinstance(principal, str) or not principal:
        raise ProtocolError(
            "policy-reload.principal must be a non-empty string"
        )
    return principal


# ---------------------------------------------------------------------------
# Protocol v2: msgpack-style payload codec ("binpack")
# ---------------------------------------------------------------------------
#: The binary wire-format version spoken after a successful ``hello``.
PROTOCOL_VERSION_2 = 2
#: Highest version this build can negotiate.
MAX_PROTOCOL_VERSION = PROTOCOL_VERSION_2

#: Hard ceiling on one *batched* binary frame (header + payload).  A
#: batch of ``MAX_WIRE_BATCH`` worst-case decisions fits comfortably;
#: anything declaring more is rejected before a single payload byte is
#: buffered.
MAX_FRAME_BYTES_V2 = 8 << 20
#: Most requests one ``decide-batch`` frame may carry.
MAX_WIRE_BATCH = 1024
#: Nesting depth cap for the payload codec — frames nest a handful of
#: levels; attacker-controlled recursion must not reach the interpreter
#: stack limit.
_BINPACK_MAX_DEPTH = 32

_FLOAT64 = struct.Struct("!d")

#: Memo of short strings → their complete encoding (tag, length and
#: UTF-8 body).  Map keys, effects, reasons, policy ids and the policy
#: digest repeat in every entry of a batch; a hit costs one dict lookup
#: instead of an encode and three appends.  Only strings of at most
#: ``_STR_MEMO_BYTES`` UTF-8 bytes are kept.  Bounded like
#: :data:`_KEY_MEMO`: cleared wholesale once full.  Every thread shares
#: it without a lock: an entry is a pure function of its key, and racing
#: inserts overshoot the bound by at most one entry per thread.
_STR_MEMO: dict[str, bytes] = {}
_STR_MEMO_MAX = 1024
_STR_MEMO_BYTES = 64


def _str_bytes(obj: str) -> bytes:
    """The complete encoding of one string, memoised when short."""
    data = obj.encode("utf-8")
    size = len(data)
    if size <= 31:
        packed = bytes((0xA0 | size,)) + data
    elif size <= 0xFF:
        packed = bytes((0xD9, size)) + data
    elif size <= 0xFFFF:
        packed = b"\xda" + size.to_bytes(2, "big") + data
    elif size <= 0xFFFFFFFF:
        packed = b"\xdb" + size.to_bytes(4, "big") + data
    else:  # pragma: no cover - larger than any frame limit
        raise ProtocolError("binpack string too long")
    if size <= _STR_MEMO_BYTES:
        memo = _STR_MEMO
        if len(memo) >= _STR_MEMO_MAX:
            memo.clear()
        memo[obj] = packed
    return packed


def _pack_length(
    size: int, out: bytearray, fix: int, tag16: int, what: str
) -> None:
    """A map or array header: fix form up to 15 entries, else 16/32-bit."""
    if size <= 15:
        out.append(fix | size)
    elif size <= 0xFFFF:
        out.append(tag16)
        out += size.to_bytes(2, "big")
    elif size <= 0xFFFFFFFF:
        out.append(tag16 + 1)
        out += size.to_bytes(4, "big")
    else:  # pragma: no cover
        raise ProtocolError(f"binpack {what} too long")


def _pack_map(obj: dict, out: bytearray, depth: int) -> None:
    _pack_length(len(obj), out, 0x80, 0xDE, "map")
    depth += 1
    if depth > _BINPACK_MAX_DEPTH and obj:
        raise ProtocolError("binpack payload nests too deeply")
    memo = _STR_MEMO
    for key, value in obj.items():
        if type(key) is not str:
            raise ProtocolError("binpack map keys must be strings")
        out += memo.get(key) or _str_bytes(key)
        if type(value) is str:
            out += memo.get(value) or _str_bytes(value)
        else:
            _pack_into(value, out, depth)


def _pack_array(obj: list | tuple, out: bytearray, depth: int) -> None:
    _pack_length(len(obj), out, 0x90, 0xDC, "array")
    depth += 1
    if depth > _BINPACK_MAX_DEPTH and obj:
        raise ProtocolError("binpack payload nests too deeply")
    memo = _STR_MEMO
    for item in obj:
        if type(item) is str:
            out += memo.get(item) or _str_bytes(item)
        else:
            _pack_into(item, out, depth)


def _pack_into(obj: Any, out: bytearray, depth: int) -> None:
    # Dispatch on the exact type, most frequent first; containers check
    # the depth cap for their children, so a leaf costs no depth test.
    # Only an exact list or tuple is an array: a tuple-backed value such
    # as a Role or a Decision is refused below, not flattened.
    kind = type(obj)
    if kind is str:
        out += _STR_MEMO.get(obj) or _str_bytes(obj)
    elif kind is dict:
        _pack_map(obj, out, depth)
    elif kind is list or kind is tuple:
        _pack_array(obj, out, depth)
    elif obj is None:
        out.append(0xC0)
    elif kind is int:
        if 0 <= obj <= 0x7F:
            out.append(obj)
        elif -32 <= obj < 0:
            out.append(0x100 + obj)
        elif obj >= 0:
            if obj <= 0xFF:
                out.append(0xCC)
                out.append(obj)
            elif obj <= 0xFFFF:
                out.append(0xCD)
                out += obj.to_bytes(2, "big")
            elif obj <= 0xFFFFFFFF:
                out.append(0xCE)
                out += obj.to_bytes(4, "big")
            elif obj <= 0xFFFFFFFFFFFFFFFF:
                out.append(0xCF)
                out += obj.to_bytes(8, "big")
            else:
                raise ProtocolError("binpack integer exceeds 64 bits")
        else:
            if obj >= -0x80:
                out.append(0xD0)
                out += obj.to_bytes(1, "big", signed=True)
            elif obj >= -0x8000:
                out.append(0xD1)
                out += obj.to_bytes(2, "big", signed=True)
            elif obj >= -0x80000000:
                out.append(0xD2)
                out += obj.to_bytes(4, "big", signed=True)
            elif obj >= -0x8000000000000000:
                out.append(0xD3)
                out += obj.to_bytes(8, "big", signed=True)
            else:
                raise ProtocolError("binpack integer exceeds 64 bits")
    elif kind is bool:
        out.append(0xC3 if obj else 0xC2)
    elif kind is float:
        out.append(0xCB)
        out += _FLOAT64.pack(obj)
    elif kind is bytes:
        size = len(obj)
        if size <= 0xFF:
            out.append(0xC4)
            out.append(size)
        elif size <= 0xFFFF:
            out.append(0xC5)
            out += size.to_bytes(2, "big")
        elif size <= 0xFFFFFFFF:
            out.append(0xC6)
            out += size.to_bytes(4, "big")
        else:  # pragma: no cover - larger than any frame limit
            raise ProtocolError("binpack bytes too long")
        out += obj
    elif isinstance(obj, dict):
        _pack_map(obj, out, depth)
    elif isinstance(obj, (int, str, float)):
        # bool subclasses were handled above; tolerate int/str/float
        # subclasses (enums such as Effect) by packing the base value.
        base = int(obj) if isinstance(obj, int) else (
            str(obj) if isinstance(obj, str) else float(obj)
        )
        _pack_into(base, out, depth)
    else:
        raise ProtocolError(
            f"binpack cannot encode {type(obj).__name__} values"
        )


def pack_payload(obj: Any) -> bytes:
    """Encode a JSON-shaped value with the v2 binary payload codec.

    The codec is a self-contained msgpack-compatible subset (nil, bool,
    64-bit ints, float64, str, bytes, array, map) — no external
    dependency, deterministic output, and every decode failure mode is
    a :class:`ProtocolError`.
    """
    out = bytearray()
    _pack_into(obj, out, 0)
    return bytes(out)


def _need(data: bytes, offset: int, count: int, what: str) -> None:
    if offset + count > len(data):
        raise ProtocolError(f"binpack payload truncated in {what}")


#: Memo of short map-key byte slices → interned strings.  Wire payloads
#: repeat the same handful of keys ("effect", "reason", ...) thousands
#: of times per batch; decoding each occurrence costs a slice, a UTF-8
#: decode and a fresh string object, where a hit here costs one dict
#: lookup.  Bounded; cleared wholesale if adversarial traffic fills it.
_KEY_MEMO: dict[bytes, str] = {}
_KEY_MEMO_MAX = 1024


def _unpack_from(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    if depth > _BINPACK_MAX_DEPTH:
        raise ProtocolError("binpack payload nests too deeply")
    _need(data, offset, 1, "tag")
    tag = data[offset]
    offset += 1
    if tag <= 0x7F:  # positive fixint
        return tag, offset
    if tag >= 0xE0:  # negative fixint
        return tag - 0x100, offset
    if 0x80 <= tag <= 0x8F:
        return _unpack_map(data, offset, tag & 0x0F, depth)
    if 0x90 <= tag <= 0x9F:
        return _unpack_array(data, offset, tag & 0x0F, depth)
    if 0xA0 <= tag <= 0xBF:
        return _unpack_str(data, offset, tag & 0x1F)
    if tag == 0xC0:
        return None, offset
    if tag == 0xC2:
        return False, offset
    if tag == 0xC3:
        return True, offset
    if tag in (0xC4, 0xC5, 0xC6):
        width = 1 << (tag - 0xC4)
        _need(data, offset, width, "bytes length")
        size = int.from_bytes(data[offset:offset + width], "big")
        offset += width
        _need(data, offset, size, "bytes body")
        return bytes(data[offset:offset + size]), offset + size
    if tag == 0xCB:
        _need(data, offset, 8, "float64")
        return _FLOAT64.unpack_from(data, offset)[0], offset + 8
    if 0xCC <= tag <= 0xCF:
        width = 1 << (tag - 0xCC)
        _need(data, offset, width, "uint")
        value = int.from_bytes(data[offset:offset + width], "big")
        return value, offset + width
    if 0xD0 <= tag <= 0xD3:
        width = 1 << (tag - 0xD0)
        _need(data, offset, width, "int")
        value = int.from_bytes(
            data[offset:offset + width], "big", signed=True
        )
        return value, offset + width
    if tag in (0xD9, 0xDA, 0xDB):
        width = 1 << (tag - 0xD9)
        _need(data, offset, width, "str length")
        size = int.from_bytes(data[offset:offset + width], "big")
        offset += width
        return _unpack_str(data, offset, size)
    if tag in (0xDC, 0xDD):
        width = 2 << (tag - 0xDC)
        _need(data, offset, width, "array length")
        size = int.from_bytes(data[offset:offset + width], "big")
        offset += width
        return _unpack_array(data, offset, size, depth)
    if tag in (0xDE, 0xDF):
        width = 2 << (tag - 0xDE)
        _need(data, offset, width, "map length")
        size = int.from_bytes(data[offset:offset + width], "big")
        offset += width
        return _unpack_map(data, offset, size, depth)
    raise ProtocolError(f"binpack tag 0x{tag:02x} is not supported")


def _unpack_str(data: bytes, offset: int, size: int) -> tuple[str, int]:
    _need(data, offset, size, "str body")
    try:
        return data[offset:offset + size].decode("utf-8"), offset + size
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"binpack string is not valid UTF-8: {exc}") from exc


def _unpack_array(
    data: bytes, offset: int, size: int, depth: int
) -> tuple[list, int]:
    if size > len(data) - offset:
        # Each element costs at least one byte; a declared count larger
        # than the remaining payload is a lie, not a big array.
        raise ProtocolError("binpack array length exceeds payload")
    unpack = _unpack_from
    items = []
    append = items.append
    for _ in range(size):
        item, offset = unpack(data, offset, depth + 1)
        append(item)
    return items, offset


def _unpack_map(
    data: bytes, offset: int, size: int, depth: int
) -> tuple[dict, int]:
    if size > (len(data) - offset) // 2:
        raise ProtocolError("binpack map length exceeds payload")
    length = len(data)
    memo = _KEY_MEMO
    unpack = _unpack_from
    mapping: dict[str, Any] = {}
    for _ in range(size):
        # Fast path for the overwhelmingly common case — a short fixstr
        # key — with a memo so repeated keys skip the UTF-8 decode.
        if offset < length and 0xA0 <= data[offset] <= 0xBF:
            end = offset + 1 + (data[offset] & 0x1F)
            if end > length:
                raise ProtocolError("binpack payload truncated in str body")
            raw = data[offset + 1:end]
            key = memo.get(raw)
            if key is None:
                key, _ = _unpack_str(data, offset + 1, len(raw))
                if len(memo) >= _KEY_MEMO_MAX:
                    memo.clear()
                memo[raw] = key
            offset = end
        else:
            key, offset = unpack(data, offset, depth + 1)
            if type(key) is not str:
                raise ProtocolError("binpack map keys must be strings")
        value, offset = unpack(data, offset, depth + 1)
        mapping[key] = value
    return mapping, offset


def unpack_payload(data: bytes) -> Any:
    """Decode a binpack payload; any malformation is a ProtocolError."""
    value, offset = _unpack_from(data, 0, 0)
    if offset != len(data):
        raise ProtocolError(
            f"binpack payload has {len(data) - offset} trailing bytes"
        )
    return value


# ---------------------------------------------------------------------------
# Protocol v2: length-prefixed binary framing
# ---------------------------------------------------------------------------
#: First byte of every v2 frame.  0xB2 is an invalid UTF-8 *start* byte
#: and can never begin a v1 JSON line, so cross-talk in either
#: direction is detected on the very first byte.
V2_MAGIC = 0xB2
#: Header layout: magic, version, reserved (must be 0), payload length.
V2_HEADER = struct.Struct("!BBHI")
V2_HEADER_BYTES = V2_HEADER.size


def encode_frame_v2(frame: Mapping[str, Any]) -> bytes:
    """Serialise one frame dict as a v2 binary frame (header + payload)."""
    payload_obj = dict(frame)
    payload_obj["v"] = PROTOCOL_VERSION_2
    payload = pack_payload(payload_obj)
    if V2_HEADER_BYTES + len(payload) > MAX_FRAME_BYTES_V2:
        raise ProtocolError(
            f"v2 frame of {V2_HEADER_BYTES + len(payload)} bytes exceeds "
            f"MAX_FRAME_BYTES_V2"
        )
    return (
        V2_HEADER.pack(V2_MAGIC, PROTOCOL_VERSION_2, 0, len(payload)) + payload
    )


def v2_payload_length(header: bytes) -> int:
    """Validate a v2 frame header, returning the declared payload length.

    Rejects truncated headers, wrong magic (including a v1 JSON line
    arriving on a negotiated-v2 connection — cross-talk), unknown
    versions, non-zero reserved bits, empty payloads, and lengths that
    would exceed :data:`MAX_FRAME_BYTES_V2` — all before any payload
    byte is read, so an attacker cannot make the server buffer garbage.
    """
    if len(header) != V2_HEADER_BYTES:
        raise ProtocolError(
            f"truncated v2 frame header ({len(header)} of "
            f"{V2_HEADER_BYTES} bytes)"
        )
    magic, version, reserved, length = V2_HEADER.unpack(header)
    if magic != V2_MAGIC:
        raise ProtocolError(
            f"bad v2 magic byte 0x{magic:02x} "
            "(v1 JSON on a negotiated-v2 connection?)"
        )
    if version != PROTOCOL_VERSION_2:
        raise ProtocolError(f"unsupported v2 header version {version}")
    if reserved != 0:
        raise ProtocolError("v2 header reserved bits must be zero")
    if length == 0:
        raise ProtocolError("v2 frame declares an empty payload")
    if V2_HEADER_BYTES + length > MAX_FRAME_BYTES_V2:
        raise ProtocolError(
            f"v2 frame declares {length} payload bytes, over the "
            f"{MAX_FRAME_BYTES_V2} byte limit"
        )
    return length


def decode_frame_v2(payload: bytes) -> dict:
    """Decode a v2 payload into a frame dict, validating the envelope."""
    frame = unpack_payload(payload)
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"v2 frame must decode to a map, got {type(frame).__name__}"
        )
    version = frame.get("v")
    if version != PROTOCOL_VERSION_2:
        raise ProtocolError(
            f"unsupported protocol version {version!r} in v2 frame"
        )
    return frame


# ---------------------------------------------------------------------------
# Hello negotiation and decide-batch bodies
# ---------------------------------------------------------------------------
def hello_frame(frame_id: str, max_version: int = MAX_PROTOCOL_VERSION) -> dict:
    """The client's opening negotiation frame (always sent as v1 JSON)."""
    return request_frame(OP_HELLO, frame_id, max_version=max_version)


def negotiated_version(frame: Mapping[str, Any]) -> int:
    """Server side: the version this connection will speak after hello."""
    raw = frame.get("max_version")
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise ProtocolError("hello.max_version must be a positive integer")
    return min(raw, MAX_PROTOCOL_VERSION)


def hello_body_version(body: Any) -> int:
    """Client side: the validated ``version`` out of a hello response."""
    if not isinstance(body, dict):
        raise ProtocolError("hello response body must be an object")
    version = body.get("version")
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise ProtocolError("hello response version must be a positive integer")
    return version


def batch_requests_of(frame: Mapping[str, Any]) -> list[DecisionRequest]:
    """Parse and validate *every* request of a ``decide-batch`` frame.

    All-or-nothing by design: one malformed entry rejects the whole
    frame before anything is submitted, so a partially-garbled batch
    can never be partially committed.
    """
    raw = frame.get("requests")
    if not isinstance(raw, list):
        raise ProtocolError("decide-batch.requests must be a list")
    if not raw:
        raise ProtocolError("decide-batch carries no requests")
    if len(raw) > MAX_WIRE_BATCH:
        raise ProtocolError(
            f"decide-batch of {len(raw)} requests exceeds the "
            f"{MAX_WIRE_BATCH} entry limit"
        )
    return [request_from_wire(item) for item in raw]


def batch_result_entries(frame: Mapping[str, Any], expected: int) -> list[dict]:
    """Client side: the validated per-entry results of a batch response."""
    raw = frame.get("results")
    if not isinstance(raw, list):
        raise ProtocolError("decide-batch response must carry a results list")
    if len(raw) != expected:
        raise ProtocolError(
            f"decide-batch response carries {len(raw)} results "
            f"for {expected} requests"
        )
    for entry in raw:
        if not isinstance(entry, dict):
            raise ProtocolError("decide-batch results entries must be objects")
    return raw
