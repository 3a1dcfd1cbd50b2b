"""Versioned wire formats for the MSoD authorization service.

**v1** is JSON lines: one frame is one UTF-8 JSON object terminated by
``\\n``.  Every frame carries the protocol version (``"v"``) and a
caller-chosen correlation id (``"id"``) echoed verbatim in the
response, so clients may pipeline.

**v2** is length-prefixed framing: a struct-packed 8-byte binary
header, then a compact UTF-8 JSON payload read by the stdlib C decoder
(see :func:`pack_payload`).  The payload is the *same* frame dict as
v1, so every op round-trips unchanged; v2 additionally understands
``decide-batch``, which carries N requests (and N per-entry results)
per frame.  A connection speaks one version for life, fixed by its
first byte: :data:`V2_MAGIC` opens a v2 connection, anything else (a
JSON line) a v1 one.  A client speaks one version on all of its
connections, from their first byte.

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
nesting past :data:`MAX_PAYLOAD_DEPTH` (or past the interpreter's
recursion limit), wrong types, unknown versions — raises
:class:`ProtocolError` and nothing else, on v1 and v2 alike; a worker
must never crash on attacker-controlled bytes.  :func:`_check_value`
walks every frame sent or read (string keys, 64-bit integers, depth, no
tuple-backed values) but a ``decide-batch`` body.  There the typed
readers bound each integer they read and walk, at its depth, all they
do not read.  An untraced results entry :func:`decision_entry` builds
is not walked: a test walks every shape the engine gives it.
"""

from __future__ import annotations

import json
import re
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
    }
)

#: Batched decide (v2 connections only): the frame carries a
#: ``requests`` list and the response a same-length, same-order
#: ``results`` list of per-entry ``{"ok": true, "decision": ...}`` /
#: ``{"ok": false, "error": ...}`` outcomes.  Deliberately *not* in
#: ``KNOWN_OPS``: a v1 endpoint must reject it (cross-talk safety).
OP_DECIDE_BATCH = "decide-batch"
#: Ops a v2 connection accepts.
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
# Payload codec: compact JSON, strict UTF-8 (v2 payloads; v1 decode too)
# ---------------------------------------------------------------------------
#: Nesting depth cap for every frame, encoded or decoded — frames nest
#: a handful of levels; attacker-controlled recursion must not reach
#: the interpreter stack limit further down the decode path.
MAX_PAYLOAD_DEPTH = 32
#: Integers a payload may carry: int64 minimum to uint64 maximum.
_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 64) - 1


class _DecisionEntry(dict):
    __slots__ = ()


#: Types that need no check beyond their exact type, an untraced
#: results entry :func:`decision_entry` built among them.
_SCALARS = frozenset({str, float, bool, type(None), _DecisionEntry})

_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
#: A JSON escape in the UTF-16 surrogate range, ``\uD800``-``\uDFFF``.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
#: The bodies a ``decide-batch`` frame may carry, and what a client
#: reads of an ``ok`` results entry.
_BATCH_BODIES = frozenset({"requests", "results"})
_ENTRY_KEYS = frozenset({"ok", "decision"})


def _check_value(obj: Any, depth: int) -> None:
    """Refuse what the wire must not carry; ``depth`` containers enclose
    ``obj``.  The module docstring says which values it walks.

    Dispatch is on the exact type.  The JSON encoder would flatten a
    tuple-backed value (a ``Role``, a ``Decision``) into an array,
    coerce a non-string key, or emit an integer no peer reads back; the
    decoder would hand any nesting to the handlers.  Only an exact
    ``list``/``tuple`` is an array; ``int``, ``str`` and ``float``
    subclasses (enum-like constants) encode as their base value.
    """
    kind = type(obj)
    if kind is dict:
        for key in obj:
            if type(key) is not str:
                raise ProtocolError("payload map keys must be strings")
        items = obj.values()
    elif kind is list or kind is tuple:
        items = obj
    elif kind is int:
        if not _INT_MIN <= obj <= _INT_MAX:
            raise ProtocolError("payload integer exceeds 64 bits")
        return
    elif kind in _SCALARS or isinstance(obj, (str, float)):
        return
    elif isinstance(obj, dict):
        return _check_value(dict(obj), depth)
    elif isinstance(obj, int):
        return _check_value(int(obj), depth)
    else:
        raise ProtocolError(f"payload cannot encode {kind.__name__} values")
    if items:
        depth += 1
        if depth > MAX_PAYLOAD_DEPTH:
            raise ProtocolError("payload nests too deeply")
        for item in items:
            kind = type(item)
            if kind not in _SCALARS and (
                kind is not int or not _INT_MIN <= item <= _INT_MAX
            ):
                _check_value(item, depth)


def pack_payload(obj: Any) -> bytes:
    """Encode a JSON-shaped value as a v2 payload: compact UTF-8 JSON.

    Deterministic output; anything :func:`_check_value` refuses is a
    :class:`ProtocolError`, raised before a byte is produced.
    """
    _check_value(obj, 0)
    return _ENCODER.encode(obj).encode("utf-8")


def unpack_payload(data: bytes) -> Any:
    """Decode a payload; any malformation is a :class:`ProtocolError`.

    The bytes must be strict UTF-8 (``json.loads`` on raw bytes would
    guess UTF-16/32), and so must the text its escapes spell.  Nesting
    deep enough to exhaust the C decoder's recursion guard is refused
    like any other malformed input.  A v2 ``decide-batch`` frame's body
    is left to its typed reader.
    """
    try:
        text = data.decode("utf-8")
        value = json.loads(text)
        if "\\" in text and _SURROGATE_ESCAPE.search(text):
            # The escape may spell a lone surrogate, which shard hashing
            # and SQLite would fail to encode much later.
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeError as exc:
        raise ProtocolError(f"payload is not valid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"payload is not valid JSON: {exc}") from exc
    if type(value) is dict and value.get("op") == OP_DECIDE_BATCH and (
        value.get("v") == PROTOCOL_VERSION_2 and value.get("ok", True) is True
    ):
        _check_value({key: value[key] for key in value.keys() - _BATCH_BODIES}, 0)
    else:
        _check_value(value, 0)
    return value


def _decode_envelope(data: bytes, version: int) -> dict:
    """One received payload as a frame dict of protocol ``version``."""
    frame = unpack_payload(data)
    if type(frame) is not dict:
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    if frame.get("v") != version:
        raise ProtocolError(
            f"unsupported protocol version {frame.get('v')!r} "
            f"(expected v{version})"
        )
    return frame


# ---------------------------------------------------------------------------
# Frame envelope
# ---------------------------------------------------------------------------
def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """One frame as newline-terminated UTF-8 JSON, checked as v2 is."""
    data = pack_payload(dict(payload))
    if len(data) + 1 > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data) + 1} bytes exceeds MAX_FRAME_BYTES"
        )
    return data + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one received line into a frame dict, validating the envelope."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds limit")
    return _decode_envelope(line, PROTOCOL_VERSION)


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
def _check_unread(raw: dict, read: frozenset, depth: int) -> None:
    """Walk the values of ``raw`` no typed reader reads, at their depth."""
    if not read.issuperset(raw):
        for key in raw.keys() - read:
            _check_value(raw[key], depth + 1)


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
    if type(value) is float or type(value) is int and _INT_MIN <= value <= _INT_MAX:
        return float(value)
    raise ProtocolError(f"{what}.{key} must be a number within 64 bits")


def _integer(mapping: dict, key: str, what: str) -> int:
    """An optional integer field, 0 when absent."""
    value = mapping.get(key, 0)
    if type(value) is int and _INT_MIN <= value <= _INT_MAX:
        return value
    raise ProtocolError(f"{what}.{key} must be an integer within 64 bits")


def _roles_from_wire(raw: Any, what: str) -> tuple[Role, ...]:
    if not isinstance(raw, list):
        raise ProtocolError(f"{what}.roles must be a list")
    roles = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], str) or not item[0]
            or not isinstance(item[1], str) or not item[1]
        ):
            raise ProtocolError(
                f"{what}.roles entries must be [type, value] non-empty strings"
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


#: The wire keys of a request and of a decision are their field names;
#: a decision's ``trace`` is walked, not read.
_REQUEST_KEYS = frozenset(DecisionRequest._fields)
_DECISION_KEYS = frozenset(Decision._fields) - {"trace"}


def request_from_wire(raw: Any, depth: int = 1) -> DecisionRequest:
    """Rebuild a :class:`DecisionRequest` ``depth`` containers deep in
    its frame; raises ProtocolError on junk."""
    what = "request"
    user_id = _require(raw, "user_id", str, what)
    _check_unread(raw, _REQUEST_KEYS, depth)
    operation = _require(raw, "operation", str, what)
    target = _require(raw, "target", str, what)
    request_id = _require(raw, "request_id", str, what)
    roles = _roles_from_wire(raw.get("roles"), what)
    context = _context_from_wire(raw.get("context_instance"), "request.context_instance")
    timestamp = _number(raw, "timestamp", what)
    environment = raw.get("environment", {})
    if not isinstance(environment, dict) or (environment and not all(
        isinstance(key, str) and isinstance(value, str)
        for key, value in environment.items()
    )):
        raise ProtocolError(f"{what}.environment must map strings to strings")
    try:
        return DecisionRequest(
            user_id, roles, operation, target, context, timestamp,
            environment, request_id,
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


def _record_from_wire(raw: dict, depth: int) -> RetainedADIRecord:
    what = "decision.adi_adds[]"
    _check_value(raw, depth)
    record_id = raw.get("record_id")
    if record_id is not None and type(record_id) is not int:
        raise ProtocolError(f"{what}.record_id must be an integer or null")
    return RetainedADIRecord(
        _require(raw, "user_id", str, what),
        _roles_from_wire(raw.get("roles"), what),
        _require(raw, "operation", str, what),
        _require(raw, "target", str, what),
        _context_from_wire(raw.get("context_instance"), f"{what}.context_instance"),
        _number(raw, "granted_at", what),
        _require(raw, "request_id", str, what),
        record_id,
    )


def _violation_to_wire(violation: MSoDViolation) -> dict:
    return {
        "policy_id": violation.policy_id,
        "constraint_kind": violation.constraint_kind,
        "constraint_repr": violation.constraint_repr,
        "effective_context": str(violation.effective_context),
        "detail": violation.detail,
    }


def _violation_from_wire(raw: Any, depth: int) -> MSoDViolation:
    what = "decision.violation"
    _check_value(raw, depth)
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
    return _decision_to_wire(decision, None)


def decision_from_wire(raw: Any) -> Decision:
    """Rebuild a :class:`Decision`; raises ProtocolError on junk."""
    return _decision_from_wire(raw, None, 1)


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
    return _decision_to_wire(decision, request)


def decision_entry(decision: Decision, request: DecisionRequest) -> dict:
    """The ``decide-batch`` results entry answering ``request``."""
    built = dict if decision.trace is not None else _DecisionEntry
    return built(ok=True, decision=_decision_to_wire(decision, request))


def _decision_to_wire(decision: Decision, request: DecisionRequest | None) -> dict:
    """The v1 form without a ``request``, else the delta form against it."""
    wire: dict = {"effect": decision.effect}
    if request is None:
        wire["request"] = request_to_wire(decision.request)
        adds = [_record_to_wire(record) for record in decision.adi_adds]
    else:
        # A record is request-derived when its first seven fields are
        # the request's own grant: built once per decision.
        user, roles, operation, target, context, at, _, request_id = request
        own = (user, tuple(roles), operation, target, context, at, request_id)
        adds = [
            record.record_id if record[:7] == own else _record_to_wire(record)
            for record in decision.adi_adds
        ]
    wire |= {
        "violation": (
            None
            if decision.violation is None
            else _violation_to_wire(decision.violation)
        ),
        "matched_policy_ids": list(decision.matched_policy_ids),
        "records_added": decision.records_added,
        "records_purged": decision.records_purged,
        "reason": decision.reason,
        "adi_adds": adds,
        "adi_purged_contexts": [
            str(context) for context in decision.adi_purged_contexts
        ],
    }
    echo = decision.request
    if request is not None and echo is not request and echo != request:
        wire["request"] = request_to_wire(echo)
    if decision.policy_epoch:
        # Additive keys (absent on pre-epoch decisions): old clients
        # ignore them, old payloads parse with the 0/"" defaults.
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
    return _decision_from_wire(raw, request, 3)


def _decision_from_wire(
    raw: Any, delta_request: DecisionRequest | None, depth: int
) -> Decision:
    what = "decision"
    effect = _require(raw, "effect", str, what)
    _check_unread(raw, _DECISION_KEYS, depth)
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
    records_added = _integer(raw, "records_added", what)
    records_purged = _integer(raw, "records_purged", what)
    policy_epoch = _integer(raw, "policy_epoch", what)
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
        request = request_from_wire(request_raw, depth + 1)
    adi_adds: list[RetainedADIRecord] = []
    for item in adds_raw:
        if isinstance(item, dict):
            adi_adds.append(_record_from_wire(item, depth + 2))
        elif delta_request is not None and (
            item is None or (type(item) is int and _INT_MIN <= item <= _INT_MAX)
        ):
            # Delta marker: the record is the request's own grant.
            user, roles, operation, target, context, at, _, request_id = delta_request
            adi_adds.append(RetainedADIRecord(
                user, tuple(roles), operation, target, context, at, request_id, item
            ))
        else:
            raise ProtocolError(f"{what}.adi_adds[] entries must be records")
    return Decision(
        trace=trace,
        effect=effect,
        request=request,
        violation=(
            None if violation_raw is None
            else _violation_from_wire(violation_raw, depth + 1)
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
# Protocol v2: limits
# ---------------------------------------------------------------------------
#: The length-prefixed wire-format version.
PROTOCOL_VERSION_2 = 2

#: Hard ceiling on one *batched* v2 frame (header + payload).  A
#: batch of ``MAX_WIRE_BATCH`` worst-case decisions fits comfortably;
#: anything declaring more is rejected before a single payload byte is
#: buffered.
MAX_FRAME_BYTES_V2 = 8 << 20
#: Most requests one ``decide-batch`` frame may carry.
MAX_WIRE_BATCH = 1024
# ---------------------------------------------------------------------------
# Protocol v2: length-prefixed binary framing
# ---------------------------------------------------------------------------
#: First byte of every v2 frame.  0xB2 is an invalid UTF-8 *start* byte
#: and can never begin a v1 JSON line, so a server tells a connection's
#: version from its first byte, and cross-talk in either direction is
#: detected on the very first byte of a frame.
V2_MAGIC = 0xB2
#: Header layout: magic, version, reserved (must be 0), payload length.
V2_HEADER = struct.Struct("!BBHI")
V2_HEADER_BYTES = V2_HEADER.size


def encode_frame_v2(frame: Mapping[str, Any]) -> bytes:
    """Serialise one frame dict as a v2 frame (header + payload)."""
    payload = pack_payload({**frame, "v": PROTOCOL_VERSION_2})
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
    arriving on a v2 connection — cross-talk), unknown
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
            "(v1 JSON on a v2 connection?)"
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
    return _decode_envelope(payload, PROTOCOL_VERSION_2)


# ---------------------------------------------------------------------------
# decide-batch bodies
# ---------------------------------------------------------------------------
def batch_requests_of(frame: Mapping[str, Any]) -> list[DecisionRequest]:
    """Parse and validate *every* request of a ``decide-batch`` frame.

    All-or-nothing by design: one malformed entry rejects the whole
    frame before anything is submitted, so a partially-garbled batch
    can never be partially committed.
    """
    _check_value(frame.get("results"), 1)
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
    return [request_from_wire(item, 2) for item in raw]


def batch_result_entries(frame: Mapping[str, Any], expected: int) -> list[dict]:
    """Client side: the validated per-entry results of a batch response;
    :func:`decision_from_wire_delta` checks each ``ok`` entry's decision."""
    _check_value(frame.get("requests"), 1)
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
        _check_unread(entry, _ENTRY_KEYS if entry.get("ok") is True else frozenset(), 2)
    return raw
