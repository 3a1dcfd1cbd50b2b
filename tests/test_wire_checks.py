"""The payload walk's guarantees on a ``decide-batch`` body.

A v2 ``decide-batch`` frame's ``requests`` or ``results`` list is not
walked by the frame decode.  Its typed readers (``batch_requests_of``,
``batch_result_entries``, ``decision_from_wire_delta``) bound every
integer they read and walk, at its true depth, every value they do not
read.  The server's results entries come from ``decision_entry``, and
the frame encode does not walk an untraced one.  These tests hold both
sides to the walk they replace:

* every frame ``_check_value`` refuses is refused on the typed path (a
  differential over noise at any position, plus the depth and 64-bit
  boundaries pinned);
* no decision the engine returns builds an entry the walk would refuse;
* a full-form retained-ADI record is read through the request's field
  readers, so a malformed one is a ``ProtocolError``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    Role,
)
from repro.errors import ProtocolError
from repro.obs import Recorder
from repro.server import protocol
from repro.xmlpolicy import combined_policy_set
from tests.test_fuzz_parsers import _json_values, _replaced
from tests.test_protocol import golden_batch_frames, make_grant, make_request

MAX = protocol.MAX_PAYLOAD_DEPTH


def _payload(frame) -> bytes:
    """``frame`` as a v2 payload, bypassing the encoder's own walk."""
    return json.dumps(frame).encode()


def _walk_refuses(data: bytes) -> bool:
    """Whether the generic walk refuses the decoded value of ``data``."""
    try:
        protocol._check_value(json.loads(data), 0)
    except ProtocolError:
        return True
    return False


def server_reads(data: bytes) -> list:
    """What the server does with a received ``decide-batch`` payload."""
    return protocol.batch_requests_of(protocol.decode_frame_v2(data))


def client_reads(data: bytes, requests) -> list:
    """What the client does with a ``decide-batch`` response payload.

    A frame that is not ``ok`` is a whole-frame error, read from the
    envelope only.
    """
    frame = protocol.decode_frame_v2(data)
    if frame.get("ok") is not True:
        return []
    entries = protocol.batch_result_entries(frame, expected=len(requests))
    return [
        protocol.decision_from_wire_delta(entry.get("decision"), request)
        for entry, request in zip(entries, requests)
        if entry.get("ok") is True
    ]


def _traced_grant():
    """A real traced grant and the request it answers."""
    engine = MSoDEngine(
        combined_policy_set(),
        InMemoryRetainedADIStore(),
        perf=Recorder().trace_decisions(),
    )
    request = make_request(roles=(Role("employee", "Teller"),))
    decision = engine.check(request)
    assert decision.trace is not None and decision.granted
    return decision, request


def _frames():
    """A ``decide-batch`` request frame and a response frame carrying
    every entry shape: a delta grant, a full-form record, a deny with
    its violation, an error, a traced grant and a request echo."""
    request, response = golden_batch_frames()
    requests = [protocol.request_from_wire(raw) for raw in request["requests"]]
    traced, traced_request = _traced_grant()
    other = make_request(request_id="req-other")
    requests += [traced_request, other]
    response["results"] += [
        {"ok": True, "decision": protocol.decision_to_wire_delta(d, r)}
        # The second answers another submission, as a cached decision
        # may, so it echoes its request.
        for d, r in ((traced, traced_request), (make_grant(), other))
    ]
    request["v"] = response["v"] = protocol.PROTOCOL_VERSION_2
    return request, response, requests


REQUEST_FRAME, RESPONSE_FRAME, ANSWERED = _frames()


def _nested(levels: int, leaf=0):
    """``leaf`` inside ``levels`` lists: ``levels`` deep on its own."""
    value = leaf
    for _ in range(levels):
        value = [value]
    return value


_edge_ints = st.sampled_from(
    [2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1, 10**30]
)
_deep = st.builds(
    lambda levels, as_map: (
        json.loads('{"k":' * levels + "0" + "}" * levels)
        if as_map
        else _nested(levels)
    ),
    st.integers(min_value=MAX - 8, max_value=MAX + 4),
    st.booleans(),
)
_noise = _json_values | _deep | _edge_ints
#: A new key: any text, or one a reader of some other frame reads.
_keys = st.sampled_from(["requests", "results", "ok", "decision"]) | st.text(max_size=6)


def _mutated(data, value):
    """``value`` with noise at one node of a random walk down it: the
    node is replaced, or, a map, gains a key holding the noise."""
    kind = type(value)
    if kind in (dict, list) and value and data.draw(st.integers(0, 3)):
        keys = sorted(value) if kind is dict else range(len(value))
        key = data.draw(st.sampled_from(keys))
        copy = dict(value) if kind is dict else list(value)
        copy[key] = _mutated(data, value[key])
        return copy
    if kind is dict and data.draw(st.booleans()):
        return {**value, data.draw(_keys): data.draw(_noise)}
    return data.draw(_noise)


def _assert_typed_path_refuses_what_the_walk_refuses(data: bytes, read) -> None:
    refused = _walk_refuses(data)
    try:
        read(data)
    except ProtocolError:
        return
    assert not refused, "the walk refuses this frame; its typed readers took it"


class TestDifferential:
    """Noise anywhere in a real frame: the typed path refuses at least
    what the walk refuses, and raises nothing but ``ProtocolError``."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_request_frames(self, data):
        frame = _mutated(data, REQUEST_FRAME)
        _assert_typed_path_refuses_what_the_walk_refuses(_payload(frame), server_reads)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_response_frames(self, data):
        frame = _mutated(data, RESPONSE_FRAME)
        _assert_typed_path_refuses_what_the_walk_refuses(
            _payload(frame), lambda payload: client_reads(payload, ANSWERED)
        )


def _maps(value, path=()):
    """The path to every map inside ``value``."""
    if type(value) is dict:
        yield path
        items = value.items()
    elif type(value) is list:
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _maps(item, path + (key,))


#: Values the walk refuses.
REFUSED = [_nested(MAX), 2**64, -(2**63) - 1]
REFUSED_IDS = ["too-deep", "2**64", "-2**63-1"]

_READERS = [
    pytest.param(REQUEST_FRAME, server_reads, id="request"),
    pytest.param(
        RESPONSE_FRAME, lambda data: client_reads(data, ANSWERED), id="response"
    ),
]


class TestUnknownKeyAtEveryLevel:
    """An unread key in any map of either frame is walked where it sits."""

    @pytest.mark.parametrize("frame, read", _READERS)
    @pytest.mark.parametrize(
        "noise",
        REFUSED + [(Role("r", "v"),)],
        ids=REFUSED_IDS + ["tuple-backed"],
    )
    def test_refused_noise_is_refused_in_every_map(self, frame, read, noise):
        for path in _maps(frame):
            mutated = _replaced(frame, path + ("x-unread",), noise)
            if type(noise) is tuple:
                # The encoder's own walk refuses a tuple-backed value.
                with pytest.raises(ProtocolError, match="cannot encode Role"):
                    protocol.encode_frame_v2(mutated)
                continue
            data = _payload(mutated)
            assert _walk_refuses(data), path
            with pytest.raises(ProtocolError):
                read(data)

    @pytest.mark.parametrize("frame, read", _READERS)
    def test_harmless_noise_is_read_past_in_every_map(self, frame, read):
        baseline = read(_payload(frame))
        for path in _maps(frame):
            if "environment" in path:
                continue  # a request's environment maps strings to strings
            mutated = _replaced(frame, path + ("x-unread",), {"n": [1, 2.5, None]})
            data = _payload(mutated)
            assert not _walk_refuses(data), path
            assert read(data) == baseline, path


@pytest.mark.parametrize("noise", REFUSED, ids=REFUSED_IDS)
class TestBodiesNoReaderReads:
    """The decode leaves both batch bodies to the readers; each reader
    walks the one it does not read, and a frame that is not ``ok`` is
    walked whole."""

    def test_results_on_a_request_frame(self, noise):
        data = _payload({**REQUEST_FRAME, "results": [noise]})
        assert _walk_refuses(data)
        with pytest.raises(ProtocolError):
            server_reads(data)

    def test_requests_on_a_response_frame(self, noise):
        data = _payload({**RESPONSE_FRAME, "requests": [noise]})
        assert _walk_refuses(data)
        with pytest.raises(ProtocolError):
            client_reads(data, ANSWERED)

    @pytest.mark.parametrize("ok", [False, None, 1])
    def test_results_of_a_frame_that_is_not_ok(self, noise, ok):
        data = _payload({**RESPONSE_FRAME, "ok": ok, "results": [noise]})
        assert _walk_refuses(data)
        with pytest.raises(ProtocolError):
            client_reads(data, ANSWERED)


def _request_frame_with(request_noise: dict) -> bytes:
    frame = dict(REQUEST_FRAME)
    frame["requests"] = [{**frame["requests"][0], **request_noise}]
    return _payload(frame)


def _response_frame_with(decision_noise: dict) -> bytes:
    """The response's delta grant alone, with ``decision_noise``."""
    frame = dict(RESPONSE_FRAME)
    entry = frame["results"][0]
    decision = {**entry["decision"], **decision_noise}
    frame["results"] = [{"ok": True, "decision": decision}]
    return _payload(frame)


class TestBoundaries:
    """The walk's two limits, pinned where the typed readers took them."""

    # frame > requests > entry: an unread value of a request entry sits
    # three containers deep; a decision's sits four.
    @pytest.mark.parametrize("depth", [MAX - 1, MAX, MAX + 1])
    def test_depth_inside_an_unread_key_of_a_request(self, depth):
        data = _request_frame_with({"x-unread": _nested(depth - 3)})
        assert _walk_refuses(data) is (depth > MAX)
        if depth > MAX:
            with pytest.raises(ProtocolError, match="nests too deeply"):
                server_reads(data)
        else:
            assert len(server_reads(data)) == 1

    @pytest.mark.parametrize("depth", [MAX - 1, MAX, MAX + 1])
    def test_depth_inside_an_unread_key_of_a_decision(self, depth):
        data = _response_frame_with({"x-unread": _nested(depth - 4)})
        assert _walk_refuses(data) is (depth > MAX)
        if depth > MAX:
            with pytest.raises(ProtocolError, match="nests too deeply"):
                client_reads(data, ANSWERED[:1])
        else:
            assert len(client_reads(data, ANSWERED[:1])) == 1

    @pytest.mark.parametrize("depth", [MAX - 1, MAX, MAX + 1])
    def test_depth_inside_an_unread_key_of_a_request_echo(self, depth):
        # ... > decision > request: an unread value of the echo sits five
        # containers deep.
        results = RESPONSE_FRAME["results"]
        [index] = [
            index for index, entry in enumerate(results)
            if "request" in entry.get("decision", {})
        ]
        decision = results[index]["decision"]
        echo = {**decision["request"], "x-unread": _nested(depth - 5)}
        frame = dict(RESPONSE_FRAME)
        frame["results"] = [{"ok": True, "decision": {**decision, "request": echo}}]
        data = _payload(frame)
        answered = ANSWERED[index:index + 1]
        assert _walk_refuses(data) is (depth > MAX)
        if depth > MAX:
            with pytest.raises(ProtocolError, match="nests too deeply"):
                client_reads(data, answered)
        else:
            assert len(client_reads(data, answered)) == 1

    INTS = [(2**63, True), (-(2**63), True), (2**64, False), (-(2**63) - 1, False)]

    @pytest.mark.parametrize("value, fits", INTS)
    def test_timestamp(self, value, fits):
        data = _request_frame_with({"timestamp": value})
        assert _walk_refuses(data) is not fits
        if fits:
            [request] = server_reads(data)
            assert request.timestamp == float(value)
        else:
            with pytest.raises(ProtocolError, match="64 bits"):
                server_reads(data)

    @pytest.mark.parametrize("value, fits", INTS)
    @pytest.mark.parametrize("field", ["records_added", "policy_epoch"])
    def test_decision_integer(self, field, value, fits):
        data = _response_frame_with({field: value})
        assert _walk_refuses(data) is not fits
        if fits:
            [decision] = client_reads(data, ANSWERED[:1])
            assert getattr(decision, field) == value
        else:
            with pytest.raises(ProtocolError, match="64 bits"):
                client_reads(data, ANSWERED[:1])

    @pytest.mark.parametrize("value, fits", INTS)
    def test_adi_adds_id_marker(self, value, fits):
        data = _response_frame_with({"adi_adds": [value]})
        assert _walk_refuses(data) is not fits
        if fits:
            [decision] = client_reads(data, ANSWERED[:1])
            assert decision.adi_adds[0].record_id == value
        else:
            with pytest.raises(ProtocolError):
                client_reads(data, ANSWERED[:1])


# ---------------------------------------------------------------------------
# The encode side: what the typed builder emits, the walk would pass
# ---------------------------------------------------------------------------
TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
CLERK = Role("employee", "Clerk")
#: Every privilege of the combined policy, its two last steps included.
_PRIVILEGES = [
    ("handleCash", "till://cash"),
    ("auditBooks", "ledger://books"),
    ("CommitAudit", "http://audit.location.com/audit"),
    ("prepareCheck", "http://www.myTaxOffice.com/Check"),
    ("approve/disapproveCheck", "http://www.myTaxOffice.com/Check"),
    ("confirmCheck", "http://secret.location.com/audit"),
]
_CONTEXTS = [
    "Branch=York, Period=P1",
    "Branch=Leeds, Period=P1",
    "TaxOffice=Leeds, taxRefundProcess=I1",
    "TaxOffice=Leeds, taxRefundProcess=I2",
]


@st.composite
def _requests(draw, index):
    operation, target = draw(st.sampled_from(_PRIVILEGES))
    return DecisionRequest(
        user_id=draw(st.sampled_from(["u1", "u2", "ü3"])),
        roles=tuple(draw(st.lists(st.sampled_from([TELLER, AUDITOR, CLERK]),
                                  min_size=1, max_size=2, unique=True))),
        operation=operation,
        target=target,
        context_instance=ContextName.parse(draw(st.sampled_from(_CONTEXTS))),
        timestamp=float(index),
        environment=draw(st.dictionaries(st.sampled_from(["tod", "ip"]),
                                         st.text(max_size=4), max_size=2)),
        request_id=f"req-{index}",
    )


@st.composite
def _streams(draw):
    size = draw(st.integers(min_value=1, max_value=20))
    return [draw(_requests(index)) for index in range(size)]


def _assert_built_entry_passes_the_walk(decision, answered) -> None:
    wire = protocol.decision_to_wire_delta(decision, answered)
    protocol._check_value(wire, 0)
    entry = protocol.decision_entry(decision, answered)
    assert entry == {"ok": True, "decision": wire}
    frame = {"v": 2, "ok": True, "op": protocol.OP_DECIDE_BATCH, "results": [entry]}
    plain = {**frame, "results": [dict(entry)]}
    # The whole entry, as plain maps, at its depth in a frame.
    protocol._check_value(plain, 0)
    data = protocol.encode_frame_v2(frame)
    assert data == protocol.encode_frame_v2(plain)
    [restored] = client_reads(data[protocol.V2_HEADER_BYTES:], [answered])
    assert restored == decision


def _decide_all(stream, traced: bool, answer_another: bool) -> list:
    """Run ``stream`` through an engine, checking every built entry."""
    engine = MSoDEngine(
        combined_policy_set(),
        InMemoryRetainedADIStore(),
        perf=Recorder().trace_decisions() if traced else None,
    )
    decisions = []
    for index, request in enumerate(stream):
        decision = engine.check(request)
        # A dedup cache may answer a different submission than its own.
        answered = stream[index - 1] if answer_another and index else request
        _assert_built_entry_passes_the_walk(decision, answered)
        decisions.append(decision)
    return decisions


@given(_streams(), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_every_entry_the_engine_gives_the_builder_passes_the_walk(
    stream, traced, answer_another
):
    """The server's frame encode does not walk an untraced built entry:
    this test does."""
    _decide_all(stream, traced, answer_another)


@pytest.mark.parametrize("traced", [False, True])
def test_grants_denies_and_last_steps_pass_the_walk(traced):
    def request(index, role, privilege):
        operation, target = _PRIVILEGES[privilege]
        return DecisionRequest(
            "u1", (role,), operation, target,
            ContextName.parse("Branch=York, Period=P1"), float(index),
            request_id=f"req-{index}",
        )

    stream = [request(0, TELLER, 0), request(1, AUDITOR, 1), request(2, TELLER, 2)]
    decisions = _decide_all(stream, traced, answer_another=False)
    assert [d.effect for d in decisions] == ["grant", "deny", "grant"]
    assert decisions[2].records_purged and decisions[2].adi_purged_contexts


class TestBuiltEntries:
    def test_a_traced_entry_is_walked(self):
        decision, request = _traced_grant()
        entry = protocol.decision_entry(decision, request)
        entry["decision"]["trace"]["spans"] = [{"name": "x", "n": 2**64}]
        frame = {"op": protocol.OP_DECIDE_BATCH, "ok": True, "results": [entry]}
        with pytest.raises(ProtocolError, match="exceeds 64 bits"):
            protocol.encode_frame_v2(frame)

    def test_an_entry_built_elsewhere_is_walked_whole(self):
        # A decide gate's short circuit is a plain entry.
        entry = {"ok": True, "decision": {"effect": "grant", "x": (TELLER,)}}
        frame = {"op": protocol.OP_DECIDE_BATCH, "ok": True, "results": [entry]}
        with pytest.raises(ProtocolError, match="cannot encode Role"):
            protocol.encode_frame_v2(frame)


# ---------------------------------------------------------------------------
# A full-form retained-ADI record is read through the request's readers
# ---------------------------------------------------------------------------
def _full_form(record_noise: dict):
    """A grant's full-form record, in the v1 and the delta decision."""
    grant = make_grant()
    v1 = protocol.decision_to_wire(grant)
    delta = protocol.decision_to_wire_delta(grant, grant.request)
    for wire in (v1, delta):
        [record] = wire["adi_adds"]
        assert type(record) is dict
        wire["adi_adds"] = [{**record, **record_noise}]
    return [
        lambda: protocol.decision_from_wire(v1),
        lambda: protocol.decision_from_wire_delta(delta, grant.request),
    ]


class TestMalformedRecords:
    def test_a_non_string_context_instance_is_refused(self):
        for read in _full_form({"context_instance": 7}):
            with pytest.raises(ProtocolError, match="context_instance"):
                read()

    @pytest.mark.parametrize("granted_at", ["x", [1, 2], None, True])
    def test_a_granted_at_that_is_not_a_number_is_refused(self, granted_at):
        for read in _full_form({"granted_at": granted_at}):
            with pytest.raises(ProtocolError, match="granted_at"):
                read()

    def test_a_non_string_request_id_is_refused(self):
        for read in _full_form({"request_id": 7}):
            with pytest.raises(ProtocolError, match="request_id"):
                read()

    def test_a_boolean_record_id_is_refused(self):
        for read in _full_form({"record_id": False}):
            with pytest.raises(ProtocolError, match="record_id"):
                read()

    def test_roles_that_are_not_string_pairs_are_refused(self):
        for read in _full_form({"roles": [[1, 2]]}):
            with pytest.raises(ProtocolError, match="roles"):
                read()

    def test_a_well_formed_record_still_reads_back(self):
        for read in _full_form({}):
            assert read() == make_grant()


@pytest.mark.parametrize(
    "trace", [{"spans": [5]}, {"violation": 5}], ids=["span", "violation"]
)
def test_a_trace_part_that_is_not_a_map_is_a_protocol_error(trace):
    decision, request = _traced_grant()
    for wire, read in (
        (protocol.decision_to_wire(decision), protocol.decision_from_wire),
        (
            protocol.decision_to_wire_delta(decision, request),
            lambda raw: protocol.decision_from_wire_delta(raw, request),
        ),
    ):
        wire["trace"] |= trace
        with pytest.raises(ProtocolError, match="invalid decision trace"):
            read(wire)


@pytest.mark.parametrize("role", [["", "v"], ["t", ""], ["", ""]])
def test_an_empty_role_string_is_a_protocol_error(role):
    raw = {**protocol.request_to_wire(make_request()), "roles": [role]}
    with pytest.raises(ProtocolError, match="roles"):
        protocol.request_from_wire(raw)
