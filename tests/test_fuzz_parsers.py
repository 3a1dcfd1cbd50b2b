"""Fuzz tests: parsers must fail *cleanly* on arbitrary input.

Every parser in the library — Appendix-A XML, the authoring DSL, the
PERMIS policy XML, context names, DNs, the v1/v2 wire decoders — must
either produce a valid object or raise its documented
:class:`~repro.errors.ReproError` subclass; no other exception type may
escape, no matter the input.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.client._core import decode_response_line
from repro.core.constraints import Role
from repro.core.context import ContextName
from repro.errors import (
    ContextNameError,
    DirectoryError,
    PDPUnavailableError,
    PolicyParseError,
    ProtocolError,
)
from repro.permis.directory import normalize_dn
from repro.permis.xml import parse_permis_policy
from repro.server import protocol
from repro.xmlpolicy import (
    compile_policy_set,
    parse_policy_set,
    validate_policy_document,
)
from tests.test_protocol import DEEP, make_deny, make_grant, make_request
from tests.test_xmlpolicy import DIVERGENT_DOCUMENTS

_text = st.text(max_size=300)

# XML-shaped noise: well-formed-ish fragments mixing real element names.
_xmlish = st.builds(
    lambda parts: "".join(parts),
    st.lists(
        st.sampled_from(
            [
                "<MSoDPolicySet>",
                "</MSoDPolicySet>",
                "<MSoDPolicy BusinessContext='A=!'>",
                "<MSoDPolicy BusinessContext='A=!' PolicyId='p'>",
                "<MSoDPolicy>",
                "</MSoDPolicy>",
                "<MMER ForbiddenCardinality='2'>",
                "<MMER>",
                "</MMER>",
                "<Role type='t' value='v'/>",
                "<Role type='t' value='w'/>",
                "<Role/>",
                "<MMEP ForbiddenCardinality='1'>",
                "</MMEP>",
                "<Privilege operation='o' target='u'/>",
                "<Operation value='o' target='u'/>",
                "<FirstStep operation='a' targetURI='t'/>",
                "<LastStep/>",
                "<LastStep operation='' targetURI='t'/>",
                "text",
                "<Unknown/>",
            ]
        ),
        max_size=12,
    ),
)


@given(_text)
@settings(max_examples=200, deadline=None)
def test_xml_parser_fails_cleanly(text):
    try:
        parse_policy_set(text)
    except PolicyParseError:
        pass


@given(_xmlish)
@settings(max_examples=300, deadline=None)
def test_xml_parser_survives_structured_noise(text):
    try:
        parse_policy_set(text)
    except PolicyParseError:
        pass


@given(_xmlish)
@settings(max_examples=200, deadline=None)
def test_validator_never_raises(text):
    problems = validate_policy_document(text)
    assert isinstance(problems, list)


@pytest.mark.parametrize("strict", [True, False])
@given(_xmlish)
@example(text=DIVERGENT_DOCUMENTS["repeated-policy-id"])
@example(text=DIVERGENT_DOCUMENTS["unnamed-twins"])
@example(text=DIVERGENT_DOCUMENTS["empty-step-operation"])
@settings(max_examples=300, deadline=None)
def test_validator_agrees_with_parser(strict, text):
    """A document validates exactly when it parses, and a refusal is
    the first problem the validator reports."""
    problems = validate_policy_document(text, strict=strict)
    try:
        parse_policy_set(text, strict=strict)
    except PolicyParseError as exc:
        assert problems and str(exc) == problems[0]
    else:
        assert problems == []


@given(_text)
@settings(max_examples=200, deadline=None)
def test_dsl_compiler_fails_cleanly(text):
    try:
        compile_policy_set(text)
    except PolicyParseError:
        pass


_dslish = st.builds(
    lambda lines: "\n".join(lines),
    st.lists(
        st.sampled_from(
            [
                'policy p within "A=!":',
                'policy q within "":',
                "policy broken within",
                "    first step op on target",
                "    last step op on target",
                "    mutually exclusive roles limit 2:",
                "    mutually exclusive privileges limit 3:",
                "        e:A, e:B",
                "        op on target, op on target",
                "        garbage",
                "# comment",
                "",
                "stray text",
            ]
        ),
        max_size=10,
    ),
)


@given(_dslish)
@settings(max_examples=300, deadline=None)
def test_dsl_compiler_survives_structured_noise(text):
    try:
        compile_policy_set(text)
    except PolicyParseError:
        pass


@given(_text)
@settings(max_examples=200, deadline=None)
def test_permis_xml_parser_fails_cleanly(text):
    try:
        parse_permis_policy(text)
    except PolicyParseError:
        pass


@given(_text)
@settings(max_examples=200, deadline=None)
def test_context_parser_fails_cleanly(text):
    try:
        name = ContextName.parse(text)
    except ContextNameError:
        return
    # Success must round-trip.
    assert ContextName.parse(str(name)) == name


@given(_text)
@settings(max_examples=200, deadline=None)
def test_dn_normalizer_fails_cleanly(text):
    try:
        dn = normalize_dn(text)
    except DirectoryError:
        return
    assert normalize_dn(dn) == dn  # idempotent on success


_ANSWERED = make_request()
#: A delta grant carrying a full-form record, and a deny with its
#: violation, both answering ``_ANSWERED``.
_ANSWERS = [
    protocol.decision_to_wire_delta(decision, _ANSWERED)
    for decision in (make_grant(), make_deny())
]


def _assert_well_typed(decision) -> None:
    """A decision read off the wire holds only the types it declares."""
    assert type(decision.records_added) is int
    for record in decision.adi_adds:
        user, roles, operation, target, context, at, request_id, record_id = record
        assert all(type(text) is str for text in (user, operation, target, request_id))
        assert type(context) is ContextName and type(at) is float
        assert all(type(role) is Role and all(type(part) is str for part in role)
                   for role in roles)
        assert record_id is None or type(record_id) is int


def _read_results(frame: dict) -> None:
    """The client's read of a v2 response frame: every ``ok`` entry's
    decision, against the request the grant and deny answer."""
    results = frame.get("results")
    expected = len(results) if isinstance(results, list) else 1
    for entry in protocol.batch_result_entries(frame, expected):
        if entry.get("ok") is True:
            try:
                decision = protocol.decision_from_wire_delta(
                    entry.get("decision"), _ANSWERED
                )
            except ProtocolError:
                continue  # fails its own decide, not the frame
            _assert_well_typed(decision)


def _feed_wire_decoders(data: bytes) -> None:
    """Every decoder a received frame meets, server and client side."""
    for decode, parse in (
        (
            protocol.decode_frame,
            lambda frame: protocol.request_from_wire(frame.get("request")),
        ),
        (protocol.decode_frame_v2, protocol.batch_requests_of),
        (protocol.decode_frame_v2, _read_results),
        (decode_response_line, dict),
    ):
        try:
            frame = decode(data)
            # Decoded text is text a UTF-8 consumer (shard hashing,
            # SQLite) can encode: no lone surrogate gets through.
            json.dumps(frame, ensure_ascii=False).encode("utf-8")
            parse(frame)
        except (ProtocolError, PDPUnavailableError):
            pass


@given(st.binary(max_size=200))
@example(data=b'{"v":1,"id":1,"x":' + DEEP + b"}\n")
@example(data=b'{"v":2,"id":1,"x":' + b"{\"k\":" * 100_000 + b"}")
@example(data=b'{"v":2,"id":1,"ok":true,"op":"decide-batch","results":' + DEEP + b"}")
@example(data=b'{"v":2,"id":1,"op":"decide-batch","requests":[' + DEEP + b"]}")
@example(
    data=b'{"v":2,"id":1,"ok":true,"op":"decide-batch","results":[{"ok":true,'
    b'"decision":{"effect":"grant","reason":"","x":' + b"[" * 40 + b"]" * 40 + b"}}]}"
)
@settings(max_examples=300, deadline=None)
def test_wire_decoders_fail_cleanly_on_bytes(data):
    _feed_wire_decoders(data)


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats()
    # Lone surrogates: json.dumps escapes them, UTF-8 cannot carry them.
    | st.text(st.characters() | st.sampled_from("\ud800\udfff"), max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)
_REQUEST = protocol.request_to_wire(make_request())
#: A well-formed wire request with one field replaced by noise.
_request_shapes = st.builds(
    lambda key, value: {**_REQUEST, key: value},
    st.sampled_from(sorted(_REQUEST)),
    _json_values,
)


@given(
    st.lists(_request_shapes | _json_values, max_size=4),
    _request_shapes | _json_values,
    st.sampled_from([1, 2]),
)
@settings(max_examples=200, deadline=None)
def test_wire_decoders_fail_cleanly_on_json_shapes(requests, noise, version):
    frame = {
        "v": version,
        "id": "f-1",
        "op": protocol.OP_DECIDE_BATCH,
        "request": noise,
        "requests": requests,
    }
    _feed_wire_decoders(json.dumps(frame).encode() + b"\n")


def _fields(value, path=()):
    """The path to every map value and list item inside ``value``."""
    items = (
        value.items() if type(value) is dict
        else enumerate(value) if type(value) is list
        else ()
    )
    for key, item in items:
        yield path + (key,)
        yield from _fields(item, path + (key,))


def _replaced(value, path, noise):
    """``value`` with ``noise`` at ``path``; its last key may be new."""
    if not path:
        return noise
    copy = dict(value) if type(value) is dict else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], noise) if path[1:] else noise
    return copy


#: A results entry whose grant or deny has one field, at any depth,
#: replaced by noise.
_result_entries = st.sampled_from(_ANSWERS).flatmap(
    lambda answer: st.builds(
        lambda path, noise: {"ok": True, "decision": _replaced(answer, path, noise)},
        st.sampled_from(list(_fields(answer))),
        _json_values,
    )
)


@given(st.lists(_result_entries | _json_values, min_size=1, max_size=3))
@example(entries=[{"ok": True, "decision": _replaced(
    _ANSWERS[0], ("adi_adds", 0, "context_instance"), 7)}])
@example(entries=[{"ok": True, "decision": _replaced(
    _ANSWERS[0], ("adi_adds", 0, "granted_at"), "x")}])
@settings(max_examples=300, deadline=None)
def test_wire_result_decoders_fail_cleanly_on_json_shapes(entries):
    frame = {
        "v": 2,
        "id": "f-1",
        "ok": True,
        "op": protocol.OP_DECIDE_BATCH,
        "results": entries,
    }
    _feed_wire_decoders(json.dumps(frame).encode())
