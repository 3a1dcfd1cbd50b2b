"""Wire-format tests: round trips plus malformed-input fuzzing.

The hard requirement (ISSUE 2): truncated frames, oversized frames and
bad UTF-8 must yield a :class:`~repro.errors.ProtocolError` — never any
other exception, because any other exception would crash a serving
worker on attacker-controlled bytes.
"""

import json
import pathlib
import random

import pytest

from repro.core import (
    ContextName,
    Decision,
    DecisionRequest,
    MSoDViolation,
    Privilege,
    Role,
)
from repro.client._core import decode_response_line
from repro.core.retained_adi import RetainedADIRecord
from repro.errors import ProtocolError
from repro.server import protocol

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")


def make_request(**overrides):
    defaults = dict(
        user_id="alice",
        roles=(TELLER, AUDITOR),
        operation="handleCash",
        target="till://1",
        context_instance=ContextName.parse("Branch=York, Period=P1"),
        timestamp=17.25,
        environment={"tod": "morning"},
        request_id="req-test-0001",
    )
    defaults.update(overrides)
    return DecisionRequest(**defaults)


def make_grant():
    request = make_request()
    record = RetainedADIRecord(
        user_id="alice",
        roles=(TELLER,),
        operation="handleCash",
        target="till://1",
        context_instance=ContextName.parse("Branch=York, Period=P1"),
        granted_at=17.25,
        request_id="req-test-0001",
        record_id=41,
    )
    return Decision(
        effect="grant",
        request=request,
        matched_policy_ids=("bank-1",),
        records_added=1,
        records_purged=0,
        reason="granted under MSoD",
        adi_adds=(record,),
        adi_purged_contexts=(ContextName.parse("Branch=York, Period=P0"),),
    )


def make_deny():
    request = make_request()
    violation = MSoDViolation(
        policy_id="bank-1",
        constraint_kind="MMER",
        constraint_repr="MMER({Teller, Auditor}, 2)",
        effective_context=ContextName.parse("Branch=*, Period=P1"),
        detail="user 'alice' would hold 2 of 2 mutually exclusive roles",
    )
    return Decision(
        effect="deny",
        request=request,
        violation=violation,
        matched_policy_ids=("bank-1",),
        reason=violation.detail,
    )


class TestRoundTrips:
    def test_request_round_trip_is_bit_identical(self):
        request = make_request()
        wire = json.loads(json.dumps(protocol.request_to_wire(request)))
        assert protocol.request_from_wire(wire) == request

    def test_grant_decision_round_trip(self):
        decision = make_grant()
        wire = json.loads(json.dumps(protocol.decision_to_wire(decision)))
        assert protocol.decision_from_wire(wire) == decision

    def test_deny_decision_round_trip(self):
        decision = make_deny()
        wire = json.loads(json.dumps(protocol.decision_to_wire(decision)))
        assert protocol.decision_from_wire(wire) == decision

    def test_policy_version_round_trips_when_stamped(self):
        decision = make_grant()._replace(policy_epoch=3, policy_digest="ab" * 32)
        wire = json.loads(json.dumps(protocol.decision_to_wire(decision)))
        assert wire["policy_epoch"] == 3
        assert wire["policy_digest"] == "ab" * 32
        assert protocol.decision_from_wire(wire) == decision

    def test_pre_epoch_decisions_omit_policy_keys(self):
        wire = protocol.decision_to_wire(make_grant())
        assert "policy_epoch" not in wire
        assert "policy_digest" not in wire
        restored = protocol.decision_from_wire(json.loads(json.dumps(wire)))
        assert restored.policy_epoch == 0
        assert restored.policy_digest == ""

    def test_frame_envelope_round_trip(self):
        frame = protocol.request_frame(
            "decide", "c-1", request=protocol.request_to_wire(make_request())
        )
        data = protocol.encode_frame(frame)
        assert data.endswith(b"\n")
        assert protocol.decode_frame(data) == frame

    def test_float_timestamps_survive_exactly(self):
        request = make_request(timestamp=0.1 + 0.2)  # classic non-exact sum
        wire = json.loads(json.dumps(protocol.request_to_wire(request)))
        assert protocol.request_from_wire(wire).timestamp == request.timestamp


class TestEnvelopeRejection:
    def test_empty_frame(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"\n")

    def test_bad_utf8(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b'\xff\xfe{"v": 1}\n')

    def test_truncated_json(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b'{"v": 1, "op": "deci')

    def test_non_object_frame(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"[1, 2, 3]\n")

    def test_oversized_frame(self):
        line = b'{"v": 1, "pad": "' + b"x" * protocol.MAX_FRAME_BYTES + b'"}\n'
        with pytest.raises(ProtocolError):
            protocol.decode_frame(line)

    def test_oversized_encode_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_frame({"v": 1, "pad": "x" * protocol.MAX_FRAME_BYTES})

    @pytest.mark.parametrize("version", [None, 0, 2, "1", [1]])
    def test_wrong_version(self, version):
        line = json.dumps({"v": version, "op": "healthz"}).encode() + b"\n"
        with pytest.raises(ProtocolError):
            protocol.decode_frame(line)


class TestRequestRejection:
    def wire(self, **overrides):
        base = protocol.request_to_wire(make_request())
        base.update(overrides)
        return base

    @pytest.mark.parametrize(
        "overrides",
        [
            {"user_id": 7},
            {"user_id": None},
            {"user_id": ""},  # semantically invalid (Section 4.1)
            {"roles": "Teller"},
            {"roles": [["employee"]]},
            {"roles": [["employee", 3]]},
            {"roles": [{"type": "employee"}]},
            {"operation": None},
            {"target": 4.2},
            {"context_instance": 9},
            {"context_instance": "not==a==context"},
            {"context_instance": "Branch=*, Period=P1"},  # non-concrete
            {"timestamp": "noon"},
            {"timestamp": True},
            {"environment": [1, 2]},
            {"environment": {"k": 5}},
            {"request_id": None},
        ],
    )
    def test_malformed_request_bodies(self, overrides):
        with pytest.raises(ProtocolError):
            protocol.request_from_wire(self.wire(**overrides))

    def test_non_dict_request(self):
        with pytest.raises(ProtocolError):
            protocol.request_from_wire("decide me")


class TestReshardOptions:
    def test_absent_threshold_means_one_and_a_half(self):
        frame = {"action": protocol.RESHARD_ACTION_REBALANCE}
        assert protocol.reshard_options_of(frame) == (
            "rebalance", None, False, 1.5
        )

    def test_threshold_is_carried(self):
        frame = {"action": "rebalance", "apply": True, "threshold": 2}
        assert protocol.reshard_options_of(frame)[2:] == (True, 2.0)

    @pytest.mark.parametrize("threshold", [0, -1.0, "2", None, True, [1.5]])
    def test_bad_threshold_refused(self, threshold):
        with pytest.raises(ProtocolError, match="threshold"):
            protocol.reshard_options_of(
                {"action": "rebalance", "threshold": threshold}
            )


class TestDecisionRejection:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda wire: wire.update(effect="maybe"),
            lambda wire: wire.update(reason=None),
            lambda wire: wire.update(matched_policy_ids="p1"),
            lambda wire: wire.update(matched_policy_ids=[1]),
            lambda wire: wire.update(records_added="many"),
            lambda wire: wire.update(records_purged=True),
            lambda wire: wire.update(adi_adds={"a": 1}),
            lambda wire: wire.update(adi_adds=[{"user_id": "x"}]),
            lambda wire: wire.update(adi_purged_contexts="ctx"),
            lambda wire: wire.update(adi_purged_contexts=[3]),
            lambda wire: wire.update(violation={"policy_id": 1}),
            lambda wire: wire.update(request=None),
        ],
    )
    def test_malformed_decisions(self, mutate):
        wire = protocol.decision_to_wire(make_grant())
        mutate(wire)
        with pytest.raises(ProtocolError):
            protocol.decision_from_wire(wire)


class TestFuzz:
    """Random corruption must only ever produce ProtocolError."""

    def test_truncations_never_crash(self):
        frame = protocol.encode_frame(
            protocol.request_frame(
                "decide",
                "c-9",
                request=protocol.request_to_wire(make_request()),
            )
        )
        for cut in range(len(frame)):
            truncated = frame[:cut]
            try:
                decoded = protocol.decode_frame(truncated)
                protocol.request_from_wire(decoded.get("request"))
            except ProtocolError:
                pass  # the only acceptable failure mode

    def test_random_byte_corruption_never_crashes(self):
        rng = random.Random(20260806)
        frame = bytearray(
            protocol.encode_frame(
                protocol.request_frame(
                    "decide",
                    "c-10",
                    request=protocol.request_to_wire(make_request()),
                )
            )
        )
        for _ in range(500):
            corrupted = bytearray(frame)
            for _ in range(rng.randrange(1, 6)):
                corrupted[rng.randrange(len(corrupted))] = rng.randrange(256)
            try:
                decoded = protocol.decode_frame(bytes(corrupted))
                if decoded.get("op") == protocol.OP_DECIDE:
                    protocol.request_from_wire(decoded.get("request"))
            except ProtocolError:
                pass

    def test_random_json_shapes_never_crash(self):
        rng = random.Random(7)
        atoms = [None, True, False, 0, -1, 3.5, "x", "", [], {}, "Branch=York"]

        def shape(depth=0):
            if depth > 2 or rng.random() < 0.4:
                return rng.choice(atoms)
            if rng.random() < 0.5:
                return [shape(depth + 1) for _ in range(rng.randrange(3))]
            return {
                rng.choice(["v", "op", "id", "request", "roles", "user_id"]):
                    shape(depth + 1)
                for _ in range(rng.randrange(4))
            }

        for _ in range(300):
            payload = {"v": 1, "op": "decide", "id": "f", "request": shape()}
            line = json.dumps(payload).encode() + b"\n"
            decoded = protocol.decode_frame(line)
            try:
                protocol.request_from_wire(decoded.get("request"))
            except ProtocolError:
                pass


#: JSON-shaped values a v2 payload carries exactly: every scalar kind,
#: the 64-bit integer limits, non-ASCII text, nesting and wide maps.
PAYLOAD_VALUES = [
    None, True, False,
    0, 1, -1, 31, 32, 127, 128, 255, 256, 65535, 65536,
    -32, -33, -128, -129, -32768, -32769,
    2**31 - 1, 2**31, 2**32, 2**63 - 1, -(2**63), 2**64 - 1,
    0.0, -0.5, 17.25, 0.1 + 0.2, float("inf"),
    "", "x", "a" * 31, "a" * 32, "a" * 255, "a" * 256, "π" * 100,
    "\u2028 \\ \"quoted\" \x00",
    [], [1, [2, [3]]], list(range(20)),
    {}, {"k": "v"}, {str(i): i for i in range(40)},
]

GOLDEN_V2_FRAMES = pathlib.Path(__file__).with_name("golden_v2_frames.json")

#: The ``decide-batch`` request of :func:`golden_batch_frames` as the
#: msgpack-style ("binpack") payload codec that v2 spoke before its
#: payload became JSON: a valid v2 header, then a binary payload.  A
#: peer of that era must get a ``protocol`` error, never a misreading.
BINPACK_ERA_REQUEST = bytes.fromhex(
    "b20200000000034d85a26f70ac6465636964652d6261746368a26964aa632d303030"
    "3030303737a565706f636803a872657175657374739488a7757365725f6964a5616c"
    "696365a5726f6c65739192a8656d706c6f796565a654656c6c6572a96f7065726174"
    "696f6eaa68616e646c6543617368a6746172676574a874696c6c3a2f2f31b0636f6e"
    "746578745f696e7374616e6365b64272616e63683d596f726b2c20506572696f643d"
    "5031a974696d657374616d70cb4031400000000000ab656e7669726f6e6d656e7481"
    "a3746f64a76d6f726e696e67aa726571756573745f6964ad7265712d746573742d30"
    "30303188a7757365725f6964a5616c696365a5726f6c65739292a8656d706c6f7965"
    "65a654656c6c657292a8656d706c6f796565a741756469746f72a96f706572617469"
    "6f6eaa68616e646c6543617368a6746172676574a874696c6c3a2f2f31b0636f6e74"
    "6578745f696e7374616e6365b64272616e63683d596f726b2c20506572696f643d50"
    "31a974696d657374616d70cb4031400000000000ab656e7669726f6e6d656e7481a3"
    "746f64a76d6f726e696e67aa726571756573745f6964ad7265712d746573742d3030"
    "303188a7757365725f6964a5616c696365a5726f6c65739292a8656d706c6f796565"
    "a654656c6c657292a8656d706c6f796565a741756469746f72a96f7065726174696f"
    "6eaa68616e646c6543617368a6746172676574a874696c6c3a2f2f31b0636f6e7465"
    "78745f696e7374616e6365b64272616e63683d596f726b2c20506572696f643d5031"
    "a974696d657374616d70cb4031400000000000ab656e7669726f6e6d656e7481a374"
    "6f64a76d6f726e696e67aa726571756573745f6964ad7265712d746573742d303030"
    "3188a7757365725f6964a5616c696365a5726f6c65739292a8656d706c6f796565a6"
    "54656c6c657292a8656d706c6f796565a741756469746f72a96f7065726174696f6e"
    "aa68616e646c6543617368a6746172676574a874696c6c3a2f2f31b0636f6e746578"
    "745f696e7374616e6365b64272616e63683d596f726b2c20506572696f643d5031a9"
    "74696d657374616d70cb4031400000000000ab656e7669726f6e6d656e7481a3746f"
    "64a76d6f726e696e67aa726571756573745f6964ad7265712d746573742d30303031"
    "a17602"
)


def golden_batch_frames():
    """One representative ``decide-batch`` request and response frame.

    The response carries what a server sends: a delta-encoded grant
    (request echo elided, its record collapsed to the id), a grant whose
    record is not request-derived, a deny with its violation, and a
    per-entry overload error, all stamped with a policy version.
    """
    stamp = dict(policy_epoch=3, policy_digest="ab" * 32)
    own = make_request(roles=(TELLER,))
    derived = make_grant()._replace(request=own, **stamp)
    survivor = make_grant()._replace(**stamp)
    deny = make_deny()._replace(**stamp)
    request = {
        "op": protocol.OP_DECIDE_BATCH,
        "id": "c-00000077",
        "epoch": 3,
        "requests": [
            protocol.request_to_wire(r)
            for r in (own, survivor.request, deny.request, make_request())
        ],
    }
    response = {
        "id": "c-00000077",
        "ok": True,
        "op": protocol.OP_DECIDE_BATCH,
        "results": [
            {"ok": True, "decision": protocol.decision_to_wire_delta(d, r)}
            for d, r in ((derived, own), (survivor, survivor.request),
                         (deny, deny.request))
        ]
        + [
            {
                "ok": False,
                "error": {
                    "kind": protocol.ERR_OVERLOADED,
                    "detail": "shard 1 queue full",
                    "retry_after": 0.25,
                },
            }
        ],
    }
    return request, response


def golden_v2_snapshot() -> dict:
    """The hex v2 frame bytes :data:`GOLDEN_V2_FRAMES` pins."""
    request, response = golden_batch_frames()
    return {
        "decide_batch_request": protocol.encode_frame_v2(request).hex(),
        "decide_batch_response": protocol.encode_frame_v2(response).hex(),
    }


def v2_frame_bytes(frame):
    """Encode and split a v2 frame into (header, payload) for surgery."""
    data = protocol.encode_frame_v2(frame)
    return data[: protocol.V2_HEADER_BYTES], data[protocol.V2_HEADER_BYTES :]


class TestV2RoundTrips:
    def test_decide_batch_frame_round_trip(self):
        requests = [
            protocol.request_to_wire(make_request(request_id=f"req-{i}"))
            for i in range(5)
        ]
        frame = {
            "op": protocol.OP_DECIDE_BATCH,
            "id": "c-77",
            "epoch": 3,
            "requests": requests,
        }
        header, payload = v2_frame_bytes(frame)
        assert protocol.v2_payload_length(header) == len(payload)
        decoded = protocol.decode_frame_v2(payload)
        assert decoded["v"] == 2  # encode stamps the version
        restored = protocol.batch_requests_of(decoded)
        assert [protocol.request_to_wire(r) for r in restored] == requests

    def test_payload_value_fidelity(self):
        for value in PAYLOAD_VALUES:
            packed = protocol.pack_payload(value)
            assert protocol.unpack_payload(packed) == value

    def test_float_timestamps_survive_exactly_in_v2(self):
        request = make_request(timestamp=0.1 + 0.2)
        packed = protocol.pack_payload(protocol.request_to_wire(request))
        restored = protocol.request_from_wire(protocol.unpack_payload(packed))
        assert restored.timestamp == request.timestamp

    def test_decision_survives_v2_payload(self):
        for decision in (make_grant(), make_deny()):
            wire = protocol.decision_to_wire(decision)
            packed = protocol.pack_payload(wire)
            assert protocol.decision_from_wire(
                protocol.unpack_payload(packed)
            ) == decision


class TestBinpackEncoder:
    """The payload encoder's exact bytes and the refusals it keeps from
    the binpack codec it replaced (plus ``bytes``, which JSON lacks)."""

    def test_bytes_match_the_golden_encodings(self):
        assert golden_v2_snapshot() == json.loads(
            GOLDEN_V2_FRAMES.read_text()
        )

    def test_nesting_past_the_depth_cap_is_refused(self):
        value = 0
        for _ in range(33):
            value = [value]
        with pytest.raises(ProtocolError, match="nests too deeply"):
            protocol.pack_payload(value)
        # One level shallower is the deepest encodable value.
        protocol.pack_payload(value[0])

    @pytest.mark.parametrize("key", [1, None, b"k", ("k",)])
    def test_non_string_map_keys_are_refused(self, key):
        with pytest.raises(ProtocolError, match="keys must be strings"):
            protocol.pack_payload({"ok": 1, key: "v"})

    @pytest.mark.parametrize(
        "value",
        [TELLER, Privilege("handleCash", "till://1"), make_grant(),
         make_grant().adi_adds[0]],
        ids=["Role", "Privilege", "Decision", "RetainedADIRecord"],
    )
    def test_tuple_backed_values_are_refused_not_flattened(self, value):
        name = type(value).__name__
        for payload in (value, [value], {"k": value}):
            with pytest.raises(ProtocolError, match=f"cannot encode {name} values"):
                protocol.pack_payload(payload)

    @pytest.mark.parametrize(
        "encode", [protocol.encode_frame, protocol.encode_frame_v2], ids=["v1", "v2"]
    )
    @pytest.mark.parametrize(
        "value",
        [TELLER, make_request(), make_deny().violation],
        ids=["Role", "DecisionRequest", "MSoDViolation"],
    )
    def test_both_frame_encoders_refuse_tuple_backed_values(self, encode, value):
        name = type(value).__name__
        for body in (value, [value], {"k": value}):
            frame = protocol.response_frame("f-1", protocol.OP_DECIDE, "body", body)
            with pytest.raises(ProtocolError, match=f"cannot encode {name} values"):
                encode(frame)

    def test_bytes_are_refused(self):
        for payload in (b"", [b"\x00\xff"], {"k": b"y"}):
            with pytest.raises(ProtocolError, match="cannot encode bytes"):
                protocol.pack_payload(payload)

    @pytest.mark.parametrize("value", [2**64, -(2**63) - 1, 10**30])
    def test_integers_wider_than_64_bits_are_refused(self, value):
        for payload in (value, [value], {"k": value}):
            with pytest.raises(ProtocolError, match="exceeds 64 bits"):
                protocol.pack_payload(payload)
        # The decoder keeps the same bound on what a peer sends.
        with pytest.raises(ProtocolError, match="exceeds 64 bits"):
            protocol.decode_frame_v2(b'{"v":2,"n":%d}' % value)

    def test_int_str_and_float_subclasses_encode_as_their_base(self):
        class Count(int):
            pass

        class Name(str):
            pass

        class Ratio(float):
            pass

        packed = protocol.pack_payload([Count(7), Name("n"), Ratio(0.5)])
        assert packed == protocol.pack_payload([7, "n", 0.5])


class TestLoneSurrogates:
    """JSON can escape a lone UTF-16 surrogate that UTF-8 cannot carry;
    shard hashing and SQLite would fail on the decoded string."""

    @staticmethod
    def frames(user_id: str):
        request = json.dumps(protocol.request_to_wire(make_request()))
        request = request.replace('"alice"', f'"{user_id}"').encode()
        return (
            b'{"v":1,"id":"x","op":"decide","request":' + request + b"}\n",
            b'{"v":2,"id":"y","op":"decide-batch","requests":['
            + request + b"]}",
        )

    @pytest.mark.parametrize(
        "escape",
        ["\\ud800", "\\uDBFF", "\\udc00", "a\\ud800b", "\\udc00\\ud800"],
        ids=["high", "high-upper", "low", "inside-text", "reversed-pair"],
    )
    def test_a_lone_surrogate_escape_is_refused(self, escape):
        line, payload = self.frames(escape)
        with pytest.raises(ProtocolError, match="surrogates not allowed"):
            protocol.decode_frame(line)
        with pytest.raises(ProtocolError, match="surrogates not allowed"):
            protocol.decode_frame_v2(payload)

    @pytest.mark.parametrize(
        "escape, text",
        [("\\ud83d\\ude00", "\U0001F600"), ("\\\\ud800", "\\ud800")],
        ids=["surrogate-pair", "escaped-backslash"],
    )
    def test_text_a_surrogate_escape_may_spell_decodes(self, escape, text):
        line, payload = self.frames(escape)
        assert protocol.decode_frame(line)["request"]["user_id"] == text
        frame = protocol.decode_frame_v2(payload)
        [request] = protocol.batch_requests_of(frame)
        assert request.user_id == text
        # The encoder escapes a non-BMP character as such a pair.
        assert protocol.unpack_payload(protocol.pack_payload(text)) == text


#: 100 000 open brackets: a 100 kB line, well under ``MAX_FRAME_BYTES``,
#: nested far past the interpreter's recursion limit.
DEEP = b"[" * 100_000


class TestDeepNesting:
    """Nesting that exhausts the C decoder's recursion guard, or passes
    the depth cap, is a ProtocolError on every decode path."""

    @pytest.mark.parametrize(
        "decode, data",
        [
            (protocol.decode_frame, b'{"v":1,"id":1,"x":' + DEEP + b"}\n"),
            (protocol.decode_frame_v2, b'{"v":2,"id":1,"x":' + DEEP + b"}"),
            (decode_response_line,
             b'{"v":1,"id":"c-1","ok":true,"body":' + DEEP + b"}\n"),
        ],
        ids=["v1-line", "v2-payload", "response-line"],
    )
    def test_nesting_past_the_recursion_limit(self, decode, data):
        assert len(data) < protocol.MAX_FRAME_BYTES
        with pytest.raises(ProtocolError):
            decode(data)

    @pytest.mark.parametrize(
        "decode, version",
        [(protocol.decode_frame, 1), (protocol.decode_frame_v2, 2)],
        ids=["v1", "v2"],
    )
    def test_nesting_past_the_depth_cap_is_refused_on_decode(
        self, decode, version
    ):
        def frame(levels):
            # The frame object is one level; its value nests the rest.
            value = b"[" * levels + b"0" + b"]" * levels
            return b'{"v":%d,"x":%s}' % (version, value)

        assert decode(frame(protocol.MAX_PAYLOAD_DEPTH - 1))
        with pytest.raises(ProtocolError, match="nests too deeply"):
            decode(frame(protocol.MAX_PAYLOAD_DEPTH))


class TestV2Negotiation:
    def test_decide_batch_is_not_a_v1_op(self):
        # v1 endpoints must keep rejecting the batch verb.
        assert protocol.OP_DECIDE_BATCH not in protocol.KNOWN_OPS
        assert protocol.OP_DECIDE_BATCH in protocol.V2_OPS


class TestV2FramingRejection:
    def good(self):
        return v2_frame_bytes(
            {"op": protocol.OP_DECIDE_BATCH, "id": "c-1",
             "requests": [protocol.request_to_wire(make_request())]}
        )

    def test_truncated_header_prefixes(self):
        header, _ = self.good()
        for cut in range(len(header)):
            with pytest.raises(ProtocolError):
                protocol.v2_payload_length(header[:cut])

    def test_v1_json_crosstalk_detected_as_bad_magic(self):
        # A v1 client's JSON line read as a v2 header: '{' != magic.
        with pytest.raises(ProtocolError) as excinfo:
            protocol.v2_payload_length(b'{"v": 1,')
        assert "magic" in str(excinfo.value)

    def test_v2_magic_is_invalid_utf8_lead_byte(self):
        # The reverse cross-talk: a v2 header sent to a v1 JSON endpoint
        # must fail UTF-8 decoding on the very first byte.
        header, _ = self.good()
        with pytest.raises(ProtocolError):
            protocol.decode_frame(header + b"\n")

    def test_oversized_declared_length(self):
        bad = protocol.V2_HEADER.pack(
            protocol.V2_MAGIC, 2, 0, protocol.MAX_FRAME_BYTES_V2 + 1
        )
        with pytest.raises(ProtocolError):
            protocol.v2_payload_length(bad)

    def test_zero_length_and_reserved_bits_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.v2_payload_length(
                protocol.V2_HEADER.pack(protocol.V2_MAGIC, 2, 0, 0)
            )
        with pytest.raises(ProtocolError):
            protocol.v2_payload_length(
                protocol.V2_HEADER.pack(protocol.V2_MAGIC, 2, 7, 10)
            )

    def test_wrong_version_byte(self):
        with pytest.raises(ProtocolError):
            protocol.v2_payload_length(
                protocol.V2_HEADER.pack(protocol.V2_MAGIC, 1, 0, 10)
            )

    def test_truncated_payload_prefixes_never_crash(self):
        _, payload = self.good()
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                protocol.decode_frame_v2(payload[:cut])

    def test_trailing_garbage_rejected(self):
        _, payload = self.good()
        with pytest.raises(ProtocolError):
            protocol.decode_frame_v2(payload + b"\x00")

    def test_non_map_payload_rejected(self):
        for value in (None, 7, "frame", [1, 2]):
            with pytest.raises(ProtocolError):
                protocol.decode_frame_v2(protocol.pack_payload(value))

    def test_random_payload_corruption_never_crashes(self):
        rng = random.Random(20260808)
        _, payload = self.good()
        for _ in range(600):
            corrupted = bytearray(payload)
            for _ in range(rng.randrange(1, 6)):
                corrupted[rng.randrange(len(corrupted))] = rng.randrange(256)
            try:
                frame = protocol.decode_frame_v2(bytes(corrupted))
                protocol.batch_requests_of(frame)
            except ProtocolError:
                pass  # the only acceptable failure mode

    def test_a_binpack_era_payload_is_refused(self):
        header = BINPACK_ERA_REQUEST[: protocol.V2_HEADER_BYTES]
        payload = BINPACK_ERA_REQUEST[protocol.V2_HEADER_BYTES :]
        # The header is still valid: the payload must fail on its own.
        assert protocol.v2_payload_length(header) == len(payload)
        with pytest.raises(ProtocolError, match="not valid UTF-8"):
            protocol.decode_frame_v2(payload)

    def test_random_byte_soup_never_crashes(self):
        rng = random.Random(11)
        for _ in range(600):
            soup = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 64))
            )
            try:
                protocol.decode_frame_v2(soup)
            except ProtocolError:
                pass


class TestV2BatchRejection:
    def frame(self, requests):
        return {"v": 2, "op": protocol.OP_DECIDE_BATCH, "id": "c-2",
                "requests": requests}

    def test_empty_batch_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.batch_requests_of(self.frame([]))

    def test_non_list_batch_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.batch_requests_of(self.frame({"0": {}}))

    def test_oversized_batch_rejected(self):
        wire = protocol.request_to_wire(make_request())
        requests = [wire] * (protocol.MAX_WIRE_BATCH + 1)
        with pytest.raises(ProtocolError):
            protocol.batch_requests_of(self.frame(requests))

    def test_mid_batch_garbage_rejects_whole_frame(self):
        # All-or-nothing: one malformed entry poisons the frame before
        # any sibling request can reach a shard queue.
        good = protocol.request_to_wire(make_request())
        for garbage in ({"user_id": 7}, None, "decide me", 4.2,
                        {**good, "timestamp": "noon"}):
            with pytest.raises(ProtocolError):
                protocol.batch_requests_of(self.frame([good, garbage, good]))

    def test_batch_result_count_mismatch_rejected(self):
        frame = {"v": 2, "ok": True, "id": "c-3",
                 "op": protocol.OP_DECIDE_BATCH,
                 "results": [{"ok": True, "decision": None}]}
        with pytest.raises(ProtocolError):
            protocol.batch_result_entries(frame, expected=2)
        with pytest.raises(ProtocolError):
            protocol.batch_result_entries({"results": "nope"}, expected=1)


if __name__ == "__main__":
    # Regenerate only for a deliberate wire-format change, from the
    # repository root: PYTHONPATH=src python -m tests.test_protocol
    GOLDEN_V2_FRAMES.write_text(
        json.dumps(golden_v2_snapshot(), indent=1) + "\n"
    )
