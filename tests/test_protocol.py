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


#: Every binpack tag family and its size-boundary transitions.
BINPACK_VALUES = [
    None, True, False,
    0, 1, -1, 31, 32, 127, 128, 255, 256, 65535, 65536,
    -32, -33, -128, -129, -32768, -32769,
    2**31 - 1, 2**31, 2**32, 2**63 - 1, -(2**63),
    0.0, -0.5, 17.25, 0.1 + 0.2, float("inf"),
    "", "x", "a" * 31, "a" * 32, "a" * 255, "a" * 256, "π" * 100,
    b"", b"\x00\xff", b"y" * 300,
    [], [1, [2, [3]]], list(range(20)),
    {}, {"k": "v"}, {str(i): i for i in range(40)},
]

GOLDEN_BINPACK = pathlib.Path(__file__).with_name("golden_binpack.json")


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


def golden_binpack_snapshot() -> dict:
    """The hex encodings :data:`GOLDEN_BINPACK` pins."""
    request, response = golden_batch_frames()
    return {
        "values": [protocol.pack_payload(v).hex() for v in BINPACK_VALUES],
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

    def test_binpack_value_fidelity(self):
        for value in BINPACK_VALUES:
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
    """The encoder's exact bytes, its limits and its string memo."""

    def test_bytes_match_the_golden_encodings(self):
        assert golden_binpack_snapshot() == json.loads(
            GOLDEN_BINPACK.read_text()
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

    def test_only_short_strings_are_memoised(self, monkeypatch):
        memo: dict = {}
        monkeypatch.setattr(protocol, "_STR_MEMO", memo)
        short = "s" * 64
        wide = "π" * 32  # 32 characters, 64 UTF-8 bytes
        long = "l" * 65
        wider = "π" * 33  # 66 UTF-8 bytes
        for value in (short, wide, long, wider):
            packed = protocol.pack_payload({value: [value]})
            assert protocol.unpack_payload(packed) == {value: [value]}
        assert set(memo) == {short, wide}
        assert memo[short] == protocol.pack_payload(short)

    def test_the_memo_stays_within_its_bound(self, monkeypatch):
        memo: dict = {}
        monkeypatch.setattr(protocol, "_STR_MEMO", memo)
        bound = protocol._STR_MEMO_MAX
        for index in range(bound + 10):
            protocol.pack_payload(f"user-{index}")
            assert len(memo) <= bound
        last = f"user-{bound + 9}"
        assert memo[last] == protocol.pack_payload(last)


class TestV2Negotiation:
    def test_hello_frame_is_v1(self):
        frame = protocol.hello_frame("c-1")
        assert frame["v"] == 1 and frame["op"] == protocol.OP_HELLO
        assert frame["max_version"] == protocol.MAX_PROTOCOL_VERSION

    def test_negotiated_version_caps_at_server_max(self):
        assert protocol.negotiated_version({"max_version": 1}) == 1
        assert protocol.negotiated_version({"max_version": 2}) == 2
        assert protocol.negotiated_version({"max_version": 99}) == (
            protocol.MAX_PROTOCOL_VERSION
        )

    @pytest.mark.parametrize("bad", [None, 0, -1, "2", True, [2]])
    def test_bad_max_version_rejected(self, bad):
        with pytest.raises(ProtocolError):
            protocol.negotiated_version({"max_version": bad})

    @pytest.mark.parametrize("body", [None, "2", [], {"version": "2"},
                                      {"version": 0}, {"version": True}])
    def test_bad_hello_body_rejected(self, body):
        with pytest.raises(ProtocolError):
            protocol.hello_body_version(body)

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
    GOLDEN_BINPACK.write_text(
        json.dumps(golden_binpack_snapshot(), indent=1) + "\n"
    )
