"""Unit tests for decision types and finer engine semantics."""

import socket

import pytest

from repro.api import open_pdp, open_server
from repro.core import (
    MMEP,
    MMER,
    ContextName,
    Decision,
    DecisionRequest,
    Effect,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Privilege,
    Role,
    next_request_id,
)
from repro.core.policy import Step
from repro.errors import PolicyError
from repro.server import protocol

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
P1 = Privilege("op1", "t://1")
P2 = Privilege("op2", "t://2")
CTX = ContextName.parse("P=1")


def request(user="u", roles=(TELLER,), privilege=P1, context=CTX, at=1.0):
    return DecisionRequest(
        user_id=user,
        roles=tuple(roles),
        operation=privilege.operation,
        target=privilege.target,
        context_instance=context,
        timestamp=at,
    )


class TestDecisionRequest:
    def test_request_ids_are_unique(self):
        assert next_request_id() != next_request_id()
        assert request().request_id != request().request_id

    def test_privilege_property(self):
        assert request().privilege == P1

    def test_environment_defaults_empty(self):
        assert dict(request().environment) == {}


class TestNonFiniteTimestamp:
    """A grant's timestamp becomes its records' time, so every store must
    refuse the same non-finite one, before anything is written."""

    POLICY = MSoDPolicySet([MSoDPolicy(CTX, mmers=[MMER([TELLER, AUDITOR], 2)])])
    SPECS = {
        "memory": lambda tmp_path: "memory",
        "sqlite": lambda tmp_path: f"sqlite:{tmp_path / 'adi.db'}",
        "tiered": lambda tmp_path: f"tiered:sqlite:{tmp_path / 'adi.db'}?hot_users=1",
    }

    @pytest.mark.parametrize("at", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("store", sorted(SPECS))
    def test_every_store_refuses_alike_and_writes_nothing(self, tmp_path, store, at):
        with open_pdp(self.POLICY, self.SPECS[store](tmp_path)) as pdp:
            with pytest.raises(PolicyError, match="finite number"):
                pdp.decide(request(at=at))
            assert pdp.decide(request(at=2.0)).granted
            assert {r.granted_at for r in pdp.store.records()} == {2.0}

    @pytest.mark.parametrize("at", ["1.0", None])
    def test_a_timestamp_that_is_no_number_is_refused(self, at):
        with pytest.raises(PolicyError, match="finite number"):
            request(at=at)

    def test_a_v2_frame_carrying_nan_is_refused(self):
        wire = protocol.request_to_wire(request())
        wire["timestamp"] = float("nan")  # json reads it back as NaN
        frame = {"op": protocol.OP_DECIDE_BATCH, "id": "b-nan", "requests": [wire]}
        with open_server(self.POLICY, store="memory") as server:
            with socket.create_connection((server.host, server.port), timeout=5) as sock:
                sock.sendall(protocol.encode_frame_v2(frame))
                answer = sock.makefile("rb")
                header = answer.read(protocol.V2_HEADER_BYTES)
                reply = protocol.decode_frame_v2(
                    answer.read(protocol.v2_payload_length(header))
                )
            assert reply["ok"] is False
            assert reply["error"]["kind"] == "protocol"
            assert "finite number" in reply["error"]["detail"]
            assert server.engine.store.count() == 0


class TestDecision:
    def test_str_for_grant(self):
        decision = Decision(effect=Effect.GRANT, request=request())
        text = str(decision)
        assert text.startswith("GRANT u op1@t://1")
        assert "[P=1]" in text

    def test_granted_denied_flags(self):
        grant = Decision(effect=Effect.GRANT, request=request())
        deny = Decision(effect=Effect.DENY, request=request())
        assert grant.granted and not grant.denied
        assert deny.denied and not deny.granted


class TestEngineRecordSemantics:
    def test_mmer_records_one_per_matched_role(self):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmers=[MMER([TELLER, AUDITOR, Role("e", "X")], 3)],
                    policy_id="p",
                )
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        decision = engine.check(request(roles=(TELLER, AUDITOR)))
        assert decision.granted
        # Context-start base record + one record per matched role.
        role_records = [
            record
            for record in engine.store.records()
            if len(record.roles) == 1
        ]
        assert {record.roles[0] for record in role_records} == {TELLER, AUDITOR}

    def test_records_share_request_id(self):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmers=[MMER([TELLER, AUDITOR, Role("e", "X")], 3)],
                    policy_id="p",
                )
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        engine.check(request(roles=(TELLER, AUDITOR)))
        request_ids = {record.request_id for record in engine.store.records()}
        assert len(request_ids) == 1

    def test_mmep_exercise_counting_ignores_same_request_duplicates(self):
        """A request matching two MMEPs writes two records but counts as
        one exercise."""
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmeps=[MMEP([P1, P1, P1], 3), MMEP([P1, P2], 2)],
                    policy_id="p",
                )
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        # MMEP({P1,P1,P1},3) allows two exercises of P1 per user.
        assert engine.check(request(at=1.0)).granted
        assert engine.check(request(at=2.0)).granted
        assert engine.check(request(at=3.0)).denied

    def test_mmep_cross_privilege_cardinality(self):
        """MMEP({P1,P2},2): one of each is already too many."""
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmeps=[MMEP([P1, P2], 2)],
                    policy_id="p",
                )
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        assert engine.check(request(privilege=P1, at=1.0)).granted
        assert engine.check(request(privilege=P2, at=2.0)).denied
        # A different user is unaffected.
        assert engine.check(request(user="v", privilege=P2, at=3.0)).granted

    def test_mmep_three_of_three(self):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmeps=[
                        MMEP([P1, P2, Privilege("op3", "t://3")], 3)
                    ],
                    policy_id="p",
                )
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        assert engine.check(request(privilege=P1, at=1.0)).granted
        assert engine.check(request(privilege=P2, at=2.0)).granted
        assert engine.check(
            request(privilege=Privilege("op3", "t://3"), at=3.0)
        ).denied

    def test_last_step_also_checked_against_constraints(self):
        """A last step that itself violates an MMEP is denied, and the
        context is NOT terminated."""
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmeps=[MMEP([P1, P2], 2)],
                    last_step=Step(P2.operation, P2.target),
                    policy_id="p",
                )
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        assert engine.check(request(privilege=P1, at=1.0)).granted
        denied = engine.check(request(privilege=P2, at=2.0))
        assert denied.denied
        assert engine.store.count() > 0  # history survives
        # Another user performing the last step terminates the context.
        closed = engine.check(request(user="v", privilege=P2, at=3.0))
        assert closed.granted
        assert engine.store.count() == 0

    def test_violation_details_populated(self):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="bank",
                )
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        engine.check(request(roles=(TELLER,), at=1.0))
        denied = engine.check(request(roles=(AUDITOR,), at=2.0))
        violation = denied.violation
        assert violation.policy_id == "bank"
        assert violation.constraint_kind == "MMER"
        assert "Teller" in violation.constraint_repr
        assert str(violation.effective_context) == "P=1"

    def test_adi_mutation_exposed_on_grant(self):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    last_step=Step(P2.operation, P2.target),
                    policy_id="p",
                )
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        grant = engine.check(request(at=1.0))
        assert len(grant.adi_adds) == grant.records_added > 0
        closing = engine.check(request(user="v", privilege=P2, at=2.0))
        assert closing.adi_purged_contexts == (ContextName.parse("P=1"),)
