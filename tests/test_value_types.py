"""The decision-path value types: ``Role``, ``Privilege``, the retained
record, ``DecisionRequest``, ``MSoDViolation`` and ``Decision`` are
tuples that keep the value semantics of frozen records — equality only
within one type, validation on construction, no assignment, and the
keyword ``repr``."""

import pytest

from repro.core import (
    ContextName,
    Decision,
    DecisionRequest,
    MSoDViolation,
    Privilege,
    RetainedADIRecord,
    Role,
)
from repro.errors import ConstraintError, PolicyError
from repro.obs.trace import DecisionTrace

CONTEXT = ContextName.parse("A=1")


def make_request():
    return DecisionRequest(
        "u", (Role("a", "b"),), "op", "t", CONTEXT, request_id="req-00000001"
    )


#: A record's fields, in order, as a plain tuple.
RECORD_FIELDS = ("u", (Role("a", "b"),), "op", "t", CONTEXT, 1.5, "req-1", None)


def make_record(record_id=None):
    return RetainedADIRecord(
        "u", (Role("a", "b"),), "op", "t", CONTEXT, 1.5, "req-1", record_id
    )


def make_violation():
    return MSoDViolation("p", "MMER", "MMER({a:b, a:c}, 2)", CONTEXT, "detail")


def make_trace():
    return DecisionTrace(
        request_id="req-00000001",
        user_id="u",
        effect="grant",
        total_s=0.001,
        requested_at=0.0,
    )


class TestTypedEquality:
    """Equal fields make equal values only within one type."""

    @pytest.mark.parametrize(
        "left, right",
        [
            (Role("a", "b"), Privilege("a", "b")),
            (Role("a", "b"), ("a", "b")),
            (Privilege("a", "b"), ("a", "b")),
            (make_record(), RECORD_FIELDS),
            (Decision("grant", make_request()), ("grant", make_request())),
            (make_request(), tuple(make_request())),
            (make_violation(), tuple(make_violation())),
            (make_violation(), make_request()),
        ],
        ids=[
            "role-privilege", "role-tuple", "privilege-tuple", "record",
            "decision", "request", "violation", "violation-request",
        ],
    )
    def test_different_types_are_unequal_both_ways(self, left, right):
        assert left != right and right != left
        assert not (left == right) and not (right == left)

    @pytest.mark.parametrize("cls", [Role, Privilege])
    def test_equal_fields_are_equal_and_hash_alike(self, cls):
        left, right = cls("a", "b"), cls("a", "b")
        assert left == right and not (left != right)
        assert hash(left) == hash(right)
        assert left != cls("a", "c")
        assert len({left, right, cls("a", "c")}) == 2

    def test_a_set_of_roles_does_not_hold_a_privilege_or_a_tuple(self):
        roles = {Role("a", "b")}
        assert Role("a", "b") in roles
        assert Privilege("a", "b") not in roles
        assert ("a", "b") not in roles
        assert Role("a", "b") not in {("a", "b"): 1}

    def test_records_compare_by_every_field(self):
        assert tuple(make_record()) == RECORD_FIELDS  # only the type differs
        assert make_record(7) == make_record(7)
        assert hash(make_record(7)) == hash(make_record(7))
        assert make_record(7) != make_record(8)
        assert make_record(7) != make_record()


class TestRequestValue:
    def test_equal_fields_are_equal(self):
        assert make_request() == make_request()
        assert make_violation() == make_violation()
        assert make_request() != make_request()._replace(target="t2")

    def test_default_requests_never_share_an_environment(self):
        first = DecisionRequest("u", (), "op", "t", CONTEXT)
        second = DecisionRequest("u", (), "op", "t", CONTEXT)
        assert first.environment == {} and first.environment is not second.environment
        assert first.request_id != second.request_id

    def test_replace_keeps_the_type(self):
        moved = make_request()._replace(user_id="v")
        assert type(moved) is DecisionRequest
        assert moved.user_id == "v" and moved[1:] == make_request()[1:]

    def test_hashing_a_request_fails_on_its_environment(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(make_request())

    @pytest.mark.parametrize(
        "fields, message",
        [
            (("", (), "op", "t", CONTEXT), "user's ID"),
            (("u", (), "op", "t", ContextName.parse("A=*")), "concrete"),
        ],
    )
    def test_construction_validates(self, fields, message):
        with pytest.raises(PolicyError, match=message):
            DecisionRequest(*fields)


class TestDecisionEquality:
    def test_trace_is_not_part_of_a_decision(self):
        plain = Decision("grant", make_request())
        traced = plain._replace(trace=make_trace())
        assert traced == plain and plain == traced
        assert not (traced != plain)

    def test_every_other_field_is(self):
        plain = Decision("grant", make_request())
        assert plain != plain._replace(reason="other")
        assert plain != plain._replace(policy_epoch=1)
        assert plain != plain._replace(effect="deny")


class TestValidation:
    @pytest.mark.parametrize(
        "cls, fields, message",
        [
            (Role, ("", "b"), "role type"),
            (Role, ("a", ""), "role value"),
            (Privilege, ("", "t"), "privilege operation"),
            (Privilege, ("op", ""), "privilege target"),
        ],
    )
    def test_empty_fields_raise(self, cls, fields, message):
        with pytest.raises(ConstraintError, match=message):
            cls(*fields)

    def test_keywords_are_validated_too(self):
        with pytest.raises(ConstraintError):
            Role(role_type="a", value="")
        assert Privilege(operation="op", target="t") == Privilege("op", "t")


class TestImmutability:
    @pytest.mark.parametrize(
        "value, name",
        [
            (Role("a", "b"), "value"),
            (Privilege("op", "t"), "target"),
            (make_record(), "record_id"),
            (make_request(), "environment"),
            (make_violation(), "detail"),
            (Decision("grant", make_request()), "trace"),
        ],
        ids=[
            "Role", "Privilege", "RetainedADIRecord", "DecisionRequest",
            "MSoDViolation", "Decision",
        ],
    )
    def test_assignment_raises(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1


class TestRepr:
    """Each ``repr`` is the keyword form the frozen dataclasses printed."""

    def test_role(self):
        assert repr(Role("employee", "Teller")) == (
            "Role(role_type='employee', value='Teller')"
        )

    def test_privilege(self):
        assert repr(Privilege("op", "t")) == "Privilege(operation='op', target='t')"

    def test_record(self):
        assert repr(make_record()) == (
            "RetainedADIRecord(user_id='u', roles=(Role(role_type='a', "
            "value='b'),), operation='op', target='t', "
            "context_instance=ContextName.parse('A=1'), granted_at=1.5, "
            "request_id='req-1', record_id=None)"
        )

    def test_decision(self):
        assert repr(Decision("grant", make_request())) == (
            "Decision(effect='grant', request=DecisionRequest(user_id='u', "
            "roles=(Role(role_type='a', value='b'),), operation='op', "
            "target='t', context_instance=ContextName.parse('A=1'), "
            "timestamp=0.0, environment={}, request_id='req-00000001'), "
            "violation=None, matched_policy_ids=(), records_added=0, "
            "records_purged=0, reason='', adi_adds=(), adi_purged_contexts=(), "
            "policy_epoch=0, policy_digest='', trace=None)"
        )
