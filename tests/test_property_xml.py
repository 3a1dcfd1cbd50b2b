"""Property-based round-trip tests for the XML policy language."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import MMCD, MMEP, MMER, AdminBoundary, Privilege, Role
from repro.core.context import ContextComponent, ContextName
from repro.core.policy import MSoDPolicy, MSoDPolicySet, Step
from repro.xmlpolicy import (
    parse_policy_set,
    validate_policy_document,
    write_policy_set,
)
from repro.xmlpolicy.dsl import parse_constraint_repr

_token = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
    min_size=1,
    max_size=10,
)


@st.composite
def roles(draw):
    return Role(draw(_token), draw(_token))


@st.composite
def privileges(draw):
    return Privilege(draw(_token), "http://example.com/" + draw(_token))


@st.composite
def mmers(draw):
    role_list = draw(
        st.lists(roles(), min_size=2, max_size=5, unique_by=lambda r: (r.role_type, r.value))
    )
    cardinality = draw(st.integers(min_value=2, max_value=len(role_list)))
    return MMER(role_list, cardinality)


@st.composite
def mmeps(draw):
    privilege_list = draw(st.lists(privileges(), min_size=2, max_size=5))
    cardinality = draw(
        st.integers(min_value=2, max_value=len(privilege_list))
    )
    return MMEP(privilege_list, cardinality)


def _unique_privileges(min_size):
    return st.lists(
        privileges(),
        min_size=min_size,
        max_size=4,
        unique_by=lambda p: (p.operation, p.target),
    )


_KINDS = (
    mmers(),
    mmeps(),
    _unique_privileges(2).map(MMCD),
    st.builds(AdminBoundary, _token, _unique_privileges(1)),
)


def strict(policy_set):
    """True when every policy carries one constraint kind (Appendix A)."""
    return all(len({c.kind for c in p.constraints}) == 1 for p in policy_set)


@st.composite
def policies(draw, index=0):
    depth = draw(st.integers(min_value=1, max_value=3))
    components = [
        ContextComponent(
            draw(_token) + str(position),
            draw(st.one_of(_token, st.just("*"), st.just("!"))),
        )
        for position in range(depth)
    ]
    context = ContextName(components)
    # One kind (what strict parsing accepts) or a mixture of kinds.
    kinds = draw(st.sampled_from(_KINDS)) if draw(st.booleans()) else st.one_of(_KINDS)
    constraints = draw(st.lists(kinds, min_size=1, max_size=3))
    first_step = draw(
        st.one_of(st.none(), st.builds(Step, _token, _token))
    )
    last_step = draw(
        st.one_of(st.none(), st.builds(Step, _token, _token))
    )
    return MSoDPolicy(
        business_context=context,
        constraints=constraints,
        first_step=first_step,
        last_step=last_step,
        policy_id=f"policy-{index}",
    )


@st.composite
def policy_sets(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    return MSoDPolicySet(
        [draw(policies(index=index)) for index in range(count)]
    )


@given(policy_sets())
@settings(max_examples=100, deadline=None)
def test_write_parse_round_trip(policy_set):
    xml = write_policy_set(policy_set)
    restored = parse_policy_set(xml, strict=strict(policy_set))
    assert len(restored) == len(policy_set)
    for original, parsed in zip(policy_set, restored):
        assert parsed.business_context == original.business_context
        assert parsed.constraints == original.constraints
        assert parsed.first_step == original.first_step
        assert parsed.last_step == original.last_step
        assert parsed.policy_id == original.policy_id


@given(policy_sets())
@settings(max_examples=100, deadline=None)
def test_written_documents_validate_cleanly(policy_set):
    xml = write_policy_set(policy_set)
    assert validate_policy_document(xml, strict=strict(policy_set)) == []


@given(policy_sets(), st.booleans())
@settings(max_examples=50, deadline=None)
def test_round_trip_is_idempotent(policy_set, pretty):
    once = write_policy_set(policy_set, pretty=pretty)
    twice = write_policy_set(
        parse_policy_set(once, strict=strict(policy_set)), pretty=pretty
    )
    assert once == twice


@given(policy_sets())
@settings(max_examples=50, deadline=None)
def test_repr_round_trip(policy_set):
    # compile(decompile(s)) over this strategy: tests/test_dsl.py.
    for policy in policy_set:
        for constraint in policy.constraints:
            assert parse_constraint_repr(repr(constraint)) == constraint
