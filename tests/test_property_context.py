"""Property-based tests for context names and matching (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MMER, MSoDPolicy, MSoDPolicySet, Role
from repro.core.context import (
    ContextComponent,
    ContextName,
    common_supercontext,
)
from repro.core.policy_epoch import CompiledPolicyMatcher, policy_set_digest

# Token alphabet excludes '=', ',', whitespace, '*' and '!'.
_token = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="-_."
    ),
    min_size=1,
    max_size=8,
)

_value = st.one_of(_token, st.just("*"), st.just("!"))


@st.composite
def context_names(draw, concrete=False, max_depth=5):
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    components = []
    seen_types = set()
    for index in range(depth):
        ctx_type = draw(_token) + str(index)  # suffix guarantees uniqueness
        if ctx_type in seen_types:
            continue
        seen_types.add(ctx_type)
        value = draw(_token if concrete else _value)
        components.append(ContextComponent(ctx_type, value))
    return ContextName(components)


# Two types per position and one small shared value pool: the same value
# sits under different types at one position and at several depths, and
# names collide often, so an index keyed by (position, value) is
# exercised on everything it must leave to the matcher.
_POOL_TYPES = (("Dept", "Region"), ("Case", "Branch"), ("Step", "Till"), ("Leaf", "Tip"))


def pooled_names(values, max_depth):
    return st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(values)),
        max_size=max_depth,
    ).map(
        lambda picks: ContextName(
            ContextComponent(_POOL_TYPES[position][which], value)
            for position, (which, value) in enumerate(picks)
        )
    )


@given(context_names())
def test_str_parse_round_trip(name):
    assert ContextName.parse(str(name)) == name


@given(context_names())
def test_matching_is_reflexive(name):
    assert name.is_equal_or_subordinate_to(name)


@given(context_names())
def test_everything_matches_root(name):
    assert name.is_equal_or_subordinate_to(ContextName.root())


@given(context_names(concrete=True), context_names(concrete=True))
def test_concrete_matching_is_antisymmetric(a, b):
    """For concrete names, mutual matching implies equality."""
    if a.is_equal_or_subordinate_to(b) and b.is_equal_or_subordinate_to(a):
        assert a == b


@given(
    context_names(concrete=True),
    context_names(concrete=True),
    context_names(concrete=True),
)
def test_concrete_matching_is_transitive(a, b, c):
    if a.is_equal_or_subordinate_to(b) and b.is_equal_or_subordinate_to(c):
        assert a.is_equal_or_subordinate_to(c)


@given(context_names(concrete=True), _token, _token)
def test_child_is_strictly_subordinate(name, ctx_type, value):
    existing_types = {component.ctx_type for component in name}
    child_type = ctx_type + "_leaf"
    if child_type in existing_types:
        return
    child = name.child(child_type, value)
    assert child.is_strictly_subordinate_to(name)
    assert child.parent == name


@given(context_names(max_depth=4), context_names(concrete=True, max_depth=4))
@settings(max_examples=200)
def test_instantiate_result_covers_instance(policy, instance):
    """When an instance matches a policy, the instantiated context still
    matches the policy and is matched by the instance."""
    if not instance.is_equal_or_subordinate_to(policy):
        return
    effective = policy.instantiate(instance)
    assert len(effective) == len(policy)
    assert instance.is_equal_or_subordinate_to(effective)
    # '!' components are gone after instantiation.
    assert not any(component.is_per_instance for component in effective)
    # equal to the validating constructor's name over the re-bound pairs
    rebound = ContextName(
        ours if not ours.is_per_instance else theirs
        for ours, theirs in zip(policy, instance)
    )
    assert effective == rebound and hash(effective) == hash(rebound)
    assert effective.types == rebound.types and str(effective) == str(rebound)


@given(st.lists(context_names(concrete=True), min_size=1, max_size=5))
def test_common_supercontext_is_superior_to_all(names):
    ancestor = common_supercontext(names)
    for name in names:
        assert name.is_equal_or_subordinate_to(ancestor)


@given(st.lists(context_names(concrete=True), min_size=1, max_size=5))
def test_common_supercontext_is_deepest(names):
    """No strictly deeper common prefix exists."""
    ancestor = common_supercontext(names)
    if len(ancestor) == len(names[0]):
        return  # ancestor equals the shallowest possible already
    deeper = ContextName(names[0].components[: len(ancestor) + 1])
    assert not all(name.is_equal_or_subordinate_to(deeper) for name in names)


_SOME_MMER = MMER([Role("role", "A"), Role("role", "B")], 2)


@given(
    st.lists(pooled_names(("x", "y", "*", "!"), max_depth=3), max_size=12),
    st.lists(pooled_names(("x", "y", "z"), max_depth=4), min_size=1, max_size=6),
)
@settings(max_examples=200)
def test_policy_dispatch_is_the_scan_in_set_order(policy_contexts, instances):
    """Universal, all-wildcard, duplicate and differently-led policy
    contexts: the component-keyed dispatch selects exactly the policies
    a scan of the whole set selects, in the same order."""
    policy_set = MSoDPolicySet(
        MSoDPolicy(context, mmers=[_SOME_MMER], policy_id=f"p{number}")
        for number, context in enumerate(policy_contexts)
    )
    compiled = CompiledPolicyMatcher(policy_set, 1, policy_set_digest(policy_set))
    for instance in instances:
        scanned = tuple(
            policy for policy in policy_set if policy.applies_to(instance)
        )
        assert policy_set.matching(instance) == scanned
        assert compiled.matching(instance) == scanned  # dispatched
        assert compiled.matching(instance) == scanned  # from the memo
        assert policy_set.is_relevant(instance) == bool(scanned)
