"""Unit tests for business-context names and matching (Section 2.2)."""

import pytest

from repro.core.context import (
    ALL_INSTANCES,
    PER_INSTANCE,
    ContextComponent,
    ContextHierarchy,
    ContextName,
    common_supercontext,
)
from repro.errors import ContextNameError


class TestContextComponent:
    def test_concrete_component(self):
        comp = ContextComponent("Branch", "York")
        assert comp.ctx_type == "Branch"
        assert comp.value == "York"
        assert not comp.is_wildcard

    def test_all_instances_wildcard(self):
        comp = ContextComponent("Branch", ALL_INSTANCES)
        assert comp.is_wildcard
        assert comp.is_all_instances
        assert not comp.is_per_instance

    def test_per_instance_wildcard(self):
        comp = ContextComponent("Period", PER_INSTANCE)
        assert comp.is_wildcard
        assert comp.is_per_instance

    def test_invalid_type_rejected(self):
        with pytest.raises(ContextNameError):
            ContextComponent("", "York")

    def test_type_cannot_contain_equals(self):
        with pytest.raises(ContextNameError):
            ContextComponent("a=b", "York")

    def test_value_cannot_contain_comma(self):
        with pytest.raises(ContextNameError):
            ContextComponent("Branch", "a,b")

    def test_wildcard_covers_any_value(self):
        wild = ContextComponent("Branch", "*")
        assert wild.covers(ContextComponent("Branch", "York"))
        assert wild.covers(ContextComponent("Branch", "Leeds"))

    def test_concrete_covers_only_itself(self):
        york = ContextComponent("Branch", "York")
        assert york.covers(ContextComponent("Branch", "York"))
        assert not york.covers(ContextComponent("Branch", "Leeds"))

    def test_covers_requires_same_type(self):
        wild = ContextComponent("Branch", "*")
        assert not wild.covers(ContextComponent("Period", "York"))

    def test_str(self):
        assert str(ContextComponent("Branch", "York")) == "Branch=York"


class TestParsing:
    def test_parse_paper_example(self):
        name = ContextName.parse("Branch=*, Period=!")
        assert len(name) == 2
        assert name[0].is_all_instances
        assert name[1].is_per_instance

    def test_parse_concrete(self):
        name = ContextName.parse("Branch=York, Period=2006")
        assert name.is_concrete
        assert str(name) == "Branch=York, Period=2006"

    def test_parse_empty_is_root(self):
        assert ContextName.parse("").is_root
        assert ContextName.parse("   ").is_root

    def test_parse_none_rejected(self):
        with pytest.raises(ContextNameError):
            ContextName.parse(None)

    def test_parse_missing_equals_rejected(self):
        with pytest.raises(ContextNameError):
            ContextName.parse("BranchYork")

    def test_parse_empty_component_rejected(self):
        with pytest.raises(ContextNameError):
            ContextName.parse("Branch=York,, Period=2006")

    def test_duplicate_type_rejected(self):
        with pytest.raises(ContextNameError):
            ContextName.parse("Branch=York, Branch=Leeds")

    def test_whitespace_tolerated(self):
        assert ContextName.parse(" Branch = York , Period = 2006 ") == (
            ContextName.parse("Branch=York, Period=2006")
        )

    def test_str_parse_round_trip(self):
        for text in ("", "A=1", "A=*, B=!", "Branch=York, Period=2006, Till=3"):
            assert str(ContextName.parse(text)) == text

    def test_repr_is_evaluable_form(self):
        name = ContextName.parse("A=1")
        assert repr(name) == "ContextName.parse('A=1')"

    def test_names_parsed_from_different_texts_share_common_components(self):
        york = ContextName.parse("Branch=York, Period=2006")
        leeds = ContextName.parse(" Branch = Leeds ,Period=2006, Till=3")
        assert york is not leeds
        assert york.components[1] is leeds.components[1]
        assert york.components[1].value is leeds.components[1].value
        assert york.components[0] is not leeds.components[0]
        hull = ContextName.parse("Branch=York, Period=2007")
        assert hull.components[0] is york.components[0]


class TestStructure:
    def test_root_properties(self):
        root = ContextName.root()
        assert root.is_root
        assert root.is_concrete
        assert root.parent is root or root.parent == root

    def test_child_extends(self):
        name = ContextName.root().child("Branch", "York").child("Period", "2006")
        assert str(name) == "Branch=York, Period=2006"

    def test_parent(self):
        name = ContextName.parse("Branch=York, Period=2006")
        assert str(name.parent) == "Branch=York"

    def test_ancestors_nearest_first(self):
        name = ContextName.parse("A=1, B=2, C=3")
        ancestors = [str(a) for a in name.ancestors()]
        assert ancestors == ["A=1, B=2", "A=1", ""]

    def test_has_wildcards(self):
        assert ContextName.parse("A=*").has_wildcards
        assert ContextName.parse("A=!").has_wildcards
        assert not ContextName.parse("A=1").has_wildcards

    @pytest.mark.parametrize(
        "policy, concrete",
        [("A=!, B=!", True), ("A=1, B=!", True), ("A=*, B=!", False), ("A=*", False)],
    )
    def test_instantiating_keeps_only_star_components_wild(self, policy, concrete):
        bound = ContextName.parse(policy).instantiate(ContextName.parse("A=1, B=2"))
        assert bound.is_concrete is concrete
        assert bound.has_wildcards is not concrete
        assert bound.is_concrete == ContextName.parse(str(bound)).is_concrete

    def test_equality_and_hash(self):
        a = ContextName.parse("A=1, B=2")
        b = ContextName.parse("A=1, B=2")
        assert a == b
        assert hash(a) == hash(b)
        assert a != ContextName.parse("A=1")

    def test_iteration(self):
        name = ContextName.parse("A=1, B=2")
        assert [str(c) for c in name] == ["A=1", "B=2"]


class TestMatching:
    """The step-1/step-3 matching rules of Section 4.2."""

    def test_everything_matches_universal_context(self):
        root = ContextName.root()
        for text in ("", "A=1", "A=1, B=2"):
            assert ContextName.parse(text).is_equal_or_subordinate_to(root)

    def test_equal_concrete_names_match(self):
        name = ContextName.parse("Branch=York, Period=2006")
        assert name.is_equal_or_subordinate_to(name)

    def test_subordinate_matches(self):
        policy = ContextName.parse("Branch=York")
        instance = ContextName.parse("Branch=York, Period=2006")
        assert instance.is_equal_or_subordinate_to(policy)
        assert instance.is_strictly_subordinate_to(policy)

    def test_superior_does_not_match(self):
        policy = ContextName.parse("Branch=York, Period=2006")
        instance = ContextName.parse("Branch=York")
        assert not instance.is_equal_or_subordinate_to(policy)

    def test_star_matches_all_instances(self):
        policy = ContextName.parse("Branch=*, Period=!")
        for branch in ("York", "Leeds"):
            instance = ContextName.parse(f"Branch={branch}, Period=2006")
            assert instance.is_equal_or_subordinate_to(policy)

    def test_concrete_policy_value_restricts(self):
        policy = ContextName.parse("Branch=York, Period=!")
        assert ContextName.parse(
            "Branch=York, Period=2006"
        ).is_equal_or_subordinate_to(policy)
        assert not ContextName.parse(
            "Branch=Leeds, Period=2006"
        ).is_equal_or_subordinate_to(policy)

    def test_type_mismatch_fails(self):
        policy = ContextName.parse("Branch=*")
        assert not ContextName.parse("Office=York").is_equal_or_subordinate_to(
            policy
        )

    def test_subordinate_of_wildcard_policy(self):
        policy = ContextName.parse("Branch=*, Period=!")
        deep = ContextName.parse("Branch=York, Period=2006, Till=3")
        assert deep.is_equal_or_subordinate_to(policy)

    def test_not_strictly_subordinate_to_self(self):
        name = ContextName.parse("A=1")
        assert not name.is_strictly_subordinate_to(name)


class TestInstantiate:
    def test_per_instance_rebinding(self):
        policy = ContextName.parse("Branch=*, Period=!")
        instance = ContextName.parse("Branch=York, Period=2006")
        effective = policy.instantiate(instance)
        assert str(effective) == "Branch=*, Period=2006"

    def test_all_instances_preserved(self):
        policy = ContextName.parse("Branch=*")
        instance = ContextName.parse("Branch=York, Period=2006")
        assert str(policy.instantiate(instance)) == "Branch=*"

    def test_concrete_policy_unchanged(self):
        policy = ContextName.parse("Branch=York")
        instance = ContextName.parse("Branch=York, Period=2006")
        assert policy.instantiate(instance) == policy

    def test_all_per_instance(self):
        policy = ContextName.parse("TaxOffice=!, taxRefundProcess=!")
        instance = ContextName.parse("TaxOffice=Leeds, taxRefundProcess=42")
        assert policy.instantiate(instance) == instance

    def test_non_matching_instance_rejected(self):
        policy = ContextName.parse("Branch=York, Period=!")
        with pytest.raises(ContextNameError):
            policy.instantiate(ContextName.parse("Branch=Leeds, Period=2006"))

    def test_effective_context_scopes_adi_matching(self):
        """After instantiation, other instances no longer match (DSD-like)."""
        policy = ContextName.parse("Branch=*, Period=!")
        effective = policy.instantiate(
            ContextName.parse("Branch=York, Period=2006")
        )
        same_period_other_branch = ContextName.parse("Branch=Leeds, Period=2006")
        other_period = ContextName.parse("Branch=York, Period=2007")
        assert same_period_other_branch.is_equal_or_subordinate_to(effective)
        assert not other_period.is_equal_or_subordinate_to(effective)


class TestCommonSupercontext:
    def test_empty_input_is_root(self):
        assert common_supercontext([]).is_root

    def test_single_name(self):
        name = ContextName.parse("A=1, B=2")
        assert common_supercontext([name]) == name

    def test_diverging_names(self):
        a = ContextName.parse("Branch=York, Period=2006")
        b = ContextName.parse("Branch=York, Period=2007")
        assert str(common_supercontext([a, b])) == "Branch=York"

    def test_totally_different_names(self):
        a = ContextName.parse("Branch=York")
        b = ContextName.parse("TaxOffice=Leeds")
        assert common_supercontext([a, b]).is_root

    def test_prefix_relationship(self):
        a = ContextName.parse("A=1")
        b = ContextName.parse("A=1, B=2, C=3")
        assert common_supercontext([a, b]) == a


class TestContextHierarchy:
    def test_start_and_is_active(self):
        hierarchy = ContextHierarchy()
        instance = ContextName.parse("Branch=York, Period=2006")
        hierarchy.start(instance)
        assert hierarchy.is_active(instance)

    def test_cannot_start_wildcard_context(self):
        hierarchy = ContextHierarchy()
        with pytest.raises(ContextNameError):
            hierarchy.start(ContextName.parse("Branch=*"))

    def test_containing_context_inferred_active(self):
        hierarchy = ContextHierarchy()
        hierarchy.start(ContextName.parse("Branch=York, Period=2006"))
        assert hierarchy.is_active(ContextName.parse("Branch=York"))

    def test_finish_terminates_subordinates(self):
        hierarchy = ContextHierarchy()
        child_a = ContextName.parse("Branch=York, Period=2006")
        child_b = ContextName.parse("Branch=York, Period=2007")
        other = ContextName.parse("Branch=Leeds, Period=2006")
        for instance in (child_a, child_b, other):
            hierarchy.start(instance)
        terminated = hierarchy.finish(ContextName.parse("Branch=York"))
        assert terminated == {child_a, child_b}
        assert not hierarchy.is_active(child_a)
        assert hierarchy.is_active(other)

    def test_finish_returns_empty_when_nothing_matches(self):
        hierarchy = ContextHierarchy()
        assert hierarchy.finish(ContextName.parse("Branch=York")) == frozenset()
