"""Unit + property tests for the MSoD policy authoring DSL."""

import pytest
from hypothesis import given, settings

from repro.core import ContextName, Privilege, Role
from repro.errors import PolicyParseError
from repro.xmlpolicy import (
    compile_policy_set,
    decompile_policy_set,
    combined_policy_set,
    write_policy_set,
    parse_policy_set,
)

BANK_DSL = """
# Example 1 — bank cash processing
policy bank within "Branch=*, Period=!":
    last step CommitAudit on http://audit.location.com/audit
    mutually exclusive roles limit 2:
        employee:Teller, employee:Auditor
"""

TAX_DSL = """
policy tax within "TaxOffice=!, taxRefundProcess=!":
    first step prepareCheck on http://www.myTaxOffice.com/Check
    last step confirmCheck on http://secret.location.com/audit
    mutually exclusive privileges limit 2:
        prepareCheck on http://www.myTaxOffice.com/Check,
        confirmCheck on http://secret.location.com/audit
    mutually exclusive privileges limit 2:
        approve/disapproveCheck on http://www.myTaxOffice.com/Check,
        approve/disapproveCheck on http://www.myTaxOffice.com/Check,
        combineResults on http://secret.location.com/results
"""


class TestCompile:
    def test_bank_policy(self):
        policy_set = compile_policy_set(BANK_DSL)
        policy = policy_set.get("bank")
        assert policy.business_context == ContextName.parse("Branch=*, Period=!")
        assert policy.last_step.operation == "CommitAudit"
        assert set(policy.mmers[0].roles) == {
            Role("employee", "Teller"),
            Role("employee", "Auditor"),
        }

    def test_tax_policy_with_duplicate_privilege(self):
        policy_set = compile_policy_set(TAX_DSL)
        policy = policy_set.get("tax")
        assert policy.first_step.operation == "prepareCheck"
        approve = Privilege(
            "approve/disapproveCheck", "http://www.myTaxOffice.com/Check"
        )
        assert list(policy.mmeps[1].privileges).count(approve) == 2

    def test_dsl_matches_published_xml_semantics(self):
        """Compiling the DSL rendition equals parsing the paper's XML."""
        from_dsl = compile_policy_set(BANK_DSL + TAX_DSL)
        from_xml = combined_policy_set()
        for dsl_policy, xml_policy in zip(from_dsl, from_xml):
            assert dsl_policy.business_context == xml_policy.business_context
            assert list(dsl_policy.mmers) == list(xml_policy.mmers)
            assert list(dsl_policy.mmeps) == list(xml_policy.mmeps)
            assert dsl_policy.first_step == xml_policy.first_step
            assert dsl_policy.last_step == xml_policy.last_step

    def test_universal_context(self):
        policy_set = compile_policy_set(
            'policy universal within "":\n'
            "    mutually exclusive roles limit 2:\n"
            "        e:A, e:B\n"
        )
        assert policy_set.get("universal").business_context.is_root

    def test_comments_and_blank_lines_ignored(self):
        policy_set = compile_policy_set(
            "# leading comment\n\n" + BANK_DSL + "\n# trailing\n"
        )
        assert len(policy_set) == 1


class TestCompileErrors:
    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "no policies"),
            ("last step a on b\n", "outside a policy block"),
            ('policy p within "A=1"\n', "must end with ':'"),
            ('policy p "A=1":\n', "within"),
            ("policy p within A=1:\n", "double-quoted"),
            (
                'policy p within "A=1":\n    nonsense here\n',
                "unrecognised statement",
            ),
            (
                'policy p within "A=1":\n'
                "    mutually exclusive roles limit two:\n        e:A, e:B\n",
                "integer",
            ),
            (
                'policy p within "A=1":\n'
                "    mutually exclusive roles limit 2:\n",
                "needs at least one MMER or MMEP|list is empty",
            ),
            (
                'policy p within "A=1":\n'
                "    mutually exclusive roles limit 2:\n        NotARole\n",
                "type:value",
            ),
            (
                'policy p within "A=1":\n'
                "    mutually exclusive privileges limit 2:\n        op-only\n",
                "on",
            ),
            (
                'policy p within "A=1":\n'
                "    first step a on t\n    first step b on t\n"
                "    mutually exclusive roles limit 2:\n        e:A, e:B\n",
                "duplicate 'first step'",
            ),
            (
                'policy p within "not-a-context":\n'
                "    mutually exclusive roles limit 2:\n        e:A, e:B\n",
                "type=value",
            ),
        ],
    )
    def test_bad_input(self, text, match):
        with pytest.raises(PolicyParseError, match=match):
            compile_policy_set(text)

    def test_error_messages_carry_line_numbers(self):
        with pytest.raises(PolicyParseError, match="line 2"):
            compile_policy_set("\nsurprise\n")


class TestDecompile:
    def test_round_trip_paper_policies(self):
        original = combined_policy_set()
        text = decompile_policy_set(original)
        restored = compile_policy_set(text)
        for a, b in zip(original, restored):
            assert a.business_context == b.business_context
            assert a.constraints == b.constraints
            assert a.first_step == b.first_step
            assert a.last_step == b.last_step
            assert a.policy_id == b.policy_id

    def test_dsl_to_xml_pipeline(self):
        """DSL → model → XML → model stays equivalent."""
        policy_set = compile_policy_set(BANK_DSL + TAX_DSL)
        xml = write_policy_set(policy_set)
        restored = parse_policy_set(xml)
        assert len(restored) == 2
        for name in ("bank", "tax"):
            assert restored.get(name).constraints == policy_set.get(name).constraints


# Reuse the hypothesis strategy from the XML round-trip suite: its
# token alphabet is alphanumeric, which is within the DSL's lexical
# limits (no commas or '#' in names).
from tests.test_property_xml import policy_sets  # noqa: E402


@given(policy_sets())
@settings(max_examples=80, deadline=None)
def test_property_dsl_round_trip(policy_set):
    text = decompile_policy_set(policy_set)
    restored = compile_policy_set(text)
    assert len(restored) == len(policy_set)
    for original, parsed in zip(policy_set, restored):
        assert parsed.business_context == original.business_context
        assert parsed.constraints == original.constraints
        assert parsed.first_step == original.first_step
        assert parsed.last_step == original.last_step
