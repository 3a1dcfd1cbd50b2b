"""Unit tests for the Appendix-A XML policy language."""

import pytest

from repro.core.constraints import Privilege, Role
from repro.core.context import ContextName
from repro.errors import PolicyParseError
from repro.xmlpolicy import (
    BANK_POLICY_XML,
    COMBINED_POLICY_XML,
    TAX_REFUND_POLICY_XML,
    bank_policy_set,
    combined_policy_set,
    parse_policy_set,
    tax_refund_policy_set,
    validate_policy_document,
    write_policy_set,
    write_policy_set_file,
    parse_policy_set_file,
)

_MMER = (
    "<MMER ForbiddenCardinality='2'>"
    "<Role type='t' value='a'/><Role type='t' value='b'/></MMER>"
)

#: A problem of every class, spread over five policies.
ALL_PROBLEMS_XML = (
    "<MSoDPolicySet>"
    "<MSoDPolicy>"
    "<MMER ForbiddenCardinality='9'>"
    "<Role type='t' value='a'/><Role value='b'/>"
    "</MMER></MSoDPolicy>"
    "<MSoDPolicy BusinessContext='B=!'/>"
    # One bad privilege child under each privilege-list parent.
    "<MSoDPolicy BusinessContext='C=!'>"
    "<MMEP ForbiddenCardinality='2'>"
    "<Privilege operation='x' target='u'/><Role type='t' value='a'/>"
    "</MMEP></MSoDPolicy>"
    "<MSoDPolicy BusinessContext='D=!'>"
    "<MMCD><Privilege operation='x' target='u'/>"
    "<Operation target='u'/></MMCD></MSoDPolicy>"
    "<MSoDPolicy BusinessContext='E=*'>"
    "<AdminBoundary Boundary='b'><Step/></AdminBoundary>"
    "</MSoDPolicy>"
    "</MSoDPolicySet>"
)

#: Documents only the model constructors refuse: a separate validator
#: that restated the structural rules passed all three.
DIVERGENT_DOCUMENTS = {
    "repeated-policy-id": (
        "<MSoDPolicySet>"
        f"<MSoDPolicy BusinessContext='A=!' PolicyId='p'>{_MMER}</MSoDPolicy>"
        f"<MSoDPolicy BusinessContext='B=!' PolicyId='p'>{_MMER}</MSoDPolicy>"
        "</MSoDPolicySet>"
    ),
    "unnamed-twins": (
        "<MSoDPolicySet>"
        f"<MSoDPolicy BusinessContext='A=!'>{_MMER}</MSoDPolicy>"
        f"<MSoDPolicy BusinessContext='A=!'>{_MMER}</MSoDPolicy>"
        "</MSoDPolicySet>"
    ),
    "empty-step-operation": (
        "<MSoDPolicySet><MSoDPolicy BusinessContext='A=!'>"
        f"<LastStep operation='' targetURI='t'/>{_MMER}"
        "</MSoDPolicy></MSoDPolicySet>"
    ),
}

#: One document per problem class, the all-problems document and the
#: divergent ones: the golden corpus of parse errors and reports.
INVALID_DOCUMENTS = {
    "all-problems": ALL_PROBLEMS_XML,
    "bad-root": "<Wrong/>",
    "empty-set": "<MSoDPolicySet></MSoDPolicySet>",
    "missing-context": (
        f"<MSoDPolicySet><MSoDPolicy>{_MMER}</MSoDPolicy></MSoDPolicySet>"
    ),
    "bad-context": (
        "<MSoDPolicySet><MSoDPolicy BusinessContext='not-a-context'>"
        f"{_MMER}</MSoDPolicy></MSoDPolicySet>"
    ),
    "repeated-step": (
        "<MSoDPolicySet><MSoDPolicy BusinessContext='A=!'>"
        "<FirstStep operation='a' targetURI='t'/>"
        f"<FirstStep operation='b' targetURI='t'/>{_MMER}"
        "</MSoDPolicy></MSoDPolicySet>"
    ),
    "non-integer-m": (
        "<MSoDPolicySet><MSoDPolicy BusinessContext='A=!'>"
        "<MMER ForbiddenCardinality='two'>"
        "<Role type='t' value='a'/><Role type='t' value='b'/>"
        "</MMER></MSoDPolicy></MSoDPolicySet>"
    ),
    "out-of-range-m": (
        "<MSoDPolicySet><MSoDPolicy BusinessContext='A=!'>"
        "<MMER ForbiddenCardinality='3'>"
        "<Role type='t' value='a'/><Role type='t' value='b'/>"
        "</MMER></MSoDPolicy></MSoDPolicySet>"
    ),
    "wrong-member": (
        "<MSoDPolicySet><MSoDPolicy BusinessContext='A=!'>"
        "<MMER ForbiddenCardinality='2'>"
        "<Role type='t' value='a'/><Privilege operation='x' target='u'/>"
        "</MMER></MSoDPolicy></MSoDPolicySet>"
    ),
    "missing-member-attribute": (
        "<MSoDPolicySet><MSoDPolicy BusinessContext='A=!'>"
        "<MMER ForbiddenCardinality='2'>"
        "<Role type='t' value='a'/><Role value='b'/>"
        "</MMER></MSoDPolicy></MSoDPolicySet>"
    ),
    "mixed-kinds": (
        "<MSoDPolicySet><MSoDPolicy BusinessContext='A=!'>"
        f"{_MMER}"
        "<MMEP ForbiddenCardinality='2'>"
        "<Privilege operation='x' target='u'/>"
        "<Privilege operation='y' target='u'/></MMEP>"
        "</MSoDPolicy></MSoDPolicySet>"
    ),
    **DIVERGENT_DOCUMENTS,
}


class TestParsePaperPolicies:
    def test_bank_policy(self):
        policy_set = bank_policy_set()
        assert len(policy_set) == 1
        policy = policy_set.policies[0]
        assert policy.business_context == ContextName.parse("Branch=*, Period=!")
        assert policy.first_step is None
        assert policy.last_step.operation == "CommitAudit"
        assert len(policy.mmers) == 1
        mmer = policy.mmers[0]
        assert mmer.forbidden_cardinality == 2
        assert set(mmer.roles) == {
            Role("employee", "Teller"),
            Role("employee", "Auditor"),
        }

    def test_tax_refund_policy(self):
        policy_set = tax_refund_policy_set()
        policy = policy_set.policies[0]
        assert policy.business_context == ContextName.parse(
            "TaxOffice=!, taxRefundProcess=!"
        )
        assert policy.first_step.operation == "prepareCheck"
        assert policy.last_step.operation == "confirmCheck"
        assert len(policy.mmeps) == 2
        duplicate = policy.mmeps[1]
        approve = Privilege(
            "approve/disapproveCheck", "http://www.myTaxOffice.com/Check"
        )
        assert list(duplicate.privileges).count(approve) == 2

    def test_combined_policy_set(self):
        assert len(combined_policy_set()) == 2

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "policy.xml")
        write_policy_set_file(combined_policy_set(), path)
        restored = parse_policy_set_file(path)
        assert len(restored) == 2


class TestParserErrors:
    def test_malformed_xml(self):
        with pytest.raises(PolicyParseError, match="not well-formed"):
            parse_policy_set("<MSoDPolicySet>")

    def test_wrong_root(self):
        with pytest.raises(PolicyParseError, match="root element"):
            parse_policy_set("<Wrong/>")

    def test_empty_policy_set(self):
        with pytest.raises(PolicyParseError, match="at least one"):
            parse_policy_set("<MSoDPolicySet></MSoDPolicySet>")

    def test_missing_business_context(self):
        xml = INVALID_DOCUMENTS["missing-context"]
        with pytest.raises(PolicyParseError, match="BusinessContext"):
            parse_policy_set(xml)

    def test_bad_cardinality(self):
        xml = INVALID_DOCUMENTS["non-integer-m"]
        with pytest.raises(PolicyParseError, match="not an integer"):
            parse_policy_set(xml)

    def test_single_role_mmer(self):
        xml = (
            "<MSoDPolicySet><MSoDPolicy BusinessContext='A=!'>"
            "<MMER ForbiddenCardinality='2'><Role type='t' value='a'/>"
            "</MMER></MSoDPolicy></MSoDPolicySet>"
        )
        with pytest.raises(PolicyParseError, match="at least 2"):
            parse_policy_set(xml)

    def test_unknown_element_in_policy(self):
        xml = (
            "<MSoDPolicySet><MSoDPolicy BusinessContext='A=!'>"
            "<Surprise/></MSoDPolicy></MSoDPolicySet>"
        )
        with pytest.raises(PolicyParseError, match="unexpected element"):
            parse_policy_set(xml)

    def test_multiple_first_steps(self):
        xml = INVALID_DOCUMENTS["repeated-step"]
        with pytest.raises(PolicyParseError, match="multiple <FirstStep>"):
            parse_policy_set(xml)

    def test_strict_rejects_mixed_constraints(self):
        xml = INVALID_DOCUMENTS["mixed-kinds"]
        with pytest.raises(PolicyParseError, match="either MMER or MMEP"):
            parse_policy_set(xml)
        relaxed = parse_policy_set(xml, strict=False)
        assert len(relaxed.policies[0].mmers) == 1
        assert len(relaxed.policies[0].mmeps) == 1

    def test_both_privilege_spellings_accepted(self):
        xml = (
            "<MSoDPolicySet><MSoDPolicy BusinessContext='A=!'>"
            "<MMEP ForbiddenCardinality='2'>"
            "<Privilege operation='x' target='u'/>"
            "<Operation value='y' target='u'/></MMEP>"
            "</MSoDPolicy></MSoDPolicySet>"
        )
        policy_set = parse_policy_set(xml)
        privileges = set(policy_set.policies[0].mmeps[0].privileges)
        assert privileges == {Privilege("x", "u"), Privilege("y", "u")}

    def test_bad_context_name(self):
        xml = INVALID_DOCUMENTS["bad-context"]
        with pytest.raises(PolicyParseError, match="bad BusinessContext"):
            parse_policy_set(xml)


class TestWriter:
    def test_round_trip_preserves_semantics(self):
        original = combined_policy_set()
        xml = write_policy_set(original)
        restored = parse_policy_set(xml)
        assert len(restored) == len(original)
        for a, b in zip(original, restored):
            assert a.business_context == b.business_context
            assert list(a.mmers) == list(b.mmers)
            assert list(a.mmeps) == list(b.mmeps)
            assert a.first_step == b.first_step
            assert a.last_step == b.last_step
            assert a.policy_id == b.policy_id

    def test_compact_output_parses(self):
        xml = write_policy_set(bank_policy_set(), pretty=False)
        assert "\n" not in xml
        assert len(parse_policy_set(xml)) == 1


#: The duty policy CI drives through the CLI: an MMCD binding plus the
#: policy-store admin boundary.
DUTY_POLICY_XML = (
    "<MSoDPolicySet>"
    "<MSoDPolicy BusinessContext='Filing=*, Case=!' PolicyId='filing-binding'>"
    "<MMCD>"
    "<Privilege operation='review' target='filing://annual'/>"
    "<Privilege operation='signoff' target='filing://annual'/>"
    "</MMCD></MSoDPolicy>"
    "<MSoDPolicy BusinessContext='Filing=*, Case=*' PolicyId='store-guard'>"
    "<AdminBoundary Boundary='policy-store'>"
    "<Privilege operation='policy-reload' target='pdp://management/policyStore'/>"
    "<Privilege operation='policy-export' target='pdp://management/policyStore'/>"
    "</AdminBoundary></MSoDPolicy>"
    "</MSoDPolicySet>"
)


class TestValidator:
    def test_paper_documents_valid(self):
        for xml in (
            BANK_POLICY_XML,
            TAX_REFUND_POLICY_XML,
            COMBINED_POLICY_XML,
            DUTY_POLICY_XML,
        ):
            assert validate_policy_document(xml) == []

    def test_reports_all_problems_in_one_pass(self):
        problems = validate_policy_document(ALL_PROBLEMS_XML)
        assert len(problems) >= 6
        assert any("BusinessContext" in p for p in problems)
        assert any("ForbiddenCardinality" in p for p in problems)
        assert any("missing attribute" in p for p in problems)
        assert "policy #3: MMEP contains unexpected <Role>" in problems
        assert (
            "policy #4: <Operation> is missing attribute 'value'" in problems
        )
        assert "policy #5: AdminBoundary contains unexpected <Step>" in problems

    @pytest.mark.parametrize("name", sorted(DIVERGENT_DOCUMENTS))
    def test_reports_what_the_parser_refuses(self, name):
        xml = DIVERGENT_DOCUMENTS[name]
        with pytest.raises(PolicyParseError) as refused:
            parse_policy_set(xml)
        assert validate_policy_document(xml) == [str(refused.value)]

    def test_not_xml(self):
        assert validate_policy_document("{json: true}") != []

    def test_empty_set(self):
        assert any(
            "no policies" in problem
            for problem in validate_policy_document("<MSoDPolicySet/>")
        )
