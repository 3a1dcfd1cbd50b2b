"""Unit tests for ``analyze_policy``: the static verifier over a PERMIS
policy (``repro lint``)."""

from repro.core import Privilege, Role
from repro.permis import (
    PermisPolicyBuilder,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    analyze_policy,
)
from repro.verify import analyze_policy_set
from repro.verify.static import (
    FIRST_STEP_UNGRANTABLE,
    LAST_STEP_UNGRANTABLE,
    LIFECYCLE_NO_LAST_STEP,
    MMEP_UNSATISFIABLE,
    MMER_DEAD_ROLES,
    MMER_UNSATISFIABLE,
    RBAC_UNREACHABLE_RULE,
    SCOPE_SHADOWED,
    SCOPE_UNIVERSAL,
)
from repro.xmlpolicy import bank_policy_set, combined_policy_set

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
CLERK = Role("employee", "Clerk")
MANAGER = Role("employee", "Manager")
GHOST = Role("employee", "Ghost")

HANDLE_CASH = Privilege("handleCash", "till://main")
AUDIT_BOOKS = Privilege("auditBooks", "ledger://main")
COMMIT_AUDIT = Privilege("CommitAudit", "http://audit.location.com/audit")
PREPARE = Privilege("prepareCheck", "http://www.myTaxOffice.com/Check")
APPROVE = Privilege("approve/disapproveCheck", "http://www.myTaxOffice.com/Check")
COMBINE = Privilege("combineResults", "http://secret.location.com/results")
CONFIRM = Privilege("confirmCheck", "http://secret.location.com/audit")

SOA = "cn=soa,o=bank,c=gb"


def healthy_policy():
    return (
        PermisPolicyBuilder()
        .allow_assignment(SOA, [TELLER, AUDITOR, CLERK, MANAGER], "o=bank,c=gb")
        .grant(TELLER, [HANDLE_CASH])
        .grant(AUDITOR, [AUDIT_BOOKS, COMMIT_AUDIT])
        .grant(CLERK, [PREPARE, CONFIRM])
        .grant(MANAGER, [APPROVE, COMBINE])
        .with_msod(combined_policy_set())
        .build()
    )


def severities(findings):
    return [finding.severity for finding in findings]


def reported(findings, code, severity):
    return any(
        finding.code == code and finding.severity == severity
        for finding in findings
    )


def codes(findings):
    return {finding.code for finding in findings}


class TestHealthyPolicy:
    def test_no_errors_on_the_paper_setup(self):
        findings = analyze_policy(healthy_policy())
        assert SEVERITY_ERROR not in severities(findings)

    def test_str_rendering(self):
        findings = analyze_policy(healthy_policy())
        for finding in findings:
            assert finding.severity in str(finding)

    def test_is_the_verifier_over_the_permis_policy(self):
        policy = healthy_policy()
        assert analyze_policy(policy) == list(
            analyze_policy_set(policy.msod_policy_set, permis=policy).findings
        )


class TestMMERFindings:
    def test_unassignable_conflict_role_is_error(self):
        policy = (
            PermisPolicyBuilder()
            .allow_assignment(SOA, [TELLER], "o=bank,c=gb")
            .grant(TELLER, [HANDLE_CASH])
            .grant(AUDITOR, [AUDIT_BOOKS, COMMIT_AUDIT])
            .with_msod(bank_policy_set())
            .build()
        )
        findings = analyze_policy(policy)
        assert reported(findings, MMER_UNSATISFIABLE, SEVERITY_ERROR)

    def test_role_assignable_through_senior_is_not_error(self):
        policy = (
            PermisPolicyBuilder()
            .senior_to(MANAGER, TELLER)
            .allow_assignment(SOA, [MANAGER, AUDITOR], "o=bank,c=gb")
            .grant(TELLER, [HANDLE_CASH])
            .grant(AUDITOR, [AUDIT_BOOKS, COMMIT_AUDIT])
            .with_msod(bank_policy_set())
            .build()
        )
        findings = analyze_policy(policy)
        assert SEVERITY_ERROR not in severities(findings)

    def test_partially_dead_mmer_is_warning(self):
        from repro.core import MMER, ContextName, MSoDPolicy, MSoDPolicySet

        msod = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmers=[MMER([TELLER, AUDITOR, GHOST], 2)],
                    policy_id="p",
                )
            ]
        )
        policy = (
            PermisPolicyBuilder()
            .allow_assignment(SOA, [TELLER, AUDITOR], "o=bank,c=gb")
            .grant(TELLER, [HANDLE_CASH])
            .with_msod(msod)
            .build()
        )
        findings = analyze_policy(policy)
        assert reported(findings, MMER_DEAD_ROLES, SEVERITY_WARNING)


class TestMMEPAndLifecycleFindings:
    def test_dead_mmep_is_error(self):
        policy = (
            PermisPolicyBuilder()
            .allow_assignment(SOA, [CLERK, MANAGER], "o=bank,c=gb")
            .grant(CLERK, [HANDLE_CASH])  # tax privileges never granted
            .with_msod(
                __import__(
                    "repro.xmlpolicy", fromlist=["tax_refund_policy_set"]
                ).tax_refund_policy_set()
            )
            .build()
        )
        findings = analyze_policy(policy)
        assert reported(findings, MMEP_UNSATISFIABLE, SEVERITY_ERROR)

    def test_missing_last_step_is_growth_warning(self):
        from repro.core import MMER, ContextName, MSoDPolicy, MSoDPolicySet

        msod = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="open-ended",
                )
            ]
        )
        policy = (
            PermisPolicyBuilder()
            .allow_assignment(SOA, [TELLER, AUDITOR], "o=bank,c=gb")
            .grant(TELLER, [HANDLE_CASH])
            .with_msod(msod)
            .build()
        )
        findings = analyze_policy(policy)
        assert reported(findings, LIFECYCLE_NO_LAST_STEP, SEVERITY_WARNING)

    def test_ungrantable_last_step_is_error(self):
        policy = (
            PermisPolicyBuilder()
            .allow_assignment(SOA, [TELLER, AUDITOR], "o=bank,c=gb")
            .grant(TELLER, [HANDLE_CASH])
            .grant(AUDITOR, [AUDIT_BOOKS])  # CommitAudit never granted
            .with_msod(bank_policy_set())
            .build()
        )
        findings = analyze_policy(policy)
        assert reported(findings, LAST_STEP_UNGRANTABLE, SEVERITY_ERROR)

    def test_last_step_granted_only_to_unassignable_role_is_error(self):
        policy = (
            PermisPolicyBuilder()
            .allow_assignment(SOA, [TELLER, AUDITOR], "o=bank,c=gb")
            .grant(TELLER, [HANDLE_CASH])
            .grant(AUDITOR, [AUDIT_BOOKS])
            .grant(GHOST, [COMMIT_AUDIT])  # no SOA assigns Ghost
            .with_msod(bank_policy_set())
            .build()
        )
        findings = analyze_policy(policy)
        assert SEVERITY_ERROR in severities(findings)  # so lint exits 1
        assert reported(findings, LAST_STEP_UNGRANTABLE, SEVERITY_ERROR)

    def test_ungrantable_first_step_is_error(self):
        policy = (
            PermisPolicyBuilder()
            .allow_assignment(SOA, [CLERK, MANAGER], "o=bank,c=gb")
            .grant(CLERK, [CONFIRM])  # prepareCheck never granted
            .grant(MANAGER, [APPROVE, COMBINE])
            .with_msod(
                __import__(
                    "repro.xmlpolicy", fromlist=["tax_refund_policy_set"]
                ).tax_refund_policy_set()
            )
            .build()
        )
        findings = analyze_policy(policy)
        assert reported(findings, FIRST_STEP_UNGRANTABLE, SEVERITY_ERROR)


class TestRBACAndScopeFindings:
    def test_unreachable_access_rule_warning(self):
        policy = (
            PermisPolicyBuilder()
            .allow_assignment(SOA, [TELLER], "o=bank,c=gb")
            .grant(GHOST, [AUDIT_BOOKS])
            .build()
        )
        findings = analyze_policy(policy)
        assert reported(findings, RBAC_UNREACHABLE_RULE, SEVERITY_WARNING)

    def test_hierarchy_reachable_rule_not_flagged(self):
        policy = (
            PermisPolicyBuilder()
            .senior_to(MANAGER, TELLER)
            .allow_assignment(SOA, [MANAGER], "o=bank,c=gb")
            .grant(TELLER, [HANDLE_CASH])
            .build()
        )
        findings = analyze_policy(policy)
        assert RBAC_UNREACHABLE_RULE not in codes(findings)

    def test_three_level_hierarchy_reachable_rule_not_flagged(self):
        # Regression: reachability must close over the *transitive*
        # hierarchy — a role assignable only through a grandparent
        # senior was falsely flagged by the one-hop check.
        director = Role("employee", "Director")
        policy = (
            PermisPolicyBuilder()
            .senior_to(director, MANAGER)
            .senior_to(MANAGER, TELLER)
            .allow_assignment(SOA, [director], "o=bank,c=gb")
            .grant(TELLER, [HANDLE_CASH])
            .build()
        )
        findings = analyze_policy(policy)
        assert RBAC_UNREACHABLE_RULE not in codes(findings)

    def test_universal_scope_is_info(self):
        from repro.core import MMER, ContextName, MSoDPolicy, MSoDPolicySet

        msod = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.root(),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="universal",
                )
            ]
        )
        policy = (
            PermisPolicyBuilder()
            .allow_assignment(SOA, [TELLER, AUDITOR], "o=bank,c=gb")
            .with_msod(msod)
            .build()
        )
        findings = analyze_policy(policy)
        assert reported(findings, SCOPE_UNIVERSAL, SEVERITY_INFO)

    def test_overlapping_scopes_reported(self):
        from repro.core import MMER, ContextName, MSoDPolicy, MSoDPolicySet

        msod = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="wide",
                ),
                MSoDPolicy(
                    ContextName.parse("Branch=York, Period=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="york",
                ),
            ]
        )
        policy = (
            PermisPolicyBuilder()
            .allow_assignment(SOA, [TELLER, AUDITOR], "o=bank,c=gb")
            .with_msod(msod)
            .build()
        )
        findings = analyze_policy(policy)
        # Identical constraints over a subordinate scope: the verifier's
        # more specific finding for that overlap.
        assert reported(findings, SCOPE_SHADOWED, SEVERITY_WARNING)
