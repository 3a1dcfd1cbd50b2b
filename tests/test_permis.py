"""Unit tests for the PERMIS subsystem (Section 5, Figure 4)."""

import pytest

from repro.core import ContextName, Privilege, Role
from repro.errors import CredentialError, DirectoryError
from repro.permis import (
    AttributeCredential,
    CredentialValidationService,
    LdapDirectory,
    PermisPDP,
    PermisPolicyBuilder,
    PrivilegeAllocator,
    TrustStore,
    dn_is_under,
    normalize_dn,
    sign_credential,
    verify_signature,
)
from repro.xmlpolicy import bank_policy_set

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
MANAGER = Role("employee", "Manager")

HANDLE_CASH = Privilege("handleCash", "till://1")
AUDIT_BOOKS = Privilege("auditBooks", "ledger://1")

SOA_DN = "cn=SOA,o=bank,c=gb"
ALICE = "cn=alice,o=bank,c=gb"
OUTSIDER = "cn=eve,o=other,c=gb"
KEY = b"soa-key"


@pytest.fixture
def directory():
    return LdapDirectory()


@pytest.fixture
def allocator(directory):
    return PrivilegeAllocator(SOA_DN, KEY, directory)


@pytest.fixture
def trust(allocator):
    store = TrustStore()
    store.trust(allocator.soa_dn, allocator.verification_key)
    return store


@pytest.fixture
def policy():
    return (
        PermisPolicyBuilder()
        .allow_assignment(SOA_DN, [TELLER, AUDITOR], "o=bank,c=gb")
        .grant(TELLER, [HANDLE_CASH])
        .grant(AUDITOR, [AUDIT_BOOKS])
        .with_msod(bank_policy_set())
        .build()
    )


@pytest.fixture
def cvs(policy, trust, directory):
    return CredentialValidationService(policy, trust, directory)


class TestDn:
    def test_normalize(self):
        assert normalize_dn(" CN = Alice , O=bank ,c=gb") == "cn=Alice,o=bank,c=gb"

    def test_bad_dn(self):
        with pytest.raises(DirectoryError):
            normalize_dn("not a dn")
        with pytest.raises(DirectoryError):
            normalize_dn("")

    def test_dn_is_under(self):
        assert dn_is_under(ALICE, "o=bank,c=gb")
        assert dn_is_under(ALICE, ALICE)
        assert not dn_is_under(OUTSIDER, "o=bank,c=gb")
        assert not dn_is_under("o=bank,c=gb", ALICE)


class TestDirectory:
    def test_add_get_delete(self, directory):
        directory.add_entry(ALICE)
        assert ALICE in directory
        directory.delete_entry(ALICE)
        assert ALICE not in directory

    def test_duplicate_entry_rejected(self, directory):
        directory.add_entry(ALICE)
        with pytest.raises(DirectoryError):
            directory.add_entry(ALICE)

    def test_attributes_multivalued(self, directory):
        entry = directory.add_entry(ALICE)
        entry.add_value("mail", "a@bank")
        entry.add_value("mail", "alice@bank")
        assert entry.values("mail") == ("a@bank", "alice@bank")
        entry.remove_value("mail", "a@bank")
        assert entry.values("mail") == ("alice@bank",)

    def test_search_scopes(self, directory):
        for dn in ("o=bank,c=gb", ALICE, "cn=x,ou=it,o=bank,c=gb"):
            directory.add_entry(dn)
        subtree = directory.search("o=bank,c=gb")
        assert len(subtree) == 3
        one = directory.search("o=bank,c=gb", scope="one")
        assert {entry.dn for entry in one} == {normalize_dn(ALICE)}
        base = directory.search("o=bank,c=gb", scope="base")
        assert len(base) == 1

    def test_search_filter(self, directory):
        entry = directory.add_entry(ALICE)
        entry.add_value("role", "teller")
        directory.add_entry("cn=bob,o=bank,c=gb")
        hits = directory.search("o=bank,c=gb", attribute="role", value="teller")
        assert [hit.dn for hit in hits] == [normalize_dn(ALICE)]

    def test_unknown_scope(self, directory):
        with pytest.raises(DirectoryError):
            directory.search("o=bank,c=gb", scope="galaxy")


class TestCredentials:
    def test_sign_and_verify(self):
        credential = AttributeCredential(ALICE, SOA_DN, (TELLER,), 0, 10)
        signed = sign_credential(credential, KEY)
        assert verify_signature(signed, KEY)
        assert not verify_signature(signed, b"wrong")
        assert not verify_signature(credential, KEY)  # unsigned

    def test_tampered_credential_fails(self):
        signed = sign_credential(
            AttributeCredential(ALICE, SOA_DN, (TELLER,), 0, 10), KEY
        )
        forged = signed.tampered(attributes=(AUDITOR,))
        assert not verify_signature(forged, KEY)

    def test_validity_window(self):
        credential = AttributeCredential(ALICE, SOA_DN, (TELLER,), 5, 10)
        assert credential.is_valid_at(5)
        assert credential.is_valid_at(10)
        assert not credential.is_valid_at(4.9)
        assert not credential.is_valid_at(10.1)

    def test_invalid_construction(self):
        with pytest.raises(CredentialError):
            AttributeCredential(ALICE, SOA_DN, (), 0, 10)
        with pytest.raises(CredentialError):
            AttributeCredential(ALICE, SOA_DN, (TELLER,), 10, 0)
        with pytest.raises(CredentialError):
            AttributeCredential(ALICE, SOA_DN, (TELLER,), 0, 10, encoding="jwt")

    def test_saml_encoding_supported(self):
        credential = AttributeCredential(
            ALICE, SOA_DN, (TELLER,), 0, 10, encoding="saml"
        )
        assert verify_signature(sign_credential(credential, KEY), KEY)

    def test_trust_store(self):
        store = TrustStore()
        store.trust(SOA_DN, KEY)
        assert store.is_trusted(SOA_DN)
        assert store.key_for(SOA_DN) == KEY
        store.revoke(SOA_DN)
        assert not store.is_trusted(SOA_DN)
        with pytest.raises(CredentialError):
            store.key_for(SOA_DN)


class TestAllocator:
    def test_issue_publishes_to_directory(self, allocator, directory):
        credential = allocator.issue(ALICE, [TELLER], 0, 10)
        assert credential.signature
        assert directory.credentials_of(normalize_dn(ALICE)) == (credential,)

    def test_revoke(self, allocator, directory):
        credential = allocator.issue(ALICE, [TELLER], 0, 10)
        allocator.revoke(credential)
        assert directory.credentials_of(normalize_dn(ALICE)) == ()
        with pytest.raises(CredentialError):
            allocator.revoke(credential)


class TestCVS:
    def test_valid_credential_yields_roles(self, cvs, allocator):
        allocator.issue(ALICE, [TELLER], 0, 10)
        result = cvs.validate(ALICE, at=5.0)
        assert result.valid_roles == {TELLER}
        assert result.all_valid

    def test_expired_credential_rejected(self, cvs, allocator):
        allocator.issue(ALICE, [TELLER], 0, 10)
        result = cvs.validate(ALICE, at=20.0)
        assert result.valid_roles == frozenset()
        assert "not valid at time" in result.rejections[0].reason

    def test_untrusted_issuer_rejected(self, policy, directory):
        rogue = PrivilegeAllocator("cn=rogue,o=bank,c=gb", b"rogue-key", directory)
        rogue.issue(ALICE, [TELLER], 0, 10)
        cvs = CredentialValidationService(policy, TrustStore(), directory)
        result = cvs.validate(ALICE, at=5.0)
        assert result.valid_roles == frozenset()
        assert "not a trusted SOA" in result.rejections[0].reason

    def test_tampered_signature_rejected(self, cvs, allocator):
        credential = allocator.issue(ALICE, [TELLER], 0, 10)
        forged = credential.tampered(attributes=(AUDITOR,))
        result = cvs.validate(ALICE, credentials=[forged], at=5.0)
        assert result.valid_roles == frozenset()
        assert "signature" in result.rejections[0].reason

    def test_holder_mismatch_rejected(self, cvs, allocator):
        credential = allocator.issue("cn=bob,o=bank,c=gb", [TELLER], 0, 10)
        result = cvs.validate(ALICE, credentials=[credential], at=5.0)
        assert result.valid_roles == frozenset()

    def test_role_outside_assignment_policy_rejected(self, cvs, allocator):
        """A trusted SOA asserting a role it may not assign is filtered
        per-role, keeping the roles it may assign."""
        credential = allocator.issue(ALICE, [TELLER, MANAGER], 0, 10)
        result = cvs.validate(ALICE, credentials=[credential], at=5.0)
        assert result.valid_roles == {TELLER}
        assert any(
            rejection.role == MANAGER for rejection in result.rejections
        )

    def test_subject_outside_domain_rejected(self, cvs, allocator):
        allocator.issue(OUTSIDER, [TELLER], 0, 10)
        result = cvs.validate(OUTSIDER, at=5.0)
        assert result.valid_roles == frozenset()

    def test_pull_mode_without_directory(self, policy, trust):
        cvs = CredentialValidationService(policy, trust, directory=None)
        result = cvs.validate(ALICE, at=5.0)
        assert result.valid_roles == frozenset()


class TestPermisPolicy:
    def test_hierarchy_inheritance(self):
        policy = (
            PermisPolicyBuilder()
            .senior_to(MANAGER, TELLER)
            .grant(TELLER, [HANDLE_CASH])
            .build()
        )
        assert policy.permits([MANAGER], HANDLE_CASH)
        assert not policy.permits([TELLER], AUDIT_BOOKS)

    def test_privileges_of(self, policy):
        assert policy.privileges_of([TELLER]) == {HANDLE_CASH}
        assert policy.privileges_of([TELLER, AUDITOR]) == {
            HANDLE_CASH,
            AUDIT_BOOKS,
        }

    def test_assignment_permitted(self, policy):
        assert policy.assignment_permitted(SOA_DN, ALICE, TELLER)
        assert not policy.assignment_permitted(SOA_DN, OUTSIDER, TELLER)
        assert not policy.assignment_permitted(SOA_DN, ALICE, MANAGER)
        assert not policy.assignment_permitted(
            "cn=rogue,o=bank,c=gb", ALICE, TELLER
        )


class TestPermisPDP:
    CTX = ContextName.parse("Branch=York, Period=2006")

    def test_full_pipeline_grant(self, policy, trust, directory, allocator):
        allocator.issue(ALICE, [TELLER], 0, 100)
        pdp = PermisPDP(policy, trust, directory)
        decision = pdp.decision(ALICE, "handleCash", "till://1", self.CTX, at=5.0)
        assert decision.granted

    def test_no_roles_denied(self, policy, trust, directory):
        pdp = PermisPDP(policy, trust, directory)
        decision = pdp.decision(ALICE, "handleCash", "till://1", self.CTX, at=5.0)
        assert decision.denied
        assert "no valid roles" in decision.reason

    def test_rbac_denies_unauthorized_operation(
        self, policy, trust, directory, allocator
    ):
        allocator.issue(ALICE, [TELLER], 0, 100)
        pdp = PermisPDP(policy, trust, directory)
        decision = pdp.decision(ALICE, "auditBooks", "ledger://1", self.CTX, at=5.0)
        assert decision.denied
        assert decision.reason.startswith("RBAC")

    def test_short_circuit_denies_carry_the_policy_version(
        self, policy, trust, directory, allocator
    ):
        """A CVS or RBAC deny never reaches MSoD, but it is audited, so
        it names the policy version in force like the engine's grants."""
        pdp = PermisPDP(policy, trust, directory)
        cvs_deny = pdp.decision(ALICE, "handleCash", "till://1", self.CTX, at=5.0)
        allocator.issue(ALICE, [TELLER], 0, 100)
        rbac_deny = pdp.decision(
            ALICE, "auditBooks", "ledger://1", self.CTX, at=6.0
        )
        grant = pdp.decision(ALICE, "handleCash", "till://1", self.CTX, at=7.0)
        assert cvs_deny.denied and rbac_deny.denied and grant.granted
        assert grant.policy_epoch == 1 and grant.policy_digest
        for deny in (cvs_deny, rbac_deny):
            assert (deny.policy_epoch, deny.policy_digest) == (
                grant.policy_epoch,
                grant.policy_digest,
            )

    def test_msod_denies_multi_session_conflict(
        self, policy, trust, directory, allocator
    ):
        allocator.issue(ALICE, [TELLER], 0, 100)
        pdp = PermisPDP(policy, trust, directory)
        assert pdp.decision(
            ALICE, "handleCash", "till://1", self.CTX, at=5.0
        ).granted
        # Alice is later also issued the auditor role (promotion).
        allocator.issue(ALICE, [AUDITOR], 0, 100)
        decision = pdp.decision(ALICE, "auditBooks", "ledger://1", self.CTX, at=50.0)
        assert decision.denied
        assert decision.violation is not None

    def test_push_mode_credentials(self, policy, trust, allocator):
        credential = allocator.issue(ALICE, [TELLER], 0, 100, publish=False)
        pdp = PermisPDP(policy, trust, directory=None)
        decision = pdp.decision(
            ALICE,
            "handleCash",
            "till://1",
            self.CTX,
            credentials=[credential],
            at=5.0,
        )
        assert decision.granted

    def test_management_port_controls_retained_adi(
        self, policy, trust, directory, allocator
    ):
        """Section 4.3: the retained ADI is an RBAC-protected target on
        the PDP's management port."""
        from repro.core import CONTROLLER_ROLE
        from repro.errors import AdminError

        allocator.issue(ALICE, [TELLER], 0, 100)
        pdp = PermisPDP(policy, trust, directory)
        pdp.decision(ALICE, "handleCash", "till://1", self.CTX, at=5.0)
        assert pdp.retained_adi.count() > 0
        port = pdp.management_port
        with pytest.raises(AdminError):
            port.purge_all([TELLER])  # an ordinary role may not manage
        outcome = port.purge_context([CONTROLLER_ROLE], self.CTX)
        assert outcome.affected > 0
        assert pdp.retained_adi.count() == 0

    def test_admin_events_are_audited(self, policy, trust, tmp_path):
        from repro.audit import AuditTrailManager, EVENT_ADMIN
        from repro.core import CONTROLLER_ROLE

        audit = AuditTrailManager(str(tmp_path), b"key")
        pdp = PermisPDP(policy, trust, audit=audit)
        outcome = pdp.management_port.purge_all([CONTROLLER_ROLE])
        pdp.log_admin_event(outcome.operation, outcome.detail, at=9.0)
        events = list(audit.events())
        assert events[-1].event_type == EVENT_ADMIN
        assert events[-1].payload["operation"] == "purgeAll"

    def test_decide_uses_prevalidated_roles(self, policy, trust):
        from repro.core import DecisionRequest

        pdp = PermisPDP(policy, trust)
        request = DecisionRequest(
            user_id=normalize_dn(ALICE),
            roles=(TELLER,),
            operation="handleCash",
            target="till://1",
            context_instance=self.CTX,
            timestamp=1.0,
        )
        assert pdp.decide(request).granted
