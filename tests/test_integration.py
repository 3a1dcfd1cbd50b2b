"""Integration tests: the full stack across both paper examples.

These tests wire every subsystem together exactly as Figure 4 describes:
privilege allocation → LDAP-like directory → CVS → PDP (RBAC + MSoD) →
secure audit trail, with retained-ADI recovery across PDP restarts.
"""

import pytest

from repro.audit import AuditTrailManager
from repro.core import ContextName, Privilege, Role, SQLiteRetainedADIStore
from repro.permis import (
    LdapDirectory,
    PermisPDP,
    PermisPolicyBuilder,
    PrivilegeAllocator,
    TrustStore,
)
from repro.xmlpolicy import combined_policy_set

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
CLERK = Role("employee", "Clerk")
MANAGER = Role("employee", "Manager")

HANDLE_CASH = Privilege("handleCash", "till://main")
AUDIT_BOOKS = Privilege("auditBooks", "ledger://main")
COMMIT_AUDIT = Privilege("CommitAudit", "http://audit.location.com/audit")
PREPARE = Privilege("prepareCheck", "http://www.myTaxOffice.com/Check")
APPROVE = Privilege("approve/disapproveCheck", "http://www.myTaxOffice.com/Check")
COMBINE = Privilege("combineResults", "http://secret.location.com/results")
CONFIRM = Privilege("confirmCheck", "http://secret.location.com/audit")

BANK_SOA = "cn=BankSOA,o=bank,c=gb"
TAX_SOA = "cn=TaxSOA,o=tax,c=gb"
TRAIL_KEY = b"integration-trail-key"


@pytest.fixture
def world(tmp_path):
    """A two-domain world: a bank and a tax office, one PDP."""
    directory = LdapDirectory()
    bank_soa = PrivilegeAllocator(BANK_SOA, b"bank-key", directory)
    tax_soa = PrivilegeAllocator(TAX_SOA, b"tax-key", directory)
    trust = TrustStore()
    trust.trust(bank_soa.soa_dn, bank_soa.verification_key)
    trust.trust(tax_soa.soa_dn, tax_soa.verification_key)
    policy = (
        PermisPolicyBuilder()
        .allow_assignment(BANK_SOA, [TELLER, AUDITOR], "o=bank,c=gb")
        .allow_assignment(TAX_SOA, [CLERK, MANAGER], "o=tax,c=gb")
        .grant(TELLER, [HANDLE_CASH])
        .grant(AUDITOR, [AUDIT_BOOKS, COMMIT_AUDIT])
        .grant(CLERK, [PREPARE, CONFIRM])
        .grant(MANAGER, [APPROVE, COMBINE])
        .with_msod(combined_policy_set())
        .build()
    )
    audit = AuditTrailManager(str(tmp_path / "trails"), TRAIL_KEY, max_records=50)
    pdp = PermisPDP(policy, trust, directory, audit=audit)
    return {
        "directory": directory,
        "bank_soa": bank_soa,
        "tax_soa": tax_soa,
        "trust": trust,
        "policy": policy,
        "audit": audit,
        "pdp": pdp,
    }


class TestBankLifecycle:
    """Example 1, end to end, across a PDP restart."""

    CTX_2006 = ContextName.parse("Branch=York, Period=2006")
    CTX_LEEDS = ContextName.parse("Branch=Leeds, Period=2006")

    def test_promotion_conflict_survives_restart(self, world):
        alice = "cn=alice,o=bank,c=gb"
        world["bank_soa"].issue(alice, [TELLER], 0, 1000)
        pdp = world["pdp"]
        assert pdp.decision(
            alice, "handleCash", "till://main", self.CTX_2006, at=1.0
        ).granted

        # Alice is promoted to auditor; her old credential lapses but the
        # MSoD history persists for the audit period.
        world["bank_soa"].issue(alice, [AUDITOR], 0, 1000)

        # --- the PDP "crashes" and restarts, recovering from the trails.
        restarted = PermisPDP.startup(
            world["policy"],
            world["trust"],
            world["audit"],
            directory=world["directory"],
        )
        decision = restarted.decision(
            alice, "auditBooks", "ledger://main", self.CTX_LEEDS, at=2.0
        )
        assert decision.denied  # cross-branch, cross-session, post-restart

    def test_commit_audit_closes_the_period(self, world):
        alice = "cn=alice,o=bank,c=gb"
        victor = "cn=victor,o=bank,c=gb"
        world["bank_soa"].issue(alice, [TELLER], 0, 1000)
        world["bank_soa"].issue(victor, [AUDITOR], 0, 1000)
        pdp = world["pdp"]
        pdp.decision(alice, "handleCash", "till://main", self.CTX_2006, at=1.0)
        commit = pdp.decision(
            victor,
            "CommitAudit",
            "http://audit.location.com/audit",
            self.CTX_2006,
            at=2.0,
        )
        assert commit.granted
        assert pdp.retained_adi.count() == 0
        # After restart the purge must hold (it was audited).
        restarted = PermisPDP.startup(
            world["policy"],
            world["trust"],
            world["audit"],
            directory=world["directory"],
        )
        assert restarted.retained_adi.count() == 0

    def test_sqlite_store_needs_no_replay(self, world, tmp_path):
        """The Section 6 fix: a relational retained ADI persists without
        audit-trail replay."""
        alice = "cn=alice,o=bank,c=gb"
        world["bank_soa"].issue(alice, [TELLER], 0, 1000)
        db_path = str(tmp_path / "adi.db")
        store = SQLiteRetainedADIStore(db_path)
        pdp = PermisPDP(
            world["policy"], world["trust"], world["directory"], store=store
        )
        assert pdp.decision(
            alice, "handleCash", "till://main", self.CTX_2006, at=1.0
        ).granted
        store.close()

        world["bank_soa"].issue(alice, [AUDITOR], 0, 1000)
        fresh_store = SQLiteRetainedADIStore(db_path)
        fresh_pdp = PermisPDP(
            world["policy"], world["trust"], world["directory"], store=fresh_store
        )
        decision = fresh_pdp.decision(
            alice, "auditBooks", "ledger://main", self.CTX_2006, at=2.0
        )
        assert decision.denied
        fresh_store.close()


class TestTaxRefundLifecycle:
    """Example 2, end to end, through the PERMIS pipeline."""

    CTX = ContextName.parse("TaxOffice=Leeds, taxRefundProcess=7001")

    def _staff(self, world):
        people = {
            "clerk1": "cn=clerk1,o=tax,c=gb",
            "clerk2": "cn=clerk2,o=tax,c=gb",
            "mgr1": "cn=mgr1,o=tax,c=gb",
            "mgr2": "cn=mgr2,o=tax,c=gb",
            "mgr3": "cn=mgr3,o=tax,c=gb",
        }
        for name, dn in people.items():
            role = CLERK if name.startswith("clerk") else MANAGER
            world["tax_soa"].issue(dn, [role], 0, 1000)
        return people

    def test_compliant_process(self, world):
        pdp = world["pdp"]
        staff = self._staff(world)
        steps = [
            (staff["clerk1"], PREPARE),
            (staff["mgr1"], APPROVE),
            (staff["mgr2"], APPROVE),
            (staff["mgr3"], COMBINE),
            (staff["clerk2"], CONFIRM),
        ]
        for at, (user, privilege) in enumerate(steps, start=1):
            decision = pdp.decision(
                user, privilege.operation, privilege.target, self.CTX, at=float(at)
            )
            assert decision.granted, (user, privilege)
        assert pdp.retained_adi.find(self.CTX) == []  # instance closed

    def test_violations_denied_mid_process(self, world):
        pdp = world["pdp"]
        staff = self._staff(world)
        pdp.decision(staff["clerk1"], PREPARE.operation, PREPARE.target, self.CTX, at=1.0)
        pdp.decision(staff["mgr1"], APPROVE.operation, APPROVE.target, self.CTX, at=2.0)
        # mgr1 approving again: denied.
        assert pdp.decision(
            staff["mgr1"], APPROVE.operation, APPROVE.target, self.CTX, at=3.0
        ).denied
        # mgr1 combining: denied.
        assert pdp.decision(
            staff["mgr1"], COMBINE.operation, COMBINE.target, self.CTX, at=4.0
        ).denied
        # clerk1 confirming their own check: denied.
        assert pdp.decision(
            staff["clerk1"], CONFIRM.operation, CONFIRM.target, self.CTX, at=5.0
        ).denied

    def test_restart_mid_process_preserves_constraints(self, world):
        pdp = world["pdp"]
        staff = self._staff(world)
        pdp.decision(staff["clerk1"], PREPARE.operation, PREPARE.target, self.CTX, at=1.0)
        pdp.decision(staff["mgr1"], APPROVE.operation, APPROVE.target, self.CTX, at=2.0)
        restarted = PermisPDP.startup(
            world["policy"],
            world["trust"],
            world["audit"],
            directory=world["directory"],
        )
        assert restarted.decision(
            staff["mgr1"], APPROVE.operation, APPROVE.target, self.CTX, at=3.0
        ).denied
        assert restarted.decision(
            staff["mgr2"], APPROVE.operation, APPROVE.target, self.CTX, at=4.0
        ).granted


class TestAuditTrailIntegrity:
    def test_every_decision_is_logged(self, world):
        alice = "cn=alice,o=bank,c=gb"
        world["bank_soa"].issue(alice, [TELLER], 0, 1000)
        pdp = world["pdp"]
        ctx = ContextName.parse("Branch=York, Period=2006")
        pdp.decision(alice, "handleCash", "till://main", ctx, at=1.0)
        pdp.decision(alice, "auditBooks", "ledger://main", ctx, at=2.0)  # deny
        events = list(world["audit"].events())
        assert len(events) == 2
        effects = [event.payload["effect"] for event in events]
        assert effects == ["grant", "deny"]

    def test_trails_rotate_and_recover(self, world):
        """More decisions than one trail holds: recovery reads them all."""
        pdp = world["pdp"]
        soa = world["bank_soa"]
        for index in range(120):  # max_records=50 → 3 trails
            dn = f"cn=user{index},o=bank,c=gb"
            soa.issue(dn, [TELLER], 0, 10_000)
            ctx = ContextName.parse(f"Branch=York, Period=P{index % 5}")
            pdp.decision(dn, "handleCash", "till://main", ctx, at=float(index))
        assert len(world["audit"].trail_paths()) >= 3
        restarted = PermisPDP.startup(
            world["policy"],
            world["trust"],
            world["audit"],
            directory=world["directory"],
        )
        assert restarted.retained_adi.count() == pdp.retained_adi.count()

    def test_bounded_recovery_window(self, world):
        """Recovery honours the last-n-trails administrative parameter."""
        pdp = world["pdp"]
        soa = world["bank_soa"]
        for index in range(120):
            dn = f"cn=user{index},o=bank,c=gb"
            soa.issue(dn, [TELLER], 0, 10_000)
            ctx = ContextName.parse(f"Branch=York, Period=P{index % 5}")
            pdp.decision(dn, "handleCash", "till://main", ctx, at=float(index))
        restarted = PermisPDP.startup(
            world["policy"],
            world["trust"],
            world["audit"],
            directory=world["directory"],
            last_n_trails=1,
        )
        assert 0 < restarted.retained_adi.count() < pdp.retained_adi.count()

    def test_a_negative_recovery_window_is_refused(self, world):
        with pytest.raises(ValueError, match="last_n_trails"):
            PermisPDP.startup(
                world["policy"],
                world["trust"],
                world["audit"],
                directory=world["directory"],
                last_n_trails=-1,
            )
