#!/usr/bin/env python3
"""Paper Example 1 on the full PERMIS stack (Figure 4).

A bank's SOA issues signed role credentials into an LDAP-like directory;
the PERMIS CVS validates them; the PDP enforces the Section-3 bank MSoD
policy (parsed from its published XML) over a retained ADI; every
decision is logged to a tamper-evident audit trail; and the PDP restarts
mid-story, recovering its history from the trails (Section 5.2).

Run:  python examples/bank_audit.py
"""

import tempfile

from repro.audit import AuditTrailManager
from repro.core import ContextName, Privilege, Role
from repro.permis import (
    LdapDirectory,
    PermisPDP,
    PermisPolicyBuilder,
    PrivilegeAllocator,
    TrustStore,
)
from repro.xmlpolicy import BANK_POLICY_XML, bank_policy_set

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
HANDLE_CASH = Privilege("handleCash", "till://main")
AUDIT_BOOKS = Privilege("auditBooks", "ledger://main")
COMMIT_AUDIT = Privilege("CommitAudit", "http://audit.location.com/audit")

ALICE = "cn=alice,o=bank,c=gb"
VICTOR = "cn=victor,o=bank,c=gb"


def show(pdp, who, operation, target, context, at):
    decision = pdp.decision(
        who, operation, target, ContextName.parse(context), at=at
    )
    print(f"  t={at:>5}: {decision}")
    return decision


def main() -> None:
    print("The Section-3 bank MSoD policy, as published:\n")
    print(BANK_POLICY_XML)

    directory = LdapDirectory()
    soa = PrivilegeAllocator("cn=SOA,o=bank,c=gb", b"bank-soa-key", directory)
    trust = TrustStore()
    trust.trust(soa.soa_dn, soa.verification_key)
    policy = (
        PermisPolicyBuilder()
        .allow_assignment(soa.soa_dn, [TELLER, AUDITOR], "o=bank,c=gb")
        .grant(TELLER, [HANDLE_CASH])
        .grant(AUDITOR, [AUDIT_BOOKS, COMMIT_AUDIT])
        .with_msod(bank_policy_set())
        .build()
    )
    trail_dir = tempfile.mkdtemp(prefix="bank-audit-trails-")
    with AuditTrailManager(trail_dir, b"trail-key") as audit:
        pdp = PermisPDP(policy, trust, directory, audit=audit)

        print("January: the SOA issues Alice a Teller credential (valid until")
        print("her mid-year review); she handles cash in the York branch.")
        soa.issue(ALICE, [TELLER], not_before=0, not_after=250)
        show(pdp, ALICE, "handleCash", "till://main", "Branch=York, Period=2006", 10)

        print("\nJune: Alice is promoted — a new Auditor credential is issued.")
        soa.issue(ALICE, [AUDITOR], not_before=0, not_after=10_000)

        print("\nThe PDP host is rebooted.  At start-up it replays the secure")
        print("audit trails to rebuild its retained ADI (Section 5.2)...")
        pdp = PermisPDP.startup(policy, trust, audit, directory=directory)
        print(f"  recovered retained-ADI records: {pdp.retained_adi.count()}")

        print("\nNovember, annual audit: Alice tries to audit the Leeds branch.")
        print("No single session or authority ever saw a conflict — only the")
        print("multi-session history does:")
        show(pdp, ALICE, "auditBooks", "ledger://main", "Branch=Leeds, Period=2006", 300)

        print("\nVictor (auditor, never a teller this period) audits instead,")
        print("then commits the audit, terminating the Period=2006 context:")
        soa.issue(VICTOR, [AUDITOR], not_before=0, not_after=10_000)
        show(pdp, VICTOR, "auditBooks", "ledger://main", "Branch=York, Period=2006", 310)
        show(pdp, VICTOR, "CommitAudit", "http://audit.location.com/audit",
             "Branch=York, Period=2006", 320)
        print(f"  retained-ADI records now: {pdp.retained_adi.count()}")

        print("\n2007 audit period — a fresh context instance; Alice may audit:")
        show(pdp, ALICE, "auditBooks", "ledger://main", "Branch=York, Period=2007", 400)

        print(f"\nEvery decision above was logged to {trail_dir}")
        print(f"({sum(1 for _ in audit.events())} verified audit events).")


if __name__ == "__main__":
    main()
