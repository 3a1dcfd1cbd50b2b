#!/usr/bin/env python3
"""Retained-ADI persistence: audit-trail replay vs a relational store.

Section 5.2 recovers the in-memory retained ADI by replaying the last n
secure audit trails at PDP start-up; Section 6 flags that replay as the
implementation's scalability limit and proposes a relational database
instead.  This script demonstrates both paths and times them, and shows
the audit trail refusing to verify after tampering.

Run:  python examples/adi_recovery.py
"""

import tempfile
import time

from repro.audit import (
    AuditTrailManager,
    EVENT_DECISION,
    decision_event_payload,
    recover_retained_adi,
)
from repro.api import open_pdp
from repro.core import (
    InMemoryRetainedADIStore,
    SQLiteRetainedADIStore,
    store_digest,
)
from repro.errors import AuditTrailError
from repro.workload import decision_request_stream
from repro.xmlpolicy import bank_policy_set

N_REQUESTS = 2_000
TRAIL_KEY = b"recovery-demo-key"


def main() -> None:
    trail_dir = tempfile.mkdtemp(prefix="adi-recovery-trails-")
    with AuditTrailManager(trail_dir, TRAIL_KEY, max_records=500) as audit:

        print(f"Phase 1 — a PDP serves {N_REQUESTS} requests, logging every")
        print("decision (and its retained-ADI mutation) to the audit trail...")
        pdp = open_pdp(bank_policy_set())
        engine = pdp.engine
        sqlite_path = tempfile.mktemp(suffix=".db", prefix="retained-adi-")
        sqlite_pdp = open_pdp(bank_policy_set(), store=f"sqlite:{sqlite_path}")
        sqlite_store = sqlite_pdp.engine.store

        grants = denies = 0
        for request in decision_request_stream(N_REQUESTS, seed=42):
            decision = engine.check(request)
            sqlite_pdp.decide(request)  # the Section-6 alternative, in parallel
            audit.append(
                EVENT_DECISION, request.timestamp, decision_event_payload(decision)
            )
            if decision.granted:
                grants += 1
            else:
                denies += 1
        print(f"  {grants} grants, {denies} MSoD denies;"
              f" retained ADI holds {engine.store.count()} records"
              f" across {len(audit.trail_paths())} trail files")

        print("\nPhase 2 — the PDP restarts.  Path A (paper Section 5.2):")
        print("verify and replay the audit trails into memory...")
        recovered = InMemoryRetainedADIStore()
        started = time.perf_counter()
        report = recover_retained_adi(audit, bank_policy_set(), recovered)
        replay_seconds = time.perf_counter() - started
        print(f"  scanned {report.events_scanned} events,"
              f" replayed {report.records_replayed} records"
              f" in {replay_seconds * 1000:.1f} ms")
        assert store_digest(recovered) == store_digest(engine.store)
        print("  recovered state is byte-identical to the pre-crash state ✓")

        print("\nPath B (paper Section 6 proposal): reopen the SQLite store —")
        sqlite_store.close()
        started = time.perf_counter()
        reopened = SQLiteRetainedADIStore(sqlite_path)
        count = reopened.count()
        reopen_seconds = time.perf_counter() - started
        print(f"  {count} records available in {reopen_seconds * 1000:.1f} ms"
              f" (no replay; {replay_seconds / max(reopen_seconds, 1e-9):.0f}x"
              " faster here)")
        assert store_digest(reopened) == store_digest(engine.store)
        reopened.close()

        print("\nPhase 3 — an attacker edits one trail record...")
        victim = audit.trail_paths()[0]
        with open(victim) as handle:
            text = handle.read()
        with open(victim, "w") as handle:
            handle.write(text.replace('"effect": "deny"', '"effect": "gront"', 1))
        try:
            recover_retained_adi(
                audit, bank_policy_set(), InMemoryRetainedADIStore()
            )
            print("  !!! tampering was NOT detected")
        except AuditTrailError as exc:
            print(f"  recovery refused: {exc}")


if __name__ == "__main__":
    main()
