"""Property test: audit-trail recovery is lossless for any request stream.

For every generated decision stream, a PDP that logs each decision and
then restarts — replaying the trails per Section 5.2 — must hold exactly
the retained ADI it held before the restart, and must therefore make the
same decision on any follow-up request.
"""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    AuditTrailManager,
    EVENT_DECISION,
    decision_event_payload,
    decision_from_event,
    recover_retained_adi,
)
from repro.core import (
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    Privilege,
    Role,
    SQLiteRetainedADIStore,
    store_digest,
)
from repro.workload import bank_policy_set as stepless_bank_policy_set
from repro.xmlpolicy import combined_policy_set, tax_refund_policy_set

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
CLERK = Role("employee", "Clerk")
MANAGER = Role("employee", "Manager")

PRIVILEGES = {
    TELLER: Privilege("handleCash", "till://cash"),
    AUDITOR: Privilege("auditBooks", "ledger://books"),
    CLERK: Privilege("prepareCheck", "http://www.myTaxOffice.com/Check"),
    MANAGER: Privilege(
        "approve/disapproveCheck", "http://www.myTaxOffice.com/Check"
    ),
}
#: Including each policy's last step exercises purge replay.
LAST_STEPS = {
    AUDITOR: Privilege("CommitAudit", "http://audit.location.com/audit"),
    CLERK: Privilege("confirmCheck", "http://secret.location.com/audit"),
}


@st.composite
def streams(draw):
    size = draw(st.integers(min_value=1, max_value=30))
    requests = []
    for index in range(size):
        user = draw(st.sampled_from(["u1", "u2", "u3"]))
        role = draw(st.sampled_from([TELLER, AUDITOR, CLERK, MANAGER]))
        use_last_step = role in LAST_STEPS and draw(
            st.booleans()
        )
        privilege = LAST_STEPS[role] if use_last_step else PRIVILEGES[role]
        if role in (CLERK, MANAGER):
            context = ContextName.parse(
                f"TaxOffice=Leeds, taxRefundProcess=I{draw(st.integers(1, 2))}"
            )
        else:
            context = ContextName.parse(
                f"Branch={draw(st.sampled_from(['York', 'Leeds']))}, "
                f"Period=P{draw(st.integers(1, 2))}"
            )
        requests.append(
            DecisionRequest(
                user_id=user,
                roles=(role,),
                operation=privilege.operation,
                target=privilege.target,
                context_instance=context,
                timestamp=float(index),
            )
        )
    return requests


@given(streams())
@settings(max_examples=40, deadline=None)
def test_recovery_is_lossless(stream):
    with tempfile.TemporaryDirectory() as trail_dir:
        audit = AuditTrailManager(
            os.path.join(trail_dir, "trails"), b"prop-key", max_records=7
        )
        engine = MSoDEngine(combined_policy_set(), InMemoryRetainedADIStore())
        for request in stream:
            decision = engine.check(request)
            audit.append(
                EVENT_DECISION,
                request.timestamp,
                decision_event_payload(decision),
            )

        recovered = InMemoryRetainedADIStore()
        recover_retained_adi(audit, combined_policy_set(), recovered)
        assert store_digest(recovered) == store_digest(engine.store)

        # The recovered PDP decides the same way on a follow-up probe.
        probe = DecisionRequest(
            user_id="u1",
            roles=(AUDITOR,),
            operation="auditBooks",
            target="ledger://books",
            context_instance=ContextName.parse("Branch=York, Period=P1"),
            timestamp=1e6,
        )
        live = MSoDEngine(combined_policy_set(), engine.store).check(probe)
        replayed = MSoDEngine(combined_policy_set(), recovered).check(probe)
        assert live.effect == replayed.effect


@given(streams(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_a_decision_event_reads_back_as_its_decision(stream, environment):
    """``decision_from_event`` inverts ``decision_event_payload`` on
    every field the event records, after the trail's JSON round trip;
    every field it does not record reads back at its default."""
    engine = MSoDEngine(combined_policy_set(), InMemoryRetainedADIStore())
    for request in stream:
        if environment:
            request = request._replace(environment={"terminal": "t1"})
        decision = engine.check(request)
        payload = json.loads(json.dumps(decision_event_payload(decision)))
        read = decision_from_event(payload)
        assert read == decision._replace(
            request=request._replace(environment={}),
            violation=None,
            records_purged=0,
        )
        assert read.request.environment == {}
        assert read.violation is None and read.records_purged == 0
        assert all(record.record_id is None for record in read.adi_adds)
        assert read.trace is None


@given(streams(), st.lists(st.integers(0, 2), min_size=30, max_size=30))
@settings(max_examples=40, deadline=None)
def test_mirror_recovery_spans_policy_swaps(stream, set_choices):
    """``policy_set=None`` reproduces the store across hot reloads.

    Before each request the engine swaps to one of three sets: the
    combined set (both contexts, each with a last step, so purges
    occur), the tax set alone and the stepless bank set alone (each
    drops the other's governed context).  A mirror replay applies what
    the trail recorded, so it needs none of them.
    """
    policy_sets = (
        combined_policy_set(),
        tax_refund_policy_set(),
        stepless_bank_policy_set(),
    )
    with tempfile.TemporaryDirectory() as trail_dir:
        audit = AuditTrailManager(
            os.path.join(trail_dir, "trails"), b"prop-key", max_records=7
        )
        engine = MSoDEngine(policy_sets[0], InMemoryRetainedADIStore())
        for request, choice in zip(stream, set_choices):
            engine.swap_policy(policy_sets[choice])
            decision = engine.check(request)
            audit.append(
                EVENT_DECISION,
                request.timestamp,
                decision_event_payload(decision),
            )

        for fresh in (
            InMemoryRetainedADIStore(),
            SQLiteRetainedADIStore(":memory:"),
        ):
            recover_retained_adi(audit, None, fresh)
            assert store_digest(fresh) == store_digest(engine.store)
            fresh.close()


@given(streams())
@settings(max_examples=40, deadline=None)
def test_recovery_is_idempotent(stream):
    """Replaying the same trails N times equals replaying them once.

    This is the property the cluster's log-shipping replication stands
    on: a standby re-runs recovery over its primary's trails on every
    catch-up tick, so a second (or tenth) pass must leave the store
    digest exactly where the first pass put it.
    """
    with tempfile.TemporaryDirectory() as trail_dir:
        audit = AuditTrailManager(
            os.path.join(trail_dir, "trails"), b"prop-key", max_records=7
        )
        engine = MSoDEngine(combined_policy_set(), InMemoryRetainedADIStore())
        for request in stream:
            decision = engine.check(request)
            audit.append(
                EVENT_DECISION,
                request.timestamp,
                decision_event_payload(decision),
            )

        once = InMemoryRetainedADIStore()
        recover_retained_adi(audit, combined_policy_set(), once)

        repeatedly = InMemoryRetainedADIStore()
        for _ in range(3):
            recover_retained_adi(audit, combined_policy_set(), repeatedly)

        assert store_digest(repeatedly) == store_digest(once)

        # Resuming over a partially-recovered store also converges: the
        # second full pass must top up, never double-apply.
        partial = InMemoryRetainedADIStore()
        recover_retained_adi(
            audit, combined_policy_set(), partial, last_n_trails=1
        )
        recover_retained_adi(audit, combined_policy_set(), partial)
        # last_n_trails=1 may have seen a *suffix* whose purges already
        # ran, so only assert the full-pass-after-partial end state when
        # the stream never purges (no last-step events).
        replay_all = list(audit.events())
        if not any(e.payload.get("adi_purges") for e in replay_all):
            assert store_digest(partial) == store_digest(once)


@given(
    streams(),
    st.sets(st.sampled_from(["u1", "u2", "u3"]), min_size=1, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_user_filtered_recovery_over_sealed_lineages(stream, movers):
    """``user_filter`` recovery over rotated, sealed lineages is exact.

    This is the reshard import's correctness property: a target shard
    replays the *moving users'* history out of every trail lineage the
    source ever produced (a mid-migration failover seals one lineage
    and starts another; ``max_records=7`` forces rotation inside each).
    The filtered replay must hold exactly the movers' slice of what an
    unfiltered replay holds, its journal must contain exactly the
    movers' outcomes, and running it again must change nothing.
    """
    with tempfile.TemporaryDirectory() as root:
        # Two sealed lineages, as left behind by a primary that died
        # mid-stream and was replaced by a promoted standby.
        lineages = [
            AuditTrailManager(
                os.path.join(root, "lineage-a"), b"prop-key", max_records=7
            ),
            AuditTrailManager(
                os.path.join(root, "lineage-b"), b"prop-key", max_records=7
            ),
        ]
        engine = MSoDEngine(combined_policy_set(), InMemoryRetainedADIStore())
        cut = len(stream) // 2
        for index, request in enumerate(stream):
            decision = engine.check(request)
            lineages[0 if index < cut else 1].append(
                EVENT_DECISION,
                request.timestamp,
                decision_event_payload(decision),
            )

        def replay(user_filter=None, journal=None):
            store = InMemoryRetainedADIStore()
            for lineage in lineages:
                recover_retained_adi(
                    lineage,
                    combined_policy_set(),
                    store,
                    journal=journal,
                    user_filter=user_filter,
                )
            return store

        moved_journal: dict = {}
        moved = replay(
            user_filter=lambda user: user in movers, journal=moved_journal
        )
        full_journal: dict = {}
        full = replay(journal=full_journal)

        def slice_of(store, users):
            return tuple(
                entry for entry in store_digest(store) if entry[0] in users
            )

        assert store_digest(moved) == slice_of(full, movers)
        # No other user's records leak through the filter.
        assert all(entry[0] in movers for entry in store_digest(moved))
        # The journal holds exactly the movers' outcomes (grants *and*
        # denies), so a post-cutover retry dedupes on the target.
        expected_ids = {
            request_id
            for request_id, decision in full_journal.items()
            if decision.request.user_id in movers
        }
        assert set(moved_journal) == expected_ids

        # Idempotent: a second filtered pass (a re-run catch-up tick)
        # over the same sealed lineages changes nothing.
        again = InMemoryRetainedADIStore()
        for _ in range(2):
            for lineage in lineages:
                recover_retained_adi(
                    lineage,
                    combined_policy_set(),
                    again,
                    user_filter=lambda user: user in movers,
                )
        assert store_digest(again) == store_digest(moved)
