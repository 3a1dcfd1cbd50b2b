"""Tests for the differential what-if replay (pipeline stage 2)."""

import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import what_if
from repro.audit import (
    EVENT_DECISION,
    EVENT_PURGE,
    AuditTrailManager,
    decision_event_payload,
    decision_from_event,
)
from repro.audit.trail import TrailFollower
from repro.core import (
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Role,
    SQLiteRetainedADIStore,
)
from repro.errors import AuditTrailError
from repro.verify import WhatIfReport, what_if_replay

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
CLERK = Role("employee", "Clerk")
MANAGER = Role("employee", "Manager")

KEY = b"whatif-test-key"


def bank_set(roles=(TELLER, AUDITOR), m=2, policy_id="bank"):
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=[MMER(list(roles), m)],
                policy_id=policy_id,
            )
        ]
    )


def request(user, role, period="P1", timestamp=1.0, request_id=None):
    operation, target = (
        ("handleCash", "till://1")
        if role == TELLER
        else ("auditBooks", "ledger://1")
    )
    kwargs = {} if request_id is None else {"request_id": request_id}
    return DecisionRequest(
        user_id=user,
        roles=(role,),
        operation=operation,
        target=target,
        context_instance=ContextName.parse(f"Branch=York, Period={period}"),
        timestamp=timestamp,
        **kwargs,
    )


def record_trail(directory, requests, policy_set):
    """Decide ``requests`` and append each decision to a fresh trail."""
    trails = AuditTrailManager(directory, KEY, fsync=False)
    engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
    effects = []
    for req in requests:
        decision = engine.check(req)
        trails.append(
            EVENT_DECISION, req.timestamp, decision_event_payload(decision)
        )
        effects.append(decision.effect)
    return engine, effects


def reader(directory):
    return TrailFollower(directory, KEY).poll()


MIXED_REQUESTS = [
    request("alice", TELLER, timestamp=1.0),
    request("alice", AUDITOR, timestamp=2.0),  # denied under 2-of-{T,A}
    request("bob", AUDITOR, timestamp=3.0),
    request("bob", TELLER, timestamp=4.0),  # denied
    request("carol", TELLER, period="P2", timestamp=5.0),
]


# ----------------------------------------------------------------------
class TestSameSetIsFixpoint:
    def test_zero_flips_and_exact_counts(self, tmp_path):
        record_trail(str(tmp_path), MIXED_REQUESTS, bank_set())
        report = what_if_replay(reader(str(tmp_path)), bank_set())
        assert report.flip_count == 0
        assert report.flips == ()
        assert report.decisions_replayed == len(MIXED_REQUESTS)
        assert report.events_scanned == len(MIXED_REQUESTS)

    def test_bit_identical_across_memory_and_sqlite(self, tmp_path):
        record_trail(str(tmp_path), MIXED_REQUESTS, bank_set())
        memory = what_if_replay(
            reader(str(tmp_path)), bank_set(), InMemoryRetainedADIStore()
        )
        sqlite_store = SQLiteRetainedADIStore(str(tmp_path / "replay.db"))
        try:
            sqlite = what_if_replay(
                reader(str(tmp_path)), bank_set(), sqlite_store
            )
        finally:
            sqlite_store.close()
        assert memory == sqlite
        assert memory.to_dict() == sqlite.to_dict()

    def test_replay_applies_recorded_purges(self, tmp_path):
        trails = AuditTrailManager(str(tmp_path), KEY, fsync=False)
        engine = MSoDEngine(bank_set(), InMemoryRetainedADIStore())
        first = engine.check(request("alice", TELLER, timestamp=1.0))
        trails.append(EVENT_DECISION, 1.0, decision_event_payload(first))
        # An administrative purge wipes the context on both sides.
        context = ContextName.parse("Branch=York, Period=P1")
        engine.store.purge_context(context)
        trails.append(EVENT_PURGE, 2.0, {"context": str(context)})
        second = engine.check(request("alice", AUDITOR, timestamp=3.0))
        assert second.granted  # history was purged
        trails.append(EVENT_DECISION, 3.0, decision_event_payload(second))
        report = what_if_replay(reader(str(tmp_path)), bank_set())
        assert report.flip_count == 0
        assert report.decisions_replayed == 2


# ----------------------------------------------------------------------
class TestFlipDetection:
    def test_tightened_set_reports_the_exact_flip(self, tmp_path):
        # Under 3-of-{T,A,C} alice may hold Teller and Auditor; the
        # tightened 2-of-{T,A} candidate flips exactly her second grant.
        history = [
            request("alice", TELLER, timestamp=1.0, request_id="r1"),
            request("alice", AUDITOR, timestamp=2.0, request_id="r2"),
            request("bob", TELLER, timestamp=3.0, request_id="r3"),
        ]
        _, effects = record_trail(
            str(tmp_path), history, bank_set((TELLER, AUDITOR, CLERK), 3)
        )
        assert effects == ["grant", "grant", "grant"]
        report = what_if_replay(reader(str(tmp_path)), bank_set())
        assert report.flip_count == 1
        assert report.grant_to_deny == 1
        assert report.deny_to_grant == 0
        flip = report.flips[0]
        assert flip.request_id == "r2"
        assert flip.user_id == "alice"
        assert flip.operation == "auditBooks"
        assert flip.recorded_effect == "grant"
        assert flip.replayed_effect == "deny"
        assert flip.replayed_policy_id == "bank"
        assert "MMER" in flip.replayed_constraint

    def test_swapped_roles_flip_a_recorded_deny_to_grant(self, tmp_path):
        record_trail(str(tmp_path), MIXED_REQUESTS, bank_set())
        report = what_if_replay(
            reader(str(tmp_path)), bank_set((TELLER, MANAGER))
        )
        assert report.deny_to_grant == 2  # alice's and bob's denials
        assert report.grant_to_deny == 0

    def test_flip_detail_cap_keeps_counts_exact(self, tmp_path):
        record_trail(str(tmp_path), MIXED_REQUESTS, bank_set())
        report = what_if_replay(
            reader(str(tmp_path)),
            bank_set((TELLER, MANAGER)),
            max_flips_recorded=1,
        )
        assert len(report.flips) == 1
        assert report.flip_count == 2

    def test_since_filter_skips_older_events(self, tmp_path):
        record_trail(str(tmp_path), MIXED_REQUESTS, bank_set())
        report = what_if(
            bank_set((TELLER, MANAGER)), str(tmp_path), audit_key=KEY, since=3.0
        )
        # Only bob's deny (t=4) remains flippable after the cutoff.
        assert report.deny_to_grant == 1

    def test_a_negative_last_n_trails_is_refused(self, tmp_path):
        record_trail(str(tmp_path), MIXED_REQUESTS, bank_set())
        with pytest.raises(ValueError, match="last_n_trails"):
            what_if(bank_set(), str(tmp_path), audit_key=KEY, last_n_trails=-1)


# ----------------------------------------------------------------------
class TestReportMechanics:
    def test_round_trip(self, tmp_path):
        record_trail(str(tmp_path), MIXED_REQUESTS, bank_set())
        report = what_if_replay(
            reader(str(tmp_path)), bank_set((TELLER, MANAGER))
        )
        clone = WhatIfReport.from_dict(report.to_dict())
        assert clone == report

    def test_flip_str_mentions_direction(self, tmp_path):
        record_trail(str(tmp_path), MIXED_REQUESTS, bank_set())
        report = what_if_replay(
            reader(str(tmp_path)), bank_set((TELLER, MANAGER))
        )
        assert "deny->grant" in str(report.flips[0])

    def test_payload_without_request_is_an_error(self):
        with pytest.raises(AuditTrailError):
            decision_from_event({"effect": "grant"})


# ----------------------------------------------------------------------
@st.composite
def request_streams(draw):
    """Short random decision streams over a handful of users/roles."""
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # user
                st.sampled_from([TELLER, AUDITOR]),
                st.integers(min_value=1, max_value=2),  # period
            ),
            min_size=1,
            max_size=25,
        )
    )
    return [
        request(
            f"user-{user}", role, period=f"P{period}", timestamp=float(index)
        )
        for index, (user, role, period) in enumerate(entries)
    ]


@settings(max_examples=25, deadline=None)
@given(stream=request_streams())
def test_property_same_set_replay_is_deterministic_fixpoint(stream):
    """Replaying any trail under its own set flips nothing, and the
    report is bit-identical across memory and SQLite replay stores."""
    with tempfile.TemporaryDirectory() as directory:
        record_trail(directory, stream, bank_set())
        memory = what_if_replay(
            reader(directory), bank_set(), InMemoryRetainedADIStore()
        )
        sqlite_store = SQLiteRetainedADIStore(f"{directory}/replay.db")
        try:
            sqlite = what_if_replay(reader(directory), bank_set(), sqlite_store)
        finally:
            sqlite_store.close()
        assert memory.flip_count == 0
        assert memory.decisions_replayed == len(stream)
        assert memory.to_dict() == sqlite.to_dict()


# ----------------------------------------------------------------------
class TestLiveTrail:
    def test_a_checkpoint_one_behind_is_replayed_without_a_warning(
        self, tmp_path
    ):
        """Between a record's write and its checkpoint's, the trail is
        one record ahead: a live replay reads every record and says
        nothing, because that is not a crash."""
        from repro.api import open_server

        directory = str(tmp_path / "trails")
        with AuditTrailManager(directory, KEY) as trails:
            with open_server(bank_set(), audit=trails) as server:
                with server.client() as pdp:
                    for req in MIXED_REQUESTS[:-1]:
                        pdp.decide(req)
                    [path] = trails.trail_paths()
                    with open(path + ".chk", "rb") as handle:
                        lagging = handle.read()
                    pdp.decide(MIXED_REQUESTS[-1])
                    with open(path + ".chk", "wb") as handle:
                        handle.write(lagging)
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        local = server.service.what_if(bank_set())
                        wire = pdp.what_if(bank_set())
        assert [str(w.message) for w in caught] == []
        assert local.decisions_replayed == len(MIXED_REQUESTS)
        assert wire["decisions_replayed"] == len(MIXED_REQUESTS)
