"""Live policy hot-reload: epochs, digests, atomic swaps, replay.

Covers the policy-versioning layer end to end: digest canonicalisation,
:class:`PolicyVersion`/:class:`PolicySwapReport` wire round-trips, the
engine's atomic ``swap_policy`` (no-op detection, one-assignment install,
epoch stamping), concurrency (every in-flight decision lands wholly
under one policy version), the uniform ``reload_policy`` on local,
server and remote handles, and audit-trail recovery across a reload.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import load_policy_source, open_pdp, open_server
from repro.audit import (
    EVENT_DECISION,
    AuditTrailManager,
    decision_event_payload,
    recover_retained_adi,
)
from repro.core import (
    INITIAL_EPOCH,
    MMER,
    ContextName,
    Decision,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    PolicySwapReport,
    PolicyVersion,
    Role,
    SQLiteRetainedADIStore,
    policy_set_digest,
    store_digest,
)
from repro.errors import PolicyError
from repro.obs import Recorder
from repro.workload import decision_request_stream
from repro.xmlpolicy import bank_policy_set, parse_policy_set, write_policy_set

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")


def bank_set() -> MSoDPolicySet:
    return bank_policy_set()


def regional_policy() -> MSoDPolicy:
    """A policy over a context the bank workload never touches."""
    return MSoDPolicy(
        ContextName.parse("Region=*, Quarter=!"),
        mmers=[MMER([TELLER, AUDITOR], 2)],
        policy_id="regional",
    )


def extended_set() -> MSoDPolicySet:
    return MSoDPolicySet(list(bank_set()) + [regional_policy()])


def request(user: str, role: Role, index: int = 0) -> DecisionRequest:
    return DecisionRequest(
        user_id=user,
        roles=(role,),
        operation="handleCash" if role == TELLER else "auditBooks",
        target="till://cash" if role == TELLER else "ledger://books",
        context_instance=ContextName.parse("Branch=B1, Period=P1"),
        timestamp=float(index),
    )


# ---------------------------------------------------------------------------
# Digest canonicalisation
# ---------------------------------------------------------------------------
class TestPolicySetDigest:
    def test_deterministic(self):
        assert policy_set_digest(bank_set()) == policy_set_digest(bank_set())

    def test_role_order_within_constraint_is_canonical(self):
        a = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="bank",
                )
            ]
        )
        b = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[MMER([AUDITOR, TELLER], 2)],
                    policy_id="bank",
                )
            ]
        )
        assert policy_set_digest(a) == policy_set_digest(b)

    def test_semantic_change_changes_digest(self):
        assert policy_set_digest(bank_set()) != policy_set_digest(
            extended_set()
        )

    def test_xml_round_trip_is_digest_stable(self):
        original = extended_set()
        round_tripped = parse_policy_set(write_policy_set(original))
        assert policy_set_digest(original) == policy_set_digest(round_tripped)


# ---------------------------------------------------------------------------
# Version / report wire shapes
# ---------------------------------------------------------------------------
class TestVersionRoundTrip:
    def test_policy_version_round_trip(self):
        version = PolicyVersion(epoch=3, digest="ab" * 32, policies=2)
        assert PolicyVersion.from_dict(version.to_dict()) == version

    def test_policy_version_rejects_garbage(self):
        with pytest.raises(PolicyError):
            PolicyVersion.from_dict({"epoch": "three", "digest": "", "policies": 0})
        with pytest.raises(PolicyError):
            PolicyVersion.from_dict({"epoch": True, "digest": "x", "policies": 1})

    def test_swap_report_round_trip(self):
        previous = PolicyVersion(epoch=1, digest="a" * 64, policies=1)
        version = PolicyVersion(epoch=2, digest="b" * 64, policies=2)
        report = PolicySwapReport(
            version=version,
            previous=previous,
            changed=True,
            findings=("note one",),
        )
        assert PolicySwapReport.from_dict(report.to_dict()) == report


# ---------------------------------------------------------------------------
# Engine swap semantics
# ---------------------------------------------------------------------------
class TestEngineSwap:
    def test_initial_version(self):
        engine = MSoDEngine(bank_set(), InMemoryRetainedADIStore())
        version = engine.policy_version()
        assert version.epoch == INITIAL_EPOCH
        assert version.digest == policy_set_digest(bank_set())

    def test_decisions_stamp_the_active_version(self):
        engine = MSoDEngine(bank_set(), InMemoryRetainedADIStore())
        decision = engine.check(request("alice", TELLER, 1))
        assert decision.policy_epoch == INITIAL_EPOCH
        assert decision.policy_digest == engine.policy_digest
        engine.swap_policy(extended_set())
        decision = engine.check(request("alice", TELLER, 2))
        assert decision.policy_epoch == INITIAL_EPOCH + 1
        assert decision.policy_digest == policy_set_digest(extended_set())

    def test_identical_reload_is_a_noop(self):
        perf = Recorder()
        engine = MSoDEngine(
            bank_set(), InMemoryRetainedADIStore(), perf=perf
        )
        report = engine.swap_policy(
            parse_policy_set(write_policy_set(bank_set()))
        )
        assert not report.changed
        assert engine.policy_epoch == INITIAL_EPOCH
        assert perf.counter("engine.policy_reload_noops") == 1
        assert perf.counter("engine.policy_reloads") == 0

    def test_force_advances_epoch_on_identical_digest(self):
        engine = MSoDEngine(bank_set(), InMemoryRetainedADIStore())
        report = engine.swap_policy(bank_set(), force=True)
        assert report.changed
        assert engine.policy_epoch == INITIAL_EPOCH + 1
        assert report.version.digest == report.previous.digest

    def test_swap_takes_effect_semantically(self):
        """A constraint added by the reload denies what it must."""
        engine = MSoDEngine(bank_set(), InMemoryRetainedADIStore())
        regional_context = ContextName.parse("Region=R1, Quarter=Q1")

        def regional_request(role, index):
            return DecisionRequest(
                user_id="carol",
                roles=(role,),
                operation="handleCash" if role == TELLER else "auditBooks",
                target="till://cash" if role == TELLER else "ledger://books",
                context_instance=regional_context,
                timestamp=float(index),
            )

        # Before the reload the regional context is unconstrained.
        assert engine.check(regional_request(TELLER, 1)).granted
        assert engine.check(regional_request(AUDITOR, 2)).granted
        engine.swap_policy(extended_set())
        # After it, exercising the second exclusive role is an MSoD deny
        # (the teller grant was re-recorded under the new index).
        assert engine.check(regional_request(TELLER, 3)).granted
        assert engine.check(regional_request(AUDITOR, 4)).denied

    def test_concurrent_decisions_land_under_one_version(self):
        """No decision may mix two policy versions mid-evaluation.

        Uses the SQLite store — the backend whose single-lock
        discipline supports genuinely concurrent callers — with one
        user population per thread, so the only shared mutable state
        under test is the engine's active-policy tuple.
        """
        engine = MSoDEngine(bank_set(), SQLiteRetainedADIStore(":memory:"))
        digests = {
            INITIAL_EPOCH + offset: policy_set_digest(policy_set)
            for offset, policy_set in enumerate(
                [bank_set(), extended_set(), bank_set()]
            )
        }
        stop = threading.Event()
        torn: list[Decision] = []
        errors: list[BaseException] = []

        def decider(worker: int) -> None:
            index = 0
            try:
                while not stop.is_set():
                    index += 1
                    decision = engine.check(
                        request(f"user-{worker}-{index % 7}", TELLER, index)
                    )
                    if digests[decision.policy_epoch] != decision.policy_digest:
                        torn.append(decision)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=decider, args=(worker,))
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            engine.swap_policy(extended_set())
            engine.swap_policy(bank_set())
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors
        assert not torn
        assert engine.policy_epoch == INITIAL_EPOCH + 2


# ---------------------------------------------------------------------------
# Uniform reload across the PDP handles + differential equivalence
# ---------------------------------------------------------------------------
class TestUniformReload:
    def test_load_policy_source_accepts_xml_text(self):
        loaded = load_policy_source(write_policy_set(bank_set()))
        assert policy_set_digest(loaded) == policy_set_digest(bank_set())

    def test_load_policy_source_rejects_none(self):
        with pytest.raises(PolicyError):
            load_policy_source(None)

    def test_local_pdp_reload(self):
        with open_pdp(bank_set()) as pdp:
            assert pdp.policy_version().epoch == INITIAL_EPOCH
            report = pdp.reload_policy(write_policy_set(extended_set()))
            assert report.changed
            assert pdp.policy_version().epoch == INITIAL_EPOCH + 1

    def test_remote_reload_and_status(self):
        with open_server(bank_set()) as server:
            with server.client() as pdp:
                status = pdp.policy_status()
                assert status["version"]["epoch"] == INITIAL_EPOCH
                assert status["reloads"] == 0
                noop = pdp.reload_policy(write_policy_set(bank_set()))
                assert not noop.changed
                report = pdp.reload_policy(extended_set())
                assert report.changed
                assert pdp.policy_version().epoch == INITIAL_EPOCH + 1
                assert pdp.policy_status()["reloads"] == 1
                decision = pdp.decide(request("dora", TELLER, 9))
                assert decision.policy_epoch == INITIAL_EPOCH + 1

    def test_remote_reload_rejects_bad_xml(self):
        with open_server(bank_set()) as server:
            with server.client() as pdp:
                with pytest.raises(PolicyError):
                    pdp.reload_policy("<MSoDPolicySet><oops/")
                # The active policy is untouched by the rejection.
                assert pdp.policy_version().epoch == INITIAL_EPOCH

    def test_identical_reload_is_differentially_invisible(self):
        """Memory, SQLite and remote decide bit-identically across a
        digest no-op reload injected mid-stream."""
        requests = list(decision_request_stream(120, n_users=12, seed=3))
        reload_at = len(requests) // 2

        def run_local(store) -> list:
            with open_pdp(bank_set(), store=store) as pdp:
                decisions = []
                for index, req in enumerate(requests):
                    if index == reload_at:
                        assert not pdp.reload_policy(
                            write_policy_set(bank_set())
                        ).changed
                    decisions.append(pdp.decide(req))
                digest = store_digest(pdp.store)
                return decisions, digest

        memory_decisions, memory_digest = run_local("memory")
        sqlite_decisions, sqlite_digest = run_local(
            SQLiteRetainedADIStore(":memory:")
        )
        with open_server(bank_set()) as server:
            with server.client() as pdp:
                remote_decisions = []
                for index, req in enumerate(requests):
                    if index == reload_at:
                        assert not pdp.reload_policy(bank_set()).changed
                    remote_decisions.append(pdp.decide(req))

        assert memory_decisions == sqlite_decisions
        assert memory_digest == sqlite_digest
        for local, remote in zip(memory_decisions, remote_decisions):
            assert local.effect == remote.effect
            assert local.policy_epoch == remote.policy_epoch
            assert local.policy_digest == remote.policy_digest
            assert local.reason == remote.reason


# ---------------------------------------------------------------------------
# Recovery across a reload
# ---------------------------------------------------------------------------
class TestEpochAwareRecovery:
    def _trail_spanning_a_reload(self, tmp_path):
        """Grant under the bank policy, then narrow to regional-only."""
        trails = AuditTrailManager(str(tmp_path), b"reload-key")
        engine = MSoDEngine(bank_set(), InMemoryRetainedADIStore())
        for index in range(1, 9):
            decision = engine.check(request(f"user-{index}", TELLER, index))
            assert decision.granted
            trails.append(
                EVENT_DECISION,
                decision.request.timestamp,
                decision_event_payload(decision),
            )
        narrowed = MSoDPolicySet([regional_policy()])
        engine.swap_policy(narrowed)
        return trails, engine

    def test_payload_carries_policy_version(self, tmp_path):
        trails, engine = self._trail_spanning_a_reload(tmp_path)
        events = list(trails.events())
        assert events
        for event in events:
            assert event.payload["policy_epoch"] == INITIAL_EPOCH
            assert len(event.payload["policy_digest"]) == 64

    def test_resolver_replays_under_the_producing_policy(self, tmp_path):
        trails, engine = self._trail_spanning_a_reload(tmp_path)
        # The trail holds the adds the producing (bank) policy made;
        # policy_set=None applies every one of them, so the replay
        # reproduces the engine's own store, which the reload did not
        # touch. No epoch is resolved to a set.
        mirror = InMemoryRetainedADIStore()
        report = recover_retained_adi(trails, None, mirror)
        assert report.records_replayed >= 8
        assert report.records_replayed == engine.store.count()
        assert report.records_skipped == 0
        assert store_digest(mirror) == store_digest(engine.store)

    def test_unresolvable_epoch_falls_back_to_current_set(self, tmp_path):
        trails, engine = self._trail_spanning_a_reload(tmp_path)
        # Given a set, replay filters by it ("according to its current
        # set of MSoD policies"): the narrowed set drops the bank records.
        plain = InMemoryRetainedADIStore()
        report = recover_retained_adi(trails, engine.policy_set, plain)
        assert report.records_replayed == 0
        assert report.records_skipped >= 8
        assert report.records_skipped == engine.store.count()
        assert plain.count() == 0
