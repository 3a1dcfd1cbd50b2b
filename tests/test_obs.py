"""Tests for repro.obs: the recorder's traces, the slow-decision log and metrics.

The load-bearing property is the differential one: recording must never
change a decision — same effect, same reason, same retained ADI — with
the recorder off, counting only, or tracing, across the in-memory,
SQLite, tiered and remote backends.
"""

import collections
import dataclasses

import pytest

from repro.core import (
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Privilege,
    Role,
    SQLiteRetainedADIStore,
    TieredADIStore,
    store_digest,
)
from repro.framework.pdp import ReferenceRBACMSoDPDP, RoleTargetAccessPolicy
from repro.obs import (
    NOOP,
    DecisionTrace,
    MetricsRegistry,
    Recorder,
    SlowDecisionLog,
    TraceSpan,
    TraceViolation,
    parse_exposition,
)
from repro.permis import (
    LdapDirectory,
    PermisPDP,
    PermisPolicyBuilder,
    PrivilegeAllocator,
    TrustStore,
)

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")


def bank_policy_set():
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=[MMER([TELLER, AUDITOR], 2)],
                policy_id="bank",
            )
        ]
    )


def make_request(user, role, index=0, period="P1"):
    operation, target = (
        ("handleCash", "till://1") if role is TELLER else ("auditBooks", "l://1")
    )
    return DecisionRequest(
        user_id=user,
        roles=(role,),
        operation=operation,
        target=target,
        context_instance=ContextName.parse(f"Branch=York, Period={period}"),
        timestamp=float(index),
        request_id=f"req-{user}-{index}",
    )


class TestTracedEngine:
    def test_granted_decision_carries_spans(self):
        engine = MSoDEngine(
            bank_policy_set(),
            InMemoryRetainedADIStore(),
            perf=Recorder().trace_decisions(),
        )
        decision = engine.check(make_request("alice", TELLER))
        assert decision.granted
        trace = decision.trace
        assert trace is not None
        assert trace.effect == decision.effect
        stages = trace.stage_durations()
        assert "engine.match" in stages
        assert "engine.constraints" in stages
        assert "store.commit" in stages
        assert all(duration >= 0.0 for duration in stages.values())
        # Offsets order the spans as a waterfall within the total.
        for span in trace.spans:
            assert 0.0 <= span.offset_s <= trace.total_s + 1e-6

    def test_denied_trace_names_violating_policy(self):
        engine = MSoDEngine(
            bank_policy_set(),
            InMemoryRetainedADIStore(),
            perf=Recorder().trace_decisions(),
        )
        assert engine.check(make_request("alice", TELLER, 0)).granted
        denied = engine.check(make_request("alice", AUDITOR, 1))
        assert not denied.granted
        trace = denied.trace
        assert trace is not None
        assert trace.violation is not None
        assert trace.violation.policy_id == "bank"
        assert trace.violation.constraint_kind == "MMER"
        assert "bank" in trace.matched_policy_ids
        assert "store.commit" not in trace.stage_durations()

    def test_trace_carries_the_policy_epoch(self):
        engine = MSoDEngine(
            bank_policy_set(),
            InMemoryRetainedADIStore(),
            perf=Recorder().trace_decisions(),
        )
        first = engine.check(make_request("alice", TELLER, 0))
        assert first.trace.policy_epoch == 1
        engine.swap_policy(bank_policy_set(), force=True)
        second = engine.check(make_request("bob", TELLER, 1))
        assert second.trace.policy_epoch == 2
        # And it survives serialisation.
        round_tripped = DecisionTrace.from_dict(second.trace.to_dict())
        assert round_tripped.policy_epoch == 2

    def test_untraced_engine_attaches_nothing(self):
        engine = MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore())
        assert engine.perf is NOOP
        decision = engine.check(make_request("alice", TELLER))
        assert decision.trace is None

    def test_counting_recorder_attaches_nothing(self):
        perf = Recorder()
        engine = MSoDEngine(
            bank_policy_set(), InMemoryRetainedADIStore(), perf=perf
        )
        assert not perf.tracing and perf.slow_log is None
        assert engine.check(make_request("alice", TELLER)).trace is None

    def test_render_mentions_stages_and_policy(self):
        engine = MSoDEngine(
            bank_policy_set(),
            InMemoryRetainedADIStore(),
            perf=Recorder().trace_decisions(),
        )
        engine.check(make_request("alice", TELLER, 0))
        denied = engine.check(make_request("alice", AUDITOR, 1))
        text = denied.trace.render()
        assert "engine.match" in text
        assert "bank" in text
        assert "DENY" in text


def _tiered_store():
    return TieredADIStore(InMemoryRetainedADIStore(), hot_users=2, shards=2)


class TestDifferentialTracing:
    """The recorder must be a pure observer: decisions stay bit-identical."""

    @pytest.mark.parametrize("store_factory", [
        InMemoryRetainedADIStore,
        lambda: SQLiteRetainedADIStore(":memory:"),
        _tiered_store,
    ])
    def test_decisions_identical_with_and_without_tracing(self, store_factory):
        plain_store, counted_store, traced_store = (
            store_factory(), store_factory(), store_factory()
        )
        plain = MSoDEngine(bank_policy_set(), plain_store)
        counted = MSoDEngine(
            bank_policy_set(), counted_store, perf=Recorder()
        )
        traced = MSoDEngine(
            bank_policy_set(), traced_store, perf=Recorder().trace_decisions()
        )
        script = [
            ("alice", TELLER),
            ("alice", AUDITOR),  # denied by the MMER
            ("bob", AUDITOR),
            ("bob", TELLER),     # denied
            ("carol", TELLER),
            ("alice", TELLER),   # repeat role: granted again
        ]
        for index, (user, role) in enumerate(script):
            request = make_request(user, role, index)
            expected = plain.check(request)
            assert counted.check(request) == expected
            got = traced.check(request)
            # Decision equality excludes the trace field by design.
            assert got == expected
            assert got.trace is not None and expected.trace is None
            assert got._replace(trace=None) == expected
        assert (
            store_digest(plain_store)
            == store_digest(counted_store)
            == store_digest(traced_store)
        )

    def test_trace_effect_mirrors_decision(self):
        engine = MSoDEngine(
            bank_policy_set(),
            InMemoryRetainedADIStore(),
            perf=Recorder().trace_decisions(),
        )
        for index, (user, role) in enumerate(
            [("alice", TELLER), ("alice", AUDITOR)]
        ):
            request = make_request(user, role, index)
            decision = engine.check(request)
            assert decision.trace.effect == decision.effect
            assert decision.trace.request_id == request.request_id
            assert decision.trace.records_added == decision.records_added


HANDLE_CASH = Privilege("handleCash", "till://1")
AUDIT_BOOKS = Privilege("auditBooks", "l://1")
SOA_DN = "cn=SOA,o=bank,c=gb"
ALICE = "cn=alice,o=bank,c=gb"
YORK = ContextName.parse("Branch=York, Period=P1")


def reference_pdp(perf, store=None):
    """RBAC (tellers handle cash, auditors audit) in front of the engine."""
    engine = MSoDEngine(
        bank_policy_set(),
        store if store is not None else InMemoryRetainedADIStore(),
        perf=perf,
    )
    access = RoleTargetAccessPolicy(
        {TELLER: [HANDLE_CASH], AUDITOR: [AUDIT_BOOKS]}
    )
    return ReferenceRBACMSoDPDP(access, engine)


def permis_pdp(perf, store=None):
    """A PERMIS PDP whose directory holds alice's Teller credential."""
    directory = LdapDirectory()
    allocator = PrivilegeAllocator(SOA_DN, b"soa-key", directory)
    trust = TrustStore()
    trust.trust(allocator.soa_dn, allocator.verification_key)
    policy = (
        PermisPolicyBuilder()
        .allow_assignment(SOA_DN, [TELLER, AUDITOR], "o=bank,c=gb")
        .grant(TELLER, [HANDLE_CASH])
        .grant(AUDITOR, [AUDIT_BOOKS])
        .with_msod(bank_policy_set())
        .build()
    )
    allocator.issue(ALICE, [TELLER], 0, 100)
    return PermisPDP(policy, trust, directory, store=store, perf=perf)


def permis_decide(perf, store=None):
    """``PermisPDP.decide`` for requests whose users are plain names."""
    pdp = permis_pdp(perf, store)
    return lambda request: pdp.decide(
        request._replace(user_id=f"cn={request.user_id},o=bank,c=gb")
    )


def unmatched_request(user="alice"):
    return make_request(user, TELLER, 9)._replace(
        context_instance=ContextName.parse("Elsewhere=e1"),
    )


def rbac_denied_request(user="alice"):
    # A teller asking to audit: no presented role grants the privilege.
    return make_request(user, AUDITOR, 8)._replace(roles=(TELLER,))


class TestOneVocabulary:
    """A trace's span names are the stage names the histograms gained."""

    def _assert_same_stages(self, perf, decision, expected):
        trace = decision.trace
        names = [span.name for span in trace.spans]
        assert names == expected
        assert {
            name: stats.count for name, stats in perf.stages().items()
        } == collections.Counter(names)
        check = trace.span("engine.check")
        if check is not None:
            assert trace.total_s >= check.offset_s + check.duration_s
        perf.reset()

    def test_reference_pdp_paths(self):
        perf = Recorder().trace_decisions()
        pdp = reference_pdp(perf)
        engine_grant = [
            "pdp.rbac", "engine.match", "engine.constraints",
            "store.commit", "engine.check",
        ]
        self._assert_same_stages(
            perf, pdp.decide(make_request("alice", TELLER, 0)), engine_grant
        )
        denied = pdp.decide(make_request("alice", AUDITOR, 1))
        assert denied.violation is not None
        self._assert_same_stages(
            perf,
            denied,
            ["pdp.rbac", "engine.match", "engine.constraints", "engine.check"],
        )
        self._assert_same_stages(
            perf,
            pdp.decide(unmatched_request()),
            ["pdp.rbac", "engine.match", "engine.check"],
        )
        rbac_denied = pdp.decide(rbac_denied_request())
        assert rbac_denied.denied and rbac_denied.violation is None
        self._assert_same_stages(perf, rbac_denied, ["pdp.rbac"])

    def test_permis_pipeline(self):
        perf = Recorder().trace_decisions()
        pdp = permis_pdp(perf)
        granted = pdp.decision(ALICE, "handleCash", "till://1", YORK, at=5.0)
        assert granted.granted
        self._assert_same_stages(
            perf,
            granted,
            [
                "pdp.cvs", "pdp.rbac", "engine.match", "engine.constraints",
                "store.commit", "engine.check", "pdp.audit",
            ],
        )
        # Pre-validated roles skip the CVS, and so does its stage.
        denied = pdp.decision(
            ALICE, "auditBooks", "l://1", YORK, roles=[TELLER], at=6.0
        )
        assert denied.denied
        self._assert_same_stages(perf, denied, ["pdp.rbac", "pdp.audit"])

    def test_stage_spans_tile_the_check(self):
        ticks = iter(range(100))
        perf = Recorder(clock=lambda: float(next(ticks))).trace_decisions()
        engine = MSoDEngine(
            bank_policy_set(), InMemoryRetainedADIStore(), perf=perf
        )
        trace = engine.check(make_request("alice", TELLER)).trace
        match, constraints, commit, check = trace.spans
        assert check.name == "engine.check"
        # Each stage starts where the previous one ended, from the
        # start of the check; what follows the commit (building the
        # Decision) is the check's own tail.
        assert match.offset_s == check.offset_s
        assert constraints.offset_s == match.offset_s + match.duration_s
        assert commit.offset_s == constraints.offset_s + constraints.duration_s
        assert (
            commit.offset_s + commit.duration_s
            <= check.offset_s + check.duration_s
            <= trace.total_s
        )


class _StoreFailure(RuntimeError):
    pass


def _fail_next_apply(store):
    """Make the store's next ``apply`` raise, then behave again."""
    real = store.apply

    def apply(mutation):
        store.apply = real
        raise _StoreFailure("disk full")

    store.apply = apply


class TestFailedDecisionDoesNotPoisonTracing:
    """After a decision raises mid-pipeline the next one is traced alone."""

    @pytest.mark.parametrize("store_factory", [
        InMemoryRetainedADIStore,
        lambda: SQLiteRetainedADIStore(":memory:"),
    ])
    @pytest.mark.parametrize("build", [
        lambda perf, store: MSoDEngine(bank_policy_set(), store, perf=perf).check,
        lambda perf, store: reference_pdp(perf, store).decide,
        permis_decide,
    ], ids=["engine", "reference-pdp", "permis-pdp"])
    def test_next_decision_gets_its_own_sealed_trace(self, build, store_factory):
        perf = Recorder().trace_decisions(slowlog_capacity=8)
        store = store_factory()
        decide = build(perf, store)
        healthy = decide(make_request("zoe", TELLER, 0)).trace
        _fail_next_apply(store)
        with pytest.raises(_StoreFailure):
            decide(make_request("alice", TELLER, 1))
        assert perf.slow_log.offered == 1  # the failed one reached nobody
        for index, user in enumerate(("bob", "carol", "dave"), start=2):
            decision = decide(make_request(user, TELLER, index))
            trace = decision.trace
            assert trace is not None, "tracing stopped after the failure"
            assert trace.request_id == decision.request.request_id
            assert [span.name for span in trace.spans] == [
                span.name for span in healthy.spans
            ]
            assert perf.slow_log.offered == index


class _RaisingRecorder(Recorder):
    """Disabled, and every recording call is an error: guards must hold."""

    enabled = False

    def _refuse(self, *args, **kwargs):
        raise AssertionError("recorder called although enabled is False")

    incr = start = span = observe_size = _refuse
    begin = finish = abandon = trace_decisions = _refuse


class TestZeroCostWhenOff:
    """With ``enabled`` False the pipeline makes no recorder call at all."""

    def _drive(self, decide):
        assert decide(make_request("alice", TELLER, 0)).granted
        assert decide(make_request("alice", AUDITOR, 1)).violation is not None
        assert decide(unmatched_request()).granted

    def test_engine(self):
        engine = MSoDEngine(
            bank_policy_set(), InMemoryRetainedADIStore(), perf=_RaisingRecorder()
        )
        self._drive(engine.check)

    def test_reference_pdp(self):
        pdp = reference_pdp(_RaisingRecorder())
        self._drive(pdp.decide)
        assert pdp.decide(rbac_denied_request()).denied

    def test_permis_pdp(self):
        perf = _RaisingRecorder()
        decide = permis_decide(perf)
        self._drive(decide)
        assert decide(rbac_denied_request()).denied
        pdp = permis_pdp(perf)
        assert pdp.decision(ALICE, "handleCash", "till://1", YORK, at=5.0).granted
        assert pdp.decision(
            "cn=nobody,o=bank,c=gb", "handleCash", "till://1", YORK, at=5.0
        ).denied

    def test_server_round_trip(self):
        from repro.api import open_server

        with open_server(
            bank_policy_set(), n_shards=2, perf=_RaisingRecorder()
        ) as server:
            with server.client() as client:
                self._drive(client.decide)


class TestTraceSerialisation:
    def _trace(self):
        return DecisionTrace(
            request_id="r-1",
            user_id="alice",
            effect="deny",
            total_s=0.002,
            requested_at=7.0,
            spans=(
                TraceSpan("engine.match", 0.0, 0.001),
                TraceSpan("engine.constraints", 0.001, 0.0005),
            ),
            matched_policy_ids=("bank",),
            violation=TraceViolation("bank", "MMER", "2 of 2 roles"),
            records_added=0,
            records_purged=0,
        )

    def test_round_trip(self):
        trace = self._trace()
        assert DecisionTrace.from_dict(trace.to_dict()) == trace

    def test_round_trip_without_violation(self):
        trace = dataclasses.replace(
            self._trace(), effect="grant", violation=None, records_added=1
        )
        assert DecisionTrace.from_dict(trace.to_dict()) == trace

    @pytest.mark.parametrize("mutate", [
        lambda raw: raw.pop("request_id"),
        lambda raw: raw.__setitem__("total_s", "fast"),
        lambda raw: raw.__setitem__("spans", [{"name": 3}]),
        lambda raw: raw.__setitem__("violation", {"policy_id": 1}),
        lambda raw: raw.__setitem__("matched_policy_ids", [1, 2]),
    ])
    def test_from_dict_rejects_junk(self, mutate):
        raw = self._trace().to_dict()
        mutate(raw)
        with pytest.raises(ValueError):
            DecisionTrace.from_dict(raw)

    def test_span_lookup(self):
        trace = self._trace()
        assert trace.span("engine.match").duration_s == 0.001
        assert trace.span("store.commit") is None


class TestSlowDecisionLog:
    def _trace(self, request_id, total_s):
        return DecisionTrace(
            request_id=request_id,
            user_id="u",
            effect="grant",
            total_s=total_s,
            requested_at=0.0,
            spans=(),
            matched_policy_ids=(),
            violation=None,
            records_added=0,
            records_purged=0,
        )

    def test_keeps_the_n_slowest(self):
        log = SlowDecisionLog(capacity=3)
        for index, total in enumerate([0.5, 0.1, 0.9, 0.2, 0.7, 0.05]):
            log.offer(self._trace(f"r{index}", total))
        snapshot = log.snapshot()
        assert [trace.total_s for trace in snapshot] == [0.9, 0.7, 0.5]
        assert log.offered == 6

    def test_threshold_rises_as_log_fills(self):
        log = SlowDecisionLog(capacity=2)
        assert log.threshold() == 0.0
        log.offer(self._trace("a", 0.3))
        log.offer(self._trace("b", 0.6))
        assert log.threshold() == pytest.approx(0.3)
        assert not log.offer(self._trace("c", 0.1))
        assert log.offer(self._trace("d", 0.5))
        assert log.threshold() == pytest.approx(0.5)

    def test_engine_feeds_slow_log(self):
        perf = Recorder().trace_decisions(slowlog_capacity=8)
        log = perf.slow_log
        engine = MSoDEngine(
            bank_policy_set(), InMemoryRetainedADIStore(), perf=perf
        )
        for index in range(5):
            engine.check(make_request(f"user-{index}", TELLER, index))
        assert log.offered == 5
        assert len(log.snapshot()) == 5

    def test_to_dict_and_clear(self):
        log = SlowDecisionLog(capacity=2)
        log.offer(self._trace("a", 0.3))
        payload = log.to_dict()
        assert payload["capacity"] == 2
        assert payload["offered"] == 1
        assert payload["traces"][0]["request_id"] == "a"
        log.clear()
        assert log.snapshot() == []


class TestMetricsRegistry:
    def test_renders_counters_and_histograms(self):
        perf = Recorder()
        engine = MSoDEngine(
            bank_policy_set(), InMemoryRetainedADIStore(), perf=perf
        )
        for index in range(4):
            engine.check(make_request(f"user-{index}", TELLER, index))
        registry = MetricsRegistry()
        registry.register_perf(perf)
        text = registry.render()
        samples = parse_exposition(text)
        by_name = {}
        for name, labels, value in samples:
            by_name.setdefault(name, []).append((labels, value))
        assert by_name["repro_engine_requests_total"][0][1] == 4.0
        buckets = [
            (labels, value)
            for labels, value in by_name["repro_stage_duration_seconds_bucket"]
            if labels.get("stage") == "engine.check"
        ]
        assert buckets, "engine.check histogram missing"
        assert buckets[-1][0]["le"] == "+Inf"
        # Cumulative: bucket counts are monotonically non-decreasing.
        values = [value for _, value in buckets]
        assert values == sorted(values)
        assert values[-1] == 4.0

    def test_gauges_and_labels(self):
        registry = MetricsRegistry()
        registry.register_gauge(
            "queue_depth", "Depth.", lambda: [({"shard": "0"}, 3.0)]
        )
        samples = parse_exposition(registry.render())
        assert ("repro_queue_depth", {"shard": "0"}, 3.0) in samples

    def test_parse_exposition_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not { prometheus\n")

    def test_duplicate_perf_registration_is_ignored(self):
        perf = Recorder()
        perf.incr("x")
        registry = MetricsRegistry()
        registry.register_perf(perf)
        registry.register_perf(perf)
        samples = parse_exposition(registry.render())
        matches = [s for s in samples if s[0] == "repro_x_total"]
        assert len(matches) == 1
        assert matches[0][2] == 1.0
