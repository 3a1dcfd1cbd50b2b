"""Tests for the recorder's counters/histograms and their pipeline wiring."""

import pytest

from repro.core import (
    ContextName,
    DecisionRequest,
    Effect,
    InMemoryRetainedADIStore,
    MMER,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Role,
)
from repro.framework.pdp import ReferenceRBACMSoDPDP, RoleTargetAccessPolicy
from repro.obs import (
    LATENCY_BUCKET_BOUNDS,
    NOOP,
    NoopRecorder,
    Recorder,
    StageStats,
)

_CLERK = Role("role", "Clerk")
_AUDITOR = Role("role", "Auditor")


def _engine(perf=None, store=None):
    policy_set = MSoDPolicySet(
        [
            MSoDPolicy(
                business_context=ContextName.parse("Dept=*"),
                mmers=[MMER([_CLERK, _AUDITOR], 2)],
                policy_id="p1",
            )
        ]
    )
    return MSoDEngine(
        policy_set, store if store is not None else InMemoryRetainedADIStore(),
        perf=perf,
    )


def _request(index, user, role, dept="d1"):
    return DecisionRequest(
        user_id=user,
        roles=(role,),
        operation="op",
        target="t",
        context_instance=ContextName.parse(f"Dept={dept}"),
        timestamp=float(index),
        request_id=f"r{index}",
    )


class TestPerfRecorder:
    def test_counters_accumulate(self):
        perf = Recorder()
        perf.incr("a")
        perf.incr("a", 4)
        assert perf.counter("a") == 5
        assert perf.counter("missing") == 0

    def test_stage_timing_with_fake_clock(self):
        ticks = iter([1.0, 1.25])
        perf = Recorder(clock=lambda: next(ticks))
        started = perf.start()
        assert perf.span("stage", started) == 1.25
        stats = perf.stage("stage")
        assert stats.count == 1
        assert stats.total == pytest.approx(0.25)
        assert stats.min == pytest.approx(0.25)
        assert stats.max == pytest.approx(0.25)

    def test_snapshot_and_reset(self):
        ticks = iter([0.0, 0.003])
        perf = Recorder(clock=lambda: next(ticks))
        perf.incr("n", 2)
        perf.span("s", perf.start())
        snap = perf.snapshot()
        assert snap["counters"] == {"n": 2}
        assert snap["stages"]["s"]["count"] == 1
        perf.reset()
        assert perf.snapshot() == {"counters": {}, "stages": {}}

    def test_histogram_buckets_and_quantiles(self):
        stats = StageStats()
        for seconds in (1e-6, 1e-6, 1e-3, 1.0):
            stats.observe(seconds)
        assert stats.count == 4
        assert sum(stats.buckets) == 4
        # Quantiles are approximated by bucket upper bounds.
        assert stats.quantile(0.5) in LATENCY_BUCKET_BOUNDS
        assert stats.quantile(1.0) >= stats.quantile(0.25)
        assert StageStats().quantile(0.5) == 0.0

    def test_overflow_bucket(self):
        stats = StageStats()
        stats.observe(99.0)
        assert stats.buckets[-1] == 1
        assert ">10s" in stats.to_dict()["buckets"]


class TestNoop:
    def test_noop_records_nothing(self):
        noop = NoopRecorder()
        noop.incr("x")
        noop.span("s", noop.start())
        noop.observe_size("n", 3)
        assert noop.counter("x") == 0
        assert noop.stage("s") is None
        assert noop.size("n") is None
        assert noop.enabled is False

    def test_the_repro_perf_names_are_the_same_objects(self):
        # benchmarks/e2e (frozen) imports the recorder by its old path.
        import repro.perf

        assert repro.perf.PerfRecorder is Recorder
        assert repro.perf.NOOP is NOOP

    def test_noop_refuses_to_trace(self):
        with pytest.raises(ValueError):
            NOOP.trace_decisions()
        assert not NOOP.tracing

    def test_shared_noop_is_disabled(self):
        assert NOOP.enabled is False


class TestEngineWiring:
    def test_engine_counts_grants_and_denies(self):
        perf = Recorder()
        engine = _engine(perf=perf)
        assert engine.check(_request(0, "alice", _CLERK)).effect is Effect.GRANT
        assert engine.check(_request(1, "alice", _AUDITOR)).effect is Effect.DENY
        assert perf.counter("engine.requests") == 2
        assert perf.counter("engine.grants") == 1
        assert perf.counter("engine.denies") == 1
        # The context-starting grant stores the base record plus the
        # MMER role record (algorithm steps 4 and 5.iv).
        assert perf.counter("engine.records_added") == 2
        assert perf.stage("engine.check").count == 2

    def test_engine_counts_unmatched_contexts(self):
        perf = Recorder()
        engine = _engine(perf=perf)
        decision = engine.check(
            DecisionRequest(
                user_id="alice",
                roles=(_CLERK,),
                operation="op",
                target="t",
                context_instance=ContextName.parse("Elsewhere=e1"),
                request_id="r0",
            )
        )
        assert decision.effect is Effect.GRANT
        assert perf.counter("engine.no_policy_matched") == 1

    def test_engine_defaults_to_noop(self):
        engine = _engine()
        assert engine.perf is NOOP
        engine.check(_request(0, "alice", _CLERK))
        assert NOOP.counter("engine.requests") == 0

    def test_decisions_identical_with_and_without_perf(self):
        with_perf = _engine(perf=Recorder())
        without = _engine()
        for index, (user, role) in enumerate(
            [("a", _CLERK), ("a", _AUDITOR), ("b", _AUDITOR), ("b", _CLERK)]
        ):
            lhs = with_perf.check(_request(index, user, role))
            rhs = without.check(_request(index, user, role))
            assert (lhs.effect, lhs.reason) == (rhs.effect, rhs.reason)


class TestPDPWiring:
    def test_reference_pdp_counts_rbac_denies(self):
        perf = Recorder()
        access = RoleTargetAccessPolicy({_CLERK: []})
        pdp = ReferenceRBACMSoDPDP(access, _engine(perf=perf), perf=perf)
        decision = pdp.decide(_request(0, "alice", _CLERK))
        assert decision.effect is Effect.DENY
        assert perf.counter("pdp.requests") == 1
        assert perf.counter("pdp.rbac_denies") == 1
        assert perf.stage("pdp.rbac").count == 1
