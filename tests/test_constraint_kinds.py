"""Tests for the pluggable constraint-kind API (MMCD + admin boundaries).

Covers the registry, the two new families end to end (XML -> engine ->
wire -> audit -> epoch-aware replay), the self-protecting policy-reload
guard across every handle flavour, the new static-verifier findings and
the bank-scale combination-of-duty workloads.
"""

import os
import threading

import pytest

from repro.api import open_pdp
from repro.audit import (
    AuditTrailManager,
    EVENT_DECISION,
    decision_event_payload,
    recover_retained_adi,
)
from repro.core import (
    MMEP,
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Privilege,
    Role,
    store_digest,
)
from repro.core.constraints import (
    CONSTRAINT_KINDS,
    CONSTRAINT_OK,
    MMCD,
    POLICY_EXPORT_PRIVILEGE,
    POLICY_RELOAD_PRIVILEGE,
    AdminBoundary,
    MultiSessionConstraint,
    policy_store_boundary,
    register_constraint_kind,
)
from repro.core.explain import explain
from repro.core.policy_epoch import policy_set_digest
from repro.cluster import LocalCluster
from repro.errors import ConstraintError, PolicyError, ProtocolError
from repro.permis import PermisPolicyBuilder
from repro.server import AuthorizationService, ServerThread, protocol
from repro.client import RemotePDP
from repro.verify import SEVERITY_ERROR, SEVERITY_WARNING, analyze_policy_set
from repro.verify.gate import admit_routing
from repro.verify.static import (
    ADMIN_BOUNDARY_UNGUARDED,
    CLUSTER_ROUTING_UNSAFE,
    MMCD_CONFLICTS_MMER,
    MMCD_UNSATISFIABLE,
    cluster_routing_findings,
)
from repro.workload import BankScaleConfig, four_eyes_filing_policy_set
from repro.workload import bank_policy_set as stepless_bank_policy_set
from repro.xmlpolicy import (
    combined_policy_set,
    parse_policy_set,
    validate_policy_document,
    write_policy_set,
)
from repro.xmlpolicy.dsl import (
    compile_policy_set,
    decompile_policy_set,
    parse_constraint_repr,
)

AUDITOR = Role("employee", "Auditor")
TELLER = Role("employee", "Teller")

REVIEW = Privilege("review", "filing://annual")
SIGNOFF = Privilege("signoff", "filing://annual")
AMEND = Privilege("amend", "filing://annual")

FILING_CTX = ContextName.parse("Filing=Annual, Case=C1")
OTHER_CTX = ContextName.parse("Filing=Annual, Case=C2")


def duty_policy_set(extra=()):
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Filing=*, Case=!"),
                constraints=[MMCD([REVIEW, SIGNOFF, AMEND])],
                policy_id="filing-binding",
            ),
            *extra,
        ]
    )


def duty_request(user, privilege, at, context=FILING_CTX):
    return DecisionRequest(
        user_id=user,
        roles=(AUDITOR,),
        operation=privilege.operation,
        target=privilege.target,
        context_instance=context,
        timestamp=at,
    )


class TestRegistry:
    def test_builtin_kinds_registered(self):
        for kind, cls in (
            ("MMER", MMER),
            ("MMEP", MMEP),
            ("MMCD", MMCD),
            ("ADMIN_BOUNDARY", AdminBoundary),
        ):
            assert CONSTRAINT_KINDS[kind] is cls

    def test_register_requires_kind(self):
        class Anonymous(MultiSessionConstraint):
            kind = ""

        with pytest.raises(ConstraintError, match="non-empty kind"):
            register_constraint_kind(Anonymous)

    def test_register_rejects_duplicate_kind(self):
        class Impostor(MultiSessionConstraint):
            kind = "MMCD"

        with pytest.raises(ConstraintError, match="already registered"):
            register_constraint_kind(Impostor)
        assert CONSTRAINT_KINDS["MMCD"] is MMCD

    def test_reregistering_same_class_is_idempotent(self):
        assert register_constraint_kind(MMCD) is MMCD


class Quota(MultiSessionConstraint):
    """A toy kind that declares only its shape: a label, privileges and
    ``m``.  It never fires; the codecs and the verifier are what is
    under test."""

    __slots__ = ("_label", "_members", "_m")
    kind = "TEST_QUOTA"
    fields = ("label", "members", "m")

    def __init__(self, label, privileges, m):
        if not privileges:
            raise ConstraintError("quota needs a privilege")
        self._label, self._members, self._m = label, tuple(privileges), m

    def matches_request(self, request):
        return False

    def evaluate(self, request, effective_context, views):
        return CONSTRAINT_OK


class TestShapedKind:
    """A kind registered outside the library gets every codec and the
    verifier's duplicate and redundancy checks from its shape."""

    @pytest.fixture(autouse=True)
    def registered(self):
        register_constraint_kind(Quota)
        yield
        del CONSTRAINT_KINDS[Quota.kind]

    def policy_set(self):
        return MSoDPolicySet(
            [
                MSoDPolicy(
                    FILING_CTX,
                    constraints=[
                        Quota("q, {x}", [REVIEW, SIGNOFF], 3),
                        Quota("q, {x}", [SIGNOFF, REVIEW], 3),
                        Quota("q, {x}", [REVIEW], 3),
                    ],
                    policy_id="quotas",
                )
            ]
        )

    def test_xml_and_repr_round_trip(self):
        policy_set = self.policy_set()
        xml = write_policy_set(policy_set)
        assert '<Quota Boundary="q, {x}" ForbiddenCardinality="3">' in xml
        assert validate_policy_document(xml) == []
        again = parse_policy_set(xml)
        assert again.policies[0].constraints == policy_set.policies[0].constraints
        for constraint in policy_set.policies[0].constraints:
            assert parse_constraint_repr(repr(constraint)) == constraint

    def test_duplicate_and_redundancy_findings(self):
        findings = analyze_policy_set(self.policy_set()).findings
        codes = [finding.code for finding in findings]
        assert codes.count("CONSTRAINT_DUPLICATE") == 1
        # Quota('q, {x}', {review}, 3) is implied by the two-privilege one.
        assert codes.count("TEST_QUOTA_REDUNDANT") == 1


class TestMMCDUnit:
    def test_rejects_duplicates_and_singletons(self):
        with pytest.raises(ConstraintError, match="duplicates"):
            MMCD([REVIEW, REVIEW])
        with pytest.raises(ConstraintError, match="at least 2"):
            MMCD([REVIEW])

    def test_equality_is_set_based(self):
        assert MMCD([REVIEW, SIGNOFF]) == MMCD([SIGNOFF, REVIEW])
        assert hash(MMCD([REVIEW, SIGNOFF])) == hash(MMCD([SIGNOFF, REVIEW]))
        assert MMCD([REVIEW, SIGNOFF]) != MMCD([REVIEW, AMEND])

    def test_canonical_is_order_stable(self):
        assert (
            MMCD([REVIEW, SIGNOFF]).canonical()
            == MMCD([SIGNOFF, REVIEW]).canonical()
        )
        assert MMCD([REVIEW, SIGNOFF]).canonical()["kind"] == "MMCD"


class TestAdminBoundaryUnit:
    def test_validation(self):
        with pytest.raises(ConstraintError, match="non-empty"):
            AdminBoundary("", [POLICY_RELOAD_PRIVILEGE])
        with pytest.raises(ConstraintError, match="at least 1"):
            AdminBoundary("b", [])
        with pytest.raises(ConstraintError, match="duplicates"):
            AdminBoundary(
                "b", [POLICY_RELOAD_PRIVILEGE, POLICY_RELOAD_PRIVILEGE]
            )

    def test_standard_boundary_guards_both_privileges(self):
        boundary = policy_store_boundary()
        assert set(boundary.privileges) == {
            POLICY_RELOAD_PRIVILEGE,
            POLICY_EXPORT_PRIVILEGE,
        }
        assert boundary.boundary == "policy-store"


class TestMMCDEngine:
    def test_first_user_binds_the_set(self):
        engine = MSoDEngine(duty_policy_set(), InMemoryRetainedADIStore())
        assert engine.check(duty_request("alice", REVIEW, 1.0)).granted
        denied = engine.check(duty_request("bob", SIGNOFF, 2.0))
        assert denied.denied
        assert denied.violation.constraint_kind == "MMCD"
        assert "already bound" in denied.violation.detail
        # The owner completes the bound set; repetition is fine too.
        assert engine.check(duty_request("alice", SIGNOFF, 3.0)).granted
        assert engine.check(duty_request("alice", AMEND, 4.0)).granted
        assert engine.check(duty_request("alice", REVIEW, 5.0)).granted

    def test_binding_is_per_context_instance(self):
        engine = MSoDEngine(duty_policy_set(), InMemoryRetainedADIStore())
        assert engine.check(duty_request("alice", REVIEW, 1.0)).granted
        # A different case (the `!` component differs) binds separately.
        assert engine.check(
            duty_request("bob", REVIEW, 2.0, context=OTHER_CTX)
        ).granted
        assert engine.check(
            duty_request("alice", SIGNOFF, 3.0, context=OTHER_CTX)
        ).denied

    def test_denied_attempt_leaves_no_ownership(self):
        engine = MSoDEngine(duty_policy_set(), InMemoryRetainedADIStore())
        assert engine.check(duty_request("alice", REVIEW, 1.0)).granted
        assert engine.check(duty_request("bob", SIGNOFF, 2.0)).denied
        # bob's denied attempt must not have stolen or shared ownership.
        assert engine.check(duty_request("alice", SIGNOFF, 3.0)).granted

    def test_mmcd_composes_with_mmep_four_eyes(self):
        approve = Privilege("approve", "filing://annual")
        four_eyes = MSoDPolicy(
            ContextName.parse("Filing=*, Case=!"),
            mmeps=[MMEP([SIGNOFF, approve], 2)],
            policy_id="filing-four-eyes",
        )
        engine = MSoDEngine(
            duty_policy_set(extra=[four_eyes]), InMemoryRetainedADIStore()
        )
        for privilege, at in ((REVIEW, 1.0), (SIGNOFF, 2.0), (AMEND, 3.0)):
            assert engine.check(duty_request("alice", privilege, at)).granted
        # The owner may not also approve their own filing...
        own = engine.check(duty_request("alice", approve, 4.0))
        assert own.denied
        assert own.violation.constraint_kind == "MMEP"
        # ...but fresh eyes may (approve is outside the bound set).
        assert engine.check(duty_request("carol", approve, 5.0)).granted


MMCD_XML = """\
<MSoDPolicySet>
  <MSoDPolicy BusinessContext="Filing=*, Case=!" PolicyId="filing-binding">
    <MMCD>
      <Privilege operation="review" target="filing://annual"/>
      <Privilege operation="signoff" target="filing://annual"/>
    </MMCD>
  </MSoDPolicy>
  <MSoDPolicy BusinessContext="Admin=!" PolicyId="admin-guard">
    <AdminBoundary Boundary="policy-store">
      <Privilege operation="policy-reload"
                 target="pdp://management/policyStore"/>
      <Privilege operation="policy-export"
                 target="pdp://management/policyStore"/>
    </AdminBoundary>
  </MSoDPolicy>
</MSoDPolicySet>
"""


class TestSerialization:
    def test_xml_round_trip(self):
        parsed = parse_policy_set(MMCD_XML)
        policies = list(parsed)
        assert policies[0].extra_constraints == (MMCD([REVIEW, SIGNOFF]),)
        assert policies[1].extra_constraints == (
            AdminBoundary(
                "policy-store",
                [POLICY_RELOAD_PRIVILEGE, POLICY_EXPORT_PRIVILEGE],
            ),
        )
        again = parse_policy_set(write_policy_set(parsed))
        assert policy_set_digest(again) == policy_set_digest(parsed)

    def test_dsl_round_trip(self):
        parsed = parse_policy_set(MMCD_XML)
        text = decompile_policy_set(parsed)
        assert "combination of duty:" in text
        assert 'admin boundary "policy-store":' in text
        again = compile_policy_set(text)
        assert policy_set_digest(again) == policy_set_digest(parsed)

    def test_repr_round_trip_all_kinds(self):
        constraints = [
            MMER([TELLER, AUDITOR], 2),
            MMEP([REVIEW, REVIEW, SIGNOFF], 2),
            MMCD([REVIEW, SIGNOFF, AMEND]),
            policy_store_boundary(),
            AdminBoundary("a, odd {label}", [POLICY_RELOAD_PRIVILEGE]),
        ]
        for constraint in constraints:
            assert parse_constraint_repr(repr(constraint)) == constraint


class TestExplain:
    def test_mmcd_narration_grant_and_deny(self):
        engine = MSoDEngine(duty_policy_set(), InMemoryRetainedADIStore())
        engine.check(duty_request("alice", REVIEW, 1.0))

        ok = explain(engine, duty_request("alice", SIGNOFF, 2.0))
        assert ok.granted
        assert f"{MMCD([REVIEW, SIGNOFF, AMEND])!r}: ok" in [
            line.message for line in ok.lines
        ]

        denied = explain(engine, duty_request("bob", SIGNOFF, 2.0))
        assert not denied.granted
        assert any("VIOLATION" in line.message for line in denied.lines)
        assert any("already bound" in line.message for line in denied.lines)
        # explain is a dry run: bob must still be denied for real...
        assert engine.check(duty_request("bob", SIGNOFF, 3.0)).denied
        # ...and the verdict matches what check() returns.
        assert explain(
            engine, duty_request("alice", AMEND, 4.0)
        ).granted


def admin_guard_policy_set():
    return MSoDPolicySet(
        list(duty_policy_set())
        + [
            MSoDPolicy(
                ContextName.parse("Filing=*, Case=*"),
                constraints=[policy_store_boundary()],
                policy_id="store-guard",
            )
        ]
    )


class TestReloadGuardLocal:
    def test_operational_principal_refused(self):
        pdp = open_pdp(admin_guard_policy_set())
        assert pdp.decide(duty_request("alice", REVIEW, 1.0)).granted
        with pytest.raises(PolicyError, match="admin boundary"):
            pdp.reload_policy(admin_guard_policy_set(), principal="alice")
        # force does NOT override a boundary refusal.
        with pytest.raises(PolicyError, match="admin boundary"):
            pdp.reload_policy(
                admin_guard_policy_set(), principal="alice", force=True
            )
        # A clean principal (and the anonymous legacy path) still swap.
        pdp.reload_policy(admin_guard_policy_set(), principal="bob")
        pdp.reload_policy(admin_guard_policy_set())

    def test_engine_denial_probe(self):
        pdp = open_pdp(admin_guard_policy_set())
        pdp.decide(duty_request("alice", REVIEW, 1.0))
        denial = pdp.engine.admin_boundary_denial(
            "alice", POLICY_RELOAD_PRIVILEGE
        )
        assert denial is not None and "admin boundary" in denial
        assert (
            pdp.engine.admin_boundary_denial("bob", POLICY_RELOAD_PRIVILEGE)
            is None
        )


class TestReloadGuardWire:
    def make_service(self):
        engine = MSoDEngine(
            admin_guard_policy_set(), InMemoryRetainedADIStore()
        )
        return AuthorizationService(engine, n_shards=2)

    def test_remote_reload_guard(self):
        with ServerThread(self.make_service()) as server:
            with RemotePDP(
                server.host, server.port, timeout=5.0, max_retries=0
            ) as pdp:
                assert pdp.decide(duty_request("carol", REVIEW, 1.0)).granted
                with pytest.raises(PolicyError, match="admin boundary"):
                    pdp.reload_policy(
                        admin_guard_policy_set(), principal="carol"
                    )
                report = pdp.reload_policy(
                    admin_guard_policy_set(), principal="dave"
                )
                assert report is not None
                status = pdp.policy_status()
                kinds = status["constraint_kinds"]
                assert kinds["MMCD"] == 1
                assert kinds["ADMIN_BOUNDARY"] == 1

    def test_protocol_principal_validation(self):
        assert protocol.reload_principal_of({}) is None
        assert protocol.reload_principal_of({"principal": "ops"}) == "ops"
        with pytest.raises(ProtocolError, match="principal"):
            protocol.reload_principal_of({"principal": ""})
        with pytest.raises(ProtocolError, match="principal"):
            protocol.reload_principal_of({"principal": 7})


class TestReloadGuardCanary:
    """The canary rollout runs the same admission as a plain reload: a
    principal with retained operational decisions may not canary away
    the ``policy-store`` guard either."""

    @pytest.fixture
    def cluster(self, tmp_path):
        from repro.api import open_cluster

        with open_cluster(
            admin_guard_policy_set(),
            str(tmp_path / "cluster"),
            # One shard: per-user routing cannot enforce the MMCD on more.
            n_shards=1,
            fsync=False,
            health_interval=3600.0,
        ) as cluster:
            with cluster.client() as pdp:
                assert pdp.decide(duty_request("alice", REVIEW, 1.0)).granted
            yield cluster

    @staticmethod
    def epochs(cluster):
        return {node.policy_version().epoch for node in cluster.nodes()}

    def test_wire_canary_refuses_an_operational_principal(self, cluster):
        with cluster.client() as pdp:
            with pytest.raises(PolicyError, match="admin boundary"):
                pdp.reload_policy(
                    duty_policy_set(), canary=True, principal="alice"
                )
            assert self.epochs(cluster) == {1}
            body = pdp.reload_policy(
                duty_policy_set(), canary=True, principal="operator"
            )
        assert body["changed"] and "canary" in body
        assert self.epochs(cluster) == {2}

    def test_local_canary_refuses_an_operational_principal(self, cluster):
        with pytest.raises(PolicyError, match="admin boundary"):
            cluster.canary_reload_policy(duty_policy_set(), principal="alice")
        assert self.epochs(cluster) == {1}
        body = cluster.canary_reload_policy(
            duty_policy_set(), principal="operator"
        )
        assert body["changed"]
        assert self.epochs(cluster) == {2}


class TestClusterRoutingRefusal:
    """Per-user routing splits an MMCD owner from an intruder of the same
    filing across shards, where both would be granted: every multi-shard
    deployment of a context-coupled set is refused instead."""

    FOUR_EYES = four_eyes_filing_policy_set(BankScaleConfig(n_divisions=2))

    def test_two_shard_four_eyes_load_is_refused(self, tmp_path):
        with pytest.raises(PolicyError, match=CLUSTER_ROUTING_UNSAFE):
            LocalCluster(self.FOUR_EYES, 2, str(tmp_path / "cluster"))
        assert not os.listdir(tmp_path / "cluster")  # no node was built

    def test_findings_name_steps_and_mmcd_only(self):
        assert [f.policy_id for f in cluster_routing_findings(self.FOUR_EYES)] == [
            "bank-D00-filing-binding", "bank-D01-filing-binding"
        ]
        # The Example-1 bank policy's last step and the tax policy's steps.
        assert len(cluster_routing_findings(combined_policy_set())) == 2
        # Pure per-user exclusivity routes safely; one shard takes anything.
        assert cluster_routing_findings(stepless_bank_policy_set()) == []
        admit_routing(self.FOUR_EYES, 1)

    def test_reload_and_growth_are_refused_even_forced(self, tmp_path):
        from repro.api import open_cluster

        with open_cluster(
            stepless_bank_policy_set(), str(tmp_path / "two"), n_shards=2,
            fsync=False, health_interval=3600.0,
        ) as cluster:
            with pytest.raises(PolicyError, match=CLUSTER_ROUTING_UNSAFE):
                cluster.reload_policy(self.FOUR_EYES, force=True)
            with pytest.raises(PolicyError, match=CLUSTER_ROUTING_UNSAFE):
                cluster.canary_reload_policy(self.FOUR_EYES)
            assert {n.policy_version().epoch for n in cluster.nodes()} == {1}
        with open_cluster(
            self.FOUR_EYES, str(tmp_path / "one"), n_shards=1,
            fsync=False, health_interval=3600.0,
        ) as cluster:
            with pytest.raises(PolicyError, match=CLUSTER_ROUTING_UNSAFE):
                cluster.add_shard()
            assert list(cluster.shard_names) == ["shard-0"]
            # A joining shard boots the live set, so once the live nodes
            # run a set per-user routing can enforce, growth may proceed.
            cluster.reload_policy(stepless_bank_policy_set())
            cluster.add_shard()
            cluster.wait_reshard(timeout=30.0)
            assert list(cluster.shard_names) == ["shard-0", "shard-1"]

    def test_growth_during_a_rollout_waits_then_is_refused(
        self, tmp_path, monkeypatch
    ):
        """A one-shard reload and an add-node cannot both pass their
        checks: an add-node between the reload's admission and its
        rollout waits for the rollout, then sees its set."""
        from repro.api import open_cluster
        from repro.verify import gate

        with open_cluster(
            stepless_bank_policy_set(), str(tmp_path / "race"), n_shards=1,
            fsync=False, health_interval=3600.0,
        ) as cluster:
            admitted, resume = threading.Event(), threading.Event()
            admit = gate.admit_reload

            def paused_admit(*args, **kwargs):
                verdict = admit(*args, **kwargs)
                admitted.set()
                resume.wait(10.0)
                return verdict

            monkeypatch.setattr(gate, "admit_reload", paused_admit)
            rollout = threading.Thread(
                target=cluster.reload_policy, args=(self.FOUR_EYES,)
            )
            rollout.start()
            assert admitted.wait(10.0)
            grown: list = []

            def grow():
                try:
                    grown.append(cluster.add_shard())
                except PolicyError as exc:
                    grown.append(exc)

            grower = threading.Thread(target=grow)
            grower.start()
            grower.join(0.3)
            held_off = grower.is_alive()
            resume.set()
            rollout.join(10.0)
            grower.join(10.0)
            assert held_off  # the growth waited for the rollout
            assert len(grown) == 1 and isinstance(grown[0], PolicyError)
            assert CLUSTER_ROUTING_UNSAFE in str(grown[0])
            assert cluster.reshard_status()["managed_shards"] == ["shard-0"]


class TestAuditReplay:
    def test_mmcd_decisions_replay_epoch_aware(self, tmp_path):
        manager = AuditTrailManager(str(tmp_path), b"trail-key")
        engine = MSoDEngine(duty_policy_set(), InMemoryRetainedADIStore())
        stream = [
            duty_request("alice", REVIEW, 1.0),
            duty_request("bob", SIGNOFF, 2.0),  # denied: not the owner
            duty_request("alice", SIGNOFF, 3.0),
        ]
        for request in stream:
            decision = engine.check(request)
            manager.append(
                EVENT_DECISION,
                request.timestamp,
                decision_event_payload(decision),
            )
        assert engine.store.count() > 0

        recovered = InMemoryRetainedADIStore()
        report = recover_retained_adi(manager, duty_policy_set(), recovered)
        assert report.records_replayed == engine.store.count()
        assert store_digest(recovered) == store_digest(engine.store)
        # The rebuilt store enforces the same binding.
        replayed = MSoDEngine(duty_policy_set(), recovered)
        assert replayed.check(duty_request("bob", AMEND, 4.0)).denied
        assert replayed.check(duty_request("alice", AMEND, 4.0)).granted

    def test_replay_resolves_outgoing_epoch(self, tmp_path):
        """A mirror replay (``policy_set=None``) keeps what a reload's
        outgoing set retained, though the new set matches none of it."""
        manager = AuditTrailManager(str(tmp_path), b"trail-key")
        engine = MSoDEngine(duty_policy_set(), InMemoryRetainedADIStore())
        first = engine.check(duty_request("alice", REVIEW, 1.0))
        manager.append(EVENT_DECISION, 1.0, decision_event_payload(first))
        # Hot-swap to a set that no longer matches the filing context.
        unrelated = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="bank",
                )
            ]
        )
        engine.swap_policy(unrelated, force=True)
        recovered = InMemoryRetainedADIStore()
        report = recover_retained_adi(manager, None, recovered)
        assert report.records_replayed == engine.store.count()
        assert store_digest(recovered) == store_digest(engine.store)
        # The paper's filter by the current set drops all of it.
        filtered = InMemoryRetainedADIStore()
        report = recover_retained_adi(manager, unrelated, filtered)
        assert report.records_replayed == 0


class TestVerifyFindings:
    def test_mmcd_vs_mmep_unsatisfiable(self):
        conflicted = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Filing=*, Case=!"),
                    constraints=[MMCD([REVIEW, SIGNOFF])],
                    policy_id="binding",
                ),
                MSoDPolicy(
                    ContextName.parse("Filing=*, Case=!"),
                    mmeps=[MMEP([REVIEW, SIGNOFF], 2)],
                    policy_id="exclusion",
                ),
            ]
        )
        report = analyze_policy_set(conflicted)
        findings = [
            f for f in report.findings if f.code == MMCD_UNSATISFIABLE
        ]
        assert findings and findings[0].severity == SEVERITY_ERROR

    def test_admin_boundary_partially_guarded_warns(self):
        half = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Admin=!"),
                    constraints=[
                        AdminBoundary("half", [POLICY_RELOAD_PRIVILEGE])
                    ],
                    policy_id="half-guard",
                )
            ]
        )
        report = analyze_policy_set(half)
        findings = [
            f for f in report.findings if f.code == ADMIN_BOUNDARY_UNGUARDED
        ]
        assert findings and findings[0].severity == SEVERITY_WARNING
        # The full canonical pair (or no boundary at all) stays silent.
        assert not [
            f
            for f in analyze_policy_set(admin_guard_policy_set()).findings
            if f.code == ADMIN_BOUNDARY_UNGUARDED
        ]
        assert not [
            f
            for f in analyze_policy_set(duty_policy_set()).findings
            if f.code == ADMIN_BOUNDARY_UNGUARDED
        ]

    def test_mmcd_conflicts_mmer_via_permis(self):
        reviewer = Role("employee", "Reviewer")
        signer = Role("employee", "Signer")
        permis = (
            PermisPolicyBuilder()
            .allow_assignment(
                "cn=soa,o=bank,c=gb", [reviewer, signer], "o=bank,c=gb"
            )
            .grant(reviewer, [REVIEW])
            .grant(signer, [SIGNOFF])
            .build()
        )
        conflicted = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Filing=*, Case=!"),
                    constraints=[MMCD([REVIEW, SIGNOFF])],
                    mmers=[MMER([reviewer, signer], 2)],
                    policy_id="binding",
                ),
            ]
        )
        report = analyze_policy_set(conflicted, permis=permis)
        findings = [
            f for f in report.findings if f.code == MMCD_CONFLICTS_MMER
        ]
        assert findings and findings[0].severity == SEVERITY_ERROR


class TestBankScaleWorkload:
    def test_stream_deterministic_and_exercises_denies(self):
        from repro.workload import (
            BankScaleConfig,
            bank_scale_duty_binding_policy_set,
            bank_scale_mmcd_stream,
        )

        cfg = BankScaleConfig(
            n_users=2_000, n_divisions=3, branches_per_division=4
        )

        def key(request):
            return (
                request.user_id,
                request.operation,
                request.target,
                str(request.context_instance),
                request.timestamp,
            )

        first = [key(r) for r in bank_scale_mmcd_stream(cfg, 300)]
        second = [key(r) for r in bank_scale_mmcd_stream(cfg, 300)]
        assert first == second

        pdp = open_pdp(bank_scale_duty_binding_policy_set(cfg))
        effects = [
            pdp.decide(r).effect for r in bank_scale_mmcd_stream(cfg, 300)
        ]
        assert "deny" in effects and "grant" in effects

    def test_four_eyes_denies_owner_signoff(self):
        from repro.workload import (
            BankScaleConfig,
            bank_scale_mmcd_stream,
            four_eyes_filing_policy_set,
        )

        cfg = BankScaleConfig(
            n_users=2_000, n_divisions=3, branches_per_division=4
        )
        pdp = open_pdp(four_eyes_filing_policy_set(cfg))
        signoff_effects = set()
        for request in bank_scale_mmcd_stream(cfg, 500, four_eyes=True):
            decision = pdp.decide(request)
            if request.operation == "approveFiling":
                signoff_effects.add(decision.effect)
        assert signoff_effects == {"grant", "deny"}
