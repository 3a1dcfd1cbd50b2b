"""Unit tests for the Section 4.2 MSoD enforcement algorithm."""

import pytest

from repro.core import (
    MMEP,
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MODE_LITERAL,
    MODE_STRICT,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Privilege,
    Role,
    Step,
    store_digest,
)
from repro.errors import PolicyError

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
MANAGER = Role("employee", "Manager")
CLERK = Role("employee", "Clerk")

HANDLE_CASH = Privilege("handleCash", "till://1")
AUDIT_BOOKS = Privilege("auditBooks", "ledger://1")
COMMIT_AUDIT = Privilege("CommitAudit", "http://audit.location.com/audit")

PREPARE = Privilege("prepareCheck", "http://tax/check")
APPROVE = Privilege("approve/disapproveCheck", "http://tax/check")
COMBINE = Privilege("combineResults", "http://tax/results")
CONFIRM = Privilege("confirmCheck", "http://tax/audit")

YORK_2006 = ContextName.parse("Branch=York, Period=2006")
LEEDS_2006 = ContextName.parse("Branch=Leeds, Period=2006")
YORK_2007 = ContextName.parse("Branch=York, Period=2007")


def bank_policy_set():
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=[MMER([TELLER, AUDITOR], 2)],
                last_step=Step(COMMIT_AUDIT.operation, COMMIT_AUDIT.target),
                policy_id="bank",
            )
        ]
    )


def tax_policy_set():
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("TaxOffice=!, taxRefundProcess=!"),
                mmeps=[
                    MMEP([PREPARE, CONFIRM], 2),
                    MMEP([APPROVE, APPROVE, COMBINE], 2),
                ],
                first_step=Step(PREPARE.operation, PREPARE.target),
                last_step=Step(CONFIRM.operation, CONFIRM.target),
                policy_id="tax",
            )
        ]
    )


def request(user, roles, privilege, context, at=1.0):
    return DecisionRequest(
        user_id=user,
        roles=tuple(roles),
        operation=privilege.operation,
        target=privilege.target,
        context_instance=context,
        timestamp=at,
    )


def bank_engine(mode=MODE_STRICT):
    return MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore(), mode=mode)


def tax_engine(mode=MODE_STRICT):
    return MSoDEngine(tax_policy_set(), InMemoryRetainedADIStore(), mode=mode)


class TestBasics:
    def test_unknown_mode_rejected(self):
        with pytest.raises(PolicyError):
            MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore(), mode="x")

    def test_no_matching_policy_grants_unaltered(self):
        engine = bank_engine()
        decision = engine.check(
            request("alice", [TELLER], HANDLE_CASH, ContextName.parse("Office=K"))
        )
        assert decision.granted
        assert decision.matched_policy_ids == ()
        assert engine.store.count() == 0

    def test_matched_policy_ids_reported(self):
        engine = bank_engine()
        decision = engine.check(request("alice", [TELLER], HANDLE_CASH, YORK_2006))
        assert decision.matched_policy_ids == ("bank",)

    def test_request_requires_user_id(self):
        with pytest.raises(PolicyError):
            request("", [TELLER], HANDLE_CASH, YORK_2006)

    def test_request_requires_concrete_context(self):
        with pytest.raises(PolicyError):
            request("alice", [TELLER], HANDLE_CASH, ContextName.parse("A=*"))

    def test_replace_policy_set(self):
        engine = bank_engine()
        engine.swap_policy(tax_policy_set(), force=True)
        assert engine.policy_set.get("tax").policy_id == "tax"

    def test_bulk_check_in_order(self):
        engine = bank_engine()
        stream = [
            request("alice", [TELLER], HANDLE_CASH, YORK_2006, at=1.0),
            request("alice", [AUDITOR], AUDIT_BOOKS, YORK_2006, at=2.0),
        ]
        decisions = [engine.check(r) for r in stream]
        assert [d.effect for d in decisions] == ["grant", "deny"]


class TestExample1Bank:
    """Paper Example 1: teller/auditor across sessions and branches."""

    def test_first_role_use_granted(self):
        decision = bank_engine().check(
            request("alice", [TELLER], HANDLE_CASH, YORK_2006)
        )
        assert decision.granted
        assert decision.records_added > 0

    def test_conflicting_role_denied_in_later_session(self):
        engine = bank_engine()
        engine.check(request("alice", [TELLER], HANDLE_CASH, YORK_2006, at=1.0))
        decision = engine.check(
            request("alice", [AUDITOR], AUDIT_BOOKS, YORK_2006, at=100.0)
        )
        assert decision.denied
        assert decision.violation.constraint_kind == "MMER"
        assert decision.violation.policy_id == "bank"

    def test_conflict_detected_across_branches(self):
        """Branch=* aggregates history across all branches."""
        engine = bank_engine()
        engine.check(request("alice", [TELLER], HANDLE_CASH, YORK_2006))
        decision = engine.check(
            request("alice", [AUDITOR], AUDIT_BOOKS, LEEDS_2006, at=2.0)
        )
        assert decision.denied

    def test_new_period_is_a_fresh_instance(self):
        """Period=! scopes the conflict to each audit period."""
        engine = bank_engine()
        engine.check(request("alice", [TELLER], HANDLE_CASH, YORK_2006))
        decision = engine.check(
            request("alice", [AUDITOR], AUDIT_BOOKS, YORK_2007, at=2.0)
        )
        assert decision.granted

    def test_other_user_not_affected(self):
        engine = bank_engine()
        engine.check(request("alice", [TELLER], HANDLE_CASH, YORK_2006))
        decision = engine.check(
            request("bob", [AUDITOR], AUDIT_BOOKS, YORK_2006, at=2.0)
        )
        assert decision.granted

    def test_same_role_repeated_is_fine(self):
        engine = bank_engine()
        for at in (1.0, 2.0, 3.0):
            decision = engine.check(
                request("alice", [TELLER], HANDLE_CASH, YORK_2006, at=at)
            )
            assert decision.granted

    def test_commit_audit_purges_period(self):
        engine = bank_engine()
        engine.check(request("alice", [TELLER], HANDLE_CASH, YORK_2006, at=1.0))
        engine.check(request("x", [TELLER], HANDLE_CASH, LEEDS_2006, at=2.0))
        commit = engine.check(
            request("bob", [AUDITOR], COMMIT_AUDIT, YORK_2006, at=3.0)
        )
        assert commit.granted
        # both branches, same period: alice's base and Teller records
        # (the context starts with her) and x's Teller record
        assert commit.records_purged == 3
        assert engine.store.count() == 0
        # After the purge alice may audit in the next period's context.
        decision = engine.check(
            request("alice", [AUDITOR], AUDIT_BOOKS, LEEDS_2006, at=4.0)
        )
        assert decision.granted

    def test_commit_audit_leaves_other_periods_alone(self):
        engine = bank_engine()
        engine.check(request("alice", [TELLER], HANDLE_CASH, YORK_2006, at=1.0))
        engine.check(request("carol", [TELLER], HANDLE_CASH, YORK_2007, at=2.0))
        engine.check(request("bob", [AUDITOR], COMMIT_AUDIT, YORK_2006, at=3.0))
        decision = engine.check(
            request("carol", [AUDITOR], AUDIT_BOOKS, YORK_2007, at=4.0)
        )
        assert decision.denied  # 2007 history survived the 2006 purge


class TestExample2TaxRefund:
    """Paper Example 2: MMEP enforcement inside a process instance."""

    CTX = ContextName.parse("TaxOffice=Leeds, taxRefundProcess=42")
    CTX_OTHER = ContextName.parse("TaxOffice=Leeds, taxRefundProcess=43")

    def run_prefix(self, engine, at=1.0):
        assert engine.check(
            request("clerk1", [CLERK], PREPARE, self.CTX, at=at)
        ).granted

    def test_clerk_cannot_prepare_and_confirm(self):
        engine = tax_engine()
        self.run_prefix(engine)
        decision = engine.check(
            request("clerk1", [CLERK], CONFIRM, self.CTX, at=2.0)
        )
        assert decision.denied
        assert decision.violation.constraint_kind == "MMEP"

    def test_different_clerk_can_confirm(self):
        engine = tax_engine()
        self.run_prefix(engine)
        decision = engine.check(
            request("clerk2", [CLERK], CONFIRM, self.CTX, at=2.0)
        )
        assert decision.granted

    def test_manager_cannot_approve_twice(self):
        engine = tax_engine()
        self.run_prefix(engine)
        assert engine.check(
            request("mgr1", [MANAGER], APPROVE, self.CTX, at=2.0)
        ).granted
        decision = engine.check(
            request("mgr1", [MANAGER], APPROVE, self.CTX, at=3.0)
        )
        assert decision.denied

    def test_two_managers_approve_once_each(self):
        engine = tax_engine()
        self.run_prefix(engine)
        assert engine.check(
            request("mgr1", [MANAGER], APPROVE, self.CTX, at=2.0)
        ).granted
        assert engine.check(
            request("mgr2", [MANAGER], APPROVE, self.CTX, at=3.0)
        ).granted

    def test_approver_cannot_combine(self):
        engine = tax_engine()
        self.run_prefix(engine)
        engine.check(request("mgr1", [MANAGER], APPROVE, self.CTX, at=2.0))
        decision = engine.check(
            request("mgr1", [MANAGER], COMBINE, self.CTX, at=3.0)
        )
        assert decision.denied

    def test_fresh_manager_can_combine(self):
        engine = tax_engine()
        self.run_prefix(engine)
        engine.check(request("mgr1", [MANAGER], APPROVE, self.CTX, at=2.0))
        decision = engine.check(
            request("mgr3", [MANAGER], COMBINE, self.CTX, at=3.0)
        )
        assert decision.granted

    def test_process_instances_are_isolated(self):
        engine = tax_engine()
        self.run_prefix(engine)
        engine.check(request("mgr1", [MANAGER], APPROVE, self.CTX, at=2.0))
        # A different process instance: the same manager may approve.
        assert engine.check(
            request("clerk9", [CLERK], PREPARE, self.CTX_OTHER, at=3.0)
        ).granted
        decision = engine.check(
            request("mgr1", [MANAGER], APPROVE, self.CTX_OTHER, at=4.0)
        )
        assert decision.granted

    def test_confirm_terminates_the_instance(self):
        engine = tax_engine()
        self.run_prefix(engine)
        engine.check(request("mgr1", [MANAGER], APPROVE, self.CTX, at=2.0))
        confirm = engine.check(
            request("clerk2", [CLERK], CONFIRM, self.CTX, at=3.0)
        )
        assert confirm.granted
        assert confirm.records_purged > 0
        assert engine.store.find(self.CTX) == []


class TestFirstStep:
    def test_enforcement_waits_for_first_step(self):
        """Before the first step runs, the policy imposes nothing."""
        engine = tax_engine()
        decision = engine.check(
            request("mgr1", [MANAGER], APPROVE, TestExample2TaxRefund.CTX)
        )
        assert decision.granted
        assert engine.store.count() == 0  # nothing retained yet

    def test_pre_first_step_activity_is_not_history(self):
        engine = tax_engine()
        ctx = TestExample2TaxRefund.CTX
        engine.check(request("mgr1", [MANAGER], APPROVE, ctx, at=1.0))
        engine.check(request("clerk1", [CLERK], PREPARE, ctx, at=2.0))
        # mgr1's pre-start approval was never recorded, so they may
        # approve once after the process has started.
        decision = engine.check(request("mgr1", [MANAGER], APPROVE, ctx, at=3.0))
        assert decision.granted

    def test_first_step_starts_retention(self):
        engine = tax_engine()
        engine.check(
            request("clerk1", [CLERK], PREPARE, TestExample2TaxRefund.CTX)
        )
        assert engine.store.count() > 0


class TestStrictVsLiteral:
    def test_simultaneous_conflict_on_context_start(self):
        """A user activating both conflicting roles in the very first
        in-context request: strict mode denies, literal mode (the
        published step order) grants."""
        strict = bank_engine(mode=MODE_STRICT)
        literal = bank_engine(mode=MODE_LITERAL)
        req = request("alice", [TELLER, AUDITOR], AUDIT_BOOKS, YORK_2006)
        assert strict.check(req).denied
        req2 = request("alice", [TELLER, AUDITOR], AUDIT_BOOKS, YORK_2006)
        assert literal.check(req2).granted

    def test_literal_mode_catches_on_second_request(self):
        literal = bank_engine(mode=MODE_LITERAL)
        literal.check(
            request("alice", [TELLER, AUDITOR], AUDIT_BOOKS, YORK_2006, at=1.0)
        )
        decision = literal.check(
            request("alice", [TELLER], HANDLE_CASH, YORK_2006, at=2.0)
        )
        assert decision.denied

    def test_modes_agree_after_context_started(self):
        for mode in (MODE_STRICT, MODE_LITERAL):
            engine = bank_engine(mode=mode)
            engine.check(request("x", [TELLER], HANDLE_CASH, YORK_2006, at=1.0))
            engine.check(
                request("alice", [TELLER], HANDLE_CASH, YORK_2006, at=2.0)
            )
            decision = engine.check(
                request("alice", [AUDITOR], AUDIT_BOOKS, YORK_2006, at=3.0)
            )
            assert decision.denied, mode


class TestDenyNeverMutates:
    def test_deny_leaves_store_unchanged(self):
        engine = bank_engine()
        engine.check(request("alice", [TELLER], HANDLE_CASH, YORK_2006, at=1.0))
        before = store_digest(engine.store)
        decision = engine.check(
            request("alice", [AUDITOR], AUDIT_BOOKS, YORK_2006, at=2.0)
        )
        assert decision.denied
        assert store_digest(engine.store) == before

    def test_denied_last_step_does_not_purge(self):
        """If the last step itself violates a constraint, nothing is
        purged: the deny discards the whole buffered mutation."""
        engine = tax_engine()
        ctx = TestExample2TaxRefund.CTX
        engine.check(request("clerk1", [CLERK], PREPARE, ctx, at=1.0))
        before = store_digest(engine.store)
        decision = engine.check(request("clerk1", [CLERK], CONFIRM, ctx, at=2.0))
        assert decision.denied
        assert store_digest(engine.store) == before


class TestCardinalities:
    def test_two_out_of_three(self):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmers=[MMER([TELLER, AUDITOR, MANAGER], 2)],
                    policy_id="m2n3",
                )
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        ctx = ContextName.parse("P=1")
        assert engine.check(
            request("u", [TELLER], HANDLE_CASH, ctx, at=1.0)
        ).granted
        assert engine.check(
            request("u", [AUDITOR], AUDIT_BOOKS, ctx, at=2.0)
        ).denied
        assert engine.check(
            request("u", [MANAGER], AUDIT_BOOKS, ctx, at=3.0)
        ).denied

    def test_three_out_of_three(self):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("P=!"),
                    mmers=[MMER([TELLER, AUDITOR, MANAGER], 3)],
                    policy_id="m3n3",
                )
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        ctx = ContextName.parse("P=1")
        assert engine.check(
            request("u", [TELLER], HANDLE_CASH, ctx, at=1.0)
        ).granted
        assert engine.check(
            request("u", [AUDITOR], AUDIT_BOOKS, ctx, at=2.0)
        ).granted
        assert engine.check(
            request("u", [MANAGER], AUDIT_BOOKS, ctx, at=3.0)
        ).denied

    def test_unconstrained_role_untouched(self):
        engine = bank_engine()
        decision = engine.check(
            request("alice", [MANAGER], HANDLE_CASH, YORK_2006)
        )
        assert decision.granted


class TestSubordinateInstances:
    """Requests may carry contexts deeper than the policy's (Fig. 2)."""

    TILL = ContextName.parse("Branch=York, Period=2006, Till=3")
    OTHER_TILL = ContextName.parse("Branch=Leeds, Period=2006, Till=9")

    def test_deep_instance_matches_policy(self):
        engine = bank_engine()
        decision = engine.check(
            request("alice", [TELLER], HANDLE_CASH, self.TILL)
        )
        assert decision.granted
        assert decision.matched_policy_ids == ("bank",)

    def test_history_aggregates_across_subordinate_instances(self):
        """A teller at till 3 in York conflicts with auditing till 9 in
        Leeds: both instances roll up to [Branch=*, Period=2006]."""
        engine = bank_engine()
        engine.check(request("alice", [TELLER], HANDLE_CASH, self.TILL, at=1.0))
        decision = engine.check(
            request("alice", [AUDITOR], AUDIT_BOOKS, self.OTHER_TILL, at=2.0)
        )
        assert decision.denied

    def test_commit_audit_purges_subordinates(self):
        engine = bank_engine()
        engine.check(request("alice", [TELLER], HANDLE_CASH, self.TILL, at=1.0))
        commit = engine.check(
            request("bob", [AUDITOR], COMMIT_AUDIT, YORK_2006, at=2.0)
        )
        assert commit.granted
        assert engine.store.count() == 0


class TestImpliedTermination:
    def test_containing_context_termination_purges_contained(self):
        """Section 2.2: finishing a containing context implies the end of
        every contained instance; the application signals the engine."""
        engine = tax_engine()
        ctx_a = ContextName.parse("TaxOffice=Leeds, taxRefundProcess=1")
        ctx_b = ContextName.parse("TaxOffice=Leeds, taxRefundProcess=2")
        ctx_other = ContextName.parse("TaxOffice=York, taxRefundProcess=3")
        for at, ctx in enumerate((ctx_a, ctx_b, ctx_other), start=1):
            assert engine.check(
                request("clerk", [CLERK], PREPARE, ctx, at=float(at))
            ).granted
        # The Leeds tax office closes: everything under it terminates.
        purged = engine.notify_context_terminated(
            ContextName.parse("TaxOffice=Leeds")
        )
        assert purged > 0
        assert engine.store.find(ctx_a) == []
        assert engine.store.find(ctx_b) == []
        assert engine.store.find(ctx_other) != []
        # clerk may now prepare again in a re-opened Leeds instance.
        assert engine.check(
            request("clerk", [CLERK], CONFIRM, ctx_a, at=9.0)
        ).granted

    def test_termination_of_unknown_context_is_noop(self):
        engine = tax_engine()
        assert engine.notify_context_terminated(
            ContextName.parse("TaxOffice=Nowhere")
        ) == 0


class TestMultiplePolicies:
    def test_all_matching_policies_apply(self):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="pair",
                ),
                MSoDPolicy(
                    ContextName.parse("Branch=York, Period=!"),
                    mmers=[MMER([TELLER, MANAGER], 2)],
                    policy_id="york-only",
                ),
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        decision = engine.check(
            request("alice", [TELLER], HANDLE_CASH, YORK_2006)
        )
        assert decision.granted
        assert set(decision.matched_policy_ids) == {"pair", "york-only"}
        # york-only applies only in York.
        leeds = engine.check(request("bob", [TELLER], HANDLE_CASH, LEEDS_2006))
        assert leeds.matched_policy_ids == ("pair",)

    def test_deny_from_second_policy_discards_first_policy_records(self):
        policy_set = MSoDPolicySet(
            [
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[MMER([TELLER, MANAGER], 2)],
                    policy_id="a",
                ),
                MSoDPolicy(
                    ContextName.parse("Branch=*, Period=!"),
                    mmers=[MMER([TELLER, AUDITOR], 2)],
                    policy_id="b",
                ),
            ]
        )
        engine = MSoDEngine(policy_set, InMemoryRetainedADIStore())
        engine.check(request("u", [AUDITOR], AUDIT_BOOKS, YORK_2006, at=1.0))
        before = store_digest(engine.store)
        # Policy "a" would grant-and-record TELLER, but policy "b" denies.
        decision = engine.check(
            request("u", [TELLER], HANDLE_CASH, YORK_2006, at=2.0)
        )
        assert decision.denied
        assert store_digest(engine.store) == before
