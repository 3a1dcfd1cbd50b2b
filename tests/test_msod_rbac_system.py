"""Tests for the MSoD-aware ANSI RBAC facade (Figure 1 + Figure 3)."""

import pytest

from repro.core import MMER, ContextName, MSoDPolicy, MSoDPolicySet
from repro.core.policy import Step
from repro.rbac import MSoDAwareRBACSystem, Permission, as_msod_role

CTX_2006 = ContextName.parse("Branch=York, Period=2006")
CTX_LEEDS = ContextName.parse("Branch=Leeds, Period=2006")
CTX_2007 = ContextName.parse("Branch=York, Period=2007")


def msod_policies():
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=[
                    MMER(
                        [as_msod_role("teller"), as_msod_role("auditor")], 2
                    )
                ],
                last_step=Step("CommitAudit", "audit-db"),
                policy_id="bank",
            )
        ]
    )


@pytest.fixture
def bank():
    system = MSoDAwareRBACSystem(msod_policies())
    system.add_user("alice")
    system.add_user("victor")
    for role in ("teller", "auditor"):
        system.add_role(role)
    system.grant_permission("teller", Permission("handleCash", "till"))
    system.grant_permission("auditor", Permission("audit", "ledger"))
    system.grant_permission("auditor", Permission("CommitAudit", "audit-db"))
    system.assign_user("alice", "teller")
    system.assign_user("victor", "auditor")
    return system


class TestMSoDAwareCheckAccess:
    def test_plain_grant(self, bank):
        session = bank.create_session("alice", ["teller"])
        decision = bank.check_access_in_context(
            session.session_id, "handleCash", "till", CTX_2006, at=1.0
        )
        assert decision.granted

    def test_rbac_denial_reported(self, bank):
        session = bank.create_session("alice", ["teller"])
        decision = bank.check_access_in_context(
            session.session_id, "audit", "ledger", CTX_2006, at=1.0
        )
        assert decision.denied
        assert decision.reason.startswith("RBAC")
        # A pure RBAC denial leaves no retained history.
        assert bank.msod_engine.store.count() == 0

    def test_rbac_denial_carries_the_policy_version(self, bank):
        session = bank.create_session("alice", ["teller"])
        deny = bank.check_access_in_context(
            session.session_id, "audit", "ledger", CTX_2006, at=1.0
        )
        grant = bank.check_access_in_context(
            session.session_id, "handleCash", "till", CTX_2006, at=2.0
        )
        assert grant.policy_epoch == 1 and grant.policy_digest
        assert (deny.policy_epoch, deny.policy_digest) == (
            grant.policy_epoch,
            grant.policy_digest,
        )

    def test_multi_session_conflict_denied(self, bank):
        """The whole point: two innocent-looking sessions, one conflict."""
        first = bank.create_session("alice", ["teller"])
        bank.check_access_in_context(
            first.session_id, "handleCash", "till", CTX_2006, at=1.0
        )
        bank.delete_session(first.session_id)

        # Later, alice is promoted — standard ANSI administration.
        bank.deassign_user("alice", "teller")
        bank.assign_user("alice", "auditor")
        second = bank.create_session("alice", ["auditor"])
        decision = bank.check_access_in_context(
            second.session_id, "audit", "ledger", CTX_LEEDS, at=100.0
        )
        assert decision.denied
        assert decision.violation.constraint_kind == "MMER"

    def test_new_period_resets(self, bank):
        first = bank.create_session("alice", ["teller"])
        bank.check_access_in_context(
            first.session_id, "handleCash", "till", CTX_2006, at=1.0
        )
        bank.delete_session(first.session_id)
        bank.deassign_user("alice", "teller")
        bank.assign_user("alice", "auditor")
        second = bank.create_session("alice", ["auditor"])
        decision = bank.check_access_in_context(
            second.session_id, "audit", "ledger", CTX_2007, at=100.0
        )
        assert decision.granted

    def test_last_step_flushes_history(self, bank):
        session = bank.create_session("alice", ["teller"])
        bank.check_access_in_context(
            session.session_id, "handleCash", "till", CTX_2006, at=1.0
        )
        auditor = bank.create_session("victor", ["auditor"])
        commit = bank.check_access_in_context(
            auditor.session_id, "CommitAudit", "audit-db", CTX_2006, at=2.0
        )
        assert commit.granted
        assert bank.msod_engine.store.count() == 0

    def test_unknown_session_rejected(self, bank):
        from repro.errors import UnknownEntityError

        with pytest.raises(UnknownEntityError):
            bank.check_access_in_context("sess-nope", "x", "y", CTX_2006)

    def test_ansi_administration_unchanged(self, bank):
        """The inherited ANSI surface still works as before."""
        assert bank.assigned_users("teller") == {"alice"}
        assert bank.user_permissions("victor") == {
            Permission("audit", "ledger"),
            Permission("CommitAudit", "audit-db"),
        }
