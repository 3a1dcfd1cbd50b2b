"""Unit tests for MMER/MMEP constraints (Sections 2.3-2.4)."""

from collections import Counter

import pytest

from repro.core.constraints import (
    CONSTRAINT_OK,
    CONSTRAINT_OK_EXERCISE,
    MMEP,
    MMER,
    Privilege,
    Role,
    count_history_matches,
)
from repro.core.context import ContextName
from repro.core.decision import DecisionRequest
from repro.errors import ConstraintError

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
MANAGER = Role("employee", "Manager")

P1 = Privilege("approve", "http://tax/check")
P2 = Privilege("combine", "http://tax/results")
P3 = Privilege("prepare", "http://tax/check")

CTX = ContextName.parse("Dept=Tax, Case=1")


class _Views:
    """The user's history for ``evaluate``: a role set, an exercise list."""

    def __init__(self, history):
        self.history = history

    def user_roles(self, user_id, effective_context):
        return frozenset(self.history)

    def user_privilege_exercises(self, user_id, effective_context):
        return list(self.history)


def verdict(constraint, roles=(TELLER,), privilege=P3, history=()):
    """``constraint.evaluate`` for one request over ``history``."""
    request = DecisionRequest(
        "u", tuple(roles), privilege.operation, privilege.target, CTX
    )
    return constraint.evaluate(request, CTX, _Views(history))


class TestRole:
    def test_fields(self):
        assert TELLER.role_type == "employee"
        assert TELLER.value == "Teller"

    def test_empty_type_rejected(self):
        with pytest.raises(ConstraintError):
            Role("", "Teller")

    def test_empty_value_rejected(self):
        with pytest.raises(ConstraintError):
            Role("employee", "")

    def test_equality_and_hash(self):
        assert Role("employee", "Teller") == TELLER
        assert hash(Role("employee", "Teller")) == hash(TELLER)

    def test_str(self):
        assert str(TELLER) == "employee:Teller"


class TestPrivilege:
    def test_fields(self):
        assert P1.operation == "approve"
        assert P1.target == "http://tax/check"

    def test_empty_operation_rejected(self):
        with pytest.raises(ConstraintError):
            Privilege("", "target")

    def test_empty_target_rejected(self):
        with pytest.raises(ConstraintError):
            Privilege("op", "")

    def test_str(self):
        assert str(P1) == "approve@http://tax/check"


class TestMMER:
    def test_paper_example(self):
        mmer = MMER([TELLER, AUDITOR], 2)
        assert mmer.forbidden_cardinality == 2
        assert set(mmer.roles) == {TELLER, AUDITOR}

    def test_duplicate_roles_rejected(self):
        with pytest.raises(ConstraintError):
            MMER([TELLER, TELLER], 2)

    def test_single_role_rejected(self):
        with pytest.raises(ConstraintError):
            MMER([TELLER], 1)

    def test_cardinality_one_rejected(self):
        with pytest.raises(ConstraintError):
            MMER([TELLER, AUDITOR], 1)

    def test_cardinality_above_n_rejected(self):
        with pytest.raises(ConstraintError):
            MMER([TELLER, AUDITOR], 3)

    def test_m_out_of_n(self):
        mmer = MMER([TELLER, AUDITOR, MANAGER], 2)
        assert mmer.forbidden_cardinality == 2

    def test_matched_roles(self):
        """Step 5.i: only the activated roles in the set are matched."""
        mmer = MMER([TELLER, AUDITOR], 2)
        assert verdict(mmer, roles=[TELLER, MANAGER]).grant_roles == (TELLER,)
        assert verdict(mmer, roles=[MANAGER]) is CONSTRAINT_OK
        assert not verdict(mmer, roles=[TELLER, AUDITOR]).ok

    def test_remaining_roles(self):
        """Step 5.iii: only the unmatched set roles count from history."""
        mmer = MMER([TELLER, AUDITOR, MANAGER], 3)
        assert verdict(mmer, roles=[TELLER], history=[TELLER, AUDITOR]).ok
        assert not verdict(mmer, roles=[TELLER], history=[AUDITOR, MANAGER]).ok
        assert verdict(mmer, roles=[TELLER, AUDITOR], history=[TELLER]).ok
        assert not verdict(mmer, roles=[TELLER, AUDITOR], history=[MANAGER]).ok

    def test_equality_is_order_insensitive(self):
        assert MMER([TELLER, AUDITOR], 2) == MMER([AUDITOR, TELLER], 2)
        assert hash(MMER([TELLER, AUDITOR], 2)) == hash(MMER([AUDITOR, TELLER], 2))

    def test_inequality_on_cardinality(self):
        assert MMER([TELLER, AUDITOR, MANAGER], 2) != MMER(
            [TELLER, AUDITOR, MANAGER], 3
        )


class TestMMEP:
    def test_paper_example(self):
        mmep = MMEP([P1, P2], 2)
        assert verdict(mmep, privilege=P1) is CONSTRAINT_OK_EXERCISE
        assert verdict(mmep, privilege=P2) is CONSTRAINT_OK_EXERCISE
        assert verdict(mmep, privilege=P3) is CONSTRAINT_OK

    def test_duplicate_privilege_allowed(self):
        """The paper's MMEP({p1, p1}, 2) at-most-once idiom."""
        mmep = MMEP([P1, P1], 2)
        assert Counter(mmep.privileges)[P1] == 2

    def test_too_few_entries_rejected(self):
        with pytest.raises(ConstraintError):
            MMEP([P1], 1)

    def test_cardinality_bounds(self):
        with pytest.raises(ConstraintError):
            MMEP([P1, P2], 1)
        with pytest.raises(ConstraintError):
            MMEP([P1, P2], 3)

    def test_remaining_removes_one_occurrence(self):
        """Step 6.iii ignores one P1: the other P1 and P2 still count."""
        mmep = MMEP([P1, P1, P2], 2)
        assert verdict(mmep, privilege=P1).ok
        assert not verdict(mmep, privilege=P1, history=[P1]).ok
        assert not verdict(mmep, privilege=P1, history=[P2]).ok

    def test_remaining_drops_exhausted_privilege(self):
        """With its one occurrence ignored, past P1s no longer count."""
        mmep = MMEP([P1, P2], 2)
        assert verdict(mmep, privilege=P1, history=[P1, P1]).ok
        assert not verdict(mmep, privilege=P1, history=[P2]).ok

    def test_equality_is_multiset(self):
        assert MMEP([P1, P1, P2], 2) == MMEP([P1, P2, P1], 2)
        assert MMEP([P1, P1, P2], 2) != MMEP([P1, P2], 2)


class TestCountHistoryMatches:
    def test_no_history(self):
        remaining = Counter({P2: 1})
        assert count_history_matches(remaining, []) == 0

    def test_distinct_privilege_counts_once(self):
        remaining = Counter({P2: 1})
        assert count_history_matches(remaining, [P2, P2, P2]) == 1

    def test_duplicate_entry_needs_multiple_exercises(self):
        remaining = Counter({P1: 2})
        assert count_history_matches(remaining, [P1]) == 1
        assert count_history_matches(remaining, [P1, P1]) == 2
        assert count_history_matches(remaining, [P1, P1, P1]) == 2

    def test_mixed_multiset(self):
        remaining = Counter({P1: 1, P2: 1})
        assert count_history_matches(remaining, [P1]) == 1
        assert count_history_matches(remaining, [P1, P2]) == 2

    def test_unrelated_history_ignored(self):
        remaining = Counter({P1: 1})
        assert count_history_matches(remaining, [P3]) == 0
