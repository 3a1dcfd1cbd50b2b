"""A decision in a fresh context instance costs what its own name costs.

Counts, not clocks: the number of compiled context-matcher calls during
one ``engine.check`` of a never-seen ``Filing=!`` instance (policy
dispatch, step-3 ``has_context``, the MMCD owner lookup, the commit that
makes the context live) must not depend on how many unrelated contexts
are live, how many unrelated policies are loaded, or how many presence
lookups came before.
"""

import pytest

from repro.core import (
    MMER,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    RetainedADIRecord,
    Role,
)
from repro.core.context import _CompiledMatcher
from repro.workload.bank_scale import (
    BankScaleConfig,
    filing_privileges,
    four_eyes_filing_policy_set,
)

_CONFIG = BankScaleConfig(n_users=10, n_divisions=2)
_CLERK = Role("employee", "D00-filing-clerk")


@pytest.fixture
def matcher_calls(monkeypatch):
    """Count ``_CompiledMatcher.matches`` calls (patched before any policy
    set prebinds the method)."""
    calls = [0]
    matches = _CompiledMatcher.matches

    def counting(self, candidate):
        calls[0] += 1
        return matches(self, candidate)

    monkeypatch.setattr(_CompiledMatcher, "matches", counting)
    return calls


def _unrelated_policies(count):
    return [
        MSoDPolicy(
            ContextName.parse(f"Region=*, Division=X{number:03d}, Branch=*, Period=!"),
            mmers=[MMER([Role("employee", "exec"), Role("employee", "review")], 2)],
            policy_id=f"unrelated-{number}",
        )
        for number in range(count)
    ]


def _unrelated_contexts(count):
    """Other divisions' periods, and other filings of the request's own
    division (which share every component but the last with it)."""
    return [
        ContextName.parse(
            f"Region=R0, Division=D01, Branch=B{number % 40:03d}, Period=P{number}"
            if number % 2
            else f"Region=R0, Division=D00, Branch=B{number % 40:03d}, Filing=G{number}"
        )
        for number in range(count)
    ]


def _matcher_calls_of_one_fresh_filing(calls, *, contexts, policies, lookups):
    store = InMemoryRetainedADIStore()
    live = _unrelated_contexts(contexts)
    for number, context in enumerate(live):
        store.add(
            RetainedADIRecord(
                user_id=f"other{number}",
                roles=(_CLERK,),
                operation="prepareFiling",
                target="svc://division01/filing",
                context_instance=context,
                granted_at=float(number),
                request_id=f"history-{number}",
            )
        )
    # Earlier presence lookups, of started and of never-started contexts.
    for number in range(lookups):
        started = store.has_context(live[number % len(live)])
        absent = store.has_context(ContextName.parse(f"Region=R9, Division=N{number}"))
        assert started and not absent
    engine = MSoDEngine(
        MSoDPolicySet(
            [*_unrelated_policies(policies), *four_eyes_filing_policy_set(_CONFIG)]
        ),
        store,
    )
    prepare = filing_privileges(0)[0]
    calls[0] = 0
    decision = engine.check(
        DecisionRequest(
            user_id="fresh-owner",
            roles=(_CLERK,),
            operation=prepare.operation,
            target=prepare.target,
            context_instance=ContextName.parse(
                "Region=R0, Division=D00, Branch=B001, Filing=F000001"
            ),
            timestamp=1e6,
        )
    )
    assert decision.granted and decision.records_added > 0
    assert len(decision.matched_policy_ids) == 2
    return calls[0]


@pytest.mark.parametrize(
    "small, large",
    [
        pytest.param({"contexts": 200}, {"contexts": 5000}, id="live-contexts"),
        pytest.param({"policies": 6}, {"policies": 96}, id="policies"),
        pytest.param({"lookups": 10}, {"lookups": 3000}, id="presence-lookups"),
    ],
)
def test_matcher_calls_do_not_grow_with_unrelated_state(matcher_calls, small, large):
    base = {"contexts": 5000, "policies": 6, "lookups": 10}
    few = _matcher_calls_of_one_fresh_filing(matcher_calls, **{**base, **small})
    many = _matcher_calls_of_one_fresh_filing(matcher_calls, **{**base, **large})
    assert few == many
    assert 0 < few < 20  # a handful: the two applicable policies, matched and bound
