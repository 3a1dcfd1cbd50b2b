"""Property-based tests for the MSoD engine invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.xmlpolicy import combined_policy_set

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

_users = st.sampled_from(["u1", "u2", "u3"])
_roles = st.sampled_from([TELLER, AUDITOR, CLERK, MANAGER])
_branches = st.sampled_from(["York", "Leeds"])
_periods = st.sampled_from(["P1", "P2"])


@st.composite
def requests(draw, index=0):
    user = draw(_users)
    role = draw(_roles)
    privilege = PRIVILEGES[role]
    if role in (CLERK, MANAGER):
        instance = draw(st.sampled_from(["I1", "I2"]))
        context = ContextName.parse(
            f"TaxOffice=Leeds, taxRefundProcess={instance}"
        )
    else:
        context = ContextName.parse(
            f"Branch={draw(_branches)}, Period={draw(_periods)}"
        )
    return DecisionRequest(
        user_id=user,
        roles=(role,),
        operation=privilege.operation,
        target=privilege.target,
        context_instance=context,
        timestamp=float(index),
    )


@st.composite
def request_streams(draw, max_size=25):
    size = draw(st.integers(min_value=1, max_value=max_size))
    return [draw(requests(index=i)) for i in range(size)]


@given(request_streams())
@settings(max_examples=100, deadline=None)
def test_denied_requests_never_mutate_store(stream):
    """The Section 4.2 note, over arbitrary interleavings."""
    engine = MSoDEngine(combined_policy_set(), InMemoryRetainedADIStore())
    for request in stream:
        before = store_digest(engine.store)
        decision = engine.check(request)
        if decision.denied:
            assert store_digest(engine.store) == before


@given(request_streams())
@settings(max_examples=60, deadline=None)
def test_backends_agree(stream):
    """In-memory and SQLite stores produce identical decisions and state."""
    memory_engine = MSoDEngine(combined_policy_set(), InMemoryRetainedADIStore())
    sqlite_store = SQLiteRetainedADIStore(":memory:")
    sqlite_engine = MSoDEngine(combined_policy_set(), sqlite_store)
    try:
        for request in stream:
            a = memory_engine.check(request)
            b = sqlite_engine.check(request)
            assert a.effect == b.effect, request
        assert store_digest(memory_engine.store) == store_digest(
            sqlite_engine.store
        )
    finally:
        sqlite_store.close()


@given(request_streams())
@settings(max_examples=60, deadline=None)
def test_decisions_are_deterministic(stream):
    """Replaying the same stream yields the same decision sequence."""
    first = MSoDEngine(combined_policy_set(), InMemoryRetainedADIStore())
    second = MSoDEngine(combined_policy_set(), InMemoryRetainedADIStore())
    assert [first.check(r).effect for r in stream] == [
        second.check(r).effect for r in stream
    ]


@given(request_streams())
@settings(max_examples=60, deadline=None)
def test_no_user_ever_holds_m_conflicting_roles(stream):
    """Safety invariant: after any granted prefix, no user's retained
    history within one effective bank-policy context contains both
    Teller and Auditor."""
    engine = MSoDEngine(combined_policy_set(), InMemoryRetainedADIStore())
    policy = combined_policy_set().policies[0]  # the bank MMER policy
    for request in stream:
        engine.check(request)
        for period in ("P1", "P2"):
            effective = policy.business_context.instantiate(
                ContextName.parse(f"Branch=York, Period={period}")
            )
            for user in ("u1", "u2", "u3"):
                roles = engine.store.user_roles(user, effective)
                assert not (
                    TELLER in roles and AUDITOR in roles
                ), f"{user} holds both conflicting roles in {effective}"


@given(request_streams())
@settings(max_examples=60, deadline=None)
def test_grants_monotonically_bounded_store(stream):
    """Store size only changes on grants, and step-5/6 add at most a
    bounded number of records per request."""
    engine = MSoDEngine(combined_policy_set(), InMemoryRetainedADIStore())
    for request in stream:
        before = engine.store.count()
        decision = engine.check(request)
        after = engine.store.count()
        if decision.denied:
            assert after == before
        else:
            assert after >= before - decision.records_purged
            assert decision.records_added <= 4  # base + role records


@given(request_streams())
@settings(max_examples=40, deadline=None)
def test_strict_mode_denies_superset_of_literal(stream):
    """Strict mode only ever adds denials relative to the literal paper
    algorithm on single-role request streams."""
    from repro.core import MODE_LITERAL, MODE_STRICT

    literal = MSoDEngine(
        combined_policy_set(), InMemoryRetainedADIStore(), mode=MODE_LITERAL
    )
    strict = MSoDEngine(
        combined_policy_set(), InMemoryRetainedADIStore(), mode=MODE_STRICT
    )
    for request in stream:
        literal_decision = literal.check(request)
        strict_decision = strict.check(request)
        if literal_decision.denied:
            assert strict_decision.denied
