"""Differential properties for the pluggable constraint kinds.

Mirrors ``test_property_store_differential``: MMCD decision streams must
be bit-identical across the in-memory, SQLite and tiered backends, and
identical whether or not the engine is traced.  Also property-tests the
``repr`` round trip that embeds constraints in violation payloads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MMEP,
    MMER,
    MODE_LITERAL,
    MODE_STRICT,
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
from repro.core.constraints import MMCD, AdminBoundary
from repro.obs import Recorder
from repro.xmlpolicy.dsl import parse_constraint_repr

_AUDITOR = Role("employee", "Auditor")
_CLERK = Role("employee", "Clerk")

_REVIEW = Privilege("review", "filing://annual")
_AMEND = Privilege("amend", "filing://annual")
_SIGNOFF = Privilege("signoff", "filing://annual")
_APPROVE = Privilege("approve", "filing://annual")
_BROWSE = Privilege("browse", "docs://public")

_OPS = (_REVIEW, _AMEND, _SIGNOFF, _APPROVE, _BROWSE)


def _policy_set() -> MSoDPolicySet:
    """MMCD binding plus a four-eyes MMEP over overlapping scopes."""
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Filing=*, Case=!"),
                constraints=[MMCD([_REVIEW, _AMEND, _SIGNOFF])],
                policy_id="p-binding",
            ),
            MSoDPolicy(
                ContextName.parse("Filing=!, Case=!"),
                mmeps=[MMEP([_SIGNOFF, _APPROVE], 2)],
                policy_id="p-four-eyes",
            ),
        ]
    )


_streams = st.lists(
    st.tuples(
        st.sampled_from(["alice", "bob", "carol", "dave"]),
        st.sampled_from(_OPS),
        st.sampled_from(["f1", "f2"]),
        st.sampled_from(["c1", "c2", "c3"]),
    ),
    min_size=1,
    max_size=40,
)


def _decision_key(decision):
    return (
        decision.effect,
        decision.reason,
        decision.matched_policy_ids,
        decision.records_added,
    )


def _requests(stream):
    for index, (user, privilege, filing, case) in enumerate(stream):
        yield DecisionRequest(
            user_id=user,
            roles=(_AUDITOR, _CLERK),
            operation=privilege.operation,
            target=privilege.target,
            context_instance=ContextName.parse(
                f"Filing={filing}, Case={case}"
            ),
            timestamp=float(index),
            request_id=f"r{index}",
        )


def _run_stream(mode, stream):
    # Every backend under every recorder state: off, counting, tracing.
    policy_set = _policy_set()
    stores, engines = [], []
    for recorder in (lambda: None, Recorder, lambda: Recorder().trace_decisions()):
        for store in (
            InMemoryRetainedADIStore(),
            SQLiteRetainedADIStore(":memory:"),
            TieredADIStore(InMemoryRetainedADIStore(), hot_users=2, shards=2),
        ):
            stores.append(store)
            engines.append(
                MSoDEngine(policy_set, store, mode=mode, perf=recorder())
            )
    try:
        for index, request in enumerate(_requests(stream)):
            keys = {
                _decision_key(engine.check(request)) for engine in engines
            }
            assert len(keys) == 1, f"decision diverged at step {index}"
            digests = {store_digest(store) for store in stores}
            assert len(digests) == 1, f"store contents diverged at {index}"
    finally:
        for store in stores:
            store.close()


@given(_streams)
@settings(max_examples=30, deadline=None)
def test_mmcd_engines_agree_across_backends_strict(stream):
    _run_stream(MODE_STRICT, stream)


@given(_streams)
@settings(max_examples=20, deadline=None)
def test_mmcd_engines_agree_across_backends_literal(stream):
    _run_stream(MODE_LITERAL, stream)


@given(_streams)
@settings(max_examples=20, deadline=None)
def test_traced_engine_decides_identically(stream):
    """Tracing is observational: it must never perturb a decision."""
    plain_store = InMemoryRetainedADIStore()
    traced_store = InMemoryRetainedADIStore()
    plain = MSoDEngine(_policy_set(), plain_store)
    traced = MSoDEngine(
        _policy_set(), traced_store, perf=Recorder().trace_decisions()
    )
    for index, request in enumerate(_requests(stream)):
        assert _decision_key(plain.check(request)) == _decision_key(
            traced.check(request)
        ), f"tracing changed the decision at step {index}"
    assert store_digest(plain_store) == store_digest(traced_store)


_token = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
    min_size=1,
    max_size=8,
)
_privileges = st.builds(
    Privilege, _token, _token.map(lambda t: f"svc://{t}")
)
_roles = st.builds(Role, _token, _token)


def _distinct(items):
    return len(set(items)) == len(items)


_constraints = st.one_of(
    st.builds(
        MMER,
        st.lists(_roles, min_size=2, max_size=5, unique=True),
        st.just(2),
    ),
    st.builds(
        MMEP,
        st.lists(_privileges, min_size=2, max_size=5),
        st.just(2),
    ),
    st.builds(
        MMCD,
        st.lists(_privileges, min_size=2, max_size=5).filter(_distinct),
    ),
    st.builds(
        AdminBoundary,
        _token,
        st.lists(_privileges, min_size=1, max_size=4).filter(_distinct),
    ),
)


@given(_constraints)
@settings(max_examples=200, deadline=None)
def test_constraint_repr_round_trips(constraint):
    assert parse_constraint_repr(repr(constraint)) == constraint
