"""Differential property tests: the engine is backend-agnostic.

The optimized stores answer the engine's history views from incremental
aggregates (``repro.core.adi_index``) plus cross-request memos, while
the abstract base class defines them as record scans.  These properties
drive full engines over randomized request streams and require the
in-memory store, a bare SQLite store (which answers through the scan
definitions), the spec-built ``sqlite:`` store and a small
tiered-over-SQLite store to produce *equal* decisions (every field,
purge counts included) and identical store digests, in both evaluation
modes, and every backend's views to equal the scan definitions after
every step of a stream interleaved with purges and policy swaps.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import open_store
from repro.core import (
    MMCD,
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
    RetainedADIRecord,
    RetainedADIStore,
    Role,
    SQLiteRetainedADIStore,
    Step,
    TieredADIStore,
    store_digest,
)
from repro.core.adi_index import _UserAggregate

_CLERK = Role("role", "Clerk")
_AUDITOR = Role("role", "Auditor")
_MANAGER = Role("role", "Manager")

_OPS = (
    ("issue", "PO"),
    ("approve", "PO"),
    ("pay", "Invoice"),
    ("open", "Case"),
    ("close", "Case"),
    ("browse", "Docs"),
)


def _policy_set() -> MSoDPolicySet:
    """A small set exercising ``*``/``!`` scoping, MMER, MMEP, MMCD and steps."""
    return MSoDPolicySet(
        [
            MSoDPolicy(
                business_context=ContextName.parse("Dept=*, Case=!"),
                constraints=[MMCD([Privilege("browse", "Docs"), Privilege("approve", "PO")])],
                policy_id="p-mmcd",
            ),
            MSoDPolicy(
                business_context=ContextName.parse("Dept=*, Case=!"),
                mmers=[MMER([_CLERK, _AUDITOR], 2)],
                policy_id="p-mmer",
            ),
            MSoDPolicy(
                business_context=ContextName.parse("Dept=!"),
                mmeps=[
                    MMEP(
                        [Privilege("issue", "PO"), Privilege("approve", "PO")],
                        2,
                    )
                ],
                policy_id="p-mmep",
            ),
            MSoDPolicy(
                business_context=ContextName.parse("Dept=*, Case=*"),
                mmeps=[
                    MMEP(
                        [Privilege("pay", "Invoice"), Privilege("pay", "Invoice")],
                        2,
                    )
                ],
                policy_id="p-dup",
            ),
            MSoDPolicy(
                business_context=ContextName.parse("Dept=!, Case=!"),
                mmers=[MMER([_CLERK, _MANAGER], 2)],
                first_step=Step("open", "Case"),
                last_step=Step("close", "Case"),
                policy_id="p-steps",
            ),
            MSoDPolicy(  # its last step also ends p-steps' narrower context
                business_context=ContextName.parse("Dept=!"),
                mmers=[MMER([_AUDITOR, _MANAGER], 2)],
                last_step=Step("close", "Case"),
                policy_id="p-close",
            ),
        ]
    )


_USERS = ["alice", "bob", "carol"]

_request = st.tuples(
    st.sampled_from(_USERS),
    st.sets(st.sampled_from([_CLERK, _AUDITOR, _MANAGER]), min_size=1, max_size=2),
    st.sampled_from(_OPS),
    st.sampled_from(["d1", "d2"]),
    st.sampled_from(["c1", "c2"]),
)

_requests = st.lists(_request, min_size=1, max_size=40)


def _run_stream(mode, stream):
    stores = [
        InMemoryRetainedADIStore(),
        SQLiteRetainedADIStore(":memory:"),  # the scan definitions
        open_store("sqlite::memory:"),
        # two hot users for three: every stream long enough evicts
        TieredADIStore(
            SQLiteRetainedADIStore(":memory:"), hot_users=2, owns_warm=True
        ),
    ]
    policy_set = _policy_set()
    engines = [MSoDEngine(policy_set, store, mode=mode) for store in stores]
    try:
        for index, (user, roles, op, dept, case) in enumerate(stream):
            context = ContextName.parse(f"Dept={dept}, Case={case}")
            decisions = []
            for engine in engines:
                request = DecisionRequest(
                    user_id=user,
                    roles=tuple(sorted(roles, key=str)),
                    operation=op[0],
                    target=op[1],
                    context_instance=context,
                    timestamp=float(index),
                    request_id=f"r{index}",
                )
                decisions.append(engine.check(request))
            assert all(decision == decisions[0] for decision in decisions), (
                f"decision diverged at step {index}"
            )
            digests = {store_digest(store) for store in stores}
            assert len(digests) == 1, f"store contents diverged at step {index}"
    finally:
        for store in stores:
            store.close()


#: A grant whose last step ends two overlapping contexts at once (p-steps'
#: ``Dept=d1, Case=c1`` inside p-close's ``Dept=d1``): each record it
#: deletes is one purged record, however many of the contexts it matched.
_overlapping_purge = [
    ("alice", {_CLERK}, ("open", "Case"), "d1", "c1"),
    ("bob", {_MANAGER}, ("close", "Case"), "d1", "c1"),
]


@given(_requests)
@settings(max_examples=40, deadline=None)
@example(_overlapping_purge)
def test_engines_agree_across_backends_strict(stream):
    _run_stream(MODE_STRICT, stream)


@given(_requests)
@settings(max_examples=40, deadline=None)
@example(_overlapping_purge)
def test_engines_agree_across_backends_literal(stream):
    _run_stream(MODE_LITERAL, stream)


class _Scan(RetainedADIStore):
    """The base-class scan definitions over another store's ``records()``."""

    def __init__(self, store: RetainedADIStore) -> None:
        self._snapshot = list(store.records())

    def records(self):
        return iter(self._snapshot)

    def find(self, effective_context):
        return [r for r in self._snapshot if r.in_context(effective_context)]

    def find_user(self, user_id, effective_context):
        return [r for r in self.find(effective_context) if r.user_id == user_id]


#: Privilege sets whose owners (the MMCD view) are compared per query.
_BOUND_SETS = [
    (Privilege("issue", "PO"), Privilege("approve", "PO")),
    (Privilege("open", "Case"), Privilege("close", "Case")),
]

_QUERIES = [
    ContextName.parse("Dept=d1"),
    ContextName.parse("Dept=*, Case=c2"),
    ContextName.parse("Dept=*, Case=*"),
    ContextName.root(),
]

#: A record stored directly, outside any decision: its request id is
#: shared with other direct adds at other timestamps, so a
#: ``purge_older_than`` cut can pass through one request's records.
_direct = st.tuples(
    st.sampled_from(_USERS),
    st.sampled_from([_CLERK, _AUDITOR, _MANAGER]),
    st.sampled_from(_OPS),
    st.sampled_from(["d1", "d2"]),
    st.sampled_from(["c1", "c2"]),
    st.sampled_from(["x1", "x2"]),
    st.integers(0, 40).map(float),
)

_maintenance = st.one_of(
    st.tuples(st.just("purge_user"), st.sampled_from(_USERS)),
    st.tuples(st.just("purge_context"), st.sampled_from(_QUERIES[:3])),
    st.tuples(st.just("purge_older_than"), st.integers(0, 40).map(float)),
    st.tuples(st.just("swap_policy"), st.none()),
    st.tuples(st.just("add"), _direct),
    st.tuples(st.just("redeliver"), st.none()),
)

#: Each step carries whether the views are checked after it, so a
#: removal can be followed by a bucket's *first* fold.
_ops = st.lists(
    st.tuples(
        st.one_of(st.tuples(st.just("check"), _request), _maintenance),
        st.booleans(),
    ),
    min_size=1,
    max_size=40,
)


def _direct_record(user, role, op, dept, case, request_id, granted_at):
    return RetainedADIRecord(
        user_id=user,
        roles=(role,),
        operation=op[0],
        target=op[1],
        context_instance=ContextName.parse(f"Dept={dept}, Case={case}"),
        granted_at=granted_at,
        request_id=request_id,
    )


def _held_aggregate(store, user_id) -> _UserAggregate | None:
    """The resident aggregate a store folds ``user_id``'s views from."""
    if isinstance(store, TieredADIStore):
        return store._shard_for(user_id).entries.get(user_id)
    if isinstance(store, SQLiteRetainedADIStore):
        return None  # SQL only: it holds no aggregate
    return store._index._by_user.get(user_id)


def _redeliver(store) -> None:
    """File the newest held record into its aggregate a second time.

    The tiered hydration race's duplicate add: a hydration read the
    committed record, then the mutation's hot update delivers it again.
    """
    newest = max(store.records(), key=lambda r: r.record_id, default=None)
    if newest is not None:
        aggregate = _held_aggregate(store, newest.user_id)
        if aggregate is not None:
            assert aggregate.add(newest) is None


def _assert_views_match_scan(store, label):
    scan = _Scan(store)
    assert store.context_counts() == scan.context_counts(), label
    for query in _QUERIES:
        assert store.has_context(query) == bool(scan.find(query)), label
        for user in _USERS:
            assert store.user_roles(user, query) == scan.user_roles(
                user, query
            ), label
            assert store.user_privilege_exercises(
                user, query
            ) == scan.user_privilege_exercises(user, query), label
            assert store.find_user(user, query) == scan.find_user(
                user, query
            ), label
        for privileges in _BOUND_SETS:
            assert store.users_with_privileges(
                privileges, query
            ) == scan.users_with_privileges(privileges, query), label


_cut_through_request = [
    (("add", ("alice", _CLERK, ("issue", "PO"), "d1", "c1", "x1", 2.0)), False),
    (("add", ("alice", _AUDITOR, ("pay", "Invoice"), "d1", "c1", "x1", 9.0)), False),
    (("add", ("alice", _MANAGER, ("open", "Case"), "d1", "c1", "x2", 1.0)), False),
]


@given(_ops, st.integers(1, 3))
@settings(max_examples=30, deadline=None)
@example(  # a cut through request x1, then the bucket's first fold
    [*_cut_through_request, (("purge_older_than", 5.0), True)], 1
)
@example(  # the same cut after the bucket has folded
    [*_cut_through_request[:2], (("purge_user", "bob"), True),
     *_cut_through_request[2:], (("purge_older_than", 5.0), True)], 2
)
@example(  # a duplicate add after a fold changes nothing
    [(("check", ("bob", {_CLERK}, ("issue", "PO"), "d2", "c2")), True),
     (("redeliver", None), True)], 1
)
@example(  # a purge removes a bound set's only owner
    [(("check", ("alice", {_MANAGER}, ("open", "Case"), "d1", "c1")), True),
     (("purge_user", "alice"), True)], 2
)
def test_aggregate_views_match_scan_definitions(ops, shards):
    """The aggregate-backed views equal the base-class scan definitions.

    The views are every history read the engine makes: context
    presence, a user's roles, exercises and records, and the owners of
    a privilege set.

    On every backend, after every step drawn for it and at the end:
    decisions commit through ``apply``, the management purges take
    their own paths, direct adds share request ids across timestamps,
    a duplicate delivery must be absorbed, and policy swaps (there and
    back) land mid-stream without touching the store.
    """
    warm = SQLiteRetainedADIStore(":memory:")
    stores = {
        "memory": InMemoryRetainedADIStore(),
        "sqlite": SQLiteRetainedADIStore(":memory:"),  # the scan definitions
        "sqlite-spec": open_store("sqlite::memory:"),
        "tiered": TieredADIStore(warm, hot_users=2, shards=shards, owns_warm=True),
    }
    base = _policy_set()
    swapped = MSoDPolicySet(
        list(base)
        + [
            MSoDPolicy(
                business_context=ContextName.parse("Dept=!, Case=*"),
                mmers=[MMER([_AUDITOR, _MANAGER], 2)],
                policy_id="p-swap",
            )
        ]
    )
    engines = {name: MSoDEngine(base, store) for name, store in stores.items()}
    active = base
    try:
        for index, ((kind, argument), check_views) in enumerate(ops):
            if kind == "swap_policy":
                active = swapped if active is base else base
            for name, store in stores.items():
                if kind == "check":
                    user, roles, op, dept, case = argument
                    engines[name].check(
                        DecisionRequest(
                            user_id=user,
                            roles=tuple(sorted(roles, key=str)),
                            operation=op[0],
                            target=op[1],
                            context_instance=ContextName.parse(
                                f"Dept={dept}, Case={case}"
                            ),
                            timestamp=float(index),
                            request_id=f"r{index}",
                        )
                    )
                elif kind == "swap_policy":
                    assert engines[name].swap_policy(active).changed
                elif kind == "add":
                    store.add(_direct_record(*argument))
                elif kind == "redeliver":
                    _redeliver(store)
                else:
                    getattr(store, kind)(argument)
                if check_views or index == len(ops) - 1:
                    _assert_views_match_scan(
                        store, f"{name} after step {index} {kind}"
                    )
            digests = {store_digest(store) for store in stores.values()}
            assert len(digests) == 1, f"store contents diverged at step {index}"
    finally:
        for store in stores.values():
            store.close()
