"""The per-epoch plan: a matched policy that cannot fire costs one lookup.

Counts, not clocks (like ``test_lookup_scaling``): one ``engine.check``
of an instance that already has a plan binds no ``!`` component, makes
one store presence lookup per distinct effective context and evaluates
only the constraints the request can trip — however many unrelated
policies are loaded.  A never-seen instance whose shape (types plus the
values the policies name concretely) was planned before dispatches
nothing, and binds nothing when its ``!`` values were bound before.
Then the contract the plan relies on, checked for every registered
constraint kind; the three memo levels' bound and epoch discipline; and
a differential property against the straight-line §4.2 loop the engine
ran before plans, on the memory, SQLite and tiered stores, over
instances that share a shape while differing elsewhere.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    CONSTRAINT_KINDS,
    MMCD,
    MMEP,
    MMER,
    MODE_LITERAL,
    MODE_STRICT,
    ADIMutation,
    AdminBoundary,
    ContextName,
    DecisionRequest,
    Effect,
    InMemoryRetainedADIStore,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    MSoDViolation,
    MultiSessionConstraint,
    Privilege,
    RetainedADIRecord,
    Role,
    SQLiteRetainedADIStore,
    Step,
    TieredADIStore,
    policy_set_digest,
    register_constraint_kind,
    store_digest,
)
from repro.core.constraints import (
    CONSTRAINT_OK,
    CONSTRAINT_OK_EXERCISE,
    ConstraintVerdict,
)
from repro.core.policy_epoch import (
    CompiledPolicy,
    CompiledPolicyMatcher,
    trigger_keys,
)
from repro.core.store_memory import _ContextPresence
from repro.workload.bank_scale import (
    BankScaleConfig,
    bank_scale_policy_set,
    duty_privileges,
    duty_roles,
)


class _RepeatLimit(MultiSessionConstraint):
    """A toy kind that declares no triggers: it constrains one user on
    every privilege (two exercises per context, then deny)."""

    __slots__ = ()
    kind = "TEST_REPEAT_LIMIT"
    user = "carol"

    def matches_request(self, request):
        return request.user_id == self.user

    def evaluate(self, request, effective_context, views):
        if not self.matches_request(request):
            return CONSTRAINT_OK
        done = views.user_privilege_exercises(request.user_id, effective_context)
        if len(done) < 2:
            return CONSTRAINT_OK_EXERCISE
        return ConstraintVerdict(False, detail=f"{self.user} is over the repeat limit")

    def canonical(self):
        return {"kind": self.kind}

    def __repr__(self):
        return "RepeatLimit()"


# ---------------------------------------------------------------------------
# Counts of one planned check
# ---------------------------------------------------------------------------
_CONFIG = BankScaleConfig(n_users=10, n_divisions=2)
_INSTANCE = ContextName.parse("Region=R0, Division=D00, Branch=B001, Period=P2")


def _unrelated_policies(count):
    return [
        MSoDPolicy(
            ContextName.parse(f"Region=*, Division=X{number:03d}, Branch=*, Period=!"),
            mmers=[MMER([Role("employee", "exec"), Role("employee", "review")], 2)],
            policy_id=f"unrelated-{number}",
        )
        for number in range(count)
    ]


@pytest.fixture
def calls(monkeypatch):
    """Count bindings, constraint evaluations and store presence walks."""
    counts = {"instantiate": 0, "evaluate": 0, "presence_walks": 0}

    def counting(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(
        ContextName, "instantiate", counting("instantiate", ContextName.instantiate)
    )
    for cls in CONSTRAINT_KINDS.values():
        monkeypatch.setattr(cls, "evaluate", counting("evaluate", cls.evaluate))
    monkeypatch.setattr(
        _ContextPresence,
        "matching",
        counting("presence_walks", _ContextPresence.matching),
    )
    return counts


def _counts_of_one_planned_check(calls, unrelated):
    execute_role, _ = duty_roles(0, 1)
    execute = duty_privileges(0, 1)[0]
    store = InMemoryRetainedADIStore()
    store.add(
        RetainedADIRecord(
            user_id="earlier",
            roles=(execute_role,),
            operation=execute.operation,
            target=execute.target,
            context_instance=_INSTANCE,
            granted_at=0.0,
            request_id="history-0",
        )
    )
    engine = MSoDEngine(
        MSoDPolicySet([*_unrelated_policies(unrelated), *bank_scale_policy_set(_CONFIG)]),
        store,
    )

    def check(index):
        return engine.check(
            DecisionRequest(
                user_id="u0000001",
                roles=(execute_role,),
                operation=execute.operation,
                target=execute.target,
                context_instance=_INSTANCE,
                timestamp=float(index),
                request_id=f"r{index}",
            )
        )

    check(1)  # builds the instance's plan
    for name in calls:
        calls[name] = 0
    decision = check(2)
    assert decision.granted and decision.records_added == 1
    # the four duty-pair policies of the division, of which one can fire
    assert len(decision.matched_policy_ids) == 4
    return dict(calls)


@pytest.mark.parametrize("unrelated", [6, 96])
def test_a_planned_check_binds_nothing_and_evaluates_what_can_fire(calls, unrelated):
    counts = _counts_of_one_planned_check(calls, unrelated)
    assert counts["instantiate"] == 0
    assert counts["evaluate"] == 1
    # all four share one effective context, which the store's presence
    # memo holds since the first check: no posting walk
    assert counts["presence_walks"] == 0
    assert counts == _counts_of_one_planned_check(calls, 6)


def test_a_fresh_instance_reuses_its_shapes_dispatch_and_binding(calls, monkeypatch):
    calls["matching"] = 0
    dispatch = MSoDPolicySet.matching

    def matching(self, instance):
        calls["matching"] += 1
        return dispatch(self, instance)

    # the matcher binds the set's dispatch at construction: patch first
    monkeypatch.setattr(MSoDPolicySet, "matching", matching)
    execute_role, _ = duty_roles(0, 1)
    execute = duty_privileges(0, 1)[0]
    engine = MSoDEngine(
        MSoDPolicySet([*_unrelated_policies(6), *bank_scale_policy_set(_CONFIG)]),
        InMemoryRetainedADIStore(),
    )
    requests = iter(range(100))

    def check(context):
        for name in calls:
            calls[name] = 0
        index = next(requests)
        decision = engine.check(
            DecisionRequest(
                user_id="u0000001",
                roles=(execute_role,),
                operation=execute.operation,
                target=execute.target,
                context_instance=ContextName.parse(context),
                timestamp=float(index),
                request_id=f"r{index}",
            )
        )
        # the four duty-pair policies of the instance's division
        assert len(decision.matched_policy_ids) == 4

    check(str(_INSTANCE))
    assert calls["matching"] == 1
    # Branch is '*' in every policy: same shape, same binding
    branch = "Region=R0, Division=D00, Branch=B002, Period=P2"
    check(branch)
    assert calls["matching"] == 0 and calls["instantiate"] == 0
    plan = engine.compiled_matcher.plan
    assert plan(ContextName.parse(branch))[3] is plan(_INSTANCE)[3]
    # Period is '!': same shape, a new binding (one instantiate per
    # matched policy, as before shapes)
    check("Region=R0, Division=D00, Branch=B001, Period=P3")
    assert calls["matching"] == 0
    assert calls["instantiate"] == 4
    # Division is named concretely: a new shape
    check("Region=R1, Division=D01, Branch=B001, Period=P2")
    assert calls["matching"] == 1


# ---------------------------------------------------------------------------
# The constraint-kind contract the plan relies on
# ---------------------------------------------------------------------------
_ROLES = (Role("role", "Clerk"), Role("role", "Auditor"), Role("role", "Manager"))
_OPS = (
    ("issue", "PO"),
    ("approve", "PO"),
    ("pay", "Invoice"),
    ("open", "Case"),
    ("close", "Case"),
    ("browse", "Docs"),
)
_PRIVILEGES = tuple(Privilege(*op) for op in _OPS)
_USERS = ("alice", "bob", "carol")


def _cardinality(members, build):
    return st.integers(2, len(members)).map(lambda m: build(members, m))


_CONSTRAINTS_BY_KIND = {
    "MMER": st.lists(st.sampled_from(_ROLES), min_size=2, max_size=3, unique=True)
    .flatmap(lambda roles: _cardinality(roles, MMER)),
    "MMEP": st.one_of(
        st.lists(st.sampled_from(_PRIVILEGES), min_size=2, max_size=3).flatmap(
            lambda privileges: _cardinality(privileges, MMEP)
        ),
        # the duplicate-privilege idiom: at most one exercise per instance
        st.sampled_from(_PRIVILEGES).map(lambda privilege: MMEP([privilege] * 2, 2)),
    ),
    "MMCD": st.lists(
        st.sampled_from(_PRIVILEGES), min_size=2, max_size=3, unique=True
    ).map(MMCD),
    "ADMIN_BOUNDARY": st.lists(
        st.sampled_from(_PRIVILEGES), min_size=1, max_size=2, unique=True
    ).map(lambda privileges: AdminBoundary("ops", privileges)),
    _RepeatLimit.kind: st.just(_RepeatLimit()),
}
_constraint = st.one_of(*_CONSTRAINTS_BY_KIND.values())


@pytest.fixture(scope="module")
def toy_kind():
    register_constraint_kind(_RepeatLimit)
    yield _RepeatLimit
    del CONSTRAINT_KINDS[_RepeatLimit.kind]


def _request(user, roles, op, index, context="Dept=d1, Case=c1"):
    return DecisionRequest(
        user_id=user,
        roles=tuple(sorted(roles, key=str)),
        operation=op[0],
        target=op[1],
        context_instance=ContextName.parse(context),
        timestamp=float(index),
        request_id=f"r{index}",
    )


_requests = st.builds(
    _request,
    st.sampled_from(_USERS),
    st.sets(st.sampled_from(_ROLES), min_size=1, max_size=2),
    st.sampled_from(_OPS),
    st.integers(0, 1000),
)


@given(
    st.lists(_constraint, min_size=1, max_size=5),
    st.lists(_requests, min_size=1, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_trigger_index_agrees_with_matches_request(toy_kind, constraints, requests):
    # a strategy per registered kind: a new kind must join this test
    assert set(CONSTRAINT_KINDS) == set(_CONSTRAINTS_BY_KIND)
    policy = MSoDPolicy(ContextName.parse("Dept=!"), constraints=constraints)
    compiled = CompiledPolicy(policy)
    # history the kinds can read: every request granted once beforehand
    store = InMemoryRetainedADIStore()
    for request in requests:
        store.add(_oracle_record(request, request.roles))
    effective = ContextName.parse("Dept=d1")
    for request in requests:
        fired = [position for position, _ in compiled.fired(trigger_keys(request))]
        assert fired == sorted(set(fired))  # declaration order, each once
        for position, constraint in enumerate(policy.constraints):
            matches = constraint.matches_request(request)
            if constraint.triggers() is None:
                assert position in fired  # declares nothing: always evaluated
            else:
                assert (position in fired) == matches, (constraint, request)
            if not matches:
                assert constraint.evaluate(request, effective, store) == CONSTRAINT_OK


# ---------------------------------------------------------------------------
# One memo per epoch
# ---------------------------------------------------------------------------
_CLERK, _AUDITOR, _MANAGER = _ROLES


def test_matching_is_answered_from_the_bounded_plan_memo():
    policy_set = MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Dept=!"),
                mmers=[MMER([_CLERK, _AUDITOR], 2)],
                policy_id="p",
            ),
            MSoDPolicy(
                ContextName.parse("Dept=d1, Case=!"),
                mmers=[MMER([_CLERK, _MANAGER], 2)],
                policy_id="q",
            ),
            MSoDPolicy(
                ContextName.parse("Dept=*, Case=c1, Step=*"),
                mmers=[MMER([_AUDITOR, _MANAGER], 2)],
                policy_id="r",
            ),
        ]
    )
    matcher = CompiledPolicyMatcher(
        policy_set, 1, policy_set_digest(policy_set), memo_limit=2
    )
    instance = ContextName.parse("Dept=d1")
    matched = matcher.matching(instance)
    assert matcher.memo_sizes() == (1, 1, 1)
    policies, ids, _, contexts = matcher.plan(instance)
    assert policies is matched and ids == ("p",) and contexts == (instance,)
    # distinct shapes (Dept and Case values, lengths) and bindings
    names = []
    for number in range(60):
        components = [f"Dept=d{number // 3}", f"Case=c{number % 4}", f"Step=s{number}"]
        names.append(ContextName.parse(", ".join(components[: 1 + number % 3])))
    assert len(set(names)) == 60  # every plan below is a miss
    for name in names:
        before = matcher.memo_sizes()
        policies, _, _, contexts = matcher.plan(name)
        after = matcher.memo_sizes()
        assert all(size <= 2 for size in after), (name, after)
        if before[0] == 2:  # full: the three levels empty together
            assert after == (1, 1, 1)
        assert policies == tuple(p for p in policy_set if p.applies_to(name))
        assert contexts == tuple(
            p.business_context.instantiate(name) for p in policies
        )


def test_a_plan_memoised_before_a_swap_is_never_served_after_it():
    first = MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Dept=!"),
                mmers=[MMER([_CLERK, _AUDITOR], 2)],
                policy_id="roles",
            )
        ]
    )
    second = first.extended(
        [
            MSoDPolicy(
                ContextName.parse("Dept=*"),
                mmeps=[MMEP([_PRIVILEGES[0], _PRIVILEGES[0]], 2)],
                policy_id="once",
            )
        ]
    )
    engine = MSoDEngine(first, InMemoryRetainedADIStore())
    index = iter(range(100))

    def matched(user="alice", context="Dept=d1"):
        request = _request(user, {_CLERK}, _OPS[0], next(index), context)
        return engine.check(request).matched_policy_ids

    assert matched() == ("roles",)
    before = engine.compiled_matcher
    assert before.memo_sizes() == (1, 1, 1)
    engine.swap_policy(second)
    assert engine.compiled_matcher is not before
    assert engine.compiled_matcher.memo_sizes() == (0, 0, 0)
    assert matched("bob") == ("roles", "once")
    engine.swap_policy(first)
    assert engine.compiled_matcher.memo_sizes() == (0, 0, 0)
    assert matched("carol") == ("roles",)
    # the retired matcher still holds its plan; the engine never asks it
    assert before.memo_sizes() == (1, 1, 1)

    # a set naming Case=c1 where the last had Case=*: the shapes change
    every_case = first.extended(
        [
            MSoDPolicy(
                ContextName.parse("Dept=*, Case=*"),
                mmers=[MMER([_AUDITOR, _MANAGER], 2)],
                policy_id="case",
            )
        ]
    )
    one_case = first.extended(
        [
            MSoDPolicy(
                ContextName.parse("Dept=*, Case=c1"),
                mmers=[MMER([_AUDITOR, _MANAGER], 2)],
                policy_id="case-one",
            )
        ]
    )
    engine.swap_policy(every_case)
    assert matched("dave", "Dept=d1, Case=c2") == ("roles", "case")
    assert matched("dave", "Dept=d1, Case=c1") == ("roles", "case")
    assert engine.compiled_matcher.memo_sizes() == (2, 1, 1)  # one shape
    engine.swap_policy(one_case)
    assert matched("erin", "Dept=d1, Case=c1") == ("roles", "case-one")
    assert matched("erin", "Dept=d1, Case=c2") == ("roles",)
    assert engine.compiled_matcher.memo_sizes() == (2, 2, 2)


# ---------------------------------------------------------------------------
# Differential: the plan against the straight-line loop it replaced
# ---------------------------------------------------------------------------
def _oracle_record(request, roles):
    return RetainedADIRecord(
        user_id=request.user_id,
        roles=roles,
        operation=request.operation,
        target=request.target,
        context_instance=request.context_instance,
        granted_at=request.timestamp,
        request_id=request.request_id,
    )


def _oracle_policy(policy, request, mutation, views, mode):
    """Steps 3-7 for one matched policy, as the engine ran them before
    plans: bind ``!`` per request, evaluate every constraint."""
    effective_context = policy.business_context.instantiate(request.context_instance)
    pending = []
    if not views.has_context(effective_context):
        first = policy.first_step
        if first is not None and not first.matches(request.operation, request.target):
            return None
        pending.append(_oracle_record(request, request.roles))
        if mode == MODE_LITERAL:
            _oracle_finish(policy, request, effective_context, pending, mutation)
            return None
    for constraint in policy.constraints:
        verdict = constraint.evaluate(request, effective_context, views)
        if not verdict.ok:
            return MSoDViolation(
                policy_id=policy.policy_id,
                constraint_kind=constraint.kind,
                constraint_repr=repr(constraint),
                effective_context=effective_context,
                detail=verdict.detail,
            )
        if verdict.grant_exercise:
            pending.append(_oracle_record(request, request.roles))
        elif verdict.grant_roles:
            pending.extend(_oracle_record(request, (role,)) for role in verdict.grant_roles)
    _oracle_finish(policy, request, effective_context, pending, mutation)
    return None


def _oracle_finish(policy, request, effective_context, pending, mutation):
    last = policy.last_step
    if last is not None and last.matches(request.operation, request.target):
        mutation.purge_contexts.append(effective_context)
    else:
        mutation.adds.extend(pending)


def _oracle_check(policy_set, store, mode, request):
    """The decision key of the §4.2 loop, step 1 by a scan of the set."""
    matched = [policy for policy in policy_set if policy.applies_to(request.context_instance)]
    ids = tuple(policy.policy_id for policy in matched)
    mutation = ADIMutation()
    for policy in matched:
        violation = _oracle_policy(policy, request, mutation, store, mode)
        if violation is not None:
            return (Effect.DENY, violation, ids, (), ())
    store.apply(mutation)
    return (Effect.GRANT, None, ids, tuple(mutation.adds), tuple(mutation.purge_contexts))


def _key(decision):
    return (
        decision.effect,
        decision.violation,
        decision.matched_policy_ids,
        decision.adi_adds,
        decision.adi_purged_contexts,
    )


_CONTEXTS = (
    "Dept=!",
    "Dept=*",
    "Dept=d1",
    "Dept=!, Case=!",
    "Dept=*, Case=!",
    "Dept=!, Case=*",
    "Dept=d2, Case=!",
)
_steps = st.none() | st.sampled_from(_OPS).map(lambda op: Step(*op))


@st.composite
def _policy_sets(draw):
    """Several policies per business context, every kind, first/last steps."""
    pool = draw(st.lists(st.sampled_from(_CONTEXTS), min_size=1, max_size=3, unique=True))
    policies = []
    for number in range(draw(st.integers(1, 6))):
        policies.append(
            MSoDPolicy(
                ContextName.parse(draw(st.sampled_from(pool))),
                constraints=draw(st.lists(_constraint, min_size=1, max_size=3)),
                first_step=draw(_steps),
                last_step=draw(_steps),
                policy_id=f"p{number}",
            )
        )
    return MSoDPolicySet(policies)


# Instances sharing a shape while differing elsewhere: a component no
# policy names (Step), a shorter name and a differently typed one.
_INSTANCES = (
    "Dept=d1, Case=c1",
    "Dept=d1, Case=c2",
    "Dept=d2, Case=c1",
    "Dept=d1, Case=c1, Step=s1",
    "Dept=d1, Case=c1, Step=s2",
    "Dept=d1",
    "Region=r1, Dept=d1",
)
_stream = st.lists(
    st.one_of(
        st.tuples(
            st.just("check"),
            st.tuples(
                st.sampled_from(_USERS),
                st.sets(st.sampled_from(_ROLES), min_size=1, max_size=2),
                st.sampled_from(_OPS),
                st.sampled_from(_INSTANCES),
            ),
        ),
        st.tuples(st.just("swap_policy"), st.none()),
    ),
    min_size=1,
    max_size=30,
)


# A concrete Dept=d1 policy beside Dept=!, Case=*: the two Step values
# share a shape and a binding, Dept=d2 is a new shape.
_NAMED = MSoDPolicySet(
    [
        MSoDPolicy(
            ContextName.parse("Dept=d1"),
            mmers=[MMER([_CLERK, _AUDITOR], 2)],
            policy_id="p0",
        ),
        MSoDPolicy(
            ContextName.parse("Dept=!, Case=*"),
            mmeps=[MMEP([_PRIVILEGES[0], _PRIVILEGES[1]], 2)],
            last_step=Step(*_OPS[4]),
            policy_id="p1",
        ),
    ]
)
_PER_CASE = MSoDPolicySet(
    [
        MSoDPolicy(
            ContextName.parse("Dept=!, Case=!"),
            mmers=[MMER([_CLERK, _AUDITOR], 2)],
            policy_id="p2",
        )
    ]
)
_NAMED_STREAM = [
    ("check", ("alice", {_CLERK}, _OPS[0], "Dept=d1, Case=c1, Step=s1")),
    ("check", ("alice", {_AUDITOR}, _OPS[1], "Dept=d1, Case=c1, Step=s2")),
    ("check", ("bob", {_CLERK}, _OPS[0], "Dept=d1, Case=c1, Step=s2")),
    ("check", ("bob", {_AUDITOR}, _OPS[1], "Dept=d1, Case=c1, Step=s1")),
    ("check", ("alice", {_AUDITOR}, _OPS[1], "Dept=d2, Case=c1")),
]


@given(
    st.sampled_from([MODE_STRICT, MODE_LITERAL]), _policy_sets(), _policy_sets(), _stream
)
@example(MODE_STRICT, _NAMED, _PER_CASE, _NAMED_STREAM)
@example(
    MODE_LITERAL,
    _NAMED,
    _PER_CASE,
    [
        *_NAMED_STREAM[:2],
        ("swap_policy", None),
        *_NAMED_STREAM[2:4],
        ("swap_policy", None),
        *_NAMED_STREAM[2:],
        ("check", ("carol", {_MANAGER}, _OPS[4], "Dept=d1, Case=c2, Step=s1")),
        ("check", ("carol", {_CLERK}, _OPS[0], "Dept=d1, Case=c1, Step=s1")),
    ],
)
@settings(max_examples=80, deadline=None)
def test_planned_engine_decides_like_the_straight_line_loop(mode, first, second, stream):
    oracle_store = InMemoryRetainedADIStore()
    warm = SQLiteRetainedADIStore(":memory:")
    stores = {
        "memory": InMemoryRetainedADIStore(),
        "sqlite": SQLiteRetainedADIStore(":memory:"),
        "tiered": TieredADIStore(warm, hot_users=2, owns_warm=True),
    }
    engines = {name: MSoDEngine(first, store, mode=mode) for name, store in stores.items()}
    active = first
    try:
        for index, (kind, argument) in enumerate(stream):
            if kind == "swap_policy":
                active = second if active is first else first
                for engine in engines.values():
                    engine.swap_policy(active, force=True)
                continue
            user, roles, op, context = argument
            request = _request(user, roles, op, index, context)
            expected = _oracle_check(active, oracle_store, mode, request)
            for name, engine in engines.items():
                assert _key(engine.check(request)) == expected, (name, index)
            digest = store_digest(oracle_store)
            for name, store in stores.items():
                assert store_digest(store) == digest, (name, index)
    finally:
        for store in stores.values():
            store.close()
