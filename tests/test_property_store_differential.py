"""Differential property: every store shape answers as the scan definitions.

The retained-ADI stores are interchangeable (paper §5.2 and §6) only
while each answers as the :class:`RetainedADIStore` scan definitions
say.  One stream of steps drives every shape — the memory store, a bare
SQLite store (whose engine views are those definitions), the spec-built
``sqlite:`` store and a tiered-over-SQLite store with a small hot budget
— beside one reference, :class:`_Scan`: a list of records and the
base-class definitions over it.

The steps are decisions in strict and in literal mode, direct adds
(request ids shared across timestamps, ``granted_at`` an ``int`` or a
``float``), ``apply`` with every purge kind, the three purge one-liners,
a policy swap there and back, and a redelivered record (a tier's
hydration racing its hot update).  Context values are drawn from an
alphabet of LIKE metacharacters, since SQLite prefilters with LIKE.
After every step each shape must equal the reference in its decision,
its purge outcome (every record, in type and field, in record-id
order), ``records``/``find``/``find_user``, every engine view,
``user_ids``, ``context_counts`` and ``store_digest``.  The checks read
the users in a rotating order, so which users a small tier keeps
resident when the next write lands changes from step to step.
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
    ADIApplyOutcome,
    ADIMutation,
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
from repro.core.store_memory import _UserAggregate

_ROOT = ContextName.root()
_CLERK = Role("role", "Clerk")
_AUDITOR = Role("role", "Auditor")
_MANAGER = Role("role", "Manager")
_ROLES = [_CLERK, _AUDITOR, _MANAGER]
_USERS = ["alice", "bob", "carol"]

_OPS = (
    ("issue", "PO"),
    ("approve", "PO"),
    ("pay", "Invoice"),
    ("open", "Case"),
    ("close", "Case"),
    ("browse", "Docs"),
)

#: Privilege sets whose owners (the MMCD view) are compared per query.
_BOUND_SETS = [
    (Privilege("issue", "PO"), Privilege("approve", "PO")),
    (Privilege("open", "Case"), Privilege("close", "Case")),
]

#: The queries every check reads besides one per context value held.
_QUERIES = [_ROOT, ContextName.parse("Dept=*, Case=*")]


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


def _swapped_set(base: MSoDPolicySet) -> MSoDPolicySet:
    return MSoDPolicySet(
        list(base)
        + [
            MSoDPolicy(
                business_context=ContextName.parse("Dept=!, Case=*"),
                mmers=[MMER([_AUDITOR, _MANAGER], 2)],
                policy_id="p-swap",
            )
        ]
    )


class _Scan(RetainedADIStore):
    """The reference: a list of records and the base-class scan definitions.

    :meth:`apply_detailed` purges before it adds — each context's
    records, then the named ids', the named users', the cutoff's, each
    in record-id order — and stamps each add as every store does: the
    next id, and ``granted_at`` a ``float``.  ``contexts`` is every
    context a record was ever added in.
    """

    def __init__(self, records=()) -> None:
        self.held: list[RetainedADIRecord] = list(records)
        self.next_id = 1
        self.contexts = {record.context_instance for record in self.held}

    def records(self):
        return iter(self.held)

    def find(self, effective_context):
        return [r for r in self.held if r.in_context(effective_context)]

    def find_user(self, user_id, effective_context):
        return [r for r in self.find(effective_context) if r.user_id == user_id]

    def count(self):
        return len(self.held)

    def add(self, record):
        return self.apply_detailed(ADIMutation([record])).added[0]

    def apply_detailed(self, mutation):
        cutoff = mutation.purge_before
        selections = [
            *(
                (lambda record, context=context: record.in_context(context))
                for context in mutation.purge_contexts
            ),
            lambda record: record.record_id in mutation.purge_record_ids,
            lambda record: record.user_id in mutation.purge_users,
            lambda record: cutoff is not None and record.granted_at < cutoff,
        ]
        purged: list[RetainedADIRecord] = []
        for selected in selections:
            purged += [r for r in self.held if selected(r) and r not in purged]
        self.held = [r for r in self.held if r not in purged]
        added = []
        for record in mutation.adds:
            added.append(
                record._replace(
                    granted_at=float(record.granted_at), record_id=self.next_id
                )
            )
            self.next_id += 1
        self.held += added
        self.contexts.update(record.context_instance for record in added)
        return ADIApplyOutcome(purged, added)


def _queries(contexts) -> list[ContextName]:
    """:data:`_QUERIES`, then ``Dept=d`` and ``Dept=*, Case=c`` for each
    value ``d`` and ``c`` the contexts hold at those positions."""
    depts = {context[0].value for context in contexts}
    cases = {context[1].value for context in contexts if len(context) > 1}
    return [
        *_QUERIES,
        *(ContextName.parse(f"Dept={dept}") for dept in sorted(depts)),
        *(ContextName.parse(f"Dept=*, Case={case}") for case in sorted(cases)),
    ]


def _views(store, queries, users) -> list[tuple]:
    """Every read a shape answers, labelled, in one order: per user, all
    the queries, so a tier hydrates each user once."""
    seen = [
        ("records", list(store.records())),
        ("user_ids", store.user_ids()),
        ("context_counts", store.context_counts()),
        ("store_digest", store_digest(store)),
    ]
    for query in queries:
        seen.append((("find", query), store.find(query)))
        seen.append((("has_context", query), store.has_context(query)))
        for privileges in _BOUND_SETS:
            seen.append((
                ("users_with_privileges", privileges, query),
                store.users_with_privileges(privileges, query),
            ))
    for user in users:
        for query in queries:
            seen.append((("find_user", user, query), store.find_user(user, query)))
            seen.append((("user_roles", user, query), store.user_roles(user, query)))
            seen.append((
                ("user_privilege_exercises", user, query),
                store.user_privilege_exercises(user, query),
            ))
    return seen


def _same(got, expected, where) -> None:
    """Equal; and records equal in type and field by field."""
    assert got == expected, where
    if isinstance(expected, list):
        for record, reference in zip(got, expected):
            if type(reference) is RetainedADIRecord:
                assert type(record) is RetainedADIRecord, where
                for field, value in zip(record, reference):
                    assert type(field) is type(value), (where, field, value)


def _assert_views_match(store, expected, queries, users, label) -> None:
    for (view, got), (_, value) in zip(_views(store, queries, users), expected):
        _same(got, value, (label, view))


def _assert_views_match_scan(store, label) -> None:
    """``store``'s reads equal the scan definitions over its own records."""
    scan = _Scan(store.records())
    queries = _queries(scan.contexts)
    expected = _views(scan, queries, _USERS)
    _assert_views_match(store, expected, queries, _USERS, label)


def _held_aggregate(store, user_id) -> _UserAggregate | None:
    """The resident aggregate a store folds ``user_id``'s views from."""
    if isinstance(store, TieredADIStore):
        return store._shard_for(user_id).entries.get(user_id)
    if isinstance(store, InMemoryRetainedADIStore):
        return store._by_user.get(user_id)
    return None  # SQL only, or the reference: it holds no aggregate


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


def _record(user, roles, op, context, request_id, granted_at):
    return RetainedADIRecord(
        user_id=user,
        roles=tuple(roles),
        operation=op[0],
        target=op[1],
        context_instance=ContextName.parse(context),
        granted_at=granted_at,
        request_id=request_id,
    )


# -- strategies ---------------------------------------------------------
#: Each example draws two values per position from an alphabet rich in
#: LIKE metacharacters (``%``, ``_`` and the escape ``\``).
_value = st.text(st.sampled_from("abc%_\\012"), min_size=1, max_size=4)


def _pool(key: str):
    pair = st.lists(_value, min_size=2, max_size=2)
    return st.shared(pair, key=key).flatmap(st.sampled_from)


_dept, _case = _pool("dept"), _pool("case")


def _context_text(depth, dept, case, item) -> str:
    """The first ``depth`` components of ``Dept=…, Case=…, Item=…``."""
    return ", ".join([f"Dept={dept}", f"Case={case}", f"Item={item}"][:depth])


#: A record's context: one to three components deep.
_context = st.builds(_context_text, st.integers(1, 3), _dept, _case, _case)

#: A purge's context: zero to three components, each a value or ``*``.
_query = st.builds(
    _context_text,
    st.integers(0, 3),
    _dept | st.just("*"),
    _case | st.just("*"),
    _case | st.just("*"),
).map(ContextName.parse)

_at = st.integers(0, 40) | st.integers(0, 40).map(float)

#: A record stored outside any decision: its request id is shared with
#: other direct adds at other timestamps, so a cut by age can pass
#: through one request's records.
_direct = st.builds(
    _record,
    st.sampled_from(_USERS),
    st.lists(st.sampled_from(_ROLES), min_size=1, max_size=2, unique=True),
    st.sampled_from(_OPS),
    _context,
    st.sampled_from(["x1", "x2"]),
    _at,
)



def _check_in(*modes):
    """A decision in one of ``modes``."""
    return st.tuples(
        st.just("check"),
        st.sampled_from(modes),
        st.sampled_from(_USERS),
        st.sets(st.sampled_from(_ROLES), min_size=1, max_size=2),
        st.sampled_from(_OPS),
        _dept,
        _case,
    )


_check = _check_in(MODE_STRICT, MODE_LITERAL)

_add = st.tuples(st.just("add"), _direct)
_apply = st.tuples(
    st.just("apply"),
    st.lists(_direct, max_size=3),
    st.lists(_query, max_size=2),
    st.lists(st.integers(1, 16), max_size=3, unique=True).map(tuple),
    st.lists(st.sampled_from(_USERS), max_size=2).map(tuple),
    st.none() | _at,
)
_purge_context = st.tuples(st.just("purge_context"), _query)
_purge = st.one_of(
    st.tuples(st.just("purge_user"), st.sampled_from(_USERS)),
    st.tuples(st.just("purge_older_than"), _at),
    _purge_context,
)
_swap = st.tuples(st.just("swap_policy"))
_redeliver_step = st.tuples(st.just("redeliver"))


def _steps_of(*kinds, min_size=4, max_size=30):
    """Lists of steps of the given kinds, each drawn as often as it is listed."""
    step = st.sampled_from(kinds).flatmap(lambda kind: kind)
    return st.lists(step, min_size=min_size, max_size=max_size)


#: Half the steps decide, and an ``apply`` comes twice as often as any
#: other write.
_steps = _steps_of(
    *[_check] * 6, _add, _apply, _apply, _purge, _swap, _redeliver_step
)


# -- examples carried from the per-concern suites this module replaced --
_FIRST = _record("alice", [_CLERK], _OPS[0], "Dept=d1, Case=c1", "x1", 0)

#: A record stored three times in one pair, cut through request x1 by age.
_cut_through_request = [
    ("add", _record("alice", [role], op, "Dept=d1, Case=c1", request_id, at))
    for role, op, request_id, at in [
        (_CLERK, ("issue", "PO"), "x1", 2.0),
        (_AUDITOR, ("pay", "Invoice"), "x1", 9.0),
        (_MANAGER, ("open", "Case"), "x2", 1.0),
    ]
]

#: A grant whose last step ends two overlapping contexts at once (p-steps'
#: ``Dept=d1, Case=c1`` inside p-close's ``Dept=d1``): each record it
#: deletes is one purged record, however many of the contexts it matched.
_overlapping_purge = [
    ("alice", {_CLERK}, ("open", "Case"), "d1", "c1"),
    ("bob", {_MANAGER}, ("close", "Case"), "d1", "c1"),
]


@given(_steps, st.integers(1, 3), st.integers(1, 3))
# Ids named out of order: every store reports them in id order.
@example([("add", _FIRST), ("add", _FIRST), ("apply", [], [], (2, 1), (), None)], 2, 1)
# Every purge kind in one apply, overlapping: each record is reported
# once, under the first purge that selects it.
@example([
    ("add", _FIRST),
    ("add", _FIRST._replace(
        user_id="bob", context_instance=ContextName.parse("Dept=d2, Case=c2")
    )),
    ("add", _FIRST._replace(granted_at=5.0)),
    ("add", _FIRST._replace(user_id="carol", granted_at=1.0)),
    ("apply", [_FIRST], [ContextName.parse("Dept=*, Case=c2")], (2, 3),
     ("alice", "bob", "alice"), 9.0),
], 2, 1)
@example([("check", MODE_STRICT, *request) for request in _overlapping_purge], 2, 2)
@example([("check", MODE_LITERAL, *request) for request in _overlapping_purge], 2, 2)
# A cut through request x1, before and after an unrelated purge.
@example([*_cut_through_request, ("purge_older_than", 5.0)], 2, 1)
@example([
    *_cut_through_request[:2], ("purge_user", "bob"),
    *_cut_through_request[2:], ("purge_older_than", 5.0),
], 2, 2)
# A duplicate add after a fold changes nothing.
@example([("check", MODE_STRICT, "bob", {_CLERK}, ("issue", "PO"), "d2", "c2"),
          ("redeliver",)], 2, 1)
# A purge removes a bound set's only owner.
@example([("check", MODE_STRICT, "alice", {_MANAGER}, ("open", "Case"), "d1", "c1"),
          ("purge_user", "alice")], 2, 2)
@settings(max_examples=40, deadline=None)
def test_every_shape_answers_as_the_reference(steps, hot_users, shards):
    _run_differential(steps, hot_users, shards)


def _run_differential(steps, hot_users: int, shards: int) -> None:
    """Drive every shape and the reference through ``steps``, comparing
    each shape with the reference after every step.

    ``hot_users`` and ``shards`` size the tiered shape; with fewer hot
    users than :data:`_USERS` the tier must have evicted by the end.
    """
    stores = {
        "memory": InMemoryRetainedADIStore(),
        "sqlite": SQLiteRetainedADIStore(":memory:"),  # the scan definitions
        "sqlite-spec": open_store("sqlite::memory:"),
        "tiered": TieredADIStore(
            SQLiteRetainedADIStore(":memory:"),
            hot_users=hot_users, shards=shards, owns_warm=True,
        ),
    }
    reference = _Scan()
    base = _policy_set()
    swapped = _swapped_set(base)
    active = base
    engines = {
        name: {
            mode: MSoDEngine(base, store, mode=mode)
            for mode in (MODE_STRICT, MODE_LITERAL)
        }
        for name, store in [("reference", reference), *stores.items()]
    }
    try:
        for index, (kind, *args) in enumerate(steps):
            label = f"step {index} ({kind})"
            if kind == "check":
                mode, user, roles, op, dept, case = args
                request = DecisionRequest(
                    user_id=user,
                    roles=tuple(sorted(roles, key=str)),
                    operation=op[0],
                    target=op[1],
                    context_instance=ContextName.parse(f"Dept={dept}, Case={case}"),
                    timestamp=float(index),
                    request_id=f"r{index}",
                )
                expected = engines["reference"][mode].check(request)
                for name in stores:
                    decision = engines[name][mode].check(request)
                    assert decision == expected, (name, label)
            elif kind == "swap_policy":
                active = swapped if active is base else base
                for by_mode in engines.values():
                    for engine in by_mode.values():
                        assert engine.swap_policy(active).changed
            elif kind == "redeliver":
                for store in stores.values():
                    _redeliver(store)
            elif kind in ("add", "apply"):
                adds = [args[0]] if kind == "add" else args[0]
                mutation = ADIMutation(adds, *args[1:])
                outcome = reference.apply_detailed(mutation)
                for name, store in stores.items():
                    where = (name, label)
                    if kind == "add":
                        _same([store.add(args[0])], outcome.added, where)
                        continue
                    got = store.apply_detailed(mutation)
                    _same(got.purged_records, outcome.purged_records, where)
                    _same(got.added, outcome.added, where)
            else:  # the purge one-liners
                count = getattr(reference, kind)(args[0])
                for name, store in stores.items():
                    assert getattr(store, kind)(args[0]) == count, (name, label)
            queries = _queries(reference.contexts)
            turn = index % len(_USERS)
            users = _USERS[turn:] + _USERS[:turn]
            expected = _views(reference, queries, users)
            for name, store in stores.items():
                _assert_views_match(store, expected, queries, users, (name, label))
        if hot_users < len(_USERS):  # the reads cycled users through the tier
            assert stores["tiered"].stats()["evictions"], "the tier never evicted"
    finally:
        for store in stores.values():
            store.close()
