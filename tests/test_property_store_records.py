"""Differential property: every record a store hands out is the record.

The stores keep their history as packed rows and build a
:class:`RetainedADIRecord` only when they hand one out.  These
properties drive the memory, bare SQLite, spec-built ``sqlite:`` and
small tiered-over-SQLite stores through one stream of
writes and purges and require every record they return — from
``find``, ``find_user``, ``records`` and the ``apply_detailed``
outcome — to equal, in type and in every field, the record a
record-per-tuple reference holds for the same stream.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import open_store
from repro.core import (
    ADIMutation,
    ContextName,
    InMemoryRetainedADIStore,
    RetainedADIRecord,
    Role,
    SQLiteRetainedADIStore,
    TieredADIStore,
)

_ROOT = ContextName.root()
_ROLES = [Role("role", "Clerk"), Role("role", "Auditor"), Role("role", "Manager")]
_USERS = ["alice", "bob", "carol"]
_QUERIES = [
    _ROOT,
    ContextName.parse("Dept=d1"),
    ContextName.parse("Dept=*, Case=c2"),
    ContextName.parse("Dept=d2, Case=*"),
]


class _Reference:
    """The record-per-tuple store: a list of stamped records."""

    def __init__(self) -> None:
        self.held: list[RetainedADIRecord] = []
        self.next_id = 1

    def apply_detailed(self, mutation):
        """Purges before adds: each context's, then the named ids', the
        named users', the cutoff's, each in record-id order."""
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
            purged += [
                record
                for record in self.held
                if selected(record) and record not in purged
            ]
        self.held = [record for record in self.held if record not in purged]
        added = []
        for record in mutation.adds:
            added.append(record._replace(record_id=self.next_id))
            self.next_id += 1
        self.held += added
        return purged, added

    def purge(self, doomed) -> int:
        before = len(self.held)
        self.held = [record for record in self.held if not doomed(record)]
        return before - len(self.held)

    def find(self, context):
        return [record for record in self.held if record.in_context(context)]

    def find_user(self, user_id, context):
        return [record for record in self.find(context) if record.user_id == user_id]


_STORES = {
    "memory": InMemoryRetainedADIStore,
    "sqlite": lambda: SQLiteRetainedADIStore(":memory:"),
    "sqlite-spec": lambda: open_store("sqlite::memory:"),
    # Two hot users for three: a long stream evicts and re-hydrates.
    "tiered": lambda: TieredADIStore(
        SQLiteRetainedADIStore(":memory:"), hot_users=2, shards=1, owns_warm=True
    ),
}


def _same(got, expected, label) -> None:
    """Equal lists of records, equal in type and field by field."""
    assert got == expected, label
    for record, reference in zip(got, expected):
        assert type(record) is RetainedADIRecord, label
        for field, value in zip(record, reference):
            assert type(field) is type(value), (label, field, value)


_record = st.builds(
    lambda user, roles, op, dept, case, at: RetainedADIRecord(
        user_id=user,
        roles=roles,
        operation=op,
        target=f"t-{op}",
        context_instance=ContextName.parse(f"Dept={dept}, Case={case}"),
        granted_at=at,
        request_id="",  # set per mutation
    ),
    st.sampled_from(_USERS),
    st.lists(st.sampled_from(_ROLES), min_size=1, max_size=2, unique=True).map(tuple),
    st.sampled_from(["issue", "approve", "pay"]),
    st.sampled_from(["d1", "d2"]),
    st.sampled_from(["c1", "c2", "c3"]),
    st.integers(0, 30).map(float),
)

_op = st.one_of(
    st.tuples(
        st.just("apply"),
        st.lists(_record, max_size=3),
        st.lists(st.sampled_from(_QUERIES[1:]), max_size=1),
        st.lists(st.integers(1, 40), max_size=2, unique=True).map(tuple),
        st.lists(st.sampled_from(_USERS), max_size=2).map(tuple),
        st.none() | st.integers(0, 30).map(float),
    ),
    st.tuples(st.just("add"), _record),
    st.tuples(st.just("purge_user"), st.sampled_from(_USERS)),
    st.tuples(st.just("purge_older_than"), st.integers(0, 30).map(float)),
    st.tuples(st.just("purge_context"), st.sampled_from(_QUERIES)),
)


_FIRST = RetainedADIRecord(
    "alice", (_ROLES[0],), "issue", "t-issue",
    ContextName.parse("Dept=d1, Case=c1"), 0.0, "",
)


@given(st.lists(_op, min_size=1, max_size=30))
# Ids named out of order: every store reports them in id order.
@example([("add", _FIRST), ("add", _FIRST), ("apply", [], [], (2, 1), (), None)])
# Every purge kind in one apply, overlapping: each record is reported
# once, under the first purge that selects it.
@example([
    ("add", _FIRST),
    ("add", _FIRST._replace(
        user_id="bob", context_instance=ContextName.parse("Dept=d2, Case=c2")
    )),
    ("add", _FIRST._replace(granted_at=5.0)),
    ("add", _FIRST._replace(user_id="carol", granted_at=1.0)),
    ("apply", [_FIRST], [_QUERIES[2]], (2, 3), ("alice", "bob", "alice"), 9.0),
])
@settings(max_examples=60, deadline=None)
def test_every_record_handed_out_equals_the_reference(ops):
    stores = {name: make() for name, make in _STORES.items()}
    reference = _Reference()
    try:
        for step, (kind, *args) in enumerate(ops):
            label = f"step {step} ({kind})"
            if kind in ("apply", "add"):
                adds = args[0] if kind == "apply" else [args[0]]
                # One request's records share its id (step 5.iv).
                adds = [record._replace(request_id=f"r{step}") for record in adds]
            if kind == "apply":
                mutation = ADIMutation(adds, *args[1:])
                purged, added = reference.apply_detailed(mutation)
                for name, store in stores.items():
                    outcome = store.apply_detailed(mutation)
                    _same(outcome.purged_records, purged, (name, label, "purged"))
                    _same(outcome.added, added, (name, label, "added"))
            elif kind == "add":
                (added,) = reference.apply_detailed(ADIMutation(adds))[1]
                for name, store in stores.items():
                    _same([store.add(adds[0])], [added], (name, label))
            else:
                doomed = {
                    "purge_user": lambda r: r.user_id == args[0],
                    "purge_older_than": lambda r: r.granted_at < args[0],
                    "purge_context": lambda r: r.in_context(args[0]),
                }[kind]
                count = reference.purge(doomed)
                for name, store in stores.items():
                    assert getattr(store, kind)(args[0]) == count, (name, label)
            for name, store in stores.items():
                where = (name, label)
                _same(list(store.records()), reference.held, where)
                assert store.user_ids() == {r.user_id for r in reference.held}, where
                for query in _QUERIES:
                    _same(store.find(query), reference.find(query), where)
                    for user in _USERS:
                        _same(
                            store.find_user(user, query),
                            reference.find_user(user, query),
                            where,
                        )
    finally:
        for store in stores.values():
            store.close()
