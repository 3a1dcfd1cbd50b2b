"""Unit tests for the retained-ADI management port (Section 4.3)."""

import sys
import threading

import pytest

from repro.core import (
    CONTROLLER_ROLE,
    ADIMutation,
    ContextName,
    InMemoryRetainedADIStore,
    RetainedADIRecord,
    RetainedADIManagementPort,
    Role,
    SQLiteRetainedADIStore,
    TieredADIStore,
)
from repro.core.admin import (
    ALL_OPERATIONS,
    OP_COUNT_RECORDS,
    OP_LIST_RECORDS,
    OP_PURGE_ALL,
    OP_PURGE_CONTEXT,
    READ_OPERATIONS,
)
from repro.errors import AdminError

AUDITOR_ROLE = Role("permisRole", "ADIAuditor")
NOBODY_ROLE = Role("permisRole", "Nobody")


def record(user="alice", context="Branch=York, Period=2006", at=1.0, rid="r1"):
    return RetainedADIRecord(
        user_id=user,
        roles=(Role("employee", "Teller"),),
        operation="op",
        target="t",
        context_instance=ContextName.parse(context),
        granted_at=at,
        request_id=rid,
    )


#: The backends the port runs over; test classes pick one by ``backend``.
BACKENDS = {
    "memory": InMemoryRetainedADIStore,
    "sqlite": SQLiteRetainedADIStore,
    "tiered": lambda: TieredADIStore(
        SQLiteRetainedADIStore(), hot_users=1, owns_warm=True
    ),
}


@pytest.fixture
def store(request):
    s = BACKENDS[getattr(request.cls, "backend", "memory")]()
    s.add(record(at=1.0, rid="r1"))
    s.add(record(user="bob", context="Branch=Leeds, Period=2006", at=5.0, rid="r2"))
    yield s
    s.close()


@pytest.fixture
def port(store):
    return RetainedADIManagementPort(store)


class TestAuthorization:
    def test_controller_role_may_do_everything(self, port):
        assert port.count_records([CONTROLLER_ROLE]) == 2

    def test_unknown_role_denied(self, port):
        with pytest.raises(AdminError):
            port.count_records([NOBODY_ROLE])

    def test_no_roles_denied(self, port):
        with pytest.raises(AdminError):
            port.purge_all([])

    def test_read_only_role(self, store):
        port = RetainedADIManagementPort(
            store,
            role_operations={
                CONTROLLER_ROLE: ALL_OPERATIONS,
                AUDITOR_ROLE: READ_OPERATIONS,
            },
        )
        assert port.count_records([AUDITOR_ROLE]) == 2
        assert len(port.list_records([AUDITOR_ROLE])) == 2
        with pytest.raises(AdminError):
            port.purge_all([AUDITOR_ROLE])

    def test_unknown_operation_in_policy_rejected(self, store):
        with pytest.raises(AdminError):
            RetainedADIManagementPort(
                store, role_operations={AUDITOR_ROLE: frozenset({"badOp"})}
            )

    def test_any_authorized_presented_role_suffices(self, store):
        port = RetainedADIManagementPort(
            store,
            role_operations={AUDITOR_ROLE: frozenset({OP_COUNT_RECORDS})},
        )
        assert port.count_records([NOBODY_ROLE, AUDITOR_ROLE]) == 2


class TestOperations:
    def test_purge_context(self, port, store):
        outcome = port.purge_context(
            [CONTROLLER_ROLE], ContextName.parse("Branch=York, Period=2006")
        )
        assert outcome.operation == OP_PURGE_CONTEXT
        assert outcome.affected == 1
        assert store.count() == 1

    def test_purge_user(self, port, store):
        assert port.purge_user([CONTROLLER_ROLE], "alice").affected == 1
        assert {rec.user_id for rec in store.records()} == {"bob"}

    def test_purge_older_than(self, port, store):
        assert port.purge_older_than([CONTROLLER_ROLE], 3.0).affected == 1
        assert store.count() == 1

    def test_purge_all(self, port, store):
        assert port.purge_all([CONTROLLER_ROLE]).operation == OP_PURGE_ALL
        assert store.count() == 0

    def test_remove_record(self, port, store):
        target = list(store.records())[0]
        outcome = port.remove_record([CONTROLLER_ROLE], target.record_id)
        assert outcome.affected == 1
        assert store.count() == 1

    def test_remove_record_keeps_other_contexts_ids(self, port, store):
        store.add(record(user="carol", at=2.0, rid="r3"))  # York, like alice
        store.add(record(user="dave", context="Branch=Hull, Period=2006", rid="r4"))
        before = {rec.request_id: rec for rec in store.records()}
        outcome = port.remove_record([CONTROLLER_ROLE], before["r1"].record_id)
        assert outcome.affected == 1
        after = {rec.request_id: rec for rec in store.records()}
        assert set(after) == {"r2", "r3", "r4"}
        # other contexts keep their ids; York's survivor is re-added
        assert after["r2"] == before["r2"]
        assert after["r4"] == before["r4"]
        assert after["r3"].user_id == "carol"

    def test_remove_record_spares_a_grant_committed_before_its_apply(
        self, port, store, monkeypatch
    ):
        """A grant that lands in the record's context between the port's
        call and the store's apply survives the removal, and the
        record's context-mates keep their ids."""
        mate = store.add(record(user="carol", at=2.0, rid="r3"))  # York
        doomed = next(rec for rec in store.records() if rec.request_id == "r1")
        granted = []
        apply = store.apply

        def grant_then_apply(mutation):
            if not granted:
                granted.append(store.add(record(user="erin", at=3.0, rid="r5")))
            return apply(mutation)

        monkeypatch.setattr(store, "apply", grant_then_apply)
        assert port.remove_record([CONTROLLER_ROLE], doomed.record_id).affected == 1
        after = {rec.request_id: rec for rec in store.records()}
        assert set(after) == {"r2", "r3", "r5"}
        assert after["r3"] == mate
        assert after["r5"] == granted[0]

    def test_remove_missing_record(self, port):
        assert port.remove_record([CONTROLLER_ROLE], 999).affected == 0

    def test_list_records(self, port):
        records = port.list_records([CONTROLLER_ROLE])
        assert {rec.user_id for rec in records} == {"alice", "bob"}
        assert OP_LIST_RECORDS in ALL_OPERATIONS

    def test_retention_sweep(self, port, store):
        outcome = port.scheduled_retention_sweep(
            [CONTROLLER_ROLE], max_age_seconds=2.0, now=6.0
        )
        assert outcome.affected == 1
        assert store.count() == 1


class TestOperationsSQLite(TestOperations):
    backend = "sqlite"


class TestOperationsTiered(TestOperations):
    backend = "tiered"


@pytest.mark.parametrize("backend", ["sqlite", "tiered"])
def test_grants_racing_removals_are_never_lost(backend):
    """Grants commit into one context while the port removes that
    context's older records, from two threads: every acknowledged grant
    survives, and every removal finds its record.

    Only the locking backends race here: the serving layer drives a
    memory store from one event loop, never from two threads.
    """
    store = BACKENDS[backend]()
    port = RetainedADIManagementPort(store)
    doomed = [store.add(record(user=f"old{i}", rid=f"old{i}")) for i in range(150)]
    acknowledged: list[str] = []
    missed: list[int] = []

    def grant():
        for i in range(150):
            store.apply(ADIMutation(adds=[record(user=f"new{i}", rid=f"new{i}")]))
            acknowledged.append(f"new{i}")

    def remove():
        for old in doomed:
            if port.remove_record([CONTROLLER_ROLE], old.record_id).affected != 1:
                missed.append(old.record_id)

    threads = [threading.Thread(target=grant), threading.Thread(target=remove)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two threads finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert missed == []
    assert sorted(rec.request_id for rec in store.records()) == sorted(acknowledged)
    store.close()
