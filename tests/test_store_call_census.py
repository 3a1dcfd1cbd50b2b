"""What one decision reads from the durable layer, on every spec-built store.

The engine's history views (context presence, a user's roles and
exercises, the owners of a combination-of-duty bound set) must be
answered from resident aggregates.  On a store over SQLite a decision
may read the table only to hydrate the request's own user: never a
``find`` or ``records`` scan, whose cost grows with the whole retained
history.  The census runs the bank's combination-of-duty workload (the
MMER duty pairs plus the four-eyes filing flows) on each spec and
counts the calls and the SQL ``SELECT`` statements each decide makes.
"""

import pytest

from repro.api import open_pdp, open_store
from repro.core import (
    ContextName,
    MSoDPolicySet,
    SQLiteRetainedADIStore,
    TieredADIStore,
)
from repro.workload import (
    BankScaleConfig,
    bank_scale_history,
    bank_scale_policy_set,
)
from repro.workload.bank_scale import (
    bank_scale_mmcd_stream,
    four_eyes_filing_policy_set,
)

_BANK = BankScaleConfig(n_users=400)
_SPECS = ["memory", "sqlite", "tiered:sqlite"]


def _policy() -> MSoDPolicySet:
    return MSoDPolicySet(
        [*bank_scale_policy_set(_BANK), *four_eyes_filing_policy_set(_BANK)]
    )


def _spec(kind: str, tmp_path) -> str:
    if kind == "memory":
        return "memory"
    path = tmp_path / "adi.db"
    return f"sqlite:{path}" if kind == "sqlite" else f"tiered:sqlite:{path}"


class _Statements:
    """A connection that counts the ``SELECT`` statements run on it."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self.selects = 0

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def execute(self, sql, *args):
        if sql.lstrip().upper().startswith("SELECT"):
            self.selects += 1
        return self._conn.execute(sql, *args)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc):
        return self._conn.__exit__(*exc)


class _Census:
    """Counts the scans each layer of a store is asked for, the warm
    layer's hydrations, and the ``SELECT`` statements SQLite runs."""

    def __init__(self, store, monkeypatch) -> None:
        self.scans: list[str] = []
        self.hydrated: list[str] = []
        tiered = isinstance(store, TieredADIStore)
        warm = store.warm if tiered else store
        for layer in {id(store): store, id(warm): warm}.values():
            for name in ("find", "records"):
                method = getattr(layer, name)
                monkeypatch.setattr(layer, name, self._scan(name, method))
        if tiered:
            find_user = warm.find_user

            def hydrate(user_id, effective_context):
                self.hydrated.append(user_id)
                return find_user(user_id, effective_context)

            monkeypatch.setattr(warm, "find_user", hydrate)
        self.statements = None
        if isinstance(warm, SQLiteRetainedADIStore):
            self.statements = _Statements(warm._conn)
            monkeypatch.setattr(warm, "_conn", self.statements)

    def _scan(self, name, method):
        def scan(*args):
            self.scans.append(name)
            return method(*args)

        return scan

    def snapshot(self) -> tuple[int, int, int]:
        selects = self.statements.selects if self.statements else 0
        return len(self.scans), len(self.hydrated), selects


@pytest.mark.parametrize("kind", _SPECS)
def test_a_decide_reads_no_scan_once_each_bound_set_was_asked(
    kind, tmp_path, monkeypatch
):
    policy = _policy()
    with open_pdp(policy, _spec(kind, tmp_path)) as pdp:
        store = pdp.store
        with store.batch():
            for record in bank_scale_history(_BANK, 4):
                store.add(record)
        for constraint in (c for p in policy for c in p.constraints):
            if constraint.kind == "MMCD":
                store.users_with_privileges(constraint.members, ContextName.root())
        census = _Census(store, monkeypatch)
        denied = set()
        for request in bank_scale_mmcd_stream(_BANK, 600, four_eyes=True):
            scans, hydrations, selects = census.snapshot()
            decision = pdp.decide(request)
            if decision.violation is not None:
                denied.add(decision.violation.constraint_kind)
            assert census.scans[scans:] == [], (kind, request)
            hydrated = census.hydrated[hydrations:]
            assert hydrated in ([], [request.user_id]), (kind, request, hydrated)
            assert census.snapshot()[2] - selects == len(hydrated), (kind, request)
        assert denied >= {"MMCD", "MMEP"}, denied
        if kind != "memory":
            assert census.hydrated, "the stream must reach cold users"


def test_a_reopened_sqlite_file_decides_as_before_the_close(tmp_path):
    """The owner fold and presence reseed from the file: a store closed
    half-way through the stream decides the rest as one never closed."""
    policy = _policy()
    requests = list(bank_scale_mmcd_stream(_BANK, 800, four_eyes=True))
    history = list(bank_scale_history(_BANK, 2))
    with open_pdp(policy, "memory") as oracle:
        for record in history:
            oracle.store.add(record)
        expected = [oracle.decide(request) for request in requests]
    spec = f"sqlite:{tmp_path / 'adi.db'}"
    with open_pdp(policy, spec) as pdp:
        for record in history:
            pdp.store.add(record)
        before = [pdp.decide(request) for request in requests[:400]]
    with open_pdp(policy, spec) as pdp:
        after = [pdp.decide(request) for request in requests[400:]]
    assert before + after == expected
    assert any(
        decision.violation.constraint_kind == "MMCD"
        for decision in after
        if decision.violation is not None
    )
    store = open_store(spec)
    try:
        assert store.count() == len(history) + sum(
            decision.records_added for decision in expected
        )
    finally:
        store.close()


@pytest.mark.parametrize("purge", ["purge_older_than", "purge_user"])
@pytest.mark.parametrize("kind", ["sqlite", "tiered:sqlite"])
def test_a_management_purge_selects_only_its_doomed_rows(
    kind, purge, tmp_path, monkeypatch
):
    """A purge by age or by user is one apply: one ``SELECT`` of the rows
    it deletes, no ``records``/``find`` scan and no hydration, and the
    tier's resident views lose the rows with the table."""
    history = list(bank_scale_history(_BANK, 4))
    user = history[0].user_id
    cutoff = sorted(record.granted_at for record in history)[len(history) // 2]
    doomed = {
        "purge_user": lambda record: record.user_id == user,
        "purge_older_than": lambda record: record.granted_at < cutoff,
    }[purge]
    with open_pdp(_policy(), _spec(kind, tmp_path)) as pdp:
        store = pdp.store
        with store.batch():
            for record in history:
                store.add(record)
        root = ContextName.root()
        assert store.user_roles(user, root)  # resident before the purge
        census = _Census(store, monkeypatch)
        purged = getattr(store, purge)(user if purge == "purge_user" else cutoff)
        assert purged == sum(map(doomed, history)) > 0
        assert census.snapshot() == (0, 0, 1)
        kept = [record for record in history if not doomed(record)]
        assert store.count() == len(kept)
        assert [
            record._replace(record_id=None)
            for record in store.find_user(user, root)
        ] == [record for record in kept if record.user_id == user]
