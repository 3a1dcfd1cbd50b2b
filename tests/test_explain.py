"""Tests for the dry-run decision explainer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MMCD,
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MODE_LITERAL,
    MSoDEngine,
    MSoDPolicy,
    MSoDPolicySet,
    Privilege,
    Role,
    SQLiteRetainedADIStore,
    TieredADIStore,
    explain,
    store_digest,
)
from repro.core.constraints import POLICY_RELOAD_PRIVILEGE, policy_store_boundary
from repro.obs import Recorder
from repro.workload import (
    BankScaleConfig,
    filing_privileges,
    four_eyes_filing_policy_set,
)
from repro.xmlpolicy import bank_policy_set, combined_policy_set, tax_refund_policy_set

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
CLERK = Role("employee", "Clerk")
MANAGER = Role("employee", "Manager")

HANDLE_CASH = Privilege("handleCash", "till://1")
AUDIT_BOOKS = Privilege("auditBooks", "ledger://1")
PREPARE = Privilege("prepareCheck", "http://www.myTaxOffice.com/Check")
APPROVE = Privilege("approve/disapproveCheck", "http://www.myTaxOffice.com/Check")
CONFIRM = Privilege("confirmCheck", "http://secret.location.com/audit")

CTX = ContextName.parse("Branch=York, Period=2006")
TAX_CTX = ContextName.parse("TaxOffice=Leeds, taxRefundProcess=7")


def request(user, roles, privilege, context=CTX, at=1.0):
    return DecisionRequest(
        user_id=user,
        roles=tuple(roles),
        operation=privilege.operation,
        target=privilege.target,
        context_instance=context,
        timestamp=at,
    )


class TestExplainBasics:
    def test_no_matching_policy(self):
        engine = MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore())
        explanation = explain(
            engine, request("u", [TELLER], HANDLE_CASH, ContextName.parse("X=1"))
        )
        assert explanation.granted
        assert "matches no MSoD policy" in explanation.render()

    def test_explains_grant_with_context_start(self):
        engine = MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore())
        explanation = explain(engine, request("u", [TELLER], HANDLE_CASH))
        text = explanation.render()
        assert explanation.granted
        assert "context starts with this request" in text
        assert "MMER({employee:Teller, employee:Auditor}, m=2): ok" in text
        assert "a grant would store the pending" in text

    def test_explains_mmer_violation(self):
        engine = MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore())
        engine.check(request("u", [TELLER], HANDLE_CASH, at=1.0))
        explanation = explain(engine, request("u", [AUDITOR], AUDIT_BOOKS, at=2.0))
        assert not explanation.granted
        assert "VIOLATION" in explanation.render()

    def test_explains_mmep_counting(self):
        engine = MSoDEngine(tax_refund_policy_set(), InMemoryRetainedADIStore())
        engine.check(request("c", [CLERK], PREPARE, TAX_CTX, at=1.0))
        engine.check(request("m", [MANAGER], APPROVE, TAX_CTX, at=2.0))
        explanation = explain(
            engine, request("m", [MANAGER], APPROVE, TAX_CTX, at=3.0)
        )
        assert not explanation.granted
        # The deny line carries the verdict's own count.
        assert "VIOLATION: user 'm' would exercise 2 of 3" in explanation.render()
        assert explanation.violation.constraint_kind == "MMEP"

    def test_explains_first_step_gate(self):
        engine = MSoDEngine(tax_refund_policy_set(), InMemoryRetainedADIStore())
        explanation = explain(
            engine, request("m", [MANAGER], APPROVE, TAX_CTX)
        )
        assert explanation.granted
        assert "not the first step" in explanation.render()

    def test_explains_last_step(self):
        engine = MSoDEngine(tax_refund_policy_set(), InMemoryRetainedADIStore())
        engine.check(request("c", [CLERK], PREPARE, TAX_CTX, at=1.0))
        explanation = explain(
            engine, request("c2", [CLERK], CONFIRM, TAX_CTX, at=2.0)
        )
        assert explanation.granted
        assert "terminates the context instance" in explanation.render()

    def test_literal_mode_noted(self):
        engine = MSoDEngine(
            bank_policy_set(), InMemoryRetainedADIStore(), mode=MODE_LITERAL
        )
        explanation = explain(
            engine, request("u", [TELLER, AUDITOR], AUDIT_BOOKS)
        )
        assert explanation.granted  # literal step-4 hole, narrated
        assert "literal mode" in explanation.render()


class TestExplainContract:
    def test_never_mutates_store(self):
        engine = MSoDEngine(combined_policy_set(), InMemoryRetainedADIStore())
        engine.check(request("u", [TELLER], HANDLE_CASH, at=1.0))
        before = store_digest(engine.store)
        for _ in range(3):
            explain(engine, request("u", [AUDITOR], AUDIT_BOOKS, at=2.0))
            explain(engine, request("v", [TELLER], HANDLE_CASH, at=3.0))
        assert store_digest(engine.store) == before

    def test_render_header(self):
        engine = MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore())
        explanation = explain(engine, request("u", [TELLER], HANDLE_CASH))
        assert explanation.render().startswith("GRANT u handleCash@till://1")


# ---------------------------------------------------------------------
# Property: explain is check without the commit, on any stream, under
# the bank/tax, duty and four-eyes MMCD sets, over every backend.
# ---------------------------------------------------------------------
from tests.test_property_engine import request_streams  # noqa: E402

REVIEW = Privilege("review", "filing://annual")
SIGNOFF = Privilege("signoff", "filing://annual")
_FOUR_EYES = BankScaleConfig(n_users=10, n_divisions=1)


def _duty_policy_set():
    """The CI duty policy: a bound review/signoff pair plus the store guard."""
    return MSoDPolicySet([
        MSoDPolicy(ContextName.parse("Filing=*, Case=!"),
                   constraints=[MMCD([REVIEW, SIGNOFF])], policy_id="filing-binding"),
        MSoDPolicy(ContextName.parse("Filing=*, Case=*"),
                   constraints=[policy_store_boundary()], policy_id="store-guard"),
    ])


def _streams(privileges, context):
    """Request streams over three users, each privilege under ``context``."""
    item = st.tuples(
        st.sampled_from(["u1", "u2", "u3"]),
        st.sampled_from(privileges),
        st.sampled_from(["1", "2"]),
    )
    return st.lists(item, min_size=1, max_size=25).map(lambda items: [
        DecisionRequest(user, (AUDITOR,), privilege.operation, privilege.target,
                        ContextName.parse(context.format(case)), float(index))
        for index, (user, privilege, case) in enumerate(items)
    ])


_SETS = {
    "combined": (combined_policy_set, request_streams()),
    "duty": (_duty_policy_set, _streams(
        [REVIEW, SIGNOFF, Privilege("amend", "filing://annual"),
         POLICY_RELOAD_PRIVILEGE], "Filing=Annual, Case=C{}")),
    "four-eyes": (lambda: four_eyes_filing_policy_set(_FOUR_EYES), _streams(
        [*filing_privileges(0), Privilege("approveFiling", "svc://division00/filing")],
        "Region=R0, Division=D00, Branch=B1, Filing=F{}")),
}
_STORES = {
    "memory": InMemoryRetainedADIStore,
    "sqlite": lambda: SQLiteRetainedADIStore(":memory:"),
    "tiered": lambda: TieredADIStore(
        SQLiteRetainedADIStore(":memory:"), hot_users=2, owns_warm=True
    ),
}


@given(st.sampled_from(sorted(_SETS)), st.sampled_from(sorted(_STORES)), st.data())
@settings(max_examples=150, deadline=None)  # every set x store sees denies
def test_property_explain_agrees_with_check(set_name, store_name, data):
    policy_set, streams = _SETS[set_name]
    perf = Recorder()
    engine = MSoDEngine(policy_set(), _STORES[store_name](), perf=perf)
    try:
        for item in data.draw(streams):
            before = (store_digest(engine.store), perf.snapshot())
            predicted = explain(engine, item)
            # A dry run: no write, and not one decision on the recorder.
            assert (store_digest(engine.store), perf.snapshot()) == before
            actual = engine.check(item)
            assert predicted.effect == actual.effect, item
            assert predicted.matched_policy_ids == actual.matched_policy_ids
            assert predicted.violation == actual.violation, item
            if actual.violation is not None:
                # The narration names the violated constraint by its repr
                # (whose class name is the kind CI greps for).
                assert actual.violation.constraint_repr in predicted.render()
    finally:
        engine.store.close()
