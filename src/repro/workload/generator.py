"""Seeded synthetic workload generation for the evaluation harness.

The paper publishes no traces, so the benches run on generated
workloads that reproduce the *structure* of its two motivating
scenarios: the bank world (Example 1 — teller/auditor MMER conflicts
across branches and audit periods, with roles handed out by multiple
independent authorities) and the tax-refund world (Example 2 — MMEP
conflicts inside process instances).

:class:`ScenarioGenerator` emits labelled :class:`~repro.workload.
events.Scenario` scripts of every conflict class plus benign traffic;
:func:`decision_request_stream` emits plain decision requests for the
engine-scaling benches.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.constraints import Privilege, Role
from repro.core.context import ContextName
from repro.core.decision import DecisionRequest
from repro.vo.federation import IdentityLinker, LibertyAliasService, ShibbolethIdP
from repro.workload.events import (
    BENIGN,
    CROSS_SESSION,
    FEDERATED_LINKED,
    FEDERATED_UNLINKED,
    OBJECT_COMPLETION,
    REPEATED_PRIVILEGE,
    SAME_SESSION,
    SINGLE_AUTHORITY,
    STEP_ACCESS,
    STEP_ASSIGN,
    Scenario,
    Step,
)

TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")
CLERK = Role("employee", "Clerk")
MANAGER = Role("employee", "Manager")

PREPARE = Privilege("prepareCheck", "http://www.myTaxOffice.com/Check")
APPROVE = Privilege("approve/disapproveCheck", "http://www.myTaxOffice.com/Check")
COMBINE = Privilege("combineResults", "http://secret.location.com/results")
CONFIRM = Privilege("confirmCheck", "http://secret.location.com/audit")

HANDLE_CASH = Privilege("handleCash", "till://cash")
AUDIT_BOOKS = Privilege("auditBooks", "ledger://books")

AUTHORITY_A = "authorityA"
AUTHORITY_B = "authorityB"

_BRANCHES = ("York", "Leeds", "Canterbury", "Bath")


class ScenarioGenerator:
    """Deterministic generator of labelled conflict scenarios."""

    def __init__(self, seed: int = 7) -> None:
        self._rng = random.Random(seed)
        self._scenario_counter = 0
        self._clock = 0.0
        self._linker = IdentityLinker()
        self._aliases = LibertyAliasService()
        self._shibboleth = ShibbolethIdP("idp")

    @property
    def identity_linker(self) -> IdentityLinker:
        """The linker a federation-aware MSoD checker should use."""
        return self._linker

    # ------------------------------------------------------------------
    def _next_id(self, label: str) -> tuple[str, int]:
        self._scenario_counter += 1
        return f"{label}-{self._scenario_counter:05d}", self._scenario_counter

    def _tick(self) -> float:
        self._clock += 1.0
        return self._clock

    def _bank_context(self, serial: int) -> ContextName:
        branch = self._rng.choice(_BRANCHES)
        return ContextName.parse(f"Branch={branch}, Period=P{serial}")

    def _tax_context(self, serial: int) -> ContextName:
        return ContextName.parse(f"TaxOffice=Leeds, taxRefundProcess=I{serial}")

    def _assign(self, user: str, role: Role, authority: str) -> Step:
        return Step(
            kind=STEP_ASSIGN,
            user_id=user,
            presented_id=user,
            session_id="-",
            authority=authority,
            roles=(role,),
            timestamp=self._tick(),
        )

    def _access(
        self,
        user: str,
        roles: tuple[Role, ...],
        privilege: Privilege,
        context: ContextName,
        session: str,
        authority: str = AUTHORITY_A,
        presented_id: str | None = None,
    ) -> Step:
        return Step(
            kind=STEP_ACCESS,
            user_id=user,
            presented_id=presented_id if presented_id is not None else user,
            session_id=session,
            authority=authority,
            roles=roles,
            operation=privilege.operation,
            target=privilege.target,
            context_instance=context,
            timestamp=self._tick(),
        )

    # ------------------------------------------------------------------
    # Scenario templates
    # ------------------------------------------------------------------
    def benign_bank(self) -> Scenario:
        """Separate people perform the separate bank duties."""
        sid, serial = self._next_id(BENIGN)
        teller_user = f"user-{serial}-t"
        auditor_user = f"user-{serial}-a"
        context = self._bank_context(serial)
        steps = (
            self._assign(teller_user, TELLER, AUTHORITY_A),
            self._assign(auditor_user, AUDITOR, AUTHORITY_A),
            self._access(
                teller_user, (TELLER,), HANDLE_CASH, context, f"s{serial}-1"
            ),
            self._access(
                auditor_user, (AUDITOR,), AUDIT_BOOKS, context, f"s{serial}-2"
            ),
        )
        return Scenario(sid, BENIGN, steps, "distinct users per duty")

    def benign_cross_period(self) -> Scenario:
        """One person is a teller in one period, an auditor in the next.

        Legitimate under the bank policy (the MMER context is scoped
        ``Period=!``); a context-blind mechanism blocks it anyway.
        """
        sid, serial = self._next_id(BENIGN)
        user = f"user-{serial}-x"
        steps = (
            self._assign(user, TELLER, AUTHORITY_A),
            self._access(
                user,
                (TELLER,),
                HANDLE_CASH,
                ContextName.parse(f"Branch=York, Period=P{serial}a"),
                f"s{serial}-1",
            ),
            self._assign(user, AUDITOR, AUTHORITY_B),
            self._access(
                user,
                (AUDITOR,),
                AUDIT_BOOKS,
                ContextName.parse(f"Branch=York, Period=P{serial}b"),
                f"s{serial}-2",
                authority=AUTHORITY_B,
            ),
        )
        return Scenario(sid, BENIGN, steps, "role change across audit periods")

    def benign_tax_refund(self) -> Scenario:
        """A compliant four-person tax refund."""
        sid, serial = self._next_id(BENIGN)
        clerk1, mgr1, mgr2, mgr3, clerk2 = (
            f"user-{serial}-{suffix}" for suffix in ("c1", "m1", "m2", "m3", "c2")
        )
        context = self._tax_context(serial)
        steps = (
            self._access(clerk1, (CLERK,), PREPARE, context, f"s{serial}-1"),
            self._access(mgr1, (MANAGER,), APPROVE, context, f"s{serial}-2"),
            self._access(mgr2, (MANAGER,), APPROVE, context, f"s{serial}-3"),
            self._access(mgr3, (MANAGER,), COMBINE, context, f"s{serial}-4"),
            self._access(clerk2, (CLERK,), CONFIRM, context, f"s{serial}-5"),
        )
        return Scenario(sid, BENIGN, steps, "compliant tax refund")

    def benign_cross_instance_clerk(self) -> Scenario:
        """A clerk prepares one refund and confirms a *different* one.

        Legitimate under the per-instance tax policy; an object-blind
        operational-DSoD formalism blocks it anyway (the user completes
        the sensitive {prepare, confirm} pair globally).
        """
        sid, serial = self._next_id(BENIGN)
        clerk_a = f"user-{serial}-ca"
        clerk_b = f"user-{serial}-cb"
        ctx_a = self._tax_context(serial)
        ctx_b = ContextName.parse(
            f"TaxOffice=Leeds, taxRefundProcess=I{serial}b"
        )
        steps = (
            self._access(clerk_a, (CLERK,), PREPARE, ctx_a, f"s{serial}-1"),
            self._access(clerk_b, (CLERK,), PREPARE, ctx_b, f"s{serial}-2"),
            self._access(clerk_a, (CLERK,), CONFIRM, ctx_b, f"s{serial}-3"),
        )
        return Scenario(
            sid, BENIGN, steps, "clerk confirms a refund prepared by another"
        )

    def same_session(self) -> Scenario:
        """Conflicting roles from different authorities, co-activated."""
        sid, serial = self._next_id(SAME_SESSION)
        user = f"user-{serial}-v"
        context = self._bank_context(serial)
        steps = (
            self._assign(user, TELLER, AUTHORITY_A),
            self._assign(user, AUDITOR, AUTHORITY_B),
            self._access(
                user,
                (TELLER, AUDITOR),
                AUDIT_BOOKS,
                context,
                f"s{serial}-1",
            ),
        )
        return Scenario(
            sid, SAME_SESSION, steps, "both roles active in one session"
        )

    def single_authority(self) -> Scenario:
        """One authority assigns both conflicting roles over time."""
        sid, serial = self._next_id(SINGLE_AUTHORITY)
        user = f"user-{serial}-v"
        context = self._bank_context(serial)
        steps = (
            self._assign(user, TELLER, AUTHORITY_A),
            self._access(user, (TELLER,), HANDLE_CASH, context, f"s{serial}-1"),
            self._assign(user, AUDITOR, AUTHORITY_A),
            self._access(user, (AUDITOR,), AUDIT_BOOKS, context, f"s{serial}-2"),
        )
        return Scenario(
            sid, SINGLE_AUTHORITY, steps, "promotion within one authority"
        )

    def cross_session(self) -> Scenario:
        """Roles from different authorities, exercised in different sessions."""
        sid, serial = self._next_id(CROSS_SESSION)
        user = f"user-{serial}-v"
        context = self._bank_context(serial)
        steps = (
            self._assign(user, TELLER, AUTHORITY_A),
            self._access(user, (TELLER,), HANDLE_CASH, context, f"s{serial}-1"),
            self._assign(user, AUDITOR, AUTHORITY_B),
            self._access(
                user,
                (AUDITOR,),
                AUDIT_BOOKS,
                context,
                f"s{serial}-2",
                authority=AUTHORITY_B,
            ),
        )
        return Scenario(
            sid, CROSS_SESSION, steps, "multi-session multi-authority conflict"
        )

    def federated(self, linked: bool) -> Scenario:
        """A cross-session conflict behind federated identifiers.

        With ``linked=False`` the user appears under fresh Shibboleth
        handles, so no mechanism can join the sessions (the Section 6
        limitation).  With ``linked=True`` the user appears under Liberty
        aliases that the generator registers with its identity linker —
        an MSoD checker using that linker recovers the local identity.
        """
        label = FEDERATED_LINKED if linked else FEDERATED_UNLINKED
        sid, serial = self._next_id(label)
        user = f"user-{serial}-v"
        context = self._bank_context(serial)
        if linked:
            id1 = self._aliases.alias_for(user, "sp-bank-teller")
            id2 = self._aliases.alias_for(user, "sp-bank-audit")
            self._linker.link(id1, user)
            self._linker.link(id2, user)
        else:
            id1 = self._shibboleth.new_session(user)
            id2 = self._shibboleth.new_session(user)
        steps = (
            self._assign(user, TELLER, AUTHORITY_A),
            self._access(
                user,
                (TELLER,),
                HANDLE_CASH,
                context,
                f"s{serial}-1",
                presented_id=id1,
            ),
            self._assign(user, AUDITOR, AUTHORITY_B),
            self._access(
                user,
                (AUDITOR,),
                AUDIT_BOOKS,
                context,
                f"s{serial}-2",
                authority=AUTHORITY_B,
                presented_id=id2,
            ),
        )
        return Scenario(sid, label, steps, "conflict behind federated ids")

    def repeated_privilege(self) -> Scenario:
        """A manager approves the same tax refund twice."""
        sid, serial = self._next_id(REPEATED_PRIVILEGE)
        clerk = f"user-{serial}-c"
        manager = f"user-{serial}-m"
        context = self._tax_context(serial)
        steps = (
            self._access(clerk, (CLERK,), PREPARE, context, f"s{serial}-1"),
            self._access(manager, (MANAGER,), APPROVE, context, f"s{serial}-2"),
            self._access(manager, (MANAGER,), APPROVE, context, f"s{serial}-3"),
        )
        return Scenario(
            sid, REPEATED_PRIVILEGE, steps, "same manager approves twice"
        )

    def object_completion(self) -> Scenario:
        """One clerk both prepares and confirms the same tax refund.

        The object-scoped conflict class: a single user completes the
        sensitive {prepareCheck, confirmCheck} pair on one process
        instance — caught by MSoD's first MMEP and by Gligor-style
        history-based DSoD, invisible to role-only mechanisms.
        """
        sid, serial = self._next_id(OBJECT_COMPLETION)
        clerk = f"user-{serial}-c"
        manager = f"user-{serial}-m"
        context = self._tax_context(serial)
        steps = (
            self._access(clerk, (CLERK,), PREPARE, context, f"s{serial}-1"),
            self._access(manager, (MANAGER,), APPROVE, context, f"s{serial}-2"),
            self._access(clerk, (CLERK,), CONFIRM, context, f"s{serial}-3"),
        )
        return Scenario(
            sid, OBJECT_COMPLETION, steps, "same clerk prepares and confirms"
        )

    # ------------------------------------------------------------------
    def mixed_stream(
        self, per_class: int = 10, benign_per_class: int = 10
    ) -> list[Scenario]:
        """A shuffled workload with every class represented equally."""
        scenarios: list[Scenario] = []
        for _ in range(benign_per_class):
            scenarios.append(self.benign_bank())
            scenarios.append(self.benign_cross_period())
            scenarios.append(self.benign_tax_refund())
            scenarios.append(self.benign_cross_instance_clerk())
        for _ in range(per_class):
            scenarios.append(self.same_session())
            scenarios.append(self.single_authority())
            scenarios.append(self.cross_session())
            scenarios.append(self.federated(linked=False))
            scenarios.append(self.federated(linked=True))
            scenarios.append(self.repeated_privilege())
            scenarios.append(self.object_completion())
        self._rng.shuffle(scenarios)
        return scenarios


def decision_request_stream(
    n_requests: int,
    n_users: int = 100,
    n_branches: int = 4,
    n_periods: int = 4,
    conflict_fraction: float = 0.1,
    seed: int = 11,
) -> Iterator[DecisionRequest]:
    """Plain decision requests for the engine-scaling benches.

    ``conflict_fraction`` of the requests present the auditor role for a
    user who (statistically) has teller history, so both grant and deny
    paths are exercised.
    """
    rng = random.Random(seed)
    for index in range(n_requests):
        user = f"u{rng.randrange(n_users):04d}"
        branch = f"B{rng.randrange(n_branches)}"
        period = f"P{rng.randrange(n_periods)}"
        context = ContextName.parse(f"Branch={branch}, Period={period}")
        if rng.random() < conflict_fraction:
            role, privilege = AUDITOR, AUDIT_BOOKS
        else:
            role, privilege = TELLER, HANDLE_CASH
        yield DecisionRequest(
            user_id=user,
            roles=(role,),
            operation=privilege.operation,
            target=privilege.target,
            context_instance=context,
            timestamp=float(index),
        )


def hot_user_stream(
    n_requests: int,
    user_id: str = "hot-user",
    context: ContextName | None = None,
    conflict_fraction: float = 0.5,
    seed: int = 13,
) -> Iterator[DecisionRequest]:
    """A single-user contended stream for per-user serialization tests.

    Every request names the same user and business-context instance,
    mixing the teller and auditor duties so a policy with an MMER over
    {Teller, Auditor} forces a history-dependent outcome: once either
    role is granted in the context, the other must be denied.  Several
    clients replaying slices of this stream concurrently is the
    worst-case hammering of one retained-ADI history — exactly what the
    serving layer's per-user shard serialization must keep race-free.
    """
    rng = random.Random(seed)
    if context is None:
        context = ContextName.parse("Branch=York, Period=P1")
    for index in range(n_requests):
        if rng.random() < conflict_fraction:
            role, privilege = AUDITOR, AUDIT_BOOKS
        else:
            role, privilege = TELLER, HANDLE_CASH
        yield DecisionRequest(
            user_id=user_id,
            roles=(role,),
            operation=privilege.operation,
            target=privilege.target,
            context_instance=context,
            timestamp=float(index),
        )


def bank_policy_set():
    """The Example-1 bank policy as a ready-made MMER-only policy set.

    One MSoD policy over ``Branch=*, Period=!`` forbidding any user
    from exercising both Teller and Auditor in the same branch/period.
    Deliberately without first/last steps: cross-user context purges do
    not compose with user-keyed cluster routing (one user's last step
    would have to purge records living on other shards), so the cluster
    fault tests and benches all run this purge-free policy.  Defined
    here once so the tests and ``bench_cluster.py`` agree on it.
    """
    from repro.core.policy import MSoDPolicy, MSoDPolicySet
    from repro.core.constraints import MMER

    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Branch=*, Period=!"),
                mmers=[MMER([TELLER, AUDITOR], 2)],
                policy_id="bank",
            )
        ]
    )
