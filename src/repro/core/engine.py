"""The MSoD enforcement engine: the 8-step algorithm of Section 4.2.

The engine is invoked by a PDP *after* its ordinary RBAC check has
returned an interim grant.  It evaluates every matching MSoD policy
against the retained ADI and either leaves the grant unaltered or turns
it into a deny.  Only granted requests mutate the retained ADI (the
Section 4.2 note), which the engine guarantees by buffering all store
mutations in an :class:`~repro.core.retained_adi.ADIMutation` and
committing it atomically iff the final decision is a grant.

Two evaluation modes are provided:

``strict`` (default)
    MMER/MMEP constraints are evaluated even on the request that *starts*
    a business-context instance.  This closes a corner case in the
    literal algorithm text: a user who simultaneously activates ``m``
    mutually exclusive roles in the very first in-context request would
    otherwise be granted (step 4 jumps straight to step 7, bypassing the
    constraint checks of steps 5 and 6).

``literal``
    Follows the published step order exactly — step 4 adds the
    context-starting record and jumps to step 7.  Kept for fidelity and
    for the ablation bench ``benchmarks/bench_algorithm_scaling.py``.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from repro.core.constraints import AdminBoundary, Privilege
from repro.core.context import ContextName
from repro.core.decision import (
    Decision,
    DecisionRequest,
    Effect,
    MSoDViolation,
)
from repro.core.policy import MSoDPolicySet
from repro.core.policy_epoch import (
    INITIAL_EPOCH,
    CompiledPolicyMatcher,
    PolicySwapReport,
    PolicyVersion,
    policy_set_digest,
    trigger_keys,
)
from repro.core.retained_adi import (
    ADIMutation,
    RetainedADIRecord,
    RetainedADIStore,
)
from repro.errors import PolicyError
from repro.obs.recorder import NOOP, Recorder

#: Evaluation modes (see module docstring).
MODE_STRICT = "strict"
MODE_LITERAL = "literal"


class _AdminProbe:
    """Quacks like a DecisionRequest for admin-boundary evaluation.

    A management action carries no concrete business-context instance,
    so a real :class:`~repro.core.decision.DecisionRequest` cannot be
    built for it; boundary evaluation only reads ``user_id`` and
    ``privilege``.
    """

    __slots__ = ("user_id", "privilege")

    def __init__(self, user_id: str, privilege: Privilege) -> None:
        self.user_id = user_id
        self.privilege = privilege


class PendingGrant(NamedTuple):
    """A grant :meth:`MSoDEngine.judge` reached and ``check`` commits;
    ``started`` is where a recorder's ``store.commit`` span begins."""

    mutation: ADIMutation
    matched_policy_ids: tuple[str, ...]
    policy_epoch: int
    policy_digest: str
    started: float

    effect = Effect.GRANT
    violation = None


def _count(obs: Recorder, decision: Decision) -> None:
    """The ``engine.*`` counters of one decision, read off its outcome."""
    matched = len(decision.matched_policy_ids)
    obs.incr("engine.requests")
    obs.incr("engine.grants" if decision.granted else "engine.denies")
    if matched:
        obs.incr("engine.policies_matched", matched)
    else:
        obs.incr("engine.no_policy_matched")
    obs.incr("engine.records_added", decision.records_added)
    obs.incr("engine.records_purged", decision.records_purged)


class MSoDEngine:
    """Evaluates MSoD policies over a retained-ADI store."""

    def __init__(
        self,
        policy_set: MSoDPolicySet | None = None,
        store: RetainedADIStore | None = None,
        /,
        mode: str = MODE_STRICT,
        perf: Recorder | None = None,
    ) -> None:
        if policy_set is None or store is None:
            raise PolicyError(
                "MSoDEngine requires a policy set and a retained-ADI store"
            )
        if mode not in (MODE_STRICT, MODE_LITERAL):
            raise PolicyError(f"unknown engine mode {mode!r}")
        digest = policy_set_digest(policy_set)
        # The active policy version is one tuple, read exactly once at
        # the top of check(): a decision therefore evaluates wholly
        # under one version even while swap_policy runs concurrently.
        # The compiled step-1 matcher rides in the same tuple, so a swap
        # replaces policy set and compiled state in one assignment.
        self._active: tuple[MSoDPolicySet, int, str, CompiledPolicyMatcher] = (
            policy_set,
            INITIAL_EPOCH,
            digest,
            CompiledPolicyMatcher(policy_set, INITIAL_EPOCH, digest),
        )
        self._swap_lock = threading.Lock()
        self._store = store
        self._mode = mode
        self._perf = perf if perf is not None else NOOP

    # ------------------------------------------------------------------
    @property
    def policy_set(self) -> MSoDPolicySet:
        return self._active[0]

    @property
    def policy_epoch(self) -> int:
        """The monotonically increasing epoch of the active policy set."""
        return self._active[1]

    @property
    def policy_digest(self) -> str:
        """Content digest of the active policy set."""
        return self._active[2]

    def policy_version(self) -> PolicyVersion:
        """The active policy version as one consistent snapshot."""
        policy_set, epoch, digest, _ = self._active
        return PolicyVersion(epoch=epoch, digest=digest, policies=len(policy_set))

    @property
    def compiled_matcher(self) -> CompiledPolicyMatcher:
        """The step-1 matcher compiled for the active epoch."""
        return self._active[3]

    @property
    def store(self) -> RetainedADIStore:
        return self._store

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def perf(self) -> Recorder:
        """The one recorder observing this engine (``NOOP`` by default)."""
        return self._perf

    def swap_policy(
        self, policy_set: MSoDPolicySet, *, force: bool = False
    ) -> PolicySwapReport:
        """Atomically replace the active policy set (zero downtime).

        A set whose content digest equals the active one is a **no-op**:
        the epoch does not advance and the compiled matcher stays warm —
        reloading the same file is idempotent.  ``force=True`` advances
        the epoch even for an identical digest.

        A real swap compiles the new epoch's matcher and installs the
        ``(set, epoch, digest, matcher)`` tuple in one assignment, so no
        decision ever mixes two policy versions: requests already past
        the top of :meth:`check` finish under the old version, later
        requests see the new one.  The store is not touched: its memos
        are keyed by effective context names and hold facts about the
        retained records, which no policy set changes.

        Admission (static analysis, admin boundaries, what-if replay) is
        the caller's: every reload handle runs ``admit_reload`` first and
        attaches its rendered findings to the returned report.
        """
        digest = policy_set_digest(policy_set)
        with self._swap_lock:
            previous = self.policy_version()
            if digest == previous.digest and not force:
                if self._perf.enabled:
                    self._perf.incr("engine.policy_reload_noops")
                return PolicySwapReport(
                    version=previous, previous=previous, changed=False
                )
            epoch = previous.epoch + 1
            compiled = CompiledPolicyMatcher(policy_set, epoch, digest)
            self._active = (policy_set, epoch, digest, compiled)
            if self._perf.enabled:
                self._perf.incr("engine.policy_reloads")
            return PolicySwapReport(
                version=self.policy_version(), previous=previous, changed=True
            )

    def admin_boundary_denial(
        self, user_id: str, privilege: Privilege
    ) -> str | None:
        """Deny detail if an active admin boundary forbids ``privilege``.

        The management-port SoD check: before a policy mutation
        (reload, export) the caller asks whether the acting principal
        crosses an :class:`~repro.core.constraints.AdminBoundary` of
        the *active* — soon to be outgoing — policy set.  Each boundary
        is evaluated over its policy's whole scope (the business-context
        pattern matches every retained instance), so operational
        decisions retained anywhere under the boundary's scope block
        the action.  Returns ``None`` when the privilege is unguarded
        or the principal is clean.
        """
        policy_set = self._active[0]
        probe = _AdminProbe(user_id, privilege)
        for policy in policy_set:
            for constraint in policy.extra_constraints:
                if not isinstance(constraint, AdminBoundary):
                    continue
                if not constraint.matches_request(probe):
                    continue
                verdict = constraint.evaluate(
                    probe, policy.business_context, self._store
                )
                if not verdict.ok:
                    return verdict.detail
        return None

    # ------------------------------------------------------------------
    def check(self, request: DecisionRequest) -> Decision:
        """Run the Section 4.2 algorithm for one interim-granted request:
        :meth:`judge` it, then commit a grant."""
        obs = self._perf
        if not obs.enabled:
            return self._commit(request, self.judge(request))
        started = obs.begin()
        try:
            decision = self._commit(request, self.judge(request, obs, started), obs)
        except BaseException:
            obs.abandon()
            raise
        obs.span("engine.check", started)
        _count(obs, decision)
        return obs.finish(decision)

    def judge(
        self,
        request: DecisionRequest,
        obs: Recorder | None = None,
        started: float = 0.0,
    ) -> "Decision | PendingGrant":
        """Steps 1-7 without the commit; ``obs`` is None when nothing records.

        Returns the deny (or no-policy grant) :class:`Decision` or the
        :class:`PendingGrant` :meth:`check` commits.  The loop reports
        each step to ``obs``, which is how ``explain`` narrates it.  The
        stage spans tile the check: each starts where the previous one
        ended, so no part of it goes unattributed.
        """
        # One atomic read of the active policy version: the whole
        # decision evaluates under this set/epoch even if swap_policy
        # installs a new one mid-request.
        policy_set, policy_epoch, policy_digest, compiled = self._active

        # Step 1: match the input business-context instance against the
        # business contexts in the MSoD set of policies and bind each
        # match's '!' components to it — the plan compiled for this
        # epoch and memoised per instance.
        _, matched_ids, policies, contexts = compiled.plan(request.context_instance)
        if obs is not None:
            started = obs.span("engine.match", started)
        if not contexts:
            return Decision(
                effect=Effect.GRANT,
                request=request,
                reason="no MSoD policy matches the business context",
                policy_epoch=policy_epoch,
                policy_digest=policy_digest,
            )

        # Steps 3, 5 and 6 read the store itself: nothing mutates it
        # until the commit, and its own memos answer repeated views.
        views = self._store
        operation, target, roles = request.operation, request.target, request.roles
        keys = trigger_keys(request)
        literal = self._mode == MODE_LITERAL
        # The roles of each retained record a grant adds (steps 4, 5.iv,
        # 6.iv); the records themselves are built only on the grant path.
        adds: list[tuple] = []
        purges: list[ContextName] = []
        violation = None

        # Step 2: for each matched MSoD policy...
        for policy, effective_context in zip(policies, contexts):
            mark = len(adds)
            # Step 3: does the retained ADI already hold records for this
            # effective policy context?
            opens = not views.has_context(effective_context)
            if opens:
                # Step 4: the context has not started.  If the request is
                # the first step (or the policy has no first step), the
                # context starts now; otherwise MSoD enforcement has not
                # begun for this context instance and the policy imposes
                # nothing.  Literal step 4 then goes straight to step 7.
                first = policy.first_step
                if first is not None and not first.matches(operation, target):
                    if obs is not None:
                        obs.gate(policy, effective_context, opens, None)
                    continue
                adds.append(roles)
                fired = () if literal else policy.fired(keys)
            else:
                fired = policy.fired(keys)
            if obs is not None:
                obs.gate(policy, effective_context, opens, fired)
            # Steps 5-6, generalised: every constraint of the policy that
            # can fire on the request, in declaration order (MMERs = step
            # 5, MMEPs = step 6, then extension kinds); the others would
            # return CONSTRAINT_OK and record nothing.
            for _, constraint in fired:
                verdict = constraint.evaluate(request, effective_context, views)
                if obs is not None:
                    obs.verdict(constraint, verdict)
                if not verdict.ok:
                    violation = MSoDViolation(
                        policy_id=policy.policy_id,
                        constraint_kind=constraint.kind,
                        constraint_repr=repr(constraint),
                        effective_context=effective_context,
                        detail=verdict.detail,
                    )
                    break
                if verdict.grant_exercise:
                    adds.append(roles)
                elif verdict.grant_roles:
                    adds.extend((role,) for role in verdict.grant_roles)
            if violation is not None:
                break
            # Step 7: a granted last step purges the context instead of
            # storing the policy's pending records.
            last = policy.last_step
            ends = last is not None and last.matches(operation, target)
            if ends:
                del adds[mark:]
                purges.append(effective_context)
            if obs is not None:
                obs.step7(policy, ends)
        if obs is not None:
            started = obs.span("engine.constraints", started)
        if violation is not None:
            # Deny: nothing was buffered for the store.
            return Decision(
                effect=Effect.DENY,
                request=request,
                violation=violation,
                matched_policy_ids=matched_ids,
                reason=violation.detail,
                policy_epoch=policy_epoch,
                policy_digest=policy_digest,
            )

        user_id, context = request.user_id, request.context_instance
        tail = (operation, target, context, request.timestamp, request.request_id, None)
        mutation = ADIMutation(
            [
                tuple.__new__(RetainedADIRecord, (user_id, record_roles, *tail))
                for record_roles in adds
            ],
            purges,
        )
        return PendingGrant(mutation, matched_ids, policy_epoch, policy_digest, started)

    def _commit(self, request, outcome, obs: Recorder | None = None) -> Decision:
        """Apply a judged grant's mutation: the engine's one store write."""
        if type(outcome) is Decision:
            return outcome
        mutation = outcome.mutation
        records_purged = self._store.apply(mutation)
        if obs is not None:
            obs.span("store.commit", outcome.started)
        return Decision(
            effect=Effect.GRANT,
            request=request,
            matched_policy_ids=outcome.matched_policy_ids,
            records_added=len(mutation.adds),
            records_purged=records_purged,
            reason="granted under MSoD",
            adi_adds=tuple(mutation.adds),
            adi_purged_contexts=tuple(mutation.purge_contexts),
            policy_epoch=outcome.policy_epoch,
            policy_digest=outcome.policy_digest,
        )

    # ------------------------------------------------------------------
    def notify_context_terminated(self, context: ContextName) -> int:
        """Implied termination (Section 2.2 / Section 3).

        When the application knows a business context [instance] has
        finished — e.g. because a *containing* context completed, "since
        all the contained ones must also be terminated" — it informs the
        engine, which purges the instance's history exactly as a granted
        last step would.  Returns the number of purged records.
        """
        return self._store.purge_context(context)
