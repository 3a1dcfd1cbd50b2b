"""The ADF / Policy Decision Point side of the ISO framework (Figure 3).

:class:`PolicyDecisionPoint` is the interface every PDP in this
repository implements (the reference PDP here, the PERMIS PDP in
:mod:`repro.permis.pdp`).  :class:`ReferenceRBACMSoDPDP` is the minimal
composition the paper describes in Section 4.2: "The PDP first performs
its normal checking against the RBAC policy, and if the interim result
is grant, then the PDP will further perform the [MSoD] algorithm."
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.constraints import Privilege, Role
from repro.core.decision import Decision, DecisionRequest, Effect
from repro.core.engine import MSoDEngine
from repro.obs.recorder import NOOP, Recorder


class PolicyDecisionPoint:
    """Abstract ADF: turns a decision request into a decision.

    Every PDP — in-process reference, PERMIS, remote client — shares
    one lifecycle: a :meth:`perf` recorder to observe it, a
    :meth:`close` to release whatever it holds (connections, store
    handles; a no-op by default), and context-manager support built on
    both, so callers never special-case which implementation they got::

        with open_pdp(policy, store="sqlite:adi.db") as pdp:
            decision = pdp.decide(request)
    """

    def decide(self, request: DecisionRequest) -> Decision:
        raise NotImplementedError

    # -- policy management (uniform across local/remote/cluster) -------
    def policy_version(self):
        """The :class:`~repro.core.policy_epoch.PolicyVersion` in force.

        Every concrete PDP that enforces an MSoD policy set reports the
        epoch + content digest its decisions are currently made under;
        PDPs without a reloadable policy (pure RBAC stubs) may leave
        this unimplemented.
        """
        raise NotImplementedError

    def reload_policy(self, policy):
        """Atomically swap the enforced policy set (zero downtime).

        ``policy`` is the same source union :func:`repro.api.open_pdp`
        accepts — an :class:`~repro.core.policy.MSoDPolicySet`, a path,
        or an XML string.  Returns a
        :class:`~repro.core.policy_epoch.PolicySwapReport`; reloading a
        semantically identical set is a detected no-op.
        """
        raise NotImplementedError

    @property
    def perf(self) -> Recorder:
        """The recorder observing this PDP (``NOOP`` unless attached)."""
        return NOOP

    def close(self) -> None:
        """Release resources owned by this PDP.  Idempotent; no-op here."""

    def __enter__(self) -> "PolicyDecisionPoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RoleTargetAccessPolicy:
    """A plain RBAC target-access policy: role → set of privileges.

    This is the "normal checking against the RBAC policy" that precedes
    the MSoD algorithm.  (The PERMIS subsystem has a richer version with
    subject/target domains; this one is the framework-level reference.)
    """

    def __init__(self, grants: Mapping[Role, Iterable[Privilege]]) -> None:
        self._grants: dict[Role, frozenset[Privilege]] = {
            role: frozenset(privileges) for role, privileges in grants.items()
        }

    def permits(self, roles: Iterable[Role], privilege: Privilege) -> bool:
        """True when any presented role is granted the privilege."""
        return any(
            privilege in self._grants.get(role, frozenset()) for role in roles
        )

    def privileges_of(self, role: Role) -> frozenset[Privilege]:
        return self._grants.get(role, frozenset())

    def roles(self) -> frozenset[Role]:
        return frozenset(self._grants)


class ReferenceRBACMSoDPDP(PolicyDecisionPoint):
    """RBAC interim check, then the Section 4.2 MSoD algorithm."""

    def __init__(
        self,
        access_policy: RoleTargetAccessPolicy,
        msod_engine: MSoDEngine,
        perf: Recorder | None = None,
    ) -> None:
        self._access_policy = access_policy
        self._msod = msod_engine
        # Default to the engine's recorder so the PDP's RBAC span and
        # the engine's MSoD spans land in one per-decision trace.
        self._perf = perf if perf is not None else msod_engine.perf

    @property
    def msod_engine(self) -> MSoDEngine:
        return self._msod

    def policy_version(self):
        return self._msod.policy_version()

    def reload_policy(self, policy):
        """Admit, then swap ``policy`` (``verify.gate.reload_engine``)."""
        from repro.api import load_policy_source
        from repro.verify.gate import reload_engine

        return reload_engine(self._msod, load_policy_source(policy))

    @property
    def access_policy(self) -> RoleTargetAccessPolicy:
        return self._access_policy

    @property
    def perf(self) -> Recorder:
        return self._perf

    def decide(self, request: DecisionRequest) -> Decision:
        obs = self._perf
        on = obs.enabled
        started = obs.begin() if on else 0.0
        try:
            permitted = self._access_policy.permits(
                request.roles, request.privilege
            )
            if on:
                obs.span("pdp.rbac", started)
                obs.incr("pdp.requests")
            if permitted:
                # Interim grant — now the MSoD set of policies (Section 4.2).
                decision = self._msod.check(request)
            else:
                if on:
                    obs.incr("pdp.rbac_denies")
                # Stamp the MSoD engine's active version even though the
                # deny short-circuited before MSoD evaluation: the audit
                # trail records which policy regime was in force.
                version = self._msod.policy_version()
                decision = Decision(
                    effect=Effect.DENY,
                    request=request,
                    reason=(
                        "RBAC: no presented role grants "
                        f"{request.operation!r} on {request.target!r}"
                    ),
                    policy_epoch=version.epoch,
                    policy_digest=version.digest,
                )
            return obs.finish(decision) if on else decision
        except BaseException:
            if on:
                obs.abandon()
            raise
