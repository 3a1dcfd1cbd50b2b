"""The PERMIS CVS/PDP sub-system (paper Section 5, Figure 4).

:class:`PermisPDP` reproduces the full decision pipeline:

1. the CVS validates the user's credentials (pushed with the request, or
   pulled from the LDAP-like directory) and extracts the valid roles;
2. the PDP performs its normal RBAC check against the target-access
   policy (with role-hierarchy inheritance);
3. on an interim grant, the Section 4.2 MSoD algorithm runs over the
   retained ADI;
4. the request and response are logged to the secure audit trail, with
   the committed retained-ADI mutation attached so the store can be
   recovered at the next start-up (Section 5.2).

"By adding the business context instance to the list of environmental
parameters that are already passed to the PERMIS PDP, we have not needed
to alter the Java API" — correspondingly, :meth:`PermisPDP.decision`
takes the context instance as one extra keyword argument.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.audit.recovery import decision_event_payload, recover_retained_adi
from repro.audit.trail import EVENT_ADMIN, EVENT_DECISION, AuditTrailManager
from repro.core.admin import RetainedADIManagementPort
from repro.core.constraints import Role
from repro.core.context import ContextName
from repro.core.decision import Decision, DecisionRequest, Effect
from repro.core.engine import MODE_STRICT, MSoDEngine
from repro.core.retained_adi import InMemoryRetainedADIStore, RetainedADIStore
from repro.framework.pdp import PolicyDecisionPoint
from repro.obs.recorder import NOOP, Recorder
from repro.permis.credentials import AttributeCredential, TrustStore
from repro.permis.cvs import CredentialValidationService
from repro.permis.directory import LdapDirectory, normalize_dn
from repro.permis.policy import PermisPolicy


class PermisPDP(PolicyDecisionPoint):
    """The PERMIS decision point with MSoD support."""

    def __init__(
        self,
        policy: PermisPolicy,
        trust_store: TrustStore,
        directory: LdapDirectory | None = None,
        store: RetainedADIStore | None = None,
        audit: AuditTrailManager | None = None,
        clock: Callable[[], float] | None = None,
        mode: str = MODE_STRICT,
        perf: Recorder | None = None,
    ) -> None:
        self._policy = policy
        self._cvs = CredentialValidationService(policy, trust_store, directory)
        self._owns_store = store is None
        self._store = store if store is not None else InMemoryRetainedADIStore()
        self._perf = perf if perf is not None else NOOP
        self._engine = MSoDEngine(
            policy.msod_policy_set, self._store, mode=mode, perf=self._perf
        )
        self._audit = audit
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._management_port = RetainedADIManagementPort(self._store)

    # ------------------------------------------------------------------
    @property
    def cvs(self) -> CredentialValidationService:
        return self._cvs

    @property
    def policy(self) -> PermisPolicy:
        return self._policy

    @property
    def msod_engine(self) -> MSoDEngine:
        return self._engine

    @property
    def retained_adi(self) -> RetainedADIStore:
        return self._store

    @property
    def perf(self) -> Recorder:
        return self._perf

    def close(self) -> None:
        """Release the retained-ADI store if this PDP created it.

        A store handed in by the caller (e.g. one shared with a
        recovery pipeline) stays open — whoever constructed it owns its
        lifetime.  Idempotent either way.
        """
        if self._owns_store:
            self._store.close()

    @property
    def management_port(self) -> RetainedADIManagementPort:
        """The Section 4.3 management port over this PDP's retained ADI.

        Access is itself RBAC-protected: callers present roles, and by
        default only ``RetainedADIController`` may purge or inspect.
        Management operations performed through the port are logged to
        the audit trail via :meth:`log_admin_event`.
        """
        return self._management_port

    def log_admin_event(self, operation: str, detail: str, at: float) -> None:
        """Record a management-port action in the secure audit trail."""
        if self._audit is None:
            return
        self._audit.append(
            EVENT_ADMIN, at, {"operation": operation, "detail": detail}
        )

    # ------------------------------------------------------------------
    @classmethod
    def startup(
        cls,
        policy: PermisPolicy,
        trust_store: TrustStore,
        audit: AuditTrailManager,
        directory: LdapDirectory | None = None,
        last_n_trails: int | None = None,
        since: float = 0.0,
        clock: Callable[[], float] | None = None,
        mode: str = MODE_STRICT,
    ) -> "PermisPDP":
        """Initialise a PDP, recovering its retained ADI from the trails.

        Section 5.2: "At start up, the PDP reads in its policy, and then
        processes the last n audit trails starting from time t ...  Once
        its retained ADI is recovered to memory, the PDP is ready to
        start making access control decisions again."
        """
        store = InMemoryRetainedADIStore()
        recover_retained_adi(
            audit,
            policy.msod_policy_set,
            store,
            last_n_trails=last_n_trails,
            since=since,
        )
        return cls(
            policy,
            trust_store,
            directory=directory,
            store=store,
            audit=audit,
            clock=clock,
            mode=mode,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_directory(
        cls,
        policy_dn: str,
        trust_store: TrustStore,
        directory: LdapDirectory,
        audit: AuditTrailManager | None = None,
        store: RetainedADIStore | None = None,
        clock: Callable[[], float] | None = None,
        mode: str = MODE_STRICT,
        strict_msod: bool = True,
    ) -> "PermisPDP":
        """Bootstrap a PDP from the SOA's *signed* policy in the directory.

        Real PERMIS PDPs read their XML policy from the SOA's LDAP entry
        and verify its signature before trusting a single rule; an
        unverifiable policy aborts start-up
        (:class:`~repro.errors.CredentialError`).
        """
        from repro.permis.policy_store import load_policy

        policy = load_policy(
            directory, trust_store, policy_dn, strict_msod=strict_msod
        )
        return cls(
            policy,
            trust_store,
            directory=directory,
            store=store,
            audit=audit,
            clock=clock,
            mode=mode,
        )

    # ------------------------------------------------------------------
    def decision(
        self,
        holder_dn: str,
        operation: str,
        target: str,
        context_instance: ContextName,
        credentials: Iterable[AttributeCredential] | None = None,
        roles: Iterable[Role] | None = None,
        environment: Mapping[str, str] | None = None,
        at: float | None = None,
    ) -> Decision:
        """Run the full CVS → RBAC → MSoD pipeline for one request.

        Either ``credentials`` (push mode), ``roles`` (pre-validated,
        e.g. by an upstream CVS) or neither (pull mode — the CVS fetches
        from the directory) may be supplied.
        """
        obs = self._perf
        on = obs.enabled
        if on:
            obs.begin()
            obs.incr("permis.requests")
        try:
            when = self._clock() if at is None else at
            holder = normalize_dn(holder_dn)
            if roles is None:
                started = obs.start() if on else 0.0
                validation = self._cvs.validate(holder, credentials, at=when)
                valid_roles = validation.valid_roles
                if on:
                    obs.span("pdp.cvs", started)
            else:
                valid_roles = frozenset(roles)

            request = DecisionRequest(
                user_id=holder,
                roles=tuple(sorted(valid_roles, key=str)),
                operation=operation,
                target=target,
                context_instance=context_instance,
                timestamp=when,
                environment=dict(environment or {}),
            )
            if not valid_roles:
                if on:
                    obs.incr("permis.cvs_denies")
                decision = self._deny(request, "CVS: no valid roles for holder")
            else:
                started = obs.start() if on else 0.0
                permitted = self._policy.permits(
                    valid_roles, request.privilege, request.environment, when
                )
                if on:
                    obs.span("pdp.rbac", started)
                if permitted:
                    decision = self._engine.check(request)
                else:
                    if on:
                        obs.incr("permis.rbac_denies")
                    decision = self._deny(
                        request,
                        f"RBAC: no valid role grants {operation!r} "
                        f"on {target!r}",
                    )

            started = obs.start() if on else 0.0
            self._log(decision)
            if on:
                obs.span("pdp.audit", started)
                decision = obs.finish(decision)
            return decision
        except BaseException:
            if on:
                obs.abandon()
            raise

    def decide(self, request: DecisionRequest) -> Decision:
        """ISO-framework entry point: roles are taken as pre-validated."""
        return self.decision(
            request.user_id,
            request.operation,
            request.target,
            request.context_instance,
            roles=request.roles,
            environment=request.environment,
            at=request.timestamp,
        )

    # ------------------------------------------------------------------
    def _deny(self, request: DecisionRequest, reason: str) -> Decision:
        """A deny that short-circuits MSoD, stamped with the policy
        version in force as the engine's own decisions are."""
        version = self._engine.policy_version()
        return Decision(
            effect=Effect.DENY,
            request=request,
            reason=reason,
            policy_epoch=version.epoch,
            policy_digest=version.digest,
        )

    def _log(self, decision: Decision) -> None:
        """Every request and response is logged (Section 5.2)."""
        if self._audit is None:
            return
        self._audit.append(
            EVENT_DECISION,
            decision.request.timestamp,
            decision_event_payload(decision),
        )
