"""An ANSI RBAC system with decision-time MSoD enforcement.

Bridges Figure 1 and Figure 3: applications keep the familiar ANSI
session API (``create_session`` / ``add_active_role`` / ``check_access``)
while every access check additionally runs the Section-4.2 MSoD
algorithm, keyed on the *user behind the session* — which is exactly
what lets conflicts that span sessions be caught even though each
individual session looks innocent to SSD/DSD.

The ANSI ``CheckAccess(session, operation, object)`` signature gains one
argument: the business-context instance (Section 4.1's fifth parameter).
"""

from __future__ import annotations

from repro.core.constraints import Role
from repro.core.context import ContextName
from repro.core.decision import Decision, DecisionRequest, Effect
from repro.core.engine import MODE_STRICT, MSoDEngine
from repro.core.policy import MSoDPolicySet
from repro.core.retained_adi import InMemoryRetainedADIStore, RetainedADIStore
from repro.rbac.system import RBACSystem

#: Attribute type used when wrapping ANSI role names as MSoD roles.
ANSI_ROLE_TYPE = "ansiRole"


def as_msod_role(role_name: str) -> Role:
    """Wrap an ANSI role name (a plain string) as an MSoD role."""
    return Role(ANSI_ROLE_TYPE, role_name)


class MSoDAwareRBACSystem(RBACSystem):
    """ANSI RBAC plus multi-session separation of duties.

    All administrative and review functions are inherited unchanged from
    :class:`~repro.rbac.system.RBACSystem`; only the access-check path
    changes: :meth:`check_access_in_context` performs the ANSI permission
    check first (the "interim result"), then the MSoD algorithm over the
    retained ADI.
    """

    def __init__(
        self,
        msod_policies: MSoDPolicySet,
        store: RetainedADIStore | None = None,
        limited_hierarchy: bool = False,
        mode: str = MODE_STRICT,
    ) -> None:
        super().__init__(limited_hierarchy=limited_hierarchy)
        self._engine = MSoDEngine(
            msod_policies,
            store if store is not None else InMemoryRetainedADIStore(),
            mode=mode,
        )

    @property
    def msod_engine(self) -> MSoDEngine:
        return self._engine

    # ------------------------------------------------------------------
    def check_access_in_context(
        self,
        session_id: str,
        operation: str,
        obj: str,
        context_instance: ContextName,
        at: float = 0.0,
    ) -> Decision:
        """ANSI ``CheckAccess`` extended with the business context.

        Returns a full :class:`~repro.core.decision.Decision` rather than
        the ANSI boolean so callers can inspect MSoD violations.
        """
        session = self._require_session(session_id)
        request = DecisionRequest(
            user_id=session.user,
            roles=tuple(
                sorted(
                    (as_msod_role(role) for role in session.active_roles),
                    key=str,
                )
            ),
            operation=operation,
            target=obj,
            context_instance=context_instance,
            timestamp=at,
        )
        if not self.check_access(session_id, operation, obj):
            # Stamp the active version although the deny short-circuited
            # MSoD: the decision records which policy regime was in force.
            version = self._engine.policy_version()
            return Decision(
                effect=Effect.DENY,
                request=request,
                reason=(
                    "RBAC: no active role holds permission "
                    f"({operation!r} on {obj!r})"
                ),
                policy_epoch=version.epoch,
                policy_digest=version.digest,
            )
        return self._engine.check(request)
