"""Static analysis of PERMIS policies and their MSoD component.

The paper notes that "the policy writer also needs to know what the
business contexts are in order to construct a correct policy" — and in
practice MSoD policies can be *silently ineffective*: an MMER naming a
role no SOA may assign never fires; an MMEP naming a privilege no role
is granted can never be exercised (nor violated); a business context
whose last step is not grantable can never terminate, so its retained
ADI grows forever (the Section-4.3 problem).

:func:`analyze_policy` cross-references the RBAC policy with its MSoD
component and reports findings in three severities:

* ``error`` — the constraint cannot work as written;
* ``warning`` — the constraint works but has an operational hazard
  (e.g. unbounded history growth);
* ``info`` — notable but harmless facts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constraints import Privilege
from repro.core.policy import MSoDPolicy
from repro.permis.policy import PermisPolicy

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"


@dataclass(frozen=True, slots=True)
class Finding:
    """One analysis result."""

    severity: str
    policy_id: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.policy_id}: {self.message}"


def analyze_policy(policy: PermisPolicy) -> list[Finding]:
    """Lint a PERMIS policy together with its MSoD component."""
    findings: list[Finding] = []
    assignable_roles = frozenset(
        role for rule in policy.assignment_rules for role in rule.roles
    )
    grantable_privileges = frozenset(
        privilege
        for rule in policy.access_rules
        for privilege in rule.privileges
    )

    for msod in policy.msod_policy_set:
        findings.extend(
            _analyze_msod_policy(
                msod, policy, assignable_roles, grantable_privileges
            )
        )

    findings.extend(_analyze_rbac_layer(policy))
    return findings


def _analyze_msod_policy(
    msod: MSoDPolicy,
    policy: PermisPolicy,
    assignable_roles,
    grantable_privileges,
) -> list[Finding]:
    findings: list[Finding] = []
    pid = msod.policy_id

    # --- MMER roles must be assignable to ever conflict. -------------
    for mmer in msod.mmers:
        dead_roles = [
            role for role in mmer.roles if role not in assignable_roles
        ]
        if len(mmer.roles) - len(dead_roles) < mmer.forbidden_cardinality:
            findings.append(
                Finding(
                    SEVERITY_ERROR,
                    pid,
                    f"MMER {mmer!r} can never fire: only "
                    f"{len(mmer.roles) - len(dead_roles)} of its roles are "
                    f"assignable by any SOA, but {mmer.forbidden_cardinality}"
                    " are needed for a conflict",
                )
            )
        elif dead_roles:
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    pid,
                    "MMER names roles no SOA may assign: "
                    f"{sorted(map(str, dead_roles))}",
                )
            )

    # --- MMEP privileges must be grantable to ever be exercised. -----
    for mmep in msod.mmeps:
        distinct = set(mmep.privileges)
        dead = [p for p in distinct if p not in grantable_privileges]
        if dead and len(distinct) - len(dead) == 0:
            findings.append(
                Finding(
                    SEVERITY_ERROR,
                    pid,
                    f"MMEP {mmep!r} is dead: none of its privileges is "
                    "granted to any role",
                )
            )
        elif dead:
            findings.append(
                Finding(
                    SEVERITY_WARNING,
                    pid,
                    "MMEP names privileges granted to no role: "
                    f"{sorted(map(str, dead))}",
                )
            )

    # --- Lifecycle hazards. -------------------------------------------
    if msod.last_step is None:
        findings.append(
            Finding(
                SEVERITY_WARNING,
                pid,
                "no last step: retained ADI for this context only shrinks "
                "through the management port (Section 4.3 growth hazard)",
            )
        )
    else:
        last_privilege = Privilege(
            msod.last_step.operation, msod.last_step.target
        )
        if last_privilege not in grantable_privileges:
            findings.append(
                Finding(
                    SEVERITY_ERROR,
                    pid,
                    f"last step {msod.last_step} is granted to no role: the "
                    "business context can never terminate",
                )
            )
    if msod.first_step is not None:
        first_privilege = Privilege(
            msod.first_step.operation, msod.first_step.target
        )
        if first_privilege not in grantable_privileges:
            findings.append(
                Finding(
                    SEVERITY_ERROR,
                    pid,
                    f"first step {msod.first_step} is granted to no role: "
                    "enforcement for this context can never start",
                )
            )

    # --- Scope sanity. --------------------------------------------------
    if msod.business_context.is_root:
        findings.append(
            Finding(
                SEVERITY_INFO,
                pid,
                "policy is scoped to the universal context: it applies to "
                "every access request",
            )
        )
    return findings


def _analyze_rbac_layer(policy: PermisPolicy) -> list[Finding]:
    findings: list[Finding] = []
    assignable = frozenset(
        role for rule in policy.assignment_rules for role in rule.roles
    )
    # A role is reachable when some SOA may assign it directly or may
    # assign any *transitive* senior of it: close the assignable set
    # downward over the full hierarchy, not just one hop.
    reachable = policy.authorized_roles(assignable) if assignable else assignable
    for rule in policy.access_rules:
        if policy.assignment_rules and rule.role not in assignable:
            if rule.role not in reachable:
                findings.append(
                    Finding(
                        SEVERITY_WARNING,
                        "rbac",
                        f"target-access rule for {rule.role} is unreachable: "
                        "no SOA may assign the role (directly or via a "
                        "senior)",
                    )
                )
    # Overlapping MSoD policy scopes are legal (all matched policies
    # apply) but worth surfacing.
    policies = policy.msod_policy_set.policies
    for index, first in enumerate(policies):
        for second in policies[index + 1:]:
            first_ctx, second_ctx = first.business_context, second.business_context
            if first_ctx.is_equal_or_subordinate_to(
                second_ctx
            ) or second_ctx.is_equal_or_subordinate_to(first_ctx):
                findings.append(
                    Finding(
                        SEVERITY_INFO,
                        first.policy_id,
                        f"scope overlaps policy {second.policy_id!r}: both "
                        "apply to requests in the narrower context",
                    )
                )
    return findings
