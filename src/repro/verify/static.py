"""Static verification of MSoD policy sets (stage 1 of the pipeline).

The paper warns that "the policy writer also needs to know what the
business contexts are in order to construct a correct policy" — and a
well-formed set can still be semantically broken: a constraint whose
cardinality is unreachable, a constraint subsumed by a stricter sibling,
a policy whose scope is shadowed by a stricter ancestor.  This module is
the one checker for all of it: a structured pass producing
machine-readable findings, each carrying a stable ``code``, a
``severity``, the ``policy_id`` it concerns, and a human ``detail``.

Severities:

* ``error`` — the set must not be deployed (hot-reload gates refuse it);
* ``warning`` — deployable but operationally hazardous;
* ``info`` — notable but harmless.

The pass runs over a bare :class:`~repro.core.policy.MSoDPolicySet`;
when the surrounding PERMIS policy is supplied the reachability checks
(assignable roles, grantable privileges, both closed over the transitive
role hierarchy) run as well, and SSD constraint sets may be supplied to
detect MMERs that static separation already covers.
:func:`analyze_policy` is that pass over a PERMIS policy's own MSoD
component: ``repro lint`` prints its findings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.constraints import (
    MMCD,
    MMER,
    POLICY_EXPORT_PRIVILEGE,
    POLICY_RELOAD_PRIVILEGE,
    AdminBoundary,
    MultiSessionConstraint,
    Privilege,
    Role,
    count_history_matches,
)
from repro.core.policy import MSoDPolicy, MSoDPolicySet

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.permis.policy import PermisPolicy
    from repro.rbac.constraints import SsdConstraint

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

_SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING, SEVERITY_INFO)

# Finding codes, grouped by stage.  Stable identifiers: tooling and the
# rollout gate key off these, not the prose details.
CONSTRAINT_DUPLICATE = "CONSTRAINT_DUPLICATE"
POLICY_DUPLICATE = "POLICY_DUPLICATE"
# Redundancy is ``<KIND>_REDUNDANT`` for every kind with an ``m``.
MMER_REDUNDANT = "MMER_REDUNDANT"
MMEP_REDUNDANT = "MMEP_REDUNDANT"
SCOPE_SHADOWED = "SCOPE_SHADOWED"
SCOPE_UNIVERSAL = "SCOPE_UNIVERSAL"
SCOPE_OVERLAP = "SCOPE_OVERLAP"
LIFECYCLE_NO_LAST_STEP = "LIFECYCLE_NO_LAST_STEP"
LIFECYCLE_SELF_TERMINATING = "LIFECYCLE_SELF_TERMINATING"
MMER_UNSATISFIABLE = "MMER_UNSATISFIABLE"
MMER_DEAD_ROLES = "MMER_DEAD_ROLES"
MMEP_UNSATISFIABLE = "MMEP_UNSATISFIABLE"
MMEP_DEAD_PRIVILEGES = "MMEP_DEAD_PRIVILEGES"
FIRST_STEP_UNGRANTABLE = "FIRST_STEP_UNGRANTABLE"
LAST_STEP_UNGRANTABLE = "LAST_STEP_UNGRANTABLE"
MMER_COVERED_BY_SSD = "MMER_COVERED_BY_SSD"
RBAC_UNREACHABLE_RULE = "RBAC_UNREACHABLE_RULE"
MMCD_UNSATISFIABLE = "MMCD_UNSATISFIABLE"
MMCD_CONFLICTS_MMER = "MMCD_CONFLICTS_MMER"
ADMIN_BOUNDARY_UNGUARDED = "ADMIN_BOUNDARY_UNGUARDED"
# Deployment-shape findings: not part of the default pass.
CLUSTER_ROUTING_UNSAFE = "CLUSTER_ROUTING_UNSAFE"


@dataclass(frozen=True, slots=True)
class VerifyFinding:
    """One machine-readable verification result."""

    code: str
    severity: str
    policy_id: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code} {self.policy_id}: {self.detail}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "policy_id": self.policy_id,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyFinding":
        return cls(
            code=str(data["code"]),
            severity=str(data["severity"]),
            policy_id=str(data["policy_id"]),
            detail=str(data["detail"]),
        )


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """All findings from one static pass, in deterministic order."""

    findings: tuple[VerifyFinding, ...]

    @property
    def errors(self) -> tuple[VerifyFinding, ...]:
        return tuple(f for f in self.findings if f.severity == SEVERITY_ERROR)

    @property
    def warnings(self) -> tuple[VerifyFinding, ...]:
        return tuple(f for f in self.findings if f.severity == SEVERITY_WARNING)

    @property
    def infos(self) -> tuple[VerifyFinding, ...]:
        return tuple(f for f in self.findings if f.severity == SEVERITY_INFO)

    @property
    def ok(self) -> bool:
        """True when no error-severity finding is present."""
        return not self.errors

    def counts_by_severity(self) -> dict[str, int]:
        counts = {severity: 0 for severity in _SEVERITIES}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "counts": self.counts_by_severity(),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerifyReport":
        findings = data.get("findings", [])
        if not isinstance(findings, list):
            raise TypeError("verify report findings must be a list")
        return cls(
            findings=tuple(VerifyFinding.from_dict(item) for item in findings)
        )


def analyze_policy_set(
    policy_set: MSoDPolicySet,
    *,
    permis: "PermisPolicy | None" = None,
    ssd: Iterable["SsdConstraint"] = (),
) -> VerifyReport:
    """Run the full static pass over an MSoD policy set.

    ``permis`` enables the cross-reference checks against the RBAC layer
    (role assignability and privilege grantability, closed over the
    transitive role hierarchy).  ``ssd`` supplies static
    separation-of-duty sets whose coverage of an MMER makes the MMER
    dead weight.
    """
    findings: list[VerifyFinding] = []
    for policy in policy_set:
        findings.extend(_intra_policy_findings(policy))
    findings.extend(_cross_policy_findings(policy_set))
    findings.extend(_mmcd_findings(policy_set))
    findings.extend(_admin_boundary_findings(policy_set))
    if ssd:
        findings.extend(_ssd_findings(policy_set, tuple(ssd)))
    if permis is not None:
        reach = _Reach.of(permis)
        findings.extend(_permis_findings(policy_set, reach))
        findings.extend(_mmcd_permis_findings(policy_set, reach, tuple(ssd)))
        findings.extend(_rbac_layer_findings(permis, reach))
    return VerifyReport(findings=tuple(findings))


def analyze_policy(policy: "PermisPolicy") -> list[VerifyFinding]:
    """Lint a PERMIS policy: the full pass over its MSoD component,
    cross-referenced against its own RBAC layer."""
    return list(analyze_policy_set(policy.msod_policy_set, permis=policy).findings)


def render_findings(report: VerifyReport) -> tuple[str, ...]:
    """The report's findings as display strings (for ``PolicySwapReport``)."""
    return tuple(str(finding) for finding in report.findings)


def cluster_routing_findings(policy_set: MSoDPolicySet) -> list[VerifyFinding]:
    """``CLUSTER_ROUTING_UNSAFE`` for each policy a per-user ring cannot enforce.

    A cluster routes every user to one shard, and each shard decides
    from its own users' history.  A first step, a last step or an MMCD
    couples users through the context instance: an instance started,
    terminated or bound on one shard is not so on the others, whose
    decisions then differ from one node's.
    """
    findings = []
    for policy in policy_set:
        couplings = [
            f"{name} step {step}"
            for name, step in (("first", policy.first_step), ("last", policy.last_step))
            if step is not None
        ]
        couplings.extend(
            repr(c) for c in policy.extra_constraints if isinstance(c, MMCD)
        )
        if couplings:
            findings.append(VerifyFinding(
                CLUSTER_ROUTING_UNSAFE, SEVERITY_ERROR, policy.policy_id,
                f"{', '.join(couplings)}: couples the users of a context "
                "instance, which per-user routing splits across shards",
            ))
    return findings


# ----------------------------------------------------------------------
# Intra-policy checks (bare set, no companion needed).
# ----------------------------------------------------------------------
def _intra_policy_findings(policy: MSoDPolicy) -> list[VerifyFinding]:
    pid = policy.policy_id
    constraints = policy.constraints
    findings = _duplicate_constraints(pid, constraints)

    # Redundancy: a constraint implied by a stricter sibling.
    for index, constraint in enumerate(constraints):
        for other_index, other in enumerate(constraints):
            if other_index == index or constraint == other:
                continue
            if _implied_by(constraint, other):
                findings.append(
                    VerifyFinding(
                        f"{constraint.kind}_REDUNDANT",
                        SEVERITY_WARNING,
                        pid,
                        f"{constraint!r} is implied by stricter sibling "
                        f"{other!r} and can never be the binding constraint",
                    )
                )
                break

    # Lifecycle hazards (the Section 4.3 growth problem).
    if policy.last_step is None:
        findings.append(
            VerifyFinding(
                LIFECYCLE_NO_LAST_STEP,
                SEVERITY_WARNING,
                pid,
                "no last step: retained ADI for this context only shrinks "
                "through the management port (Section 4.3 growth hazard)",
            )
        )
    elif policy.first_step == policy.last_step:
        findings.append(
            VerifyFinding(
                LIFECYCLE_SELF_TERMINATING,
                SEVERITY_WARNING,
                pid,
                f"first and last step are both {policy.last_step}: every "
                "context instance terminates on the request that starts it, "
                "so history never accumulates across sessions",
            )
        )

    if policy.business_context.is_root:
        findings.append(
            VerifyFinding(
                SCOPE_UNIVERSAL,
                SEVERITY_INFO,
                pid,
                "policy is scoped to the universal context: it applies to "
                "every access request",
            )
        )
    return findings


def _duplicate_constraints(pid: str, constraints: tuple) -> list[VerifyFinding]:
    """Exact duplicates (modulo ordering) within one policy are errors:
    a repeated constraint is always an authoring mistake — the copy can
    never change a decision."""
    findings: list[VerifyFinding] = []
    reported: set[int] = set()
    for index, constraint in enumerate(constraints):
        if index in reported:
            continue
        for other_index in range(index + 1, len(constraints)):
            if constraints[other_index] == constraint:
                reported.add(other_index)
                findings.append(
                    VerifyFinding(
                        CONSTRAINT_DUPLICATE,
                        SEVERITY_ERROR,
                        pid,
                        f"duplicate {constraint.kind} constraint {constraint!r} "
                        "(listed more than once, modulo ordering)",
                    )
                )
                break
    return findings


def _implied_by(
    constraint: MultiSessionConstraint, other: MultiSessionConstraint
) -> bool:
    """Any history violating ``constraint`` violates ``other`` first.

    True when both are of one kind and label, the members of
    ``constraint`` are a sub-multiset of ``other``'s and ``other.m <=
    constraint.m`` (MMER A is implied by B when roles(A) ⊆ roles(B) and
    m(B) <= m(A)).  A kind without ``m`` has no such lattice: only an
    equal constraint implies it.
    """
    if (
        constraint.m is None
        or type(other) is not type(constraint)
        or other.label != constraint.label
    ):
        return constraint == other
    ours, theirs = Counter(constraint.members), Counter(other.members)
    return (
        all(theirs[member] >= count for member, count in ours.items())
        and other.m <= constraint.m
    )


# ----------------------------------------------------------------------
# Cross-policy checks: duplicates, shadowed scopes, overlaps.
# ----------------------------------------------------------------------
def _same_steps(first: MSoDPolicy, second: MSoDPolicy) -> bool:
    return (
        first.first_step == second.first_step
        and first.last_step == second.last_step
    )


def _constraints_implied(inner: MSoDPolicy, outer: MSoDPolicy) -> bool:
    """Every constraint of ``inner`` is implied by some ``outer`` one."""
    return all(
        any(_implied_by(constraint, other) for other in outer.constraints)
        for constraint in inner.constraints
    )


def _cross_policy_findings(policy_set: MSoDPolicySet) -> list[VerifyFinding]:
    findings: list[VerifyFinding] = []
    policies = policy_set.policies
    shadow_reported: set[str] = set()
    for index, policy in enumerate(policies):
        for other in policies[index + 1:]:
            # Semantic duplicates.  The policy model already rejects
            # duplicate *ids*, so these are distinct ids carrying the
            # same context, steps and constraint sets.
            if (
                policy.business_context == other.business_context
                and _same_steps(policy, other)
                and set(policy.constraints) == set(other.constraints)
            ):
                findings.append(
                    VerifyFinding(
                        POLICY_DUPLICATE,
                        SEVERITY_ERROR,
                        other.policy_id,
                        f"duplicate of policy {policy.policy_id!r}: same "
                        "business context, steps and constraints",
                    )
                )
                continue
            if policy.business_context == other.business_context:
                findings.append(
                    VerifyFinding(
                        SCOPE_OVERLAP,
                        SEVERITY_INFO,
                        policy.policy_id,
                        f"scope overlaps policy {other.policy_id!r}: both "
                        "apply to requests in the narrower context",
                    )
                )
                continue
            for inner, outer in ((policy, other), (other, policy)):
                if inner.policy_id in shadow_reported:
                    continue
                if not inner.business_context.is_equal_or_subordinate_to(
                    outer.business_context
                ):
                    continue
                # ``inner`` sits under a strictly-wider ancestor scope.
                # If the ancestor's constraints are at least as strict
                # over the same enforcement window, the subordinate
                # policy can never be the binding decision.
                if _same_steps(inner, outer) and _constraints_implied(
                    inner, outer
                ):
                    shadow_reported.add(inner.policy_id)
                    findings.append(
                        VerifyFinding(
                            SCOPE_SHADOWED,
                            SEVERITY_WARNING,
                            inner.policy_id,
                            "scope is subsumed by stricter ancestor policy "
                            f"{outer.policy_id!r}: every request it matches "
                            "is already decided by the ancestor's "
                            "constraints",
                        )
                    )
                else:
                    findings.append(
                        VerifyFinding(
                            SCOPE_OVERLAP,
                            SEVERITY_INFO,
                            inner.policy_id,
                            f"scope overlaps policy {outer.policy_id!r}: "
                            "both apply to requests in the narrower context",
                        )
                    )
    return findings


# ----------------------------------------------------------------------
# Extension kinds: combination-of-duty satisfiability, admin boundaries.
# ----------------------------------------------------------------------
def _scopes_overlap(first: MSoDPolicy, second: MSoDPolicy) -> bool:
    """True when some concrete instance can match both policies."""
    return first.business_context.is_equal_or_subordinate_to(
        second.business_context
    ) or second.business_context.is_equal_or_subordinate_to(
        first.business_context
    )


def _mmcd_findings(policy_set: MSoDPolicySet) -> list[VerifyFinding]:
    """MMCD bound sets a single user can provably never complete.

    A combination-of-duty set requires *one* user to perform every
    bound step within a context instance; an MMEP over an overlapping
    scope forbids one user exercising ``m`` of its privileges there.
    When completing the bound set alone would already trip the MMEP,
    the MMCD is unsatisfiable: either the duty set can never finish, or
    finishing it is always denied.
    """
    findings: list[VerifyFinding] = []
    policies = policy_set.policies
    for policy in policies:
        for mmcd in (
            c for c in policy.extra_constraints if isinstance(c, MMCD)
        ):
            # One completed duty set = one exercise of each bound step.
            for other in policies:
                if not _scopes_overlap(policy, other):
                    continue
                for mmep in other.mmeps:
                    overlap = count_history_matches(
                        Counter(mmep.privileges), mmcd.privileges
                    )
                    if overlap >= mmep.forbidden_cardinality:
                        findings.append(
                            VerifyFinding(
                                MMCD_UNSATISFIABLE,
                                SEVERITY_ERROR,
                                policy.policy_id,
                                f"{mmcd!r} can never be completed by one "
                                f"user: finishing the bound set exercises "
                                f"{overlap} of the privileges in {mmep!r} "
                                f"(policy {other.policy_id!r}, overlapping "
                                "scope), reaching its forbidden cardinality "
                                f"{mmep.forbidden_cardinality}",
                            )
                        )
    return findings


def _admin_boundary_findings(
    policy_set: MSoDPolicySet,
) -> list[VerifyFinding]:
    """Partial coverage of the canonical policy-store privileges.

    Only fires on sets that already use admin boundaries: guarding
    ``policy-reload`` but leaving ``policy-export`` open (or vice
    versa) lets an operational principal launder state through the
    unguarded half of the administrative surface.
    """
    findings: list[VerifyFinding] = []
    guarded: set[Privilege] = set()
    boundary_policies: list[str] = []
    for policy in policy_set:
        for constraint in policy.extra_constraints:
            if isinstance(constraint, AdminBoundary):
                guarded.update(constraint.privileges)
                boundary_policies.append(policy.policy_id)
    if not guarded:
        return findings
    canonical = (POLICY_RELOAD_PRIVILEGE, POLICY_EXPORT_PRIVILEGE)
    missing = [priv for priv in canonical if priv not in guarded]
    if missing and len(missing) < len(canonical):
        findings.append(
            VerifyFinding(
                ADMIN_BOUNDARY_UNGUARDED,
                SEVERITY_WARNING,
                boundary_policies[0],
                "admin boundaries guard only part of the policy-store "
                "surface: "
                f"{', '.join(str(priv) for priv in missing)} "
                "remain unguarded while "
                f"{', '.join(str(p) for p in canonical if p in guarded)} "
                "is protected",
            )
        )
    return findings


def _mmcd_permis_findings(
    policy_set: MSoDPolicySet,
    reach: _Reach,
    ssd: tuple["SsdConstraint", ...],
) -> list[VerifyFinding]:
    """MMCD satisfiability against the RBAC layer and MMER/SSD overlap.

    A bound set is completable only if one user can (over time) hold a
    granting role for *every* bound step.  Enumerate the role choices
    (one granting role per step, capped to stay cheap); if every choice
    trips an MMER of an overlapping policy or a static SSD set, no user
    can legally finish the duty — the binding conflicts with exclusion.
    """
    findings: list[VerifyFinding] = []
    policies = policy_set.policies
    for policy in policies:
        mmers_in_scope = [
            mmer
            for other in policies
            if _scopes_overlap(policy, other)
            for mmer in other.mmers
        ]
        for mmcd in (
            c for c in policy.extra_constraints if isinstance(c, MMCD)
        ):
            granting: list[frozenset[Role]] = []
            dead: list[Privilege] = []
            for privilege in mmcd.privileges:
                roles = reach.granting.get(privilege, frozenset())
                if not roles:
                    dead.append(privilege)
                granting.append(roles)
            if dead:
                findings.append(
                    VerifyFinding(
                        MMCD_UNSATISFIABLE,
                        SEVERITY_ERROR,
                        policy.policy_id,
                        f"{mmcd!r} can never be completed: bound step(s) "
                        f"{sorted(str(p) for p in dead)} are granted to no "
                        "role, so no user can perform them",
                    )
                )
                continue
            if not mmers_in_scope and not ssd:
                continue
            conflict = _all_role_choices_conflict(
                granting, mmers_in_scope, ssd
            )
            if conflict is not None:
                findings.append(
                    VerifyFinding(
                        MMCD_CONFLICTS_MMER,
                        SEVERITY_ERROR,
                        policy.policy_id,
                        f"{mmcd!r} conflicts with exclusion constraints: "
                        "every role combination able to perform the bound "
                        f"set violates {conflict}, so no single user can "
                        "legally complete the duty",
                    )
                )
    return findings


_MMCD_CHOICE_CAP = 1024


def _all_role_choices_conflict(
    granting: list[frozenset[Role]],
    mmers: list[MMER],
    ssd: tuple["SsdConstraint", ...],
) -> str | None:
    """If every granting-role choice trips a constraint, name one.

    Returns ``None`` when some choice is conflict-free, when there is
    nothing to conflict with, or when the choice space exceeds the
    enumeration cap (soundness: never report an error we did not
    prove).
    """
    total = 1
    for roles in granting:
        total *= len(roles)
        if total > _MMCD_CHOICE_CAP:
            return None
    witness: str | None = None

    def conflicts(held: frozenset[Role]) -> str | None:
        for mmer in mmers:
            if len(held & set(mmer.roles)) >= mmer.forbidden_cardinality:
                return repr(mmer)
        held_names = {str(role) for role in held}
        for constraint in ssd:
            if len(held_names & constraint.roles) >= constraint.cardinality:
                return f"SSD set {constraint.name!r}"
        return None

    def walk(index: int, held: frozenset[Role]) -> bool:
        """True when some completion of this prefix is conflict-free."""
        nonlocal witness
        if index == len(granting):
            found = conflicts(held)
            if found is None:
                return True
            witness = found
            return False
        for role in sorted(granting[index], key=str):
            if walk(index + 1, held | {role}):
                return True
        return False

    if walk(0, frozenset()):
        return None
    return witness


# ----------------------------------------------------------------------
# SSD coverage: MMER sets static separation already forbids.
# ----------------------------------------------------------------------
def _ssd_findings(
    policy_set: MSoDPolicySet, ssd: tuple["SsdConstraint", ...]
) -> list[VerifyFinding]:
    findings: list[VerifyFinding] = []
    for policy in policy_set:
        for mmer in policy.mmers:
            role_names = {str(role) for role in mmer.roles}
            for constraint in ssd:
                if (
                    role_names <= constraint.roles
                    and constraint.cardinality <= mmer.forbidden_cardinality
                ):
                    findings.append(
                        VerifyFinding(
                            MMER_COVERED_BY_SSD,
                            SEVERITY_WARNING,
                            policy.policy_id,
                            f"{mmer!r} is fully covered by static SSD set "
                            f"{constraint.name!r} (cardinality "
                            f"{constraint.cardinality}): assignment-time "
                            "separation already forbids the conflict",
                        )
                    )
                    break
    return findings


# ----------------------------------------------------------------------
# PERMIS cross-reference: reachability over the transitive hierarchy.
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class _Reach:
    """What the RBAC layer lets users do, computed once per pass.

    ``assignable`` holds the roles a user can end up holding: every role
    some SOA may assign, closed *downward* over the transitive role
    hierarchy (holding a senior role confers all its juniors).
    ``granting`` maps each privilege some assignable role confers to
    those roles; its keys are the grantable privileges.
    """

    assignable: frozenset[Role]
    granting: dict[Privilege, frozenset[Role]]

    @classmethod
    def of(cls, permis: "PermisPolicy") -> _Reach:
        base = frozenset(
            role for rule in permis.assignment_rules for role in rule.roles
        )
        assignable = permis.authorized_roles(base) if base else base
        granting: dict[Privilege, set[Role]] = {}
        for role in assignable:
            for privilege in permis.privileges_of((role,)):
                granting.setdefault(privilege, set()).add(role)
        return cls(
            assignable,
            {privilege: frozenset(roles) for privilege, roles in granting.items()},
        )


def _permis_findings(
    policy_set: MSoDPolicySet, reach: _Reach
) -> list[VerifyFinding]:
    findings: list[VerifyFinding] = []
    assignable, grantable = reach.assignable, reach.granting
    for policy in policy_set:
        pid = policy.policy_id
        for mmer in policy.mmers:
            dead = [role for role in mmer.roles if role not in assignable]
            reachable = len(mmer.roles) - len(dead)
            if reachable < mmer.forbidden_cardinality:
                findings.append(
                    VerifyFinding(
                        MMER_UNSATISFIABLE,
                        SEVERITY_ERROR,
                        pid,
                        f"{mmer!r} can never fire: only {reachable} of its "
                        "roles are assignable (directly or via a senior "
                        f"role), but {mmer.forbidden_cardinality} are "
                        "needed for a conflict",
                    )
                )
            elif dead:
                findings.append(
                    VerifyFinding(
                        MMER_DEAD_ROLES,
                        SEVERITY_WARNING,
                        pid,
                        "MMER names roles no SOA may assign (even via the "
                        f"hierarchy): {sorted(map(str, dead))}",
                    )
                )
        for mmep in policy.mmeps:
            counts = Counter(mmep.privileges)
            dead = sorted(
                str(priv) for priv in counts if priv not in grantable
            )
            reachable = sum(
                count
                for priv, count in counts.items()
                if priv in grantable
            )
            if reachable < mmep.forbidden_cardinality:
                findings.append(
                    VerifyFinding(
                        MMEP_UNSATISFIABLE,
                        SEVERITY_ERROR,
                        pid,
                        f"{mmep!r} can never fire: at most {reachable} "
                        "exercises of its privileges are grantable, but "
                        f"{mmep.forbidden_cardinality} are needed for a "
                        "conflict",
                    )
                )
            elif dead:
                findings.append(
                    VerifyFinding(
                        MMEP_DEAD_PRIVILEGES,
                        SEVERITY_WARNING,
                        pid,
                        f"MMEP names privileges granted to no role: {dead}",
                    )
                )
        if policy.first_step is not None:
            first = Privilege(
                policy.first_step.operation, policy.first_step.target
            )
            if first not in grantable:
                findings.append(
                    VerifyFinding(
                        FIRST_STEP_UNGRANTABLE,
                        SEVERITY_ERROR,
                        pid,
                        f"first step {policy.first_step} is granted to no "
                        "role: enforcement for this context can never start",
                    )
                )
        if policy.last_step is not None:
            last = Privilege(
                policy.last_step.operation, policy.last_step.target
            )
            if last not in grantable:
                findings.append(
                    VerifyFinding(
                        LAST_STEP_UNGRANTABLE,
                        SEVERITY_ERROR,
                        pid,
                        f"last step {policy.last_step} is granted to no "
                        "role: the business context can never terminate",
                    )
                )
    return findings


def _rbac_layer_findings(
    permis: "PermisPolicy", reach: _Reach
) -> list[VerifyFinding]:
    findings: list[VerifyFinding] = []
    if not permis.assignment_rules:
        return findings
    for rule in permis.access_rules:
        if rule.role not in reach.assignable:
            findings.append(
                VerifyFinding(
                    RBAC_UNREACHABLE_RULE,
                    SEVERITY_WARNING,
                    "rbac",
                    f"target-access rule for {rule.role} is unreachable: "
                    "no SOA may assign the role (directly or via any "
                    "transitive senior)",
                )
            )
    return findings
