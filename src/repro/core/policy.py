"""MSoD policy model (paper Section 3 and Appendix A).

An :class:`MSoDPolicy` scopes a set of MMER/MMEP constraints to a business
context, optionally bracketing enforcement between a *first step* and a
*last step* (operations on targets).  An :class:`MSoDPolicySet` is the
ordered collection of policies read by the PDP at initialisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.constraints import (
    MMEP,
    MMER,
    MultiSessionConstraint,
    Privilege,
    Role,
)
from repro.core.context import ContextName
from repro.errors import PolicyError


@dataclass(frozen=True, slots=True)
class Step:
    """A first/last step: an operation on a target URI.

    Matches ``<FirstStep operation=... targetURI=.../>`` (Appendix A).
    """

    operation: str
    target: str

    def __post_init__(self) -> None:
        if not self.operation:
            raise PolicyError("step operation must be non-empty")
        if not self.target:
            raise PolicyError("step target must be non-empty")

    def matches(self, operation: str, target: str) -> bool:
        """True when the requested operation/target is exactly this step."""
        return self.operation == operation and self.target == target

    @property
    def privilege(self) -> Privilege:
        """This step viewed as a privilege (operation on target)."""
        return Privilege(self.operation, self.target)

    def __str__(self) -> str:
        return f"{self.operation}@{self.target}"


class MSoDPolicy:
    """One MSoD policy: a business context plus MMER/MMEP constraints.

    Parameters
    ----------
    business_context:
        The (possibly wildcarded) context the policy applies to.  All
        contexts equal or subordinate to it are in scope (paper
        Section 2.3).
    mmers, mmeps:
        The paper's two constraint families.  At least one constraint
        (of any kind) must be present on the policy.
    constraints:
        Additional constraints of any registered kind (MMCD,
        AdminBoundary, ...).  MMER/MMEP instances passed here are
        folded into the ``mmers``/``mmeps`` families; evaluation order
        is MMERs (step 5), MMEPs (step 6), then extension kinds in
        declaration order.
    first_step:
        Optional: enforcement (and history retention) for a context
        instance starts only when this operation/target is invoked.  When
        absent, enforcement starts with the first in-scope operation.
    last_step:
        Optional: when this operation/target is granted, the context
        instance terminates and its retained history is purged.  When
        absent, termination must be inferred from a containing context or
        performed through the management port (Section 4.3).
    policy_id:
        Optional identifier used in audit records and diagnostics.
    """

    __slots__ = (
        "_business_context",
        "_mmers",
        "_mmeps",
        "_extras",
        "_constraints",
        "_first_step",
        "_last_step",
        "_policy_id",
    )

    def __init__(
        self,
        business_context: ContextName,
        mmers: Iterable[MMER] = (),
        mmeps: Iterable[MMEP] = (),
        first_step: Step | None = None,
        last_step: Step | None = None,
        policy_id: str | None = None,
        constraints: Iterable[MultiSessionConstraint] = (),
    ) -> None:
        if not isinstance(business_context, ContextName):
            raise PolicyError("business_context must be a ContextName")
        mmer_list = list(mmers)
        mmep_list = list(mmeps)
        extra_list: list[MultiSessionConstraint] = []
        for constraint in constraints:
            if isinstance(constraint, MMER):
                mmer_list.append(constraint)
            elif isinstance(constraint, MMEP):
                mmep_list.append(constraint)
            elif isinstance(constraint, MultiSessionConstraint):
                extra_list.append(constraint)
            else:
                raise PolicyError(
                    "policy constraints must be MultiSessionConstraint "
                    f"instances, got {type(constraint).__name__}"
                )
        if not mmer_list and not mmep_list and not extra_list:
            raise PolicyError("an MSoD policy needs at least one MMER or MMEP")
        self._business_context = business_context
        self._mmers = tuple(mmer_list)
        self._mmeps = tuple(mmep_list)
        self._extras = tuple(extra_list)
        # Evaluation order: the published step order (5 then 6), then
        # extension kinds.  The engine's generic loop walks this tuple.
        self._constraints = self._mmers + self._mmeps + self._extras
        self._first_step = first_step
        self._last_step = last_step
        self._policy_id = policy_id or f"msod:{business_context or 'universal'}"

    # ------------------------------------------------------------------
    @property
    def business_context(self) -> ContextName:
        return self._business_context

    @property
    def mmers(self) -> tuple[MMER, ...]:
        return self._mmers

    @property
    def mmeps(self) -> tuple[MMEP, ...]:
        return self._mmeps

    @property
    def extra_constraints(self) -> tuple[MultiSessionConstraint, ...]:
        """Constraints of extension kinds (everything beyond MMER/MMEP)."""
        return self._extras

    @property
    def constraints(self) -> tuple[MultiSessionConstraint, ...]:
        """All constraints in evaluation order: MMERs, MMEPs, extras."""
        return self._constraints

    @property
    def first_step(self) -> Step | None:
        return self._first_step

    @property
    def last_step(self) -> Step | None:
        return self._last_step

    @property
    def policy_id(self) -> str:
        return self._policy_id

    # ------------------------------------------------------------------
    def applies_to(self, instance: ContextName) -> bool:
        """Step-1 match: instance equal or subordinate to policy context."""
        return instance.is_equal_or_subordinate_to(self._business_context)

    def constrained_roles(self) -> frozenset[Role]:
        """All roles mentioned by any MMER of this policy."""
        return frozenset(
            role for mmer in self._mmers for role in mmer.roles
        )

    def constrained_privileges(self) -> frozenset[Privilege]:
        """All privileges mentioned by any MMEP of this policy."""
        return frozenset(
            privilege for mmep in self._mmeps for privilege in mmep.privileges
        )

    def __repr__(self) -> str:
        extras = f", extras={len(self._extras)}" if self._extras else ""
        return (
            f"MSoDPolicy({self._policy_id!r}, context={str(self._business_context)!r},"
            f" mmers={len(self._mmers)}, mmeps={len(self._mmeps)}{extras})"
        )


class MSoDPolicySet:
    """The ordered set of MSoD policies enforced by a PDP.

    Step-1 dispatch is indexed by context *component* — the dual of the
    retained ADI's posting map.  Each policy is filed once, under the
    ``(position, value)`` of the first concrete component of its
    business context, or in a short list when it names none (the
    universal context, all-wildcard contexts).  An instance can only
    match a filed policy whose key is one of its own components, so
    :meth:`matching` looks up the instance's components, verifies the
    few candidates with their compiled matchers and reports them in set
    order — with many policies over disjoint business processes, the
    rest are skipped without a single comparison.
    """

    __slots__ = ("_policies", "_unkeyed", "_by_component")

    def __init__(self, policies: Iterable[MSoDPolicy] = ()) -> None:
        policy_tuple = tuple(policies)
        ids = [policy.policy_id for policy in policy_tuple]
        if len(set(ids)) != len(ids):
            raise PolicyError("duplicate policy ids in MSoDPolicySet")
        self._policies = policy_tuple
        # Entries are (set position, compiled match, policy): the
        # position restores set order across index keys ("all policies
        # apply and are selected" must report matches in set order).
        self._unkeyed: list[tuple] = []
        self._by_component: dict[tuple[int, str], list[tuple]] = {}
        for position, policy in enumerate(policy_tuple):
            matcher = policy.business_context.matcher
            filed = (
                self._by_component.setdefault(matcher.concrete[0], [])
                if matcher.concrete
                else self._unkeyed
            )
            filed.append((position, matcher.matches, policy))

    @property
    def policies(self) -> tuple[MSoDPolicy, ...]:
        return self._policies

    def __iter__(self) -> Iterator[MSoDPolicy]:
        return iter(self._policies)

    def __len__(self) -> int:
        return len(self._policies)

    def matching(self, instance: ContextName) -> tuple[MSoDPolicy, ...]:
        """All policies whose context the instance is equal/subordinate to.

        Step 1: "If there are multiple matches then all policies apply and
        are selected."
        """
        candidates = list(self._unkeyed)
        for key in instance.component_keys():
            candidates += self._by_component.get(key, ())
        found = sorted(  # positions are distinct: only they are compared
            (position, policy)
            for position, matches, policy in candidates
            if matches(instance)
        )
        return tuple(policy for _, policy in found)

    def get(self, policy_id: str) -> MSoDPolicy:
        for policy in self._policies:
            if policy.policy_id == policy_id:
                return policy
        raise PolicyError(f"no policy with id {policy_id!r}")

    def is_relevant(self, instance: ContextName) -> bool:
        """True when some policy applies to the given context instance."""
        return bool(self.matching(instance))

    def extended(self, policies: Sequence[MSoDPolicy]) -> "MSoDPolicySet":
        """A new policy set with ``policies`` appended."""
        return MSoDPolicySet(self._policies + tuple(policies))

    def __repr__(self) -> str:
        return f"MSoDPolicySet({list(self._policies)!r})"
