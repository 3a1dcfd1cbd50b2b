"""Versioned policy epochs: content digests, swap reports, compiled matchers.

The MSoD engine can hot-swap its policy set without restarting
(:meth:`~repro.core.engine.MSoDEngine.swap_policy`).  Every active policy
set is identified by a **policy version**: a monotonically increasing
``epoch`` (starting at :data:`INITIAL_EPOCH`) plus a content ``digest``
over a canonical serialisation of the set.  The digest makes reloads
idempotent — re-applying a byte-different file with identical semantics
is detected as a no-op and leaves the compiled matcher warm —
while the epoch totally orders the versions a long-lived process has
enforced.

Decisions, traces and audit-trail records are stamped with the epoch and
digest they were evaluated under.  The stamp is provenance for operators
and tools; replay never resolves it back to a set: recovery filters by
the set it is given and a standby applies what the trail recorded (see
:func:`repro.audit.recovery.recover_retained_adi`).

:class:`CompiledPolicyMatcher` is the per-epoch form of steps 1-2:
the policy set's component-keyed dispatch (built **once** with the
set, compiled matchers prebound — not lazily on the hot path), every
policy compiled into a :class:`CompiledPolicy` trigger index, and a
bounded plan memo keyed by instance, by shape and by ``!`` binding.
It is stamped with the epoch and digest it was built from and rides in
the engine's one active tuple, so a hot reload atomically replaces
compiled state together with the policy set itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.constraints import MultiSessionConstraint, Privilege
from repro.core.context import ContextName
from repro.core.decision import DecisionRequest
from repro.core.policy import MSoDPolicy, MSoDPolicySet
from repro.errors import PolicyError

#: The epoch of the policy set an engine was constructed with.
INITIAL_EPOCH = 1


def _canonical_policy(policy: MSoDPolicy) -> dict:
    """A JSON-able canonical form of one policy.

    Constraint members are sorted (MMER roles and MMEP privileges are
    set/multiset-valued), but policy order is preserved by the caller:
    step-1 matching reports policies in set order.

    Extension-kind constraints are emitted under a ``constraints`` key
    **only when present**, through each kind's ``canonical()`` form:
    a policy set without them serialises exactly as it did before the
    pluggable-kind redesign, so existing digests are stable across the
    upgrade.
    """
    canonical = {
        "id": policy.policy_id,
        "context": str(policy.business_context),
        "mmers": [
            [sorted(str(role) for role in mmer.roles), mmer.forbidden_cardinality]
            for mmer in policy.mmers
        ],
        "mmeps": [
            [
                sorted(str(privilege) for privilege in mmep.privileges),
                mmep.forbidden_cardinality,
            ]
            for mmep in policy.mmeps
        ],
        "first": str(policy.first_step) if policy.first_step else None,
        "last": str(policy.last_step) if policy.last_step else None,
    }
    if policy.extra_constraints:
        canonical["constraints"] = [
            constraint.canonical() for constraint in policy.extra_constraints
        ]
    return canonical


def policy_set_digest(policy_set: MSoDPolicySet) -> str:
    """SHA-256 content digest of a policy set's canonical serialisation.

    Two sets digest equal iff they enforce the same policies in the same
    order — whitespace, comments and attribute ordering in the source
    XML do not affect it.
    """
    canonical = json.dumps(
        [_canonical_policy(policy) for policy in policy_set],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def trigger_keys(request: DecisionRequest) -> tuple:
    """What a request is looked up by in a :class:`CompiledPolicy`:
    its ``(operation, target)``, then its roles."""
    return ((request.operation, request.target), *request.roles)


class CompiledPolicy:
    """One policy of an epoch, as the engine's constraint loop runs it.

    Each constraint is filed under the roles and privileges it declares
    (:meth:`~repro.core.constraints.MultiSessionConstraint.triggers`);
    a kind that declares nothing is filed as always evaluated.  Built
    once per epoch and shared by every instance plan matching the policy.
    """

    __slots__ = (
        "policy_id", "first_step", "last_step", "constraints", "_always", "_by_trigger"
    )

    def __init__(self, policy: MSoDPolicy) -> None:
        self.policy_id = policy.policy_id
        self.constraints = policy.constraints
        self.first_step = policy.first_step
        self.last_step = policy.last_step
        always: list[tuple[int, MultiSessionConstraint]] = []
        by_trigger: dict[object, list[tuple[int, MultiSessionConstraint]]] = {}
        for entry in enumerate(policy.constraints):
            triggers = entry[1].triggers()
            if triggers is None:
                always.append(entry)
            for trigger in triggers or ():
                if isinstance(trigger, Privilege):
                    trigger = (trigger.operation, trigger.target)
                filed = by_trigger.setdefault(trigger, [])
                if entry not in filed:
                    filed.append(entry)
        self._always = tuple(always)
        self._by_trigger = {key: tuple(filed) for key, filed in by_trigger.items()}

    def fired(self, keys: tuple) -> tuple[tuple[int, MultiSessionConstraint], ...]:
        """``(position, constraint)`` of each constraint a request with
        these :func:`trigger_keys` can fire, in declaration order."""
        by_trigger = self._by_trigger
        fired = self._always
        for key in keys:
            hit = by_trigger.get(key)
            if hit is not None:
                fired = tuple(sorted(dict(fired + hit).items())) if fired else hit
        return fired


class CompiledPolicyMatcher:
    """Steps 1-2 for one policy epoch: dispatch, plan memo, stamp.

    The dispatch itself — each policy filed under the first concrete
    component of its business context, candidates verified by prebound
    compiled matchers — lives once, in
    :meth:`MSoDPolicySet.matching <repro.core.policy.MSoDPolicySet.matching>`,
    and is built with the set.  This object adds what belongs to an
    epoch rather than to a set:

    * every policy compiled once into a :class:`CompiledPolicy`;
    * the plan memo, in three levels.  Per *instance*: one dict hit per
      decision for a stream over a few live business contexts.  Per
      *shape* — the instance's component types plus its values at the
      positions some policy of the epoch names concretely, which is all
      a compiled matcher reads — the dispatch result, so a
      never-seen instance of a known shape costs no dispatch.  Per
      *binding* within a shape — its values at the matched policies'
      ``!`` positions, which is all ``instantiate`` copies — the
      effective contexts, so it costs no ``!`` binding either unless
      that binding is new, and every instance of one binding shares
      the same effective-context objects.  The three levels reset
      together when the instance memo is full, so each stays bounded
      by ``memo_limit``.  Their benign races (a lost insert, a
      concurrent reset) only cost a recomputation — safe for the
      multi-threaded embedders the engine supports;
    * the ``epoch``/``digest`` stamp it was built from.  The engine
      swaps it atomically with the policy set inside one tuple
      assignment, which is what keeps a hot reload's replacement of
      compiled state atomic.
    """

    __slots__ = (
        "epoch",
        "digest",
        "_dispatch",
        "_compiled",
        "_named",
        "_memo",
        "_shapes",
        "_memo_limit",
        "_kind_counts",
    )

    def __init__(
        self,
        policy_set: MSoDPolicySet,
        epoch: int,
        digest: str,
        memo_limit: int = 4096,
    ) -> None:
        self.epoch = epoch
        self.digest = digest
        self._dispatch = policy_set.matching
        self._compiled = {policy: CompiledPolicy(policy) for policy in policy_set}
        # Every position some policy context names a concrete value at.
        self._named = tuple(
            sorted(
                {
                    position
                    for policy in policy_set
                    for position, _ in policy.business_context.matcher.concrete
                }
            )
        )
        self._memo_limit = memo_limit
        self._memo: dict[ContextName, tuple] = {}
        # shape -> (policies, ids, compiled, '!' positions, binding -> contexts)
        self._shapes: dict[tuple, tuple] = {}
        # Per-kind constraint census, precomputed at swap time so the
        # serving layer's `policy status` answers without a set scan.
        kind_counts: dict[str, int] = {}
        for policy in policy_set:
            for constraint in policy.constraints:
                kind_counts[constraint.kind] = (
                    kind_counts.get(constraint.kind, 0) + 1
                )
        self._kind_counts = kind_counts

    def plan(self, instance: ContextName) -> tuple:
        """``(policies, policy ids, compiled policies, effective contexts)``
        of ``instance``: the first three shared by every instance of its
        shape, the contexts by every instance of its binding."""
        memo = self._memo
        plan = memo.get(instance)
        if plan is None:
            shapes = self._shapes
            if len(memo) >= self._memo_limit:
                memo.clear()
                shapes.clear()
            key = (instance.types, instance.values_at(self._named))
            shape = shapes.get(key)
            if shape is None:
                shape = shapes[key] = self._shape(instance)
            policies, ids, compiled, bound, bindings = shape
            binding = instance.values_at(bound)
            contexts = bindings.get(binding)
            if contexts is None:
                contexts = bindings[binding] = tuple(
                    [p.business_context.instantiate(instance) for p in policies]
                )
            plan = memo[instance] = (policies, ids, compiled, contexts)
        return plan

    def _shape(self, instance: ContextName) -> tuple:
        """Dispatch ``instance`` and list the ``!`` positions its matches bind."""
        policies = self._dispatch(instance)
        bound = {
            position
            for policy in policies
            for position in policy.business_context.matcher.per_instance
        }
        return (
            policies,
            tuple([policy.policy_id for policy in policies]),
            tuple([self._compiled[policy] for policy in policies]),
            tuple(sorted(bound)),
            {},
        )

    def matching(self, instance: ContextName) -> tuple[MSoDPolicy, ...]:
        """All policies applying to ``instance``, in set order.

        :meth:`MSoDPolicySet.matching` under the epoch this matcher was
        built for, answered from the plan memo.
        """
        return self.plan(instance)[0]

    def memo_sizes(self) -> tuple[int, int, int]:
        """Entries held per memo level: ``(instances, shapes, bindings)``."""
        shapes = list(self._shapes.values())
        return (
            len(self._memo),
            len(shapes),
            sum(len(shape[-1]) for shape in shapes),
        )

    @property
    def constraint_kind_counts(self) -> dict[str, int]:
        """Constraint count per registry kind across the compiled set."""
        return dict(self._kind_counts)


@dataclass(frozen=True, slots=True)
class PolicyVersion:
    """One enforced policy version: epoch, content digest, set size."""

    epoch: int
    digest: str
    policies: int

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "digest": self.digest,
            "policies": self.policies,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyVersion":
        epoch = data.get("epoch")
        digest = data.get("digest")
        policies = data.get("policies")
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
            raise PolicyError(f"policy version epoch must be an int, got {epoch!r}")
        if not isinstance(digest, str):
            raise PolicyError("policy version digest must be a string")
        if not isinstance(policies, int) or isinstance(policies, bool):
            raise PolicyError("policy version size must be an int")
        return cls(epoch=epoch, digest=digest, policies=policies)

    def __str__(self) -> str:
        return f"epoch {self.epoch} ({self.digest[:12]}, {self.policies} policies)"


@dataclass(frozen=True, slots=True)
class PolicySwapReport:
    """The outcome of one :meth:`MSoDEngine.swap_policy` call.

    ``changed`` is ``False`` for a digest no-op: the offered set is
    semantically identical to the active one, so the epoch did not
    advance.  ``findings`` carries the static analyzer's output from
    the reload's admission step (``admit_reload``), which the caller
    attaches; the engine itself analyses nothing.
    """

    version: PolicyVersion
    previous: PolicyVersion
    changed: bool
    findings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "version": self.version.to_dict(),
            "previous": self.previous.to_dict(),
            "changed": self.changed,
            "findings": list(self.findings),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolicySwapReport":
        version = data.get("version")
        previous = data.get("previous")
        changed = data.get("changed")
        findings = data.get("findings", [])
        if not isinstance(version, dict) or not isinstance(previous, dict):
            raise PolicyError("swap report versions must be mappings")
        if not isinstance(changed, bool):
            raise PolicyError("swap report 'changed' must be a bool")
        if not isinstance(findings, list) or not all(
            isinstance(item, str) for item in findings
        ):
            raise PolicyError("swap report findings must be a list of strings")
        return cls(
            version=PolicyVersion.from_dict(version),
            previous=PolicyVersion.from_dict(previous),
            changed=changed,
            findings=tuple(findings),
        )
