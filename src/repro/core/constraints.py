"""Multi-session constraint kinds (paper Sections 2.3-2.4 + extensions).

A *multi-session mutually exclusive roles* (MMER) constraint
``MMER({r1..rn}, m, BC)`` forbids a user from activating ``m`` or more of
the ``n`` listed roles within the same business context [instance].

A *multi-session mutually exclusive privileges* (MMEP) constraint
``MMEP({p1..pn}, m, BC)`` forbids a user from exercising ``m`` or more of
the ``n`` listed privileges within the same business context [instance].
The same privilege may be listed several times: listing a privilege ``k``
times with forbidden cardinality ``k`` caps the number of times a single
user may exercise it at ``k - 1`` (paper Section 2.4, the
``MMEP({p1, p1}, 2, ...)`` example).

Beyond the paper's two families, constraints are pluggable: every kind
subclasses :class:`MultiSessionConstraint` and registers itself in
:data:`CONSTRAINT_KINDS`, and the engine runs one generic evaluation
loop instead of switch-casing on MMER/MMEP.

Every shipped kind has the same *shape*: a member list (roles or
privileges), plus optionally a label and a forbidden cardinality ``m``.
A kind declares it once (``fields``, ``member_type``) and gets equality,
hashing, ``repr``, ``canonical()``, the XML element of its class name,
the ``repr`` parser and the verifier's duplicate and redundancy checks
from it; the DSL needs one phrase row in ``repro.xmlpolicy.dsl``.  Two
extension kinds ship here:

* :class:`MMCD` — multi-session *combination of duty* (binding-of-duty,
  after Hosseini's combination-of-duty extension for RBAC): once a user
  performs one step of a bound privilege set within a business context
  instance, the remaining steps are reserved for that same user; anyone
  else attempting one is denied.
* :class:`AdminBoundary` — a self-protecting administrative boundary
  (the enforcement-point taxonomy of the finance-prototype RBAC
  design): policy-mutation / data-export privileges are denied to a
  principal whose retained ADI shows operational decisions in the same
  scope, an SoD rule over the policy store itself.

The business context itself lives on the enclosing :class:`~repro.core.
policy.MSoDPolicy`; the constraint classes here carry the role/privilege
sets and the forbidden cardinality, mirroring the XML of Appendix A.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterable, NamedTuple, Protocol, Sequence

from repro.errors import ConstraintError

if TYPE_CHECKING:  # imported lazily to avoid cycles with decision/store
    from repro.core.context import ContextName
    from repro.core.decision import DecisionRequest


class TypedTuple(tuple):
    """The base of the decision-path values: a tuple (built and hashed
    in C) that equals only values of its own type, so ``Role(a, b)``,
    ``Privilege(a, b)`` and ``(a, b)`` stay three different values."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other


class _RoleFields(NamedTuple):
    role_type: str
    value: str


class Role(TypedTuple, _RoleFields):
    """A role reference: an attribute ``type`` and ``value``.

    Matches the ``<Role type=... value=.../>`` element of the Appendix A
    schema, e.g. ``Role(type='employee', value='Teller')``.
    """

    __slots__ = ()

    def __new__(cls, role_type: str, value: str) -> "Role":
        if not role_type:
            raise ConstraintError("role type must be non-empty")
        if not value:
            raise ConstraintError("role value must be non-empty")
        return tuple.__new__(cls, (role_type, value))

    def __str__(self) -> str:
        return f"{self.role_type}:{self.value}"


class _PrivilegeFields(NamedTuple):
    operation: str
    target: str


class Privilege(TypedTuple, _PrivilegeFields):
    """An operation on a target (the paper's operation/object pair).

    Matches the ``<Privilege operation=... target=.../>`` element of the
    Appendix A schema (rendered ``<Operation value=... target=.../>`` in
    the Section 3 examples).
    """

    __slots__ = ()

    def __new__(cls, operation: str, target: str) -> "Privilege":
        if not operation:
            raise ConstraintError("privilege operation must be non-empty")
        if not target:
            raise ConstraintError("privilege target must be non-empty")
        return tuple.__new__(cls, (operation, target))

    def __str__(self) -> str:
        return f"{self.operation}@{self.target}"


class ADIViews(Protocol):
    """The retained-ADI reads a constraint's ``evaluate`` may make.

    Every retained-ADI store has these four methods, and the engine
    passes the store itself.  Evaluation only reads: a decision's
    mutation is applied after every constraint has run (the Section 4.2
    note), so the views are stable for the whole check.
    """

    def has_context(self, effective_context: "ContextName") -> bool: ...

    def user_roles(
        self, user_id: str, effective_context: "ContextName"
    ) -> frozenset[Role]: ...

    def user_privilege_exercises(
        self, user_id: str, effective_context: "ContextName"
    ) -> list[Privilege]: ...

    def users_with_privileges(
        self, privileges: Iterable[Privilege], effective_context: "ContextName"
    ) -> frozenset[str]: ...


def _check_cardinality(size: int, cardinality: int, kind: str) -> None:
    if size < 2:
        raise ConstraintError(f"{kind} needs at least 2 entries, got {size}")
    if not 1 < cardinality <= size:
        raise ConstraintError(
            f"{kind} forbidden cardinality must satisfy 1 < m <= n "
            f"(got m={cardinality}, n={size})"
        )


@dataclass(frozen=True, slots=True)
class ConstraintVerdict:
    """The outcome of evaluating one constraint against one request.

    ``ok=False`` turns the interim grant into a deny with ``detail`` as
    the violation message.  ``ok=True`` lets the request through and
    tells the engine which retained-ADI records to buffer: one
    role-record per entry of ``grant_roles`` (the MMER step 5.iv idiom)
    or one base exercise record when ``grant_exercise`` is set (steps
    6.iv / the extension kinds).  A constraint that does not match the
    request returns the plain OK verdict and records nothing.
    """

    ok: bool
    detail: str = ""
    grant_roles: tuple[Role, ...] = ()
    grant_exercise: bool = False


#: Shared verdicts for the hot path: most constraints either skip the
#: request entirely or grant-and-record one exercise.
CONSTRAINT_OK = ConstraintVerdict(True)
CONSTRAINT_OK_EXERCISE = ConstraintVerdict(True, grant_exercise=True)


class MultiSessionConstraint:
    """Base protocol every multi-session constraint kind implements.

    A kind is a class with a unique ``kind`` string, a request
    pre-filter (:meth:`matches_request`) and the roles/privileges that
    can trip it (:meth:`triggers`), the step evaluation
    (:meth:`evaluate`) and a digest-stable :meth:`canonical` form.
    Whenever :meth:`matches_request` is False, :meth:`evaluate` must
    return :data:`CONSTRAINT_OK` and record nothing.
    Registering the class in :data:`CONSTRAINT_KINDS` (via
    :func:`register_constraint_kind`) lets the XML/DSL layers, the
    verifier and the wire protocol discover it without the engine ever
    switch-casing on concrete families.

    A kind with a shape declares ``fields`` (its constructor's
    arguments, in order, drawn from ``label``, ``members`` and ``m``)
    and ``member_type``, and stores them in ``_label``, ``_members`` and
    ``_m``; equality, hashing, ``repr`` and :meth:`canonical` follow.
    A kind that declares no ``fields`` writes those itself and has no
    XML or ``repr`` codec.
    """

    __slots__ = ()

    #: Unique registry key; also the ``constraint_kind`` stamped on
    #: violations and wire decision payloads.
    kind: ClassVar[str] = ""
    #: The constructor's arguments in order: ``label``, ``members``, ``m``.
    fields: ClassVar[tuple[str, ...]] = ()
    #: What ``members`` holds: :class:`Role` or :class:`Privilege`.
    member_type: ClassVar[type] = Privilege

    # Defaults for the parts of the shape a kind does not declare.
    _label: str | None = None
    _members: tuple = ()
    _m: int | None = None

    @property
    def label(self) -> str | None:
        """The kind's label (AdminBoundary's boundary), if it has one."""
        return self._label

    @property
    def members(self) -> tuple:
        """The roles or privileges, in declaration order (duplicates kept)."""
        return self._members

    @property
    def m(self) -> int | None:
        """The forbidden cardinality, if the kind has one."""
        return self._m

    def _identity(self) -> tuple:
        return (self._label, frozenset(Counter(self._members).items()), self._m)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (
            bool(self.fields) and self._identity() == other._identity()
        )

    def __hash__(self) -> int:
        if not self.fields:
            return object.__hash__(self)
        return hash(self._identity())

    def __repr__(self) -> str:
        shown = {
            "label": repr(self._label),
            "members": "{" + ", ".join(str(x) for x in self._members) + "}",
            "m": f"m={self._m}",
        }
        parts = ", ".join(shown[field] for field in self.fields)
        return f"{type(self).__name__}({parts})"

    def matches_request(self, request: "DecisionRequest") -> bool:
        """True when this constraint could constrain the request."""
        raise NotImplementedError

    def triggers(self) -> "Iterable[Role | Privilege] | None":
        """The roles and privileges that can make this constraint fire.

        They must cover :meth:`matches_request`: the engine's per-epoch
        plan skips the constraint for a request with none of them.
        ``None`` (the default) declares nothing: always evaluated.
        """
        return None

    def evaluate(
        self,
        request: "DecisionRequest",
        effective_context: "ContextName",
        views: ADIViews,
    ) -> ConstraintVerdict:
        """Evaluate against the user's retained history for the context."""
        raise NotImplementedError

    def canonical(self) -> dict:
        """A JSON-able canonical form (policy-set digest input)."""
        if not self.fields:
            raise NotImplementedError
        canonical: dict = {"kind": self.kind}
        if self._label is not None:
            canonical["boundary"] = self._label
        key = "roles" if self.member_type is Role else "privileges"
        canonical[key] = sorted(str(member) for member in self._members)
        if self._m is not None:
            canonical["m"] = self._m
        return canonical


#: Registry of constraint kinds by their ``kind`` string.
CONSTRAINT_KINDS: dict[str, type[MultiSessionConstraint]] = {}


def register_constraint_kind(
    cls: type[MultiSessionConstraint],
) -> type[MultiSessionConstraint]:
    """Class decorator: register a constraint kind by its ``kind`` key."""
    if not cls.kind:
        raise ConstraintError(
            f"constraint class {cls.__name__} must define a non-empty kind"
        )
    existing = CONSTRAINT_KINDS.get(cls.kind)
    if existing is not None and existing is not cls:
        raise ConstraintError(
            f"constraint kind {cls.kind!r} is already registered "
            f"by {existing.__name__}"
        )
    CONSTRAINT_KINDS[cls.kind] = cls
    return cls


@register_constraint_kind
class MMER(MultiSessionConstraint):
    """Multi-session mutually exclusive roles: m-out-of-n forbidden.

    Roles in an MMER set are distinct (a duplicate role would make the
    constraint unsatisfiable in a useful way — role activation history is
    a set, unlike privilege-exercise history which is a sequence of
    events; the paper's repetition idiom exists only for MMEP).
    """

    __slots__ = ("_members", "_m", "_member")

    kind = "MMER"
    fields = ("members", "m")
    member_type = Role
    roles = MultiSessionConstraint.members
    forbidden_cardinality = MultiSessionConstraint.m

    def __init__(self, roles: Iterable[Role], forbidden_cardinality: int) -> None:
        role_tuple = tuple(roles)
        member = frozenset(role_tuple)
        if len(member) != len(role_tuple):
            raise ConstraintError("MMER role set must not contain duplicates")
        _check_cardinality(len(role_tuple), forbidden_cardinality, "MMER")
        self._members = role_tuple
        self._member = member
        self._m = forbidden_cardinality

    def matches_request(self, request: "DecisionRequest") -> bool:
        return not self._member.isdisjoint(request.roles)

    def triggers(self) -> tuple[Role, ...]:
        return self._members

    def evaluate(
        self,
        request: "DecisionRequest",
        effective_context: "ContextName",
        views: ADIViews,
    ) -> ConstraintVerdict:
        # 5.i: match activated role(s) against MMER role(s).
        matched = self._member.intersection(request.roles)
        if not matched:
            # 5.ii: no match, next constraint.
            return CONSTRAINT_OK
        # 5.iii: count the remaining (unmatched) MMER roles present in
        # the user's history for this policy context.
        historic = views.user_roles(request.user_id, effective_context)
        count = len((self._member - matched) & historic)
        # 5.iv: grant-and-record or deny.
        if count < self._m - len(matched):
            return ConstraintVerdict(
                True, grant_roles=tuple(sorted(matched, key=str))
            )
        return ConstraintVerdict(
            False,
            detail=(
                f"user {request.user_id!r} would hold {count + len(matched)} of "
                f"{len(self._members)} mutually exclusive roles (forbidden "
                f"cardinality {self._m}) in context "
                f"[{effective_context}]"
            ),
        )


@register_constraint_kind
class MMEP(MultiSessionConstraint):
    """Multi-session mutually exclusive privileges: m-out-of-n forbidden.

    Unlike MMER, the privilege list is a *multiset*: the same privilege
    listed ``k`` times permits at most ``k - 1`` exercises per user per
    business context [instance] when the forbidden cardinality is ``k``.
    """

    __slots__ = ("_members", "_m")

    kind = "MMEP"
    fields = ("members", "m")
    privileges = MultiSessionConstraint.members
    forbidden_cardinality = MultiSessionConstraint.m

    def __init__(
        self, privileges: Iterable[Privilege], forbidden_cardinality: int
    ) -> None:
        priv_tuple = tuple(privileges)
        _check_cardinality(len(priv_tuple), forbidden_cardinality, "MMEP")
        self._members = priv_tuple
        self._m = forbidden_cardinality

    def matches_request(self, request: "DecisionRequest") -> bool:
        return request.privilege in self._members

    def triggers(self) -> tuple[Privilege, ...]:
        return self._members

    def evaluate(
        self,
        request: "DecisionRequest",
        effective_context: "ContextName",
        views: ADIViews,
    ) -> ConstraintVerdict:
        # 6.i: match requested operation and target against MMEP
        # privilege(s).
        if request.privilege not in self._members:
            # 6.ii: no match, next constraint.
            return CONSTRAINT_OK
        # 6.iii: ignoring one occurrence of the matched privilege (the
        # duplicate idiom's at-most-once), count remaining MMEP entries
        # matching the user's exercise history.
        remaining = Counter(self._members)
        remaining[request.privilege] -= 1
        history = views.user_privilege_exercises(
            request.user_id, effective_context
        )
        count = count_history_matches(remaining, history)
        if count < self._m - 1:
            return CONSTRAINT_OK_EXERCISE
        return ConstraintVerdict(
            False,
            detail=(
                f"user {request.user_id!r} would exercise {count + 1} of "
                f"{len(self._members)} mutually exclusive privileges "
                f"(forbidden cardinality {self._m}) in "
                f"context [{effective_context}]"
            ),
        )


def count_history_matches(remaining: Counter, history: Sequence[Privilege]) -> int:
    """Pair remaining MMEP entries with distinct historical exercises.

    Each entry of the ``remaining`` multiset is matched against a distinct
    record from ``history`` (step 6.iii "count number of remaining
    operation and targets in the MMEP that match an operation and target
    from retained ADI").  A privilege listed twice in ``remaining`` needs
    two historical records to contribute a count of two; conversely many
    historical records for a privilege listed once contribute one.
    """
    history_counts = Counter(history)
    return sum(
        min(multiplicity, history_counts[privilege])
        for privilege, multiplicity in remaining.items()
    )


@register_constraint_kind
class MMCD(MultiSessionConstraint):
    """Multi-session combination of duty: bound steps bind to one user.

    The dual of MMEP (binding-of-duty): ``MMCD({p1..pn}, BC)`` requires
    that every exercised step of the bound privilege set within one
    business context [instance] is performed by the *same* user.  The
    first user to perform any bound step becomes the owner of the set
    for that instance; a different user attempting a bound step is
    denied.  Real scenario: the auditor who reviews Q1 of a filing must
    review Q2-Q4 of the same filing too.

    Bound privileges are distinct (repetition carries no meaning here —
    ownership, not cardinality, is what is enforced) and there is no
    forbidden cardinality: the bound set binds as a whole.
    """

    __slots__ = ("_members",)

    kind = "MMCD"
    fields = ("members",)
    privileges = MultiSessionConstraint.members

    def __init__(self, privileges: Iterable[Privilege]) -> None:
        priv_tuple = tuple(privileges)
        if len(set(priv_tuple)) != len(priv_tuple):
            raise ConstraintError("MMCD bound set must not contain duplicates")
        if len(priv_tuple) < 2:
            raise ConstraintError(
                f"MMCD needs at least 2 bound privileges, got {len(priv_tuple)}"
            )
        self._members = priv_tuple

    def matches_request(self, request: "DecisionRequest") -> bool:
        return request.privilege in self._members

    def triggers(self) -> tuple[Privilege, ...]:
        return self._members

    def evaluate(
        self,
        request: "DecisionRequest",
        effective_context: "ContextName",
        views: ADIViews,
    ) -> ConstraintVerdict:
        if request.privilege not in self._members:
            return CONSTRAINT_OK
        owners = views.users_with_privileges(
            self._members, effective_context
        )
        others = [owner for owner in owners if owner != request.user_id]
        if not others:
            return CONSTRAINT_OK_EXERCISE
        return ConstraintVerdict(
            False,
            detail=(
                f"user {request.user_id!r} attempted bound duty step "
                f"{request.privilege} in context [{effective_context}], but "
                f"the combination-of-duty set is already bound to user(s) "
                f"{', '.join(repr(owner) for owner in sorted(others))}"
            ),
        )


#: Canonical target URI for the PDP's own policy store — the resource
#: guarded by self-protecting admin boundaries (mirrors the Section 4.3
#: management port's ``pdp://management/retainedADI``).
POLICY_STORE_TARGET = "pdp://management/policyStore"

#: The two administrative privileges over the policy store.
POLICY_RELOAD_PRIVILEGE = Privilege("policy-reload", POLICY_STORE_TARGET)
POLICY_EXPORT_PRIVILEGE = Privilege("policy-export", POLICY_STORE_TARGET)


@register_constraint_kind
class AdminBoundary(MultiSessionConstraint):
    """A self-protecting administrative boundary over privileged targets.

    ``AdminBoundary(label, {a1..an})`` guards the listed administrative
    privileges (policy mutation, data export) with a separation-of-duty
    rule over the PDP's own state: a principal whose retained ADI shows
    *operational* (non-administrative) decisions within the policy's
    business context may not exercise a guarded privilege.  Concretely:
    ``policy reload`` is denied to a principal who decided under the
    outgoing policy epoch — the one whose history is still retained.
    """

    __slots__ = ("_label", "_members", "_admin_set")

    kind = "ADMIN_BOUNDARY"
    fields = ("label", "members")
    boundary = MultiSessionConstraint.label
    privileges = MultiSessionConstraint.members

    def __init__(self, boundary: str, privileges: Iterable[Privilege]) -> None:
        if not boundary:
            raise ConstraintError("admin boundary label must be non-empty")
        priv_tuple = tuple(privileges)
        if not priv_tuple:
            raise ConstraintError(
                "admin boundary needs at least 1 guarded privilege"
            )
        if len(set(priv_tuple)) != len(priv_tuple):
            raise ConstraintError(
                "admin boundary guarded set must not contain duplicates"
            )
        self._label = boundary
        self._members = priv_tuple
        self._admin_set = frozenset(priv_tuple)

    def matches_request(self, request: "DecisionRequest") -> bool:
        return request.privilege in self._admin_set

    def triggers(self) -> tuple[Privilege, ...]:
        return self._members

    def evaluate(
        self,
        request: "DecisionRequest",
        effective_context: "ContextName",
        views: ADIViews,
    ) -> ConstraintVerdict:
        if request.privilege not in self._admin_set:
            return CONSTRAINT_OK
        history = views.user_privilege_exercises(
            request.user_id, effective_context
        )
        operational = set(history) - self._admin_set
        if not operational:
            return CONSTRAINT_OK_EXERCISE
        return ConstraintVerdict(
            False,
            detail=(
                f"user {request.user_id!r} crosses admin boundary "
                f"{self._label!r}: {len(operational)} operational "
                f"privilege(s) retained in context [{effective_context}] "
                f"(e.g. {sorted(str(p) for p in operational)[0]}) forbid "
                f"{request.privilege}"
            ),
        )


def policy_store_boundary() -> AdminBoundary:
    """The standard boundary guarding the PDP's own policy store."""
    return AdminBoundary(
        "policy-store", (POLICY_RELOAD_PRIVILEGE, POLICY_EXPORT_PRIVILEGE)
    )
