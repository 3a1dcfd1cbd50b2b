"""Hierarchically named business contexts (paper Section 2.2, Figure 2).

The scope of an MSoD policy is a *business context*: a node in a hierarchy
of business processes, named by an ordered sequence of ``type=value``
components.  The universal context (the whole organisation or VO) is the
root of the hierarchy and has the empty name.  A context is *subordinate*
to another when the latter's name is a proper prefix of the former's.

Policies name contexts with two wildcard values:

``*``
    matches every instance of the component and *aggregates* history across
    all of them — SSD semantics across all business-context instances.

``!``
    matches every instance of the component but is re-bound to the concrete
    instance value of each request before history is consulted — DSD
    semantics per business-context instance.

Concrete request contexts (the ``BusinessContext instance`` parameter
passed from the PEP to the PDP) never contain wildcards.

Example (paper Figure 2)::

    >>> policy = ContextName.parse("Branch=*, Period=!")
    >>> instance = ContextName.parse("Branch=York, Period=2006")
    >>> instance.is_equal_or_subordinate_to(policy)
    True
    >>> policy.instantiate(instance)
    ContextName.parse('Branch=*, Period=2006')
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from repro.errors import ContextNameError

#: Wildcard matching all instance values, aggregating history across them.
ALL_INSTANCES = "*"

#: Wildcard matching all instance values, scoping history per instance.
PER_INSTANCE = "!"

_WILDCARDS = frozenset({ALL_INSTANCES, PER_INSTANCE})

# ``type`` and concrete ``value`` tokens: anything except the separators
# and the two wildcard characters.  Whitespace around tokens is ignored.
_TOKEN = re.compile(r"^[^=,\s*!][^=,]*$")


@dataclass(frozen=True, slots=True)
class ContextComponent:
    """One ``type=value`` pair of a hierarchical context name."""

    ctx_type: str
    value: str

    def __post_init__(self) -> None:
        if not _TOKEN.match(self.ctx_type):
            raise ContextNameError(f"invalid context type: {self.ctx_type!r}")
        if self.value not in _WILDCARDS and not _TOKEN.match(self.value):
            raise ContextNameError(f"invalid context value: {self.value!r}")

    @property
    def is_wildcard(self) -> bool:
        """True when the value is ``*`` or ``!``."""
        return self.value in _WILDCARDS

    @property
    def is_per_instance(self) -> bool:
        """True when the value is the per-instance wildcard ``!``."""
        return self.value == PER_INSTANCE

    @property
    def is_all_instances(self) -> bool:
        """True when the value is the all-instances wildcard ``*``."""
        return self.value == ALL_INSTANCES

    def covers(self, other: "ContextComponent") -> bool:
        """True when this (possibly wildcard) component matches ``other``.

        Types must be identical; a wildcard value matches any value, and
        a concrete value matches only itself.
        """
        if self.ctx_type != other.ctx_type:
            return False
        if self.is_wildcard:
            return True
        return self.value == other.value

    def __str__(self) -> str:
        return f"{self.ctx_type}={self.value}"


class _CompiledMatcher:
    """A precompiled ``is_equal_or_subordinate_to`` check for one policy name.

    Hot policy contexts are matched against millions of candidate names;
    the per-component Python loop of the naive rule dominates.  Compiling
    the policy name once reduces matching to tuple-slice comparisons
    (C-level) plus, when the policy mixes wildcard and concrete values,
    a short loop over only the concrete positions.

    ``concrete`` is the ``(position, value)`` pair of every non-wildcard
    component, in order — a subset of the
    :meth:`~ContextName.component_keys` of every name this one matches,
    which is what lets the retained-ADI posting map and the policy
    dispatch index names by component.  ``per_instance`` is the
    position of every ``!`` component: the only values of a matching
    name that :meth:`~ContextName.instantiate` copies.
    """

    __slots__ = (
        "_length", "_types", "concrete", "_concrete_prefix", "_single", "per_instance"
    )

    def __init__(self, policy: "ContextName") -> None:
        comps = policy.components
        self._length = len(comps)
        self._types = policy.types
        per_instance = []
        concrete = []
        for index, comp in enumerate(comps):
            value = comp.value
            if value == PER_INSTANCE:
                per_instance.append(index)
            elif value != ALL_INSTANCES:
                concrete.append((index, value))
        self.per_instance = tuple(per_instance)
        self.concrete = tuple(concrete)
        # A fully concrete policy prefix matches by one tuple comparison.
        self._concrete_prefix = (
            comps if len(self.concrete) == len(comps) else None
        )
        # The overwhelmingly common wildcard mix has exactly one concrete
        # component; checking it directly skips a generator frame.
        self._single = (
            self.concrete[0]
            if self._concrete_prefix is None and len(self.concrete) == 1
            else None
        )

    def matches(self, candidate: "ContextName") -> bool:
        """Equivalent to ``candidate.is_equal_or_subordinate_to(policy)``."""
        comps = candidate._components
        length = self._length
        if len(comps) < length:
            return False
        prefix = self._concrete_prefix
        if prefix is not None:
            return comps[:length] == prefix
        types = candidate._types
        if types is None:
            types = candidate.types
        if types[:length] != self._types:
            return False
        single = self._single
        if single is not None:
            return comps[single[0]].value == single[1]
        for index, value in self.concrete:
            if comps[index].value != value:
                return False
        return True


@lru_cache(maxsize=8192)
def _component(ctx_type: str, value: str) -> ContextComponent:
    """The first-parsed equal component, for parsed names to share.

    Distinct names repeat their components (every ``Period=P1`` name
    holds one): a parsed name shares each component object, and its
    strings, with every other name parsed with it.
    """
    return ContextComponent(ctx_type, value)


@lru_cache(maxsize=8192)
def _parse_interned(text: str) -> "ContextName":
    """Parse and intern a context name (LRU-cached on the stripped text).

    Request streams repeat a small set of context-instance strings, and
    the SQLite store re-parses the ``context`` column of candidate rows;
    interning makes repeats a dict hit and lets equal names share their
    memoized hash/str/matcher state, and their components
    (:func:`_component`).
    """
    components = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ContextNameError(f"empty component in context name {text!r}")
        ctx_type, sep, value = part.partition("=")
        if not sep:
            raise ContextNameError(
                f"component {part!r} is not of the form type=value"
            )
        components.append(_component(ctx_type.strip(), value.strip()))
    return ContextName(components)


class ContextName:
    """An immutable hierarchical business-context name.

    A name is an ordered tuple of :class:`ContextComponent`.  The empty
    name is the universal context (the root of the hierarchy, paper
    Section 2.2: "the universal context ... its name is null").

    Hash, string form, the component-type tuple and the compiled matcher
    are computed once and memoized — names are immutable, and all four
    sit on the per-decision hot path.
    """

    __slots__ = ("_components", "_hash", "_str", "_types", "_matcher", "_wild")

    def __init__(self, components: Iterable[ContextComponent] = ()) -> None:
        comps = tuple(components)
        seen_types = set()
        wild = False
        for comp in comps:
            if not isinstance(comp, ContextComponent):
                raise ContextNameError(
                    f"expected ContextComponent, got {type(comp).__name__}"
                )
            if comp.ctx_type in seen_types:
                raise ContextNameError(
                    f"duplicate context type in name: {comp.ctx_type!r}"
                )
            seen_types.add(comp.ctx_type)
            if comp.value in _WILDCARDS:
                wild = True
        self._components = comps
        self._wild = wild
        self._hash = None
        self._str = None
        self._types = None
        self._matcher = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "ContextName":
        """Parse ``"type=value, type=value"`` notation used by the paper.

        The empty string (or only whitespace) denotes the universal
        context.  Raises :class:`ContextNameError` on malformed input.
        Parsed names are interned through an LRU cache, so repeated
        parses of the same text return the same object.
        """
        if text is None:
            raise ContextNameError("context name must not be None")
        text = text.strip()
        if cls is not ContextName:  # subclasses bypass the intern cache
            if not text:
                return cls()
            return cls(_parse_interned(text).components)
        if not text:
            return _ROOT
        return _parse_interned(text)

    @classmethod
    def root(cls) -> "ContextName":
        """The universal context (empty name)."""
        return cls()

    def child(self, ctx_type: str, value: str) -> "ContextName":
        """Return a new name extending this one by one component."""
        return ContextName(self._components + (ContextComponent(ctx_type, value),))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def components(self) -> tuple[ContextComponent, ...]:
        return self._components

    def component_keys(self) -> list[tuple[int, str]]:
        """The ``(position, value)`` pair of every component, in order.

        The keys a concrete name is filed under (retained-ADI posting
        map) and looked up by (policy dispatch); the other side of each
        is :attr:`_CompiledMatcher.concrete`.  Not memoized: live
        context instances far outnumber policy contexts.
        """
        return [
            (position, comp.value)
            for position, comp in enumerate(self._components)
        ]

    @property
    def types(self) -> tuple[str, ...]:
        """The component types, in order (memoized)."""
        types = self._types
        if types is None:
            types = self._types = tuple(comp.ctx_type for comp in self._components)
        return types

    def values_at(self, positions: Iterable[int]) -> tuple[str, ...]:
        """The component values at ``positions``, skipping those past the end."""
        comps = self._components
        length = len(comps)
        return tuple([comps[index].value for index in positions if index < length])

    @property
    def matcher(self) -> _CompiledMatcher:
        """A compiled subordinate-or-equal matcher for this (policy) name.

        ``policy.matcher.matches(instance)`` is equivalent to
        ``instance.is_equal_or_subordinate_to(policy)`` but avoids the
        per-component Python loop on every call.
        """
        matcher = self._matcher
        if matcher is None:
            matcher = self._matcher = _CompiledMatcher(self)
        return matcher

    @property
    def is_root(self) -> bool:
        """True for the universal context."""
        return not self._components

    @property
    def has_wildcards(self) -> bool:
        """True when any component value is ``*`` or ``!``."""
        return self._wild

    @property
    def is_concrete(self) -> bool:
        """True when no component is a wildcard (a context *instance*)."""
        return not self._wild

    @property
    def parent(self) -> "ContextName":
        """The immediately superior context (root's parent is root)."""
        if self.is_root:
            return self
        return ContextName(self._components[:-1])

    def ancestors(self) -> Iterator["ContextName"]:
        """Yield every proper ancestor, nearest first, ending at the root."""
        for length in range(len(self._components) - 1, -1, -1):
            yield ContextName(self._components[:length])

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[ContextComponent]:
        return iter(self._components)

    def __getitem__(self, index: int) -> ContextComponent:
        return self._components[index]

    # ------------------------------------------------------------------
    # The matching rules of paper Section 4.2
    # ------------------------------------------------------------------
    def is_equal_or_subordinate_to(self, policy: "ContextName") -> bool:
        """Step-1/step-3 matching rule.

        ``self`` (a context instance, or an instantiated policy context)
        matches ``policy`` when every component of ``policy`` covers the
        corresponding component of ``self`` — i.e. ``policy`` is a
        (wildcard-aware) prefix of ``self``.  Every name matches the
        universal context.
        """
        return policy.matcher.matches(self)

    def is_strictly_subordinate_to(self, policy: "ContextName") -> bool:
        """Like :meth:`is_equal_or_subordinate_to` but excluding equal length."""
        return len(self) > len(policy) and self.is_equal_or_subordinate_to(policy)

    def instantiate(self, instance: "ContextName") -> "ContextName":
        """Re-bind ``!`` components to the concrete values of ``instance``.

        Implements the tail of algorithm step 1: "If a matched policy
        pertains to a single business context instance (!), replace policy
        business context with the instance of the input business context."
        ``*`` components are preserved (they keep aggregating across
        instances).  ``instance`` must match this policy context.
        """
        matcher = self.matcher
        if not matcher.matches(instance):
            raise ContextNameError(
                f"instance {instance} does not match policy context {self}"
            )
        if not matcher.per_instance:
            return self  # nothing to re-bind; '*' components stay as-is
        components = list(self._components)
        values = instance._components
        for index in matcher.per_instance:
            components[index] = values[index]
        # Valid by construction: the instance matched, so every re-bound
        # component has the type it replaces; only ``*`` ones stay wild.
        bound = ContextName.__new__(ContextName)
        bound._components = tuple(components)
        bound._hash = bound._str = bound._matcher = None
        bound._types = self.types
        bound._wild = len(matcher.concrete) + len(matcher.per_instance) < len(self)
        return bound

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContextName):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._components)
        return value

    def __str__(self) -> str:
        text = self._str
        if text is None:
            text = self._str = ", ".join(
                f"{comp.ctx_type}={comp.value}" for comp in self._components
            )
        return text

    def __repr__(self) -> str:
        return f"ContextName.parse({str(self)!r})"


#: The interned universal context returned by ``parse("")`` / ``root()``.
_ROOT = ContextName()


def common_supercontext(names: Sequence[ContextName]) -> ContextName:
    """Return the deepest context superior-or-equal to every name given.

    Paper Section 2.2: "there is always a super-context that joins them
    together ... since all business contexts for an organization (or VO)
    are always part of the same universal hierarchy."  With no names this
    is the universal context.
    """
    if not names:
        return ContextName.root()
    prefix = list(names[0].components)
    for name in names[1:]:
        limit = 0
        for ours, theirs in zip(prefix, name.components):
            if ours != theirs:
                break
            limit += 1
        del prefix[limit:]
        if not prefix:
            break
    return ContextName(prefix)


class ContextHierarchy:
    """An explicit registry of business-context instances.

    The paper keeps the hierarchy in "the application schema" — the access
    control system itself only needs name matching.  This class models
    that application-side schema: it lets applications (and the examples
    and workload generators in this repository) create, enumerate and
    terminate context instances, and infer activity of a context from the
    activity of contained contexts (paper Section 2.2, last paragraph).
    """

    def __init__(self) -> None:
        self._active: set[ContextName] = set()

    def start(self, instance: ContextName) -> None:
        """Mark a concrete context instance as active."""
        if not instance.is_concrete:
            raise ContextNameError(f"cannot start non-concrete context {instance}")
        self._active.add(instance)

    def finish(self, instance: ContextName) -> frozenset[ContextName]:
        """Terminate an instance and everything subordinate to it.

        Returns the set of instances that were terminated.  Termination of
        a containing context implies termination of all contained ones
        (paper Section 3: "all the contained ones must also be
        terminated").
        """
        terminated = {
            active
            for active in self._active
            if active.is_equal_or_subordinate_to(instance)
        }
        self._active -= terminated
        return frozenset(terminated)

    def is_active(self, instance: ContextName) -> bool:
        """True when the instance, or any contained instance, is active.

        A containing context can be inferred to have started "because a
        contained business context has started" (paper Section 2.2).
        """
        if instance in self._active:
            return True
        return any(
            active.is_strictly_subordinate_to(instance) for active in self._active
        )
