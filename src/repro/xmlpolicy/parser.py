"""Parse and validate MSoD XML policies: one walk over the document.

The walk accepts the Appendix-A document structure, including the
Section 3 spelling of privileges (``<Operation value=... target=.../>``)
alongside the schema spelling (``<Privilege operation=... target=.../>``),
plus the extension constraint kinds ``<MMCD>`` (combination of duty) and
``<AdminBoundary Boundary=...>`` (self-protecting admin boundary).
Every constraint element is read by one path from its kind's declared
shape (see :mod:`repro.xmlpolicy.schema`).

It builds the model and records every problem on the way.  A problem is
something the document lacks (an element, an attribute, an integer) or
a refusal from the model constructor the walk feeds: ``ContextName.parse``,
``Step``, a constraint kind, ``MSoDPolicy`` or ``MSoDPolicySet``.  The
walk restates none of their rules.  A constraint is built from whichever
members were; a policy, and the set, only when nothing under them
failed, so one fault is not reported again by its container.
:func:`validate_policy_document` returns the whole list (the
policy-management subsystem of Figure 4 gives an author a complete
report in one pass); the ``parse_*`` functions raise its first entry.
So a document validates exactly when it parses.

By default the walk is *strict* about the Appendix-A ``xs:choice``,
generalised to the pluggable kinds: one policy carries constraints of
exactly one kind.  Pass ``strict=False`` to allow mixed policies (a
useful generalisation the in-memory model supports).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import IO

from repro.core.constraints import MultiSessionConstraint
from repro.core.context import ContextName
from repro.core.policy import MSoDPolicy, MSoDPolicySet, Step
from repro.errors import ContextNameError, ConstraintError, PolicyError, PolicyParseError
from repro.xmlpolicy import schema as S

_STEPS = (S.ELEM_FIRST_STEP, S.ELEM_LAST_STEP)


def parse_policy_set(source: str | IO[str], strict: bool = True) -> MSoDPolicySet:
    """Parse an MSoD policy set from an XML string or file-like object.

    Raises :class:`~repro.errors.PolicyParseError` carrying the first
    problem :func:`validate_policy_document` reports.
    """
    text = source if isinstance(source, str) else source.read()
    walk = _Walk(strict)
    return walk.parsed(walk.document(text))


def parse_policy_set_file(path: str, strict: bool = True) -> MSoDPolicySet:
    """Parse an MSoD policy set from a file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_policy_set(handle, strict=strict)


def parse_policy_set_element(root: ET.Element, strict: bool = True) -> MSoDPolicySet:
    """Parse an already-built ``<MSoDPolicySet>`` element tree."""
    walk = _Walk(strict)
    return walk.parsed(walk.policy_set(root))


def validate_policy_document(text: str, strict: bool = True) -> list[str]:
    """Return every problem in the document; an empty list means it is valid."""
    walk = _Walk(strict)
    walk.document(text)
    return walk.problems


class _Walk:
    """One pass over a document: builds the model, records every problem.

    A method returns ``None`` for a part it could not build, and has
    recorded why.  Problem text is formatted only on failure.
    """

    def __init__(self, strict: bool) -> None:
        self.strict = strict
        self.kinds = S.constraint_kinds()
        self.problems: list[str] = []

    def parsed(self, policy_set: MSoDPolicySet | None) -> MSoDPolicySet:
        if self.problems:
            raise PolicyParseError(self.problems[0])
        return policy_set

    def note(self, index: int, problem: str) -> None:
        self.problems.append(f"policy #{index + 1}: {problem}")

    def attr(self, element: ET.Element, name: str, index: int) -> str | None:
        value = element.get(name)
        if value is None:
            self.note(index, f"<{element.tag}> is missing attribute {name!r}")
        return value

    def document(self, text: str) -> MSoDPolicySet | None:
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            self.problems.append(f"not well-formed XML: {exc}")
            return None
        return self.policy_set(root)

    def policy_set(self, root: ET.Element) -> MSoDPolicySet | None:
        if root.tag != S.ELEM_POLICY_SET:
            self.problems.append(
                f"root element must be <{S.ELEM_POLICY_SET}>, got <{root.tag}>"
            )
            return None
        policies = []
        for index, child in enumerate(root):
            if child.tag == S.ELEM_POLICY:
                policies.append(self.policy(child, index))
            else:
                self.problems.append(
                    f"unexpected element <{child.tag}> inside <{S.ELEM_POLICY_SET}>"
                )
        if not policies:
            self.problems.append(
                f"<{S.ELEM_POLICY_SET}> contains no policies: it must contain "
                f"at least one <{S.ELEM_POLICY}>"
            )
        if self.problems:
            return None
        try:
            return MSoDPolicySet(policies)
        except PolicyError as exc:
            self.problems.append(str(exc))
            return None

    def policy(self, element: ET.Element, index: int) -> MSoDPolicy | None:
        mark = len(self.problems)
        context = None
        context_text = self.attr(element, S.ATTR_BUSINESS_CONTEXT, index)
        if context_text is not None:
            try:
                context = ContextName.parse(context_text)
            except ContextNameError as exc:
                self.note(index, f"bad BusinessContext {context_text!r}: {exc}")
        steps: dict[str, Step | None] = {}
        constraints = []
        kinds_used = set()
        for child in element:
            if child.tag in _STEPS:
                if child.tag in steps:
                    self.note(index, f"multiple <{child.tag}> elements")
                steps[child.tag] = self.step(child, index)
            elif child.tag in self.kinds:
                kinds_used.add(child.tag)
                constraints.append(self.constraint(child, index))
            else:
                self.note(index, f"unexpected element <{child.tag}>")
        if self.strict and len(kinds_used) > 1:
            self.note(
                index,
                "one policy carries constraints of one kind (Appendix A: "
                "either MMER or MMEP), not a mixture of "
                f"{', '.join(sorted(kinds_used))} (pass strict=False to relax)",
            )
        if len(self.problems) > mark:
            return None
        try:
            return MSoDPolicy(
                business_context=context,
                first_step=steps.get(S.ELEM_FIRST_STEP),
                last_step=steps.get(S.ELEM_LAST_STEP),
                policy_id=element.get(S.ATTR_POLICY_ID),
                constraints=constraints,
            )
        except PolicyError as exc:
            self.note(index, str(exc))
            return None

    def step(self, element: ET.Element, index: int) -> Step | None:
        operation = self.attr(element, S.ATTR_STEP_OPERATION, index)
        target = self.attr(element, S.ATTR_STEP_TARGET, index)
        if operation is None or target is None:
            return None
        try:
            return Step(operation, target)
        except PolicyError as exc:
            self.note(index, f"bad <{element.tag}>: {exc}")
            return None

    def constraint(
        self, element: ET.Element, index: int
    ) -> MultiSessionConstraint | None:
        """One constraint element, read from its kind's declared shape and
        built, once its attributes are read, from the members that were."""
        cls = self.kinds[element.tag]
        values: dict = {}
        if "label" in cls.fields:
            values["label"] = self.attr(element, S.ATTR_BOUNDARY, index)
        if "m" in cls.fields:
            raw = self.attr(element, S.ATTR_FORBIDDEN_CARDINALITY, index)
            values["m"] = None
            if raw is not None:
                try:
                    values["m"] = int(raw)
                except ValueError:
                    self.note(
                        index,
                        f"<{element.tag}> ForbiddenCardinality {raw!r} "
                        "is not an integer",
                    )
        spellings = S.MEMBER_ELEMENTS[cls.member_type]
        members = []
        for child in element:
            attributes = spellings.get(child.tag)
            if attributes is None:
                self.note(index, f"{element.tag} contains unexpected <{child.tag}>")
                continue
            member_fields = [self.attr(child, name, index) for name in attributes]
            if None in member_fields:
                continue
            try:
                members.append(cls.member_type(*member_fields))
            except ConstraintError as exc:
                self.note(index, f"bad <{child.tag}>: {exc}")
        if None in values.values():
            return None
        values["members"] = members
        try:
            return cls(*(values[field] for field in cls.fields))
        except ConstraintError as exc:
            shown = "".join(f' {k}="{v}"' for k, v in element.items())
            self.note(index, f"<{element.tag}{shown}>: {exc}")
            return None
