"""Parse MSoD XML policies into the :mod:`repro.core` policy model.

The parser accepts the Appendix-A document structure, including the
Section 3 spelling of privileges (``<Operation value=... target=.../>``)
alongside the schema spelling (``<Privilege operation=... target=.../>``),
plus the extension constraint kinds ``<MMCD>`` (combination of duty) and
``<AdminBoundary Boundary=...>`` (self-protecting admin boundary).

Every constraint element is read by one path from its kind's declared
shape (see :mod:`repro.xmlpolicy.schema`).

By default the parser is *strict* about the Appendix-A ``xs:choice``,
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


def parse_policy_set(source: str | IO[str], strict: bool = True) -> MSoDPolicySet:
    """Parse an MSoD policy set from an XML string or file-like object.

    Raises :class:`~repro.errors.PolicyParseError` with a precise message
    on any structural or semantic problem.
    """
    text = source if isinstance(source, str) else source.read()
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise PolicyParseError(f"not well-formed XML: {exc}") from exc
    return parse_policy_set_element(root, strict=strict)


def parse_policy_set_file(path: str, strict: bool = True) -> MSoDPolicySet:
    """Parse an MSoD policy set from a file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_policy_set(handle, strict=strict)


def parse_policy_set_element(root: ET.Element, strict: bool = True) -> MSoDPolicySet:
    """Parse an already-built ``<MSoDPolicySet>`` element tree."""
    if root.tag != S.ELEM_POLICY_SET:
        raise PolicyParseError(
            f"root element must be <{S.ELEM_POLICY_SET}>, got <{root.tag}>"
        )
    policies = []
    kinds = S.constraint_kinds()
    for index, child in enumerate(root):
        if child.tag != S.ELEM_POLICY:
            raise PolicyParseError(
                f"unexpected element <{child.tag}> inside <{S.ELEM_POLICY_SET}>"
            )
        policies.append(_parse_policy(child, index, strict, kinds))
    if not policies:
        raise PolicyParseError(
            f"<{S.ELEM_POLICY_SET}> must contain at least one <{S.ELEM_POLICY}>"
        )
    try:
        return MSoDPolicySet(policies)
    except PolicyError as exc:
        raise PolicyParseError(str(exc)) from exc


def _require_attr(element: ET.Element, name: str) -> str:
    value = element.get(name)
    if value is None:
        raise PolicyParseError(
            f"<{element.tag}> is missing required attribute {name!r}"
        )
    return value


def _parse_policy(
    element: ET.Element, index: int, strict: bool, kinds: dict
) -> MSoDPolicy:
    context_text = _require_attr(element, S.ATTR_BUSINESS_CONTEXT)
    try:
        context = ContextName.parse(context_text)
    except ContextNameError as exc:
        raise PolicyParseError(
            f"policy #{index + 1}: bad BusinessContext {context_text!r}: {exc}"
        ) from exc

    policy_id = element.get(S.ATTR_POLICY_ID)
    first_step = None
    last_step = None
    constraints: list[MultiSessionConstraint] = []

    for child in element:
        if child.tag == S.ELEM_FIRST_STEP:
            if first_step is not None:
                raise PolicyParseError(
                    f"policy #{index + 1}: multiple <{S.ELEM_FIRST_STEP}> elements"
                )
            first_step = _parse_step(child)
        elif child.tag == S.ELEM_LAST_STEP:
            if last_step is not None:
                raise PolicyParseError(
                    f"policy #{index + 1}: multiple <{S.ELEM_LAST_STEP}> elements"
                )
            last_step = _parse_step(child)
        elif child.tag in kinds:
            constraints.append(_parse_constraint(child, kinds[child.tag], index))
        else:
            raise PolicyParseError(
                f"policy #{index + 1}: unexpected element <{child.tag}>"
            )

    names = sorted({type(c).__name__ for c in constraints})
    if strict and len(names) > 1:
        raise PolicyParseError(
            f"policy #{index + 1}: one policy carries constraints of one "
            "kind (Appendix A: either MMER or MMEP), not a mixture of "
            f"{', '.join(names)} (pass strict=False to relax)"
        )
    try:
        return MSoDPolicy(
            business_context=context,
            first_step=first_step,
            last_step=last_step,
            policy_id=policy_id,
            constraints=constraints,
        )
    except PolicyError as exc:
        raise PolicyParseError(f"policy #{index + 1}: {exc}") from exc


def _parse_step(element: ET.Element) -> Step:
    operation = _require_attr(element, S.ATTR_STEP_OPERATION)
    target = _require_attr(element, S.ATTR_STEP_TARGET)
    try:
        return Step(operation, target)
    except PolicyError as exc:
        raise PolicyParseError(f"bad <{element.tag}>: {exc}") from exc


def _parse_cardinality(element: ET.Element) -> int:
    raw = _require_attr(element, S.ATTR_FORBIDDEN_CARDINALITY)
    try:
        return int(raw)
    except ValueError as exc:
        raise PolicyParseError(
            f"<{element.tag}> ForbiddenCardinality {raw!r} is not an integer"
        ) from exc


def _parse_constraint(
    element: ET.Element, cls: type[MultiSessionConstraint], index: int
) -> MultiSessionConstraint:
    """One constraint element, read from its kind's declared shape."""
    values = {}
    if "label" in cls.fields:
        values["label"] = _require_attr(element, S.ATTR_BOUNDARY)
    if "m" in cls.fields:
        values["m"] = _parse_cardinality(element)
    spellings = S.MEMBER_ELEMENTS[cls.member_type]
    members = []
    for child in element:
        attributes = spellings.get(child.tag)
        if attributes is None:
            raise PolicyParseError(
                f"policy #{index + 1}: <{element.tag}> may only contain "
                f"{' or '.join(f'<{tag}>' for tag in spellings)} elements, "
                f"got <{child.tag}>"
            )
        try:
            members.append(
                cls.member_type(*(_require_attr(child, a) for a in attributes))
            )
        except ConstraintError as exc:
            raise PolicyParseError(
                f"policy #{index + 1}: bad {child.tag}: {exc}"
            ) from exc
    values["members"] = members
    try:
        return cls(*(values[field] for field in cls.fields))
    except ConstraintError as exc:
        raise PolicyParseError(
            f"policy #{index + 1}: bad {element.tag}: {exc}"
        ) from exc
