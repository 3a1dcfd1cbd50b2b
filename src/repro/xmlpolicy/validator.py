"""Structural validation of MSoD policy documents.

Unlike the parser (which raises on the first problem), the validator
walks the whole document and returns *every* problem found, making it
suitable for the policy-management subsystem of Figure 4 (policy authors
get a complete report in one pass).  Constraint elements are checked
against their kind's declared shape, and size rules are the kind's own
constructor's.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.core.constraints import MultiSessionConstraint
from repro.core.context import ContextName
from repro.errors import ConstraintError, ContextNameError
from repro.xmlpolicy import schema as S


def validate_policy_document(text: str, strict: bool = True) -> list[str]:
    """Return a list of problems; an empty list means the document is valid."""
    problems: list[str] = []
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"not well-formed XML: {exc}"]

    if root.tag != S.ELEM_POLICY_SET:
        problems.append(
            f"root element must be <{S.ELEM_POLICY_SET}>, got <{root.tag}>"
        )
        return problems

    policies = list(root)
    kinds = S.constraint_kinds()
    if not policies:
        problems.append(f"<{S.ELEM_POLICY_SET}> contains no policies")
    for index, policy in enumerate(policies):
        where = f"policy #{index + 1}"
        if policy.tag != S.ELEM_POLICY:
            problems.append(f"{where}: unexpected element <{policy.tag}>")
            continue
        problems.extend(_validate_policy(policy, where, strict, kinds))
    return problems


def _attr_problems(element: ET.Element, names, where: str) -> list[str]:
    return [
        f"{where}: <{element.tag}> is missing attribute {name!r}"
        for name in names
        if element.get(name) is None
    ]


def _validate_policy(
    policy: ET.Element, where: str, strict: bool, kinds: dict
) -> list[str]:
    problems: list[str] = []
    context_text = policy.get(S.ATTR_BUSINESS_CONTEXT)
    if context_text is None:
        problems.append(f"{where}: missing BusinessContext attribute")
    else:
        try:
            ContextName.parse(context_text)
        except ContextNameError as exc:
            problems.append(f"{where}: bad BusinessContext: {exc}")

    first_steps = [c for c in policy if c.tag == S.ELEM_FIRST_STEP]
    last_steps = [c for c in policy if c.tag == S.ELEM_LAST_STEP]
    constraints = [c for c in policy if c.tag in kinds]
    known = set(first_steps + last_steps + constraints)
    for child in policy:
        if child not in known:
            problems.append(f"{where}: unexpected element <{child.tag}>")

    if len(first_steps) > 1:
        problems.append(f"{where}: more than one <{S.ELEM_FIRST_STEP}>")
    if len(last_steps) > 1:
        problems.append(f"{where}: more than one <{S.ELEM_LAST_STEP}>")
    for step in first_steps + last_steps:
        problems.extend(
            _attr_problems(step, [S.ATTR_STEP_OPERATION, S.ATTR_STEP_TARGET], where)
        )

    if not constraints:
        problems.append(f"{where}: needs at least one MMER or MMEP")
    if strict and len({c.tag for c in constraints}) > 1:
        problems.append(
            f"{where}: Appendix A allows either MMERs or MMEPs, not both"
            " (one constraint family per policy)"
        )
    for constraint in constraints:
        problems.extend(
            _constraint_problems(constraint, kinds[constraint.tag], where)
        )
    return problems


def _constraint_problems(
    element: ET.Element, cls: type[MultiSessionConstraint], where: str
) -> list[str]:
    """Attribute and member problems of one constraint element, then
    whatever the kind's own constructor rejects (its size rules)."""
    problems: list[str] = []
    values: dict = {}
    if "label" in cls.fields:
        problems += _attr_problems(element, [S.ATTR_BOUNDARY], where)
        values["label"] = element.get(S.ATTR_BOUNDARY)
    if "m" in cls.fields:
        raw = element.get(S.ATTR_FORBIDDEN_CARDINALITY)
        values["m"] = None
        if raw is None:
            problems.append(f"{where}: <{element.tag}> is missing ForbiddenCardinality")
        else:
            try:
                values["m"] = int(raw)
            except ValueError:
                problems.append(
                    f"{where}: <{element.tag}> ForbiddenCardinality {raw!r} "
                    "is not an integer"
                )
    spellings = S.MEMBER_ELEMENTS[cls.member_type]
    members = []
    for child in element:
        attributes = spellings.get(child.tag)
        if attributes is None:
            problems.append(
                f"{where}: {element.tag} contains unexpected <{child.tag}>"
            )
            continue
        missing = _attr_problems(child, attributes, where)
        problems += missing
        if not missing:
            try:
                members.append(cls.member_type(*map(child.get, attributes)))
            except ConstraintError as exc:
                problems.append(f"{where}: bad <{child.tag}>: {exc}")
    if None not in values.values():  # every attribute was read
        try:
            cls(*(members if f == "members" else values[f] for f in cls.fields))
        except ConstraintError as exc:
            shown = "".join(f' {k}="{v}"' for k, v in element.items())
            problems.append(f"{where}: <{element.tag}{shown}>: {exc}")
    return problems
