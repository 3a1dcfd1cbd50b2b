"""Structural validation of MSoD policy documents.

Unlike the parser (which raises on the first problem), the validator
walks the whole document and returns *every* problem found, making it
suitable for the policy-management subsystem of Figure 4 (policy authors
get a complete report in one pass).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.core.context import ContextName
from repro.errors import ContextNameError
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
    if not policies:
        problems.append(f"<{S.ELEM_POLICY_SET}> contains no policies")
    for index, policy in enumerate(policies):
        where = f"policy #{index + 1}"
        if policy.tag != S.ELEM_POLICY:
            problems.append(f"{where}: unexpected element <{policy.tag}>")
            continue
        problems.extend(_validate_policy(policy, where, strict))
    return problems


def _attr_problems(element: ET.Element, names: list[str], where: str) -> list[str]:
    return [
        f"{where}: <{element.tag}> is missing attribute {name!r}"
        for name in names
        if element.get(name) is None
    ]


def _validate_policy(policy: ET.Element, where: str, strict: bool) -> list[str]:
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
    mmers = [c for c in policy if c.tag == S.ELEM_MMER]
    mmeps = [c for c in policy if c.tag == S.ELEM_MMEP]
    mmcds = [c for c in policy if c.tag == S.ELEM_MMCD]
    boundaries = [c for c in policy if c.tag == S.ELEM_ADMIN_BOUNDARY]
    known = set(first_steps + last_steps + mmers + mmeps + mmcds + boundaries)
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

    if not mmers and not mmeps and not mmcds and not boundaries:
        problems.append(f"{where}: needs at least one MMER or MMEP")
    families = sum(1 for f in (mmers, mmeps, mmcds, boundaries) if f)
    if strict and families > 1:
        problems.append(
            f"{where}: Appendix A allows either MMERs or MMEPs, not both"
            " (one constraint family per policy)"
        )

    for mmer in mmers:
        problems.extend(_validate_cardinality(mmer, len(list(mmer)), where))
        roles = list(mmer)
        if len(roles) < 2:
            problems.append(f"{where}: MMER needs at least two <Role> children")
        for role in roles:
            if role.tag != S.ELEM_ROLE:
                problems.append(
                    f"{where}: MMER contains unexpected <{role.tag}>"
                )
            else:
                problems.extend(
                    _attr_problems(
                        role, [S.ATTR_ROLE_TYPE, S.ATTR_ROLE_VALUE], where
                    )
                )

    for mmep in mmeps:
        problems.extend(_validate_cardinality(mmep, len(list(mmep)), where))
        privileges = list(mmep)
        if len(privileges) < 2:
            problems.append(
                f"{where}: MMEP needs at least two privilege children"
            )
        problems.extend(_privilege_child_problems(privileges, "MMEP", where))

    for mmcd in mmcds:
        privileges = list(mmcd)
        if len(privileges) < 2:
            problems.append(
                f"{where}: MMCD needs at least two privilege children"
            )
        problems.extend(_privilege_child_problems(privileges, "MMCD", where))

    for boundary in boundaries:
        if boundary.get(S.ATTR_BOUNDARY) is None:
            problems.append(
                f"{where}: <{S.ELEM_ADMIN_BOUNDARY}> is missing "
                f"attribute {S.ATTR_BOUNDARY!r}"
            )
        privileges = list(boundary)
        if not privileges:
            problems.append(
                f"{where}: AdminBoundary needs at least one privilege child"
            )
        problems.extend(
            _privilege_child_problems(privileges, "AdminBoundary", where)
        )
    return problems


def _privilege_child_problems(
    privileges: list[ET.Element], parent: str, where: str
) -> list[str]:
    problems: list[str] = []
    for privilege in privileges:
        if privilege.tag == S.ELEM_PRIVILEGE:
            problems.extend(
                _attr_problems(
                    privilege,
                    [S.ATTR_PRIV_OPERATION, S.ATTR_PRIV_TARGET],
                    where,
                )
            )
        elif privilege.tag == S.ELEM_OPERATION:
            problems.extend(
                _attr_problems(
                    privilege,
                    [S.ATTR_OPERATION_VALUE, S.ATTR_PRIV_TARGET],
                    where,
                )
            )
        else:
            problems.append(
                f"{where}: {parent} contains unexpected <{privilege.tag}>"
            )
    return problems


def _validate_cardinality(element: ET.Element, size: int, where: str) -> list[str]:
    raw = element.get(S.ATTR_FORBIDDEN_CARDINALITY)
    if raw is None:
        return [f"{where}: <{element.tag}> is missing ForbiddenCardinality"]
    try:
        cardinality = int(raw)
    except ValueError:
        return [
            f"{where}: <{element.tag}> ForbiddenCardinality {raw!r} "
            "is not an integer"
        ]
    if size and not 1 < cardinality <= size:
        return [
            f"{where}: <{element.tag}> ForbiddenCardinality {cardinality} "
            f"must satisfy 1 < m <= {size}"
        ]
    return []
