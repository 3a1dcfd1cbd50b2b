"""Serialise the in-memory MSoD policy model back to Appendix-A XML.

``parse(write(policy_set))`` round-trips to an equivalent policy set;
the round-trip property is exercised by hypothesis tests.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.dom import minidom

from repro.core.policy import MSoDPolicy, MSoDPolicySet, Step
from repro.errors import PolicyError
from repro.xmlpolicy import schema as S


def policy_set_to_element(policy_set: MSoDPolicySet) -> ET.Element:
    """Build the ``<MSoDPolicySet>`` element tree for a policy set."""
    root = ET.Element(S.ELEM_POLICY_SET)
    for policy in policy_set:
        root.append(_policy_to_element(policy))
    return root


def write_policy_set(policy_set: MSoDPolicySet, pretty: bool = True) -> str:
    """Serialise a policy set to an XML string."""
    root = policy_set_to_element(policy_set)
    raw = ET.tostring(root, encoding="unicode")
    if not pretty:
        return raw
    reparsed = minidom.parseString(raw)
    pretty_text = reparsed.toprettyxml(indent="  ")
    # minidom prepends an XML declaration; keep it, drop blank lines.
    return "\n".join(line for line in pretty_text.splitlines() if line.strip())


def write_policy_set_file(
    policy_set: MSoDPolicySet, path: str, pretty: bool = True
) -> None:
    """Serialise a policy set to an XML file on disk."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write_policy_set(policy_set, pretty=pretty))
        handle.write("\n")


def _policy_to_element(policy: MSoDPolicy) -> ET.Element:
    element = ET.Element(S.ELEM_POLICY)
    element.set(S.ATTR_BUSINESS_CONTEXT, str(policy.business_context))
    element.set(S.ATTR_POLICY_ID, policy.policy_id)
    if policy.first_step is not None:
        element.append(_step_to_element(policy.first_step, S.ELEM_FIRST_STEP))
    if policy.last_step is not None:
        element.append(_step_to_element(policy.last_step, S.ELEM_LAST_STEP))
    for constraint in policy.constraints:
        if not constraint.fields:
            raise PolicyError(
                "no XML serialisation for constraint kind "
                f"{constraint.kind!r}"
            )
        child = ET.SubElement(element, type(constraint).__name__)
        if constraint.label is not None:
            child.set(S.ATTR_BOUNDARY, constraint.label)
        if constraint.m is not None:
            child.set(S.ATTR_FORBIDDEN_CARDINALITY, str(constraint.m))
        tag, attributes = next(iter(S.MEMBER_ELEMENTS[constraint.member_type].items()))
        values_of = S.MEMBER_FIELDS[constraint.member_type]
        for member in constraint.members:
            ET.SubElement(child, tag, dict(zip(attributes, values_of(member))))
    return element


def _step_to_element(step: Step, tag: str) -> ET.Element:
    element = ET.Element(tag)
    element.set(S.ATTR_STEP_OPERATION, step.operation)
    element.set(S.ATTR_STEP_TARGET, step.target)
    return element
