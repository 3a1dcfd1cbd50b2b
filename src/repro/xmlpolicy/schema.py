"""Element and attribute names of the Appendix-A MSoD policy schema.

The Section 3 worked examples render a privilege as
``<Operation value="..." target="..."/>`` while the Appendix A schema
names the element ``<Privilege operation="..." target="..."/>``; the
parser accepts both spellings and the writer emits the schema form.

A constraint element is named after its kind's class (``<MMER>``,
``<MMEP>`` and the extension kinds ``<MMCD>`` and ``<AdminBoundary>``)
and carries the kind's declared shape: its members as child elements,
its label as ``Boundary`` and its ``m`` as ``ForbiddenCardinality``.
"""

from __future__ import annotations

from operator import attrgetter

from repro.core.constraints import (
    CONSTRAINT_KINDS,
    MultiSessionConstraint,
    Privilege,
    Role,
)

ELEM_POLICY_SET = "MSoDPolicySet"
ELEM_POLICY = "MSoDPolicy"
ELEM_FIRST_STEP = "FirstStep"
ELEM_LAST_STEP = "LastStep"
ELEM_ROLE = "Role"
ELEM_PRIVILEGE = "Privilege"
#: Section-3 spelling of a privilege inside an MMEP.
ELEM_OPERATION = "Operation"

ATTR_BUSINESS_CONTEXT = "BusinessContext"
ATTR_FORBIDDEN_CARDINALITY = "ForbiddenCardinality"
#: A constraint's label (the ``Boundary`` of an <AdminBoundary>).
ATTR_BOUNDARY = "Boundary"
ATTR_STEP_OPERATION = "operation"
ATTR_STEP_TARGET = "targetURI"
ATTR_ROLE_TYPE = "type"
ATTR_ROLE_VALUE = "value"
ATTR_PRIV_OPERATION = "operation"
ATTR_PRIV_TARGET = "target"
#: Section-3 spelling: <Operation value="..." target="..."/>.
ATTR_OPERATION_VALUE = "value"

#: Optional identifier attribute (an extension; absent from Appendix A).
ATTR_POLICY_ID = "PolicyId"

#: How a constraint member is spelt: per member type, element name ->
#: the attributes holding its fields in order.  The first is written.
MEMBER_ELEMENTS = {
    Role: {ELEM_ROLE: (ATTR_ROLE_TYPE, ATTR_ROLE_VALUE)},
    Privilege: {
        ELEM_PRIVILEGE: (ATTR_PRIV_OPERATION, ATTR_PRIV_TARGET),
        ELEM_OPERATION: (ATTR_OPERATION_VALUE, ATTR_PRIV_TARGET),
    },
}

#: A member's field values, in order.
MEMBER_FIELDS = {
    member_type: attrgetter(*member_type._fields)
    for member_type in MEMBER_ELEMENTS
}


def constraint_kinds() -> dict[str, type[MultiSessionConstraint]]:
    """Every registered kind with a declared shape, by class name: the
    name of its XML element and of its ``repr``."""
    return {
        cls.__name__: cls for cls in CONSTRAINT_KINDS.values() if cls.fields
    }


#: The verbatim XML Schema of Appendix A, kept for reference and for the
#: documentation tests that assert our validator agrees with it on the
#: paper's two example policies.
APPENDIX_A_XSD = """\
<?xml version="1.0" ?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"
           elementFormDefault="qualified">
  <xs:element name="MSoDPolicySet">
    <xs:complexType>
      <xs:sequence>
        <xs:element maxOccurs="unbounded" ref="MSoDPolicy"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="MSoDPolicy">
    <xs:complexType>
      <xs:sequence>
        <xs:element ref="FirstStep" minOccurs="0"/>
        <xs:element ref="LastStep" minOccurs="0"/>
        <xs:choice>
          <xs:element maxOccurs="unbounded" ref="MMER"/>
          <xs:element maxOccurs="unbounded" ref="MMEP"/>
        </xs:choice>
      </xs:sequence>
      <xs:attribute name="BusinessContext" use="required" type="xs:NCName"/>
    </xs:complexType>
  </xs:element>
  <xs:element name="FirstStep">
    <xs:complexType>
      <xs:attribute name="operation" use="required" type="xs:NCName"/>
      <xs:attribute name="targetURI" use="required" type="xs:anyURI"/>
    </xs:complexType>
  </xs:element>
  <xs:element name="LastStep">
    <xs:complexType>
      <xs:attribute name="operation" use="required" type="xs:NCName"/>
      <xs:attribute name="targetURI" use="required" type="xs:anyURI"/>
    </xs:complexType>
  </xs:element>
  <xs:element name="MMER">
    <xs:complexType>
      <xs:sequence>
        <xs:element maxOccurs="unbounded" minOccurs="2" ref="Role"/>
      </xs:sequence>
      <xs:attribute name="ForbiddenCardinality" use="required" type="xs:integer"/>
    </xs:complexType>
  </xs:element>
  <xs:element name="Role">
    <xs:complexType>
      <xs:attribute name="type" use="required" type="xs:NCName"/>
      <xs:attribute name="value" use="required" type="xs:NCName"/>
    </xs:complexType>
  </xs:element>
  <xs:element name="MMEP">
    <xs:complexType>
      <xs:sequence>
        <xs:element maxOccurs="unbounded" ref="Privilege"/>
      </xs:sequence>
      <xs:attribute name="ForbiddenCardinality" use="required" type="xs:integer"/>
    </xs:complexType>
  </xs:element>
  <xs:element name="Privilege">
    <xs:complexType>
      <xs:attribute name="target" use="required" type="xs:anyURI"/>
      <xs:attribute name="operation" use="required" type="xs:NCName"/>
    </xs:complexType>
  </xs:element>
</xs:schema>
"""
