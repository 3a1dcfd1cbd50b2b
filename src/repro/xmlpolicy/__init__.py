"""The Appendix-A XML MSoD policy language: parse, write, validate.

* :func:`~repro.xmlpolicy.parser.parse_policy_set` — XML → model.
* :func:`~repro.xmlpolicy.parser.validate_policy_document` — every
  problem in the document, from the same walk: a document validates
  exactly when it parses, and a parse error is the first problem.
* :func:`~repro.xmlpolicy.writer.write_policy_set` — model → XML.
* :mod:`repro.xmlpolicy.examples` — the paper's two Section-3 policies.
"""

from repro.xmlpolicy.examples import (
    BANK_POLICY_XML,
    COMBINED_POLICY_XML,
    TAX_REFUND_POLICY_XML,
    bank_policy_set,
    combined_policy_set,
    tax_refund_policy_set,
)
from repro.xmlpolicy.dsl import compile_policy_set, decompile_policy_set
from repro.xmlpolicy.parser import (
    parse_policy_set,
    parse_policy_set_element,
    parse_policy_set_file,
    validate_policy_document,
)
from repro.xmlpolicy.writer import (
    policy_set_to_element,
    write_policy_set,
    write_policy_set_file,
)

__all__ = [
    "compile_policy_set",
    "decompile_policy_set",
    "parse_policy_set",
    "parse_policy_set_file",
    "parse_policy_set_element",
    "write_policy_set",
    "write_policy_set_file",
    "policy_set_to_element",
    "validate_policy_document",
    "BANK_POLICY_XML",
    "TAX_REFUND_POLICY_XML",
    "COMBINED_POLICY_XML",
    "bank_policy_set",
    "tax_refund_policy_set",
    "combined_policy_set",
]
