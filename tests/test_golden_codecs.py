"""Golden outputs of every constraint codec over a fixed policy corpus.

The corpus is the three paper example sets, the bank-scale MMER,
duty-binding and four-eyes sets at the default ``BankScaleConfig``, the
CI duty policy and a mixed (``strict=False``) set carrying duplicate and
redundant constraints of all four kinds.  For each set the golden file
pins every constraint's ``repr`` and ``canonical()`` form and the
``parse_constraint_repr`` round trip, the policy-set digest, the XML in
both layouts, the DSL rendering, the validator's report (strict and
not) and the static verifier's findings.  ``repr`` is persisted in
audit and violation payloads and ``canonical()`` feeds the digest, so
none of these may drift.  Under ``"invalid"`` it pins, for each of
``tests.test_xmlpolicy.INVALID_DOCUMENTS``, the parse error and the
validator's report, strict and not: the wording authors see.

Regenerate only for a deliberate output change, from the repository
root::

    PYTHONPATH=src python -m tests.test_golden_codecs
"""

import hashlib
import json
import pathlib

import pytest

from repro.core import ContextName, MSoDPolicy, MSoDPolicySet, Privilege, Role, Step
from repro.core.constraints import (
    MMCD,
    MMEP,
    MMER,
    AdminBoundary,
    policy_store_boundary,
)
from repro.core.policy_epoch import policy_set_digest
from repro.errors import PolicyParseError
from repro.verify import analyze_policy_set
from repro.workload import (
    BankScaleConfig,
    bank_scale_duty_binding_policy_set,
    bank_scale_policy_set,
    four_eyes_filing_policy_set,
)
from repro.xmlpolicy import (
    bank_policy_set,
    combined_policy_set,
    decompile_policy_set,
    parse_policy_set,
    tax_refund_policy_set,
    validate_policy_document,
    write_policy_set,
)
from repro.xmlpolicy.dsl import parse_constraint_repr
from tests.test_xmlpolicy import INVALID_DOCUMENTS

GOLDEN = pathlib.Path(__file__).with_name("golden_codecs.json")

_TELLER, _AUDITOR, _CLERK = (
    Role("employee", "Teller"),
    Role("employee", "Auditor"),
    Role("employee", "Clerk"),
)
_REVIEW, _SIGNOFF, _AMEND = (
    Privilege("review", "filing://annual"),
    Privilege("signoff", "filing://annual"),
    Privilege("amend", "filing://annual"),
)
_RELOAD = Privilege("policy-reload", "pdp://management/policyStore")


def _ci_duty_policy_set():
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Filing=*, Case=!"),
                constraints=[MMCD([_REVIEW, _SIGNOFF])],
                policy_id="filing-binding",
            ),
            MSoDPolicy(
                ContextName.parse("Filing=*, Case=*"),
                constraints=[policy_store_boundary()],
                policy_id="store-guard",
            ),
        ]
    )


def _mixed_policy_set():
    """Duplicates and redundancies of every kind, in one mixed policy,
    a shadowed subordinate copy of it and a semantic duplicate."""
    constraints = [
        MMER([_TELLER, _AUDITOR], 2),
        MMER([_AUDITOR, _TELLER], 2),  # duplicate modulo order
        MMER([_TELLER, _AUDITOR, _CLERK], 2),  # makes the first redundant
        MMEP([_REVIEW, _REVIEW], 2),
        MMEP([_REVIEW, _REVIEW, _SIGNOFF], 2),  # makes the first redundant
        MMEP([_REVIEW, _REVIEW], 2),
        MMCD([_REVIEW, _SIGNOFF, _AMEND]),
        MMCD([_AMEND, _SIGNOFF, _REVIEW]),
        MMCD([_REVIEW, _AMEND]),
        AdminBoundary("ops, \"quoted\" {braced}", [_RELOAD, _AMEND]),
        AdminBoundary("ops, \"quoted\" {braced}", [_AMEND, _RELOAD]),
        AdminBoundary("other", [_RELOAD]),
    ]
    return MSoDPolicySet(
        [
            MSoDPolicy(
                ContextName.parse("Filing=*, Case=!"),
                constraints=constraints,
                first_step=Step("review", "filing://annual"),
                last_step=Step("signoff", "filing://annual"),
                policy_id="mixed",
            ),
            MSoDPolicy(
                ContextName.parse("Filing=Annual, Case=!"),
                constraints=[constraints[0], constraints[3], constraints[6]],
                first_step=Step("review", "filing://annual"),
                last_step=Step("signoff", "filing://annual"),
                policy_id="shadowed",
            ),
            MSoDPolicy(
                ContextName.parse("Filing=*, Case=!"),
                constraints=list(reversed(constraints)),
                first_step=Step("review", "filing://annual"),
                last_step=Step("signoff", "filing://annual"),
                policy_id="mixed-again",
            ),
        ]
    )


def corpus() -> dict:
    config = BankScaleConfig()
    return {
        "bank": bank_policy_set(),
        "tax-refund": tax_refund_policy_set(),
        "combined": combined_policy_set(),
        "bank-scale-mmer": bank_scale_policy_set(config),
        "bank-scale-duty-binding": bank_scale_duty_binding_policy_set(config),
        "bank-scale-four-eyes": four_eyes_filing_policy_set(config),
        "ci-duty": _ci_duty_policy_set(),
        "mixed": _mixed_policy_set(),
    }


def _sha(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def snapshot(policy_set: MSoDPolicySet) -> dict:
    constraints = [c for policy in policy_set for c in policy.constraints]
    round_trip = [parse_constraint_repr(repr(c)) for c in constraints]
    assert round_trip == constraints
    xml = write_policy_set(policy_set)
    return {
        "repr": [repr(c) for c in constraints],
        "canonical": _sha([c.canonical() for c in constraints]),
        "repr_round_trip": _sha([[repr(c), c.canonical()] for c in round_trip]),
        "digest": policy_set_digest(policy_set),
        "xml_pretty": _sha(xml),
        "xml_flat": _sha(write_policy_set(policy_set, pretty=False)),
        "dsl": _sha(decompile_policy_set(policy_set)),
        "validate_strict": validate_policy_document(xml, strict=True),
        "validate": validate_policy_document(xml, strict=False),
        "findings": [str(f) for f in analyze_policy_set(policy_set).findings],
    }


def invalid_snapshot(text: str) -> dict:
    report = {}
    for strict, suffix in ((True, "_strict"), (False, "")):
        try:
            parse_policy_set(text, strict=strict)
            report["parse" + suffix] = None
        except PolicyParseError as exc:
            report["parse" + suffix] = str(exc)
        report["validate" + suffix] = validate_policy_document(text, strict=strict)
    return report


_CORPUS = corpus()


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_codec_outputs_match_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    current = snapshot(_CORPUS[name])
    for artifact, expected in golden.items():
        assert current[artifact] == expected, f"{name}: {artifact} drifted"


@pytest.mark.parametrize("name", sorted(INVALID_DOCUMENTS))
def test_invalid_document_reports_match_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["invalid"][name]
    assert invalid_snapshot(INVALID_DOCUMENTS[name]) == golden


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {
                **{
                    name: snapshot(policy_set)
                    for name, policy_set in _CORPUS.items()
                },
                "invalid": {
                    name: invalid_snapshot(text)
                    for name, text in INVALID_DOCUMENTS.items()
                },
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
