"""A human-friendly authoring DSL for MSoD policies.

The Appendix-A XML is the interchange format; this module adds the
compact text form policy authors actually want to write, compiling to
the same in-memory model (and therefore to the XML).  Example::

    # Example 1 — bank cash processing
    policy bank within "Branch=*, Period=!":
        last step CommitAudit on http://audit.location.com/audit
        mutually exclusive roles limit 2:
            employee:Teller, employee:Auditor

    # Example 2 — tax refund
    policy tax within "TaxOffice=!, taxRefundProcess=!":
        first step prepareCheck on http://www.myTaxOffice.com/Check
        last step confirmCheck on http://secret.location.com/audit
        mutually exclusive privileges limit 2:
            prepareCheck on http://www.myTaxOffice.com/Check,
            confirmCheck on http://secret.location.com/audit

Grammar (line-oriented; ``#`` starts a comment; commas separate items,
which may wrap onto continuation lines):

* ``policy <id> within "<business context>":`` opens a policy block;
  the universal context is ``within ""``.
* ``first step <operation> on <target>`` / ``last step ...`` —
  lifecycle steps (at most one of each).
* ``mutually exclusive roles limit <m>:`` followed by a
  comma-separated list of ``type:value`` roles — an MMER.
* ``mutually exclusive privileges limit <m>:`` followed by a
  comma-separated list of ``operation on target`` — an MMEP (the same
  privilege may be listed repeatedly, per Section 2.4).
* ``combination of duty:`` followed by a comma-separated list of
  ``operation on target`` — an MMCD bound set (all listed steps must
  be performed by the same user per context instance).
* ``admin boundary "<label>":`` followed by a comma-separated list of
  ``operation on target`` — an AdminBoundary guarding administrative
  privileges with SoD over the PDP's own state.

Every constraint header follows one rule, ``<phrase>[ "<label>"][ limit
<m>]:``, from the kind's declared shape; :data:`PHRASES` maps each kind
to its phrase.

:func:`compile_policy_set` parses the DSL; :func:`decompile_policy_set`
renders any policy set back into it; the round trip is property-tested.
:func:`parse_constraint_repr` round-trips any constraint's ``repr()``
back into the constraint object.
"""

from __future__ import annotations

import ast
import re

from repro.core.constraints import (
    CONSTRAINT_KINDS,
    MultiSessionConstraint,
    Privilege,
    Role,
)
from repro.core.context import ContextName
from repro.core.policy import MSoDPolicy, MSoDPolicySet, Step
from repro.errors import (
    ConstraintError,
    ContextNameError,
    PolicyError,
    PolicyParseError,
)
from repro.xmlpolicy.schema import MEMBER_FIELDS, constraint_kinds

#: The header phrase of each constraint kind.
PHRASES = {
    "MMER": "mutually exclusive roles",
    "MMEP": "mutually exclusive privileges",
    "MMCD": "combination of duty",
    "ADMIN_BOUNDARY": "admin boundary",
}

#: What separates a member's two fields: in DSL items, and in a
#: constraint's ``repr`` (which shows ``str(member)``).
_SEPARATORS = {Role: (":", ":"), Privilege: (" on ", "@")}


class _Block:
    """One policy block being assembled during parsing."""

    def __init__(self, policy_id: str, context: ContextName, line_no: int):
        self.policy_id = policy_id
        self.context = context
        self.line_no = line_no
        self.first_step: Step | None = None
        self.last_step: Step | None = None
        self.constraints: list[MultiSessionConstraint] = []

    def build(self) -> MSoDPolicy:
        try:
            return MSoDPolicy(
                business_context=self.context,
                first_step=self.first_step,
                last_step=self.last_step,
                policy_id=self.policy_id,
                constraints=self.constraints,
            )
        except PolicyError as exc:
            raise PolicyParseError(
                f"line {self.line_no}: policy {self.policy_id!r}: {exc}"
            ) from exc


def _fail(line_no: int, message: str) -> PolicyParseError:
    return PolicyParseError(f"line {line_no}: {message}")


def _strip_comment(line: str) -> str:
    position = line.find("#")
    return line if position < 0 else line[:position]


def _parse_step(rest: str, line_no: int) -> Step:
    operation, sep, target = rest.partition(" on ")
    if not sep or not operation.strip() or not target.strip():
        raise _fail(line_no, "expected '<operation> on <target>'")
    try:
        return Step(operation.strip(), target.strip())
    except PolicyError as exc:
        raise _fail(line_no, str(exc)) from exc


def _member(member_type: type, token: str, separator: str):
    """One ``<field><separator><field>`` member; raises ``ValueError`` on
    a bad form and :class:`ConstraintError` on empty fields."""
    first, sep, second = token.partition(separator)
    if not sep:
        form = separator.join(member_type._fields)
        raise ValueError(
            f"{member_type.__name__.lower()} {token!r} must be of the form {form}"
        )
    return member_type(first.strip(), second.strip())


def _header(stripped: str, line_no: int) -> tuple | None:
    """``(kind class, shape values)`` of a constraint header line, or
    ``None`` when the line opens no constraint."""
    for kind, phrase in PHRASES.items():
        if stripped.startswith(phrase) and stripped[len(phrase):][:1] in " :":
            break
    else:
        return None
    cls = CONSTRAINT_KINDS[kind]
    rest = stripped[len(phrase):].strip()
    if not rest.endswith(":"):
        raise _fail(line_no, "constraint header must end with ':'")
    rest = rest[:-1].strip()
    values: dict = {}
    if "label" in cls.fields:
        end = rest.rfind('"')
        if not rest.startswith('"') or end < 1:
            raise _fail(line_no, f"{phrase} label must be double-quoted")
        values["label"], rest = rest[1:end], rest[end + 1:].strip()
    if "m" in cls.fields:
        keyword, _, limit = rest.partition(" ")
        if keyword != "limit":
            raise _fail(line_no, f"expected '{phrase} limit <m>:'")
        try:
            values["m"] = int(limit)
        except ValueError as exc:
            raise _fail(line_no, "limit must be an integer") from exc
        rest = ""
    if rest:
        raise _fail(line_no, f"unexpected {rest!r} in '{phrase}' header")
    return cls, values


def compile_policy_set(text: str) -> MSoDPolicySet:
    """Compile DSL text into an :class:`MSoDPolicySet`."""
    policies: list[MSoDPolicy] = []
    block: _Block | None = None
    # (kind class, shape values, line) of the constraint being listed.
    pending: tuple[type, dict, int] | None = None
    pending_items: list[str] = []

    def flush_pending() -> None:
        nonlocal pending, pending_items
        if pending is None:
            return
        cls, values, line_no = pending
        items = [item.strip() for item in pending_items if item.strip()]
        if not items:
            raise _fail(line_no, f"'{PHRASES[cls.kind]}' list is empty")
        separator = _SEPARATORS[cls.member_type][0]
        try:
            values["members"] = [
                _member(cls.member_type, item, separator) for item in items
            ]
            block.constraints.append(cls(*(values[f] for f in cls.fields)))
        except (ConstraintError, ValueError) as exc:
            raise _fail(line_no, str(exc)) from exc
        pending = None
        pending_items = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).rstrip()
        if not line.strip():
            continue
        stripped = line.strip()

        if stripped.startswith("policy "):
            flush_pending()
            if block is not None:
                policies.append(block.build())
            rest = stripped[len("policy "):]
            if not rest.endswith(":"):
                raise _fail(line_no, "policy header must end with ':'")
            rest = rest[:-1].strip()
            name, sep, context_part = rest.partition(" within ")
            if not sep:
                raise _fail(
                    line_no, "expected 'policy <id> within \"<context>\":'"
                )
            context_text = context_part.strip()
            if not (
                len(context_text) >= 2
                and context_text[0] == '"'
                and context_text[-1] == '"'
            ):
                raise _fail(line_no, "business context must be double-quoted")
            try:
                context = ContextName.parse(context_text[1:-1])
            except ContextNameError as exc:
                raise _fail(line_no, str(exc)) from exc
            if not name.strip():
                raise _fail(line_no, "policy needs an identifier")
            block = _Block(name.strip(), context, line_no)
            continue

        if block is None:
            raise _fail(line_no, f"statement outside a policy block: {stripped!r}")

        if stripped.startswith("first step "):
            flush_pending()
            if block.first_step is not None:
                raise _fail(line_no, "duplicate 'first step'")
            block.first_step = _parse_step(stripped[len("first step "):], line_no)
        elif stripped.startswith("last step "):
            flush_pending()
            if block.last_step is not None:
                raise _fail(line_no, "duplicate 'last step'")
            block.last_step = _parse_step(stripped[len("last step "):], line_no)
        elif (header := _header(stripped, line_no)) is not None:
            flush_pending()
            pending = (*header, line_no)
            pending_items = []
        elif pending is not None:
            # Continuation of a constraint's item list.
            pending_items.extend(
                item for item in stripped.split(",") if item.strip()
            )
        else:
            raise _fail(line_no, f"unrecognised statement: {stripped!r}")

    flush_pending()
    if block is not None:
        policies.append(block.build())
    if not policies:
        raise PolicyParseError("no policies found in DSL input")
    try:
        return MSoDPolicySet(policies)
    except PolicyError as exc:
        raise PolicyParseError(str(exc)) from exc


def decompile_policy_set(policy_set: MSoDPolicySet) -> str:
    """Render a policy set as DSL text (compiles back to an equivalent set)."""
    lines: list[str] = []
    for policy in policy_set:
        lines.append(
            f'policy {policy.policy_id} within "{policy.business_context}":'
        )
        if policy.first_step is not None:
            lines.append(
                f"    first step {policy.first_step.operation} "
                f"on {policy.first_step.target}"
            )
        if policy.last_step is not None:
            lines.append(
                f"    last step {policy.last_step.operation} "
                f"on {policy.last_step.target}"
            )
        for constraint in policy.constraints:
            header = PHRASES.get(constraint.kind)
            if header is None or not constraint.fields:
                raise PolicyError(
                    "no DSL serialisation for constraint kind "
                    f"{constraint.kind!r}"
                )
            if constraint.label is not None:
                header += f' "{constraint.label}"'
            if constraint.m is not None:
                header += f" limit {constraint.m}"
            lines.append(f"    {header}:")
            separator = _SEPARATORS[constraint.member_type][0]
            values_of = MEMBER_FIELDS[constraint.member_type]
            members = constraint.members
            if constraint.member_type is Role:  # role sets are written sorted
                members = sorted(members, key=str)
            lines.append(
                "        "
                + ", ".join(separator.join(values_of(m)) for m in members)
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


#: The ``repr`` of each shape field: a string literal, braced members,
#: ``m=<int>``.
_REPR_FIELDS = {
    "label": r"(?P<label>'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")",
    "members": r"\{(?P<members>.*)\}",
    "m": r"m=(?P<m>-?\d+)",
}


def parse_constraint_repr(text: str) -> MultiSessionConstraint:
    """Parse a constraint's ``repr()`` back into the constraint.

    Every constraint kind's ``repr`` (the form embedded in violation
    payloads and audit records, e.g. ``MMER({employee:Teller,
    employee:Auditor}, m=2)``) round-trips through this parser:
    ``parse_constraint_repr(repr(c)) == c``.  MMEP reprs preserve
    duplicate privileges — the multiset idiom of Section 2.4 survives
    the trip.
    """
    name, _, body = text.strip().partition("(")
    cls = constraint_kinds().get(name)
    match = cls and re.fullmatch(
        ", ".join(_REPR_FIELDS[field] for field in cls.fields) + r"\)",
        body,
        re.DOTALL,
    )
    if not match:
        raise PolicyParseError(f"unrecognised constraint repr: {text!r}")
    inner = match.group("members").strip()
    separator = _SEPARATORS[cls.member_type][1]
    try:
        values = {
            "members": [
                _member(cls.member_type, token.strip(), separator)
                for token in (inner.split(",") if inner else ())
            ]
        }
        if "label" in cls.fields:
            values["label"] = ast.literal_eval(match.group("label"))
        if "m" in cls.fields:
            values["m"] = int(match.group("m"))
        return cls(*(values[field] for field in cls.fields))
    except (ConstraintError, ValueError, SyntaxError) as exc:
        raise PolicyParseError(
            f"bad constraint repr {text!r}: {exc}"
        ) from exc
