"""What the engine's decision path runs in Python, counted per call.

A decision's values are tuples built in C, so the §4.2 loop should
call back into Python only for its own logic: equal roles are one
object (no ``TypedTuple.__eq__``), the engine builds its ``Decision``,
``MSoDViolation`` and ``PendingGrant`` positionally (no keyword
``__new__``), an MMER grant reuses the verdict of the matched-role set
it granted before, and a constraint's ``repr`` is built once (so a
role prints only for the first grant of its set, or for that ``repr``).
The census wraps each of those methods in a counter and runs the
bank's duty-pair stream on the memory store, after a warm-up.
"""

from collections import Counter

from repro.api import open_pdp
from repro.core import Decision, MSoDViolation, Role
from repro.core.constraints import (
    ConstraintVerdict,
    MultiSessionConstraint,
    TypedTuple,
)
from repro.core.engine import PendingGrant
from repro.workload import BankScaleConfig, bank_scale_policy_set
from repro.workload.bank_scale import bank_scale_request_stream

_BANK = BankScaleConfig(n_users=2_000)
_WARMUP = 200
_MEASURED = 2_000


class _Census:
    """Counts calls of the wrapped methods, by label."""

    def __init__(self, monkeypatch) -> None:
        self.calls: Counter = Counter()
        self.grant_verdicts = 0
        self.reprs: Counter = Counter()
        self._wrap(monkeypatch, TypedTuple, "__eq__")
        self._wrap(monkeypatch, Role, "__str__")
        for cls in (Decision, MSoDViolation, PendingGrant):
            new = cls.__new__

            def keyword_new(type_, *args, _new=new, _name=cls.__name__, **kwargs):
                self.calls[f"{_name}.__new__"] += 1
                return _new(type_, *args, **kwargs)

            monkeypatch.setattr(cls, "__new__", staticmethod(keyword_new))
        init = ConstraintVerdict.__init__

        def verdict_init(verdict, ok, *args, **kwargs):
            self.grant_verdicts += bool(ok)
            init(verdict, ok, *args, **kwargs)

        monkeypatch.setattr(ConstraintVerdict, "__init__", verdict_init)
        constraint_repr = MultiSessionConstraint.__repr__

        def counted_repr(constraint):
            self.reprs[id(constraint)] += 1
            return constraint_repr(constraint)

        monkeypatch.setattr(MultiSessionConstraint, "__repr__", counted_repr)

    def _wrap(self, monkeypatch, cls, name) -> None:
        method = getattr(cls, name)
        label = f"{cls.__name__}.{name}"

        def counted(*args, **kwargs):
            self.calls[label] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)


def test_the_decision_path_calls_no_value_object_code(monkeypatch):
    policy = bank_scale_policy_set(_BANK)
    requests = list(bank_scale_request_stream(_BANK, _WARMUP + _MEASURED))
    census = _Census(monkeypatch)
    # What has already run once: the roles granted and the policies that
    # denied (each bank policy holds one MMER, whose roles each activate).
    granted_roles, denied_by = set(), set()
    first_grants = warm = 0
    with open_pdp(policy, "memory") as pdp:
        for index, request in enumerate(requests):
            if index == _WARMUP:
                census.calls.clear()
                grants_before, first_grants = census.grant_verdicts, 0
            strs = census.calls["Role.__str__"]
            decision = pdp.decide(request)
            if decision.granted:
                new_roles = set(request.roles) - granted_roles
                first_grants += len(new_roles)
                granted_roles |= new_roles
                cold = bool(new_roles)
            else:
                cold = decision.violation.policy_id not in denied_by
                denied_by.add(decision.violation.policy_id)
            if not cold:
                # A role prints only to order a new grant or a new repr.
                assert census.calls["Role.__str__"] == strs
                warm += index >= _WARMUP
    assert warm > 0.9 * _MEASURED and granted_roles and denied_by
    census.calls.pop("Role.__str__", None)
    assert dict(census.calls) == {}
    # One grant verdict per matched-role set, built the first time it grants:
    # every bank request activates one role, filed under one MMER.
    assert census.grant_verdicts - grants_before == first_grants
    assert census.reprs and max(census.reprs.values()) == 1
