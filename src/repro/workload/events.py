"""The neutral scenario/event model used by the baseline comparison.

Every separation-of-duty mechanism hooks a different enforcement point:
ANSI SSD blocks role *assignment*, ANSI DSD blocks role *activation*,
MSoD / anti-roles / transaction control expressions block *access*.  To
compare them fairly, a workload is a stream of :class:`Scenario` objects
— short scripts of assignment, activation and access steps with a
ground-truth label — and each checker blocks whichever step its
mechanism can see.  A scenario counts as *detected* when any of its
steps is blocked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.constraints import Role
from repro.core.context import ContextName

STEP_ASSIGN = "assign"
STEP_ACTIVATE = "activate"
STEP_ACCESS = "access"

#: Ground-truth conflict classes injected by the generator.
BENIGN = "benign"
SAME_SESSION = "same_session"  # conflicting roles co-active in one session
SINGLE_AUTHORITY = "single_authority"  # both roles assigned by one authority
CROSS_SESSION = "cross_session"  # conflict spans sessions, same context
FEDERATED_UNLINKED = "federated_unlinked"  # per-session handles, no linking
FEDERATED_LINKED = "federated_linked"  # aliases linked to a local identity
REPEATED_PRIVILEGE = "repeated_privilege"  # cap-1 privilege exercised twice
OBJECT_COMPLETION = "object_completion"  # one user completes prepare+confirm

VIOLATION_CLASSES = (
    SAME_SESSION,
    SINGLE_AUTHORITY,
    CROSS_SESSION,
    FEDERATED_UNLINKED,
    FEDERATED_LINKED,
    REPEATED_PRIVILEGE,
    OBJECT_COMPLETION,
)

ALL_CLASSES = (BENIGN,) + VIOLATION_CLASSES


@dataclass(frozen=True, slots=True)
class Step:
    """One step of a scenario script.

    ``user_id`` is the true identity; ``presented_id`` is the identifier
    the enforcement point actually sees (a Shibboleth handle, a Liberty
    alias, or the true id).  ``authority`` names the domain that assigned
    the roles in play.
    """

    kind: str
    user_id: str
    presented_id: str
    session_id: str
    authority: str
    roles: tuple[Role, ...]
    operation: str = ""
    target: str = ""
    context_instance: ContextName | None = None
    timestamp: float = 0.0

    @property
    def is_access(self) -> bool:
        return self.kind == STEP_ACCESS


@dataclass(frozen=True, slots=True)
class Scenario:
    """A labelled script: benign traffic or one injected violation."""

    scenario_id: str
    label: str
    steps: tuple[Step, ...]
    description: str = ""

    @property
    def is_violation(self) -> bool:
        return self.label != BENIGN

    def access_steps(self) -> Iterator[Step]:
        return (step for step in self.steps if step.is_access)


@dataclass(slots=True)
class ScenarioOutcome:
    """How one checker fared on one scenario."""

    scenario: Scenario
    blocked: bool
    blocked_step: int | None = None
    reason: str = ""

    @property
    def correct(self) -> bool:
        """Blocked iff the scenario really was a violation."""
        return self.blocked == self.scenario.is_violation


@dataclass(slots=True)
class DetectionReport:
    """Aggregated detection statistics for one checker."""

    checker_name: str
    per_class: dict[str, list[ScenarioOutcome]] = field(default_factory=dict)

    def record(self, outcome: ScenarioOutcome) -> None:
        self.per_class.setdefault(outcome.scenario.label, []).append(outcome)

    def detection_rate(self, label: str) -> float:
        """Fraction of scenarios of this class the checker blocked."""
        outcomes = self.per_class.get(label, [])
        if not outcomes:
            return float("nan")
        return sum(1 for outcome in outcomes if outcome.blocked) / len(outcomes)

    def false_positive_rate(self) -> float:
        """Fraction of benign scenarios the checker wrongly blocked."""
        return self.detection_rate(BENIGN) if BENIGN in self.per_class else 0.0
