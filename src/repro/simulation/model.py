"""Configuration and reporting types for the organisational simulation.

The simulation models the paper's motivating organisation: a bank whose
staff change duties over time (tellers promoted to auditors), work in
many short access-control sessions, and are audited each period.  It is
the laptop-scale stand-in for the production workloads the paper's
introduction motivates (see the substitution table in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError


class SimulationError(ReproError):
    """Invalid simulation configuration or state."""


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Parameters of one simulated run.

    Attributes
    ----------
    seed:
        RNG seed; two runs with equal configs are identical.
    n_staff:
        Total staff.  Roughly 80% start as tellers, 20% as auditors.
    n_branches:
        Branches of the bank (context component ``Branch``).
    n_periods:
        Audit periods to simulate (context component ``Period``).
    actions_per_staff_period:
        How many duty actions each staff member attempts per period,
        each in its own access-control session.
    promotion_rate:
        Probability that a teller is promoted to auditor in a period
        (the Example-1 hazard: their cash-handling history is still
        live until the period's audit commits).
    """

    seed: int = 2007
    n_staff: int = 40
    n_branches: int = 3
    n_periods: int = 6
    actions_per_staff_period: int = 4
    promotion_rate: float = 0.15

    def __post_init__(self) -> None:
        if self.n_staff < 2:
            raise SimulationError("need at least 2 staff")
        if self.n_branches < 1:
            raise SimulationError("need at least 1 branch")
        if self.n_periods < 1:
            raise SimulationError("need at least 1 period")
        if self.actions_per_staff_period < 1:
            raise SimulationError("need at least 1 action per staff-period")
        if not 0.0 <= self.promotion_rate <= 1.0:
            raise SimulationError("promotion_rate must be in [0, 1]")


@dataclass(slots=True)
class PeriodStats:
    """Outcomes of one audit period."""

    period: int
    decisions: int = 0
    grants: int = 0
    msod_denials: int = 0
    rbac_denials: int = 0
    cross_duty_staff: int = 0  # staff who held both duties this period


@dataclass(slots=True)
class SimulationReport:
    """Aggregate outcomes of a run."""

    config: SimulationConfig
    enforcement: str  # "msod" or "none"
    periods: list[PeriodStats] = field(default_factory=list)

    @property
    def decisions(self) -> int:
        return sum(stats.decisions for stats in self.periods)

    @property
    def grants(self) -> int:
        return sum(stats.grants for stats in self.periods)

    @property
    def msod_denials(self) -> int:
        return sum(stats.msod_denials for stats in self.periods)

    @property
    def separation_failures(self) -> int:
        """Staff-periods where one person performed both duties.

        With MSoD enforcement this must be zero; without it, each one is
        a potential fraud the paper's mechanism exists to prevent.
        """
        return sum(stats.cross_duty_staff for stats in self.periods)
