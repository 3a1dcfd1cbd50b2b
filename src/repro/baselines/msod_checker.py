"""The paper's mechanism wrapped in the comparison-checker interface.

The MSoD checker evaluates *access* steps through the Section 4.2 engine.
The identity the retained ADI is keyed on is whatever the PDP sees —
``presented_id`` resolved through an optional
:class:`~repro.vo.federation.IdentityLinker` — faithfully reproducing
the Section 6 federation limitation and its fix.
"""

from __future__ import annotations

from repro.baselines.base import SoDChecker
from repro.core.decision import DecisionRequest
from repro.core.engine import MODE_STRICT, MSoDEngine
from repro.core.policy import MSoDPolicySet
from repro.core.store_memory import InMemoryRetainedADIStore
from repro.vo.federation import IdentityLinker
from repro.workload.events import STEP_ACCESS, Step


class MSoDChecker(SoDChecker):
    """MMER/MMEP enforcement over a retained ADI."""

    def __init__(
        self,
        policy_set: MSoDPolicySet,
        linker: IdentityLinker | None = None,
        mode: str = MODE_STRICT,
        name: str = "MSoD",
    ) -> None:
        self.name = name
        self._policy_set = policy_set
        self._linker = linker
        self._mode = mode
        self._engine = MSoDEngine(
            policy_set, InMemoryRetainedADIStore(), mode=mode
        )

    def reset(self) -> None:
        self._engine = MSoDEngine(
            self._policy_set, InMemoryRetainedADIStore(), mode=self._mode
        )

    @property
    def engine(self) -> MSoDEngine:
        return self._engine

    def process_step(self, step: Step) -> tuple[bool, str]:
        if step.kind != STEP_ACCESS or step.context_instance is None:
            return False, ""
        identity = (
            self._linker.resolve(step.presented_id)
            if self._linker is not None
            else step.presented_id
        )
        request = DecisionRequest(
            user_id=identity,
            roles=step.roles,
            operation=step.operation,
            target=step.target,
            context_instance=step.context_instance,
            timestamp=step.timestamp,
        )
        decision = self._engine.check(request)
        if decision.denied:
            return True, decision.reason
        return False, ""
