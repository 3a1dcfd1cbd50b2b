"""Dry-run explanation of an MSoD decision (the §4.2 algorithm, narrated).

``explain(engine, request)`` is :meth:`MSoDEngine.check` without its
commit: it runs :meth:`MSoDEngine.judge` — the engine's own evaluation —
with a narrator that turns each step the loop reports into a trace line,
and never mutates the retained ADI.  Operators use it to answer "why was
this denied?" (or "why would it be granted?") against live history; the
``repro explain`` CLI command exposes it.  Its verdict is ``check``'s
because the code is shared, and it records nothing on the engine's
``perf`` recorder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decision import DecisionRequest, Effect, MSoDViolation
from repro.core.engine import MODE_LITERAL, MSoDEngine
from repro.obs.recorder import NoopRecorder


@dataclass(frozen=True, slots=True)
class TraceLine:
    """One narrated step of the evaluation."""

    step: str  # the §4.2 step number this line belongs to
    message: str

    def __str__(self) -> str:
        return f"[step {self.step}] {self.message}"


@dataclass(slots=True)
class Explanation:
    """The dry-run result: a verdict plus the trace that led to it."""

    effect: str
    request: DecisionRequest
    lines: list[TraceLine]
    matched_policy_ids: tuple[str, ...]
    violation: MSoDViolation | None

    @property
    def granted(self) -> bool:
        return self.effect == Effect.GRANT

    def render(self) -> str:
        header = (
            f"{self.effect.upper()} {self.request.user_id} "
            f"{self.request.operation}@{self.request.target} "
            f"[{self.request.context_instance}]"
        )
        return "\n".join([header] + [f"  {line}" for line in self.lines])


class _Narrator(NoopRecorder):
    """Turns the engine loop's step reports into trace lines."""

    def __init__(self, literal: bool) -> None:
        super().__init__()
        self.literal = literal
        self.lines: list[TraceLine] = []

    def gate(self, policy, context, opens, fired) -> None:
        say, first = self.lines.append, policy.first_step
        say(TraceLine("1", f"policy {policy.policy_id!r}: effective context [{context}]"))
        if fired is None:
            say(TraceLine("4", f"context not started and request is not the first "
                          f"step ({first}); policy imposes nothing"))
            return
        if opens:
            declared = " (no first step declared)" if first is None else ""
            say(TraceLine("4", f"context starts with this request{declared}"))
            if self.literal:
                say(TraceLine("4", "literal mode: constraint checks skipped on "
                              "the context-starting request"))
                return
        else:
            say(TraceLine("3", "context already started in the retained ADI"))
        unfired = len(policy.constraints) - len(fired)
        if unfired:
            say(TraceLine("5-6", f"{unfired} constraint(s) not fired by this request"))

    def verdict(self, constraint, verdict) -> None:
        step = "5" if constraint.kind == "MMER" else "6"
        outcome = "ok" if verdict.ok else f"VIOLATION: {verdict.detail}"
        self.lines.append(TraceLine(step, f"{constraint!r}: {outcome}"))

    def step7(self, policy, ends) -> None:
        self.lines.append(TraceLine("7", (
            f"request is the last step ({policy.last_step}): a grant terminates "
            "the context instance and purges its retained history"
        ) if ends else "a grant would store the pending retained-ADI records"))


def explain(engine: MSoDEngine, request: DecisionRequest) -> Explanation:
    """Narrate the evaluation of ``request`` against the engine's state."""
    narrator = _Narrator(engine.mode == MODE_LITERAL)
    outcome = engine.judge(request, narrator)
    ids, where = outcome.matched_policy_ids, f"context [{request.context_instance}]"
    matched = TraceLine("1", (
        f"{where} matches {len(ids)} policy(ies): {', '.join(ids)}"
        if ids else f"{where} matches no MSoD policy; grant unaltered"
    ))
    return Explanation(
        outcome.effect, request, [matched, *narrator.lines], ids, outcome.violation
    )
