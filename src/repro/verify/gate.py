"""The rollout gate (stage 3): static analysis + what-if as a swap gate.

:func:`evaluate_gate` runs the static analyzer over the candidate set
and — when a recorded trail is available — the differential what-if
replay, then fails on error-severity findings or on more decision
flips than the operator budgeted (``max_flips``).

:func:`admit_reload` is the one admission step every policy reload runs
— in-process, served, cluster-wide and canary alike: the routing check
on more than one shard, the acting principal against each live engine's
outgoing AdminBoundary, then the gate, then a refusal unless ``force``.
It is the only place a reload is analysed: the engine's swap is a
digest, a compile and one assignment.  :func:`reload_engine` is the
admission and swap of one engine, as every single-engine handle runs it.
:func:`admit_routing` is its first step, which building or growing a
multi-shard cluster also runs and which nothing forces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.constraints import POLICY_RELOAD_PRIVILEGE
from repro.core.policy import MSoDPolicySet
from repro.errors import PolicyError
from repro.verify.static import (
    VerifyReport,
    analyze_policy_set,
    cluster_routing_findings,
    render_findings,
)
from repro.verify.whatif import WhatIfReport, what_if_replay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit.trail import AuditEvent
    from repro.core.engine import MSoDEngine
    from repro.core.policy_epoch import PolicySwapReport
    from repro.permis.policy import PermisPolicy
    from repro.rbac.constraints import SsdConstraint


@dataclass(frozen=True, slots=True)
class GateResult:
    """The verdict of one verification-gated rollout attempt."""

    static: VerifyReport
    whatif: WhatIfReport | None
    max_flips: int
    ok: bool
    reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "max_flips": self.max_flips,
            "reasons": list(self.reasons),
            "static": self.static.to_dict(),
            "whatif": self.whatif.to_dict() if self.whatif else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GateResult":
        whatif = data.get("whatif")
        return cls(
            static=VerifyReport.from_dict(data.get("static", {})),
            whatif=WhatIfReport.from_dict(whatif) if whatif else None,
            max_flips=int(data.get("max_flips", 0)),
            ok=bool(data.get("ok", False)),
            reasons=tuple(str(r) for r in data.get("reasons", ())),
        )


def evaluate_gate(
    candidate_set: MSoDPolicySet,
    *,
    permis: "PermisPolicy | None" = None,
    ssd: Iterable["SsdConstraint"] = (),
    events: "Iterable[AuditEvent] | None" = None,
    max_flips: int = 0,
) -> GateResult:
    """Run the verification gate over a candidate policy set.

    Static analysis always runs; the what-if replay runs only when a
    recorded trail's ``events`` are supplied.  The gate fails on any
    error-severity static finding and on strictly more than
    ``max_flips`` flipped decisions.
    """
    static = analyze_policy_set(candidate_set, permis=permis, ssd=ssd)
    reasons: list[str] = []
    if not static.ok:
        reasons.extend(str(finding) for finding in static.errors)
    whatif: WhatIfReport | None = None
    if events is not None:
        whatif = what_if_replay(events, candidate_set)
        if whatif.flip_count > max_flips:
            reasons.append(
                f"what-if replay flips {whatif.flip_count} recorded "
                f"decisions (budget {max_flips}): "
                + "; ".join(str(flip) for flip in whatif.flips[:5])
            )
    return GateResult(
        static=static,
        whatif=whatif,
        max_flips=max_flips,
        ok=not reasons,
        reasons=tuple(reasons),
    )


def admit_reload(
    engines: Iterable["MSoDEngine"],
    candidate_set: MSoDPolicySet,
    *,
    shards: int = 1,
    principal: str | None = None,
    verify: bool = True,
    max_flips: int = 0,
    force: bool = False,
    trail_reader: "Callable[[], Iterable[AuditEvent]] | None" = None,
    observe: Callable[[GateResult], None] | None = None,
) -> GateResult:
    """Admit ``candidate_set`` onto ``engines`` or raise :class:`PolicyError`.

    0. :func:`admit_routing` refuses a context-coupled set on
       ``shards`` > 1 per-user-routed shards; ``force`` does not apply.
    1. When ``principal`` is given, every engine's *outgoing* policy
       set is asked whether an admin boundary forbids that principal
       the reload privilege — before anything is swapped, so a refusal
       never leaves engines on two versions.  ``force`` does **not**
       override this: the boundary protects the PDP from its own
       operators.
    2. :func:`evaluate_gate` runs: static analysis always and, with
       ``verify``, the what-if replay of the events ``trail_reader``
       reads.  With ``verify``, ``observe`` sees the verdict
       before any refusal.
    3. A failed gate refuses unless ``force``.

    Returns the gate verdict, whose rendered static findings the caller
    attaches to the engine's
    :class:`~repro.core.policy_epoch.PolicySwapReport`.
    """
    admit_routing(candidate_set, shards)
    if principal is not None:
        for engine in engines:
            denial = engine.admin_boundary_denial(
                principal, POLICY_RELOAD_PRIVILEGE
            )
            if denial is not None:
                raise PolicyError(
                    f"policy reload refused by admin boundary: {denial}"
                )
    gate = evaluate_gate(
        candidate_set,
        events=trail_reader() if verify and trail_reader else None,
        max_flips=max_flips,
    )
    if verify and observe is not None:
        observe(gate)
    if not gate.ok and not force:
        raise PolicyError(
            "policy reload refused by verification gate: "
            + "; ".join(gate.reasons)
        )
    return gate


def reload_engine(
    engine: "MSoDEngine",
    candidate_set: MSoDPolicySet,
    *,
    force: bool = False,
    **admission,
) -> "PolicySwapReport":
    """:func:`admit_reload` onto ``engine``, then its swap.

    ``admission`` takes :func:`admit_reload`'s other keywords.  The
    report carries the admission's rendered static findings.
    """
    gate = admit_reload([engine], candidate_set, force=force, **admission)
    report = engine.swap_policy(candidate_set, force=force)
    return replace(report, findings=render_findings(gate.static))


def admit_routing(policy_set: MSoDPolicySet, shards: int) -> None:
    """Refuse ``policy_set`` on ``shards`` > 1 per-user-routed shards when
    it couples users (``CLUSTER_ROUTING_UNSAFE``); ``force`` never applies."""
    findings = cluster_routing_findings(policy_set) if shards > 1 else ()
    if findings:
        raise PolicyError(
            f"policy set refused on {shards} shards: "
            + "; ".join(str(finding) for finding in findings)
        )
