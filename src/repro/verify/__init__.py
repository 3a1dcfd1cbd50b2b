"""Policy verification & safe-rollout pipeline.

Three stages turn hot-reload from merely-atomic into production-safe:

1. :mod:`repro.verify.static` — structured static analysis of an MSoD
   policy set (machine-readable findings with stable codes);
2. :mod:`repro.verify.whatif` — differential replay of a recorded audit
   trail under a candidate set, reporting flipped decisions; each
   recorded decision is read by
   :func:`repro.audit.recovery.decision_from_event`, the trail's one
   reader of a decision event;
3. :mod:`repro.verify.gate` — the rollout gate combining both, and the
   one reload admission step (admin boundary, gate, ``force``) that
   every reload path — ``policy reload``, ``cluster reload`` and the
   cluster canary — runs.
"""

from repro.verify.gate import GateResult, admit_reload, evaluate_gate
from repro.verify.static import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    VerifyFinding,
    VerifyReport,
    analyze_policy_set,
    render_findings,
)
from repro.verify.whatif import (
    DecisionFlip,
    WhatIfReport,
    what_if_replay,
)

__all__ = [
    "GateResult",
    "admit_reload",
    "evaluate_gate",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "VerifyFinding",
    "VerifyReport",
    "analyze_policy_set",
    "render_findings",
    "DecisionFlip",
    "WhatIfReport",
    "what_if_replay",
]
