"""repro.obs — the decision observability layer.

One recorder, three readers, zero cost when off:

* :mod:`repro.obs.recorder` — the :class:`Recorder` every pipeline layer
  reports to: counters, stage/size histograms and, once
  ``trace_decisions()`` is called, per-decision traces.  One
  ``span(name, started)`` call feeds histogram and trace alike, so
  their stage names (``pdp.cvs``, ``pdp.rbac``, ``pdp.audit``,
  ``engine.match``, ``engine.constraints``, ``store.commit``, enclosed
  by ``engine.check``) are one vocabulary.  Production pipelines run
  with :data:`NOOP`; call sites guard every recorder call behind its
  ``enabled`` flag.
* :mod:`repro.obs.trace` — the sealed :class:`DecisionTrace` schema:
  timed spans plus matched-policy and violation annotations, attached
  to the :class:`~repro.core.decision.Decision` itself.
* :mod:`repro.obs.metrics` — Prometheus text exposition of the
  recorder's counters/histograms and the server's per-shard queue
  gauges, served by the ``metrics`` wire verb and
  ``python -m repro metrics``.
* :mod:`repro.obs.slowlog` — a bounded log of the N slowest traces,
  queryable over the wire (``slowlog`` verb).

See ``docs/OBSERVABILITY.md`` for the trace schema, the metric name
mapping and a scrape example.
"""

from repro.obs.metrics import MetricsRegistry, parse_exposition
from repro.obs.recorder import (
    LATENCY_BUCKET_BOUNDS,
    NOOP,
    SIZE_BUCKET_BOUNDS,
    NoopRecorder,
    Recorder,
    StageStats,
)
from repro.obs.slowlog import SlowDecisionLog
from repro.obs.trace import DecisionTrace, TraceSpan, TraceViolation

__all__ = [
    "Recorder",
    "NoopRecorder",
    "NOOP",
    "StageStats",
    "LATENCY_BUCKET_BOUNDS",
    "SIZE_BUCKET_BOUNDS",
    "DecisionTrace",
    "TraceSpan",
    "TraceViolation",
    "SlowDecisionLog",
    "MetricsRegistry",
    "parse_exposition",
]
