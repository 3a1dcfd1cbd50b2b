"""The one recorder the decision pipeline reports to.

You cannot keep a hot path fast without measuring it, and you cannot
explain a slow or denied request without seeing the stages it passed
through.  Both needs are served by one observer, so the pipeline talks
to one object and takes one clock read per stage:

* **counters** — monotonically increasing event counts (requests,
  grants, denies, records added/purged, ...);
* **stage histograms** — wall-clock durations of named pipeline stages
  (``engine.match``, ``engine.constraints``, ``store.commit``, ...)
  binned into logarithmic latency buckets so tail behaviour survives
  aggregation, plus dimensionless *size* histograms (wire batch sizes);
* **per-decision traces** — once :meth:`Recorder.trace_decisions` has
  switched them on, the same :meth:`Recorder.span` calls also build a
  :class:`~repro.obs.trace.DecisionTrace` that is attached to the
  decision and offered to the slow-decision log.  Histogram stage names
  and trace span names are therefore one vocabulary by construction.

Instrumentation must cost nothing when unused: production PDPs run with
:data:`NOOP`, whose ``enabled`` flag is False, and every call site
guards *all* of its recorder calls — counters included — behind one
read of that flag::

    obs = self._perf
    if not obs.enabled:
        return self._commit(request, self.judge(request))
    started = obs.begin()
    try:
        decision = self._commit(request, self.judge(request, obs, started), obs)
    except BaseException:
        obs.abandon()
        raise
    obs.span("engine.check", started)
    return obs.finish(decision)

Traces *nest*: a PDP begins the trace before its RBAC check, the engine
joins it for the MSoD stages, and only the outermost ``finish`` seals
it.  A layer whose decision raises calls :meth:`Recorder.abandon`, so a
failed decision never leaves a trace open for later ones to join.

This module imports nothing from :mod:`repro.core`, so the wire
protocol and the CLI can use it without import cycles.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.slowlog import SlowDecisionLog
from repro.obs.trace import DecisionTrace, TraceSpan, TraceViolation

__all__ = [
    "Recorder",
    "NoopRecorder",
    "NOOP",
    "StageStats",
    "LATENCY_BUCKET_BOUNDS",
    "SIZE_BUCKET_BOUNDS",
]

#: Upper bounds (seconds) of the logarithmic latency buckets: 1µs to 10s
#: in 1-10 decades with a 1/2/5 subdivision, plus a catch-all overflow.
LATENCY_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for base in (1.0, 2.0, 5.0)
) + (10.0,)

#: Upper bounds of the power-of-two size buckets used for dimensionless
#: distributions (wire batch sizes, frame counts).  Sizes are small
#: integers, so doubling bounds keep the histogram tight where batching
#: behaviour actually changes (1 vs 2 vs 8 requests per frame).
SIZE_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    float(1 << shift) for shift in range(11)  # 1 .. 1024
)


class StageStats:
    """Aggregated observations for one named stage.

    By default the buckets are the logarithmic *latency* bounds (values
    are seconds); pass ``bounds=SIZE_BUCKET_BOUNDS`` for dimensionless
    size distributions such as wire batch sizes.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "bounds")

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BUCKET_BOUNDS) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        for index, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def merge(self, other: "StageStats") -> None:
        """Fold another stage's aggregates into this one.

        Both sides must share the same bucket bounds, so bucket counts
        add position-wise; used by the metrics exposition to combine
        recorders without double-emitting series.
        """
        if other.bounds != self.bounds:
            raise ValueError("cannot merge stages with different bucket bounds")
        self.count += other.count
        self.total += other.total
        if other.count:
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
        for index, bucket_count in enumerate(other.buckets):
            self.buckets[index] += bucket_count

    def quantile(self, q: float) -> float:
        """Approximate quantile from the histogram (bucket upper bound)."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.buckets):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max

    def to_dict(self) -> dict:
        # Latency stages keep their historical key format ("<=1e-03s")
        # so committed BENCH snapshots stay comparable; size stages use
        # plain integer-ish labels ("<=8").
        if self.bounds is LATENCY_BUCKET_BOUNDS:
            labels = [f"<={bound:.0e}s" for bound in self.bounds]
            overflow = f">{self.bounds[-1]:g}s"
        else:
            labels = [f"<={bound:g}" for bound in self.bounds]
            overflow = f">{self.bounds[-1]:g}"
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.total / self.count if self.count else 0.0,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
            "buckets": {
                labels[index]: self.buckets[index]
                for index in range(len(self.bounds))
                if self.buckets[index]
            }
            | ({overflow: self.buckets[-1]} if self.buckets[-1] else {}),
        }


class _OpenTrace:
    """Mutable builder for the trace of one in-flight decision."""

    __slots__ = ("started", "spans", "depth")

    def __init__(self, started: float) -> None:
        self.started = started
        self.spans: list[TraceSpan] = []
        self.depth = 1


class Recorder:
    """Collects counters, stage timings and per-decision traces.

    Not thread-safe by design: attach one recorder per PDP pipeline (or
    per benchmark run); :meth:`merge` combines recorders for reporting.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._counters: dict[str, int] = {}
        self._stages: dict[str, StageStats] = {}
        self._sizes: dict[str, StageStats] = {}
        self._tracing = False
        self._slow_log: SlowDecisionLog | None = None
        self._current: _OpenTrace | None = None

    # -- counters ------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        """A copy of every counter (the metrics-exposition feed)."""
        return dict(self._counters)

    # -- stages --------------------------------------------------------
    def start(self) -> float:
        """A timestamp token to later pass to :meth:`span`."""
        return self._clock()

    def span(self, name: str, started: float) -> float:
        """Record one stage: began at ``started``, ends now.

        One clock read feeds the stage histogram and, when a decision
        trace is open, the trace; it is returned so the next stage can
        start where this one ended.
        """
        now = self._clock()
        duration = now - started
        stats = self._stages.get(name)
        if stats is None:
            stats = self._stages[name] = StageStats()
        stats.observe(duration)
        current = self._current
        if current is not None:
            current.spans.append(
                TraceSpan(name, started - current.started, duration)
            )
        return now

    def stage(self, name: str) -> StageStats | None:
        return self._stages.get(name)

    def stages(self) -> dict[str, StageStats]:
        """A shallow copy of the per-stage aggregates (read, don't mutate)."""
        return dict(self._stages)

    # -- size histograms -----------------------------------------------
    def observe_size(self, name: str, value: int) -> None:
        """Record a dimensionless size sample (e.g. ``wire.batch_size``)."""
        stats = self._sizes.get(name)
        if stats is None:
            stats = self._sizes[name] = StageStats(bounds=SIZE_BUCKET_BOUNDS)
        stats.observe(value)

    def size(self, name: str) -> StageStats | None:
        return self._sizes.get(name)

    def sizes(self) -> dict[str, StageStats]:
        """A shallow copy of the size histograms (read, don't mutate)."""
        return dict(self._sizes)

    # -- per-decision traces -------------------------------------------
    def trace_decisions(self, slowlog_capacity: int = 0) -> "Recorder":
        """Switch trace building on; returns ``self`` for chaining.

        From now on every decision bracketed by :meth:`begin` /
        :meth:`finish` carries a :class:`DecisionTrace`; a positive
        ``slowlog_capacity`` also keeps that many of the slowest ones
        in :attr:`slow_log`.
        """
        self._tracing = True
        self._slow_log = (
            SlowDecisionLog(slowlog_capacity) if slowlog_capacity > 0 else None
        )
        return self

    @property
    def tracing(self) -> bool:
        """True once :meth:`trace_decisions` has been called."""
        return self._tracing

    @property
    def slow_log(self) -> SlowDecisionLog | None:
        """The slowest traces kept so far (None unless asked for)."""
        return self._slow_log

    def begin(self) -> float:
        """Enter one pipeline layer; returns its start timestamp.

        When tracing, the outermost ``begin`` opens the decision's trace
        and nested ones (the engine inside a PDP) join it.
        """
        now = self._clock()
        if self._tracing:
            current = self._current
            if current is None:
                self._current = _OpenTrace(now)
            else:
                current.depth += 1
        return now

    def abandon(self) -> None:
        """Drop the open trace: the decision being traced has raised.

        Every layer calls this on its way out, so the next decision
        opens a trace of its own and the failed one is offered to
        nobody.
        """
        self._current = None

    def finish(self, decision):
        """Leave one pipeline layer; the outermost leave seals the trace.

        Returns the decision unchanged for nested layers (and when not
        tracing), and a copy with ``trace`` attached for the outermost
        one.
        """
        current = self._current
        if current is None:
            return decision
        current.depth -= 1
        if current.depth:
            return decision
        self._current = None
        request = decision.request
        violation = decision.violation
        trace = DecisionTrace(
            request_id=request.request_id,
            user_id=request.user_id,
            effect=decision.effect,
            total_s=self._clock() - current.started,
            requested_at=request.timestamp,
            spans=tuple(current.spans),
            matched_policy_ids=tuple(decision.matched_policy_ids),
            violation=(
                None
                if violation is None
                else TraceViolation(
                    policy_id=violation.policy_id,
                    constraint_kind=violation.constraint_kind,
                    detail=violation.detail,
                )
            ),
            records_added=decision.records_added,
            records_purged=decision.records_purged,
            policy_epoch=decision.policy_epoch,
        )
        if self._slow_log is not None:
            self._slow_log.offer(trace)
        return decision._replace(trace=trace)

    # -- §4.2 step reports: a recorder only times; explain narrates ----
    def gate(self, policy, context, opens: bool, fired) -> None:
        """Steps 3-4 of one matched policy (``fired`` None: it imposes nothing)."""

    def verdict(self, constraint, verdict) -> None:
        """Steps 5-6: one fired constraint's verdict."""

    def step7(self, policy, ends: bool) -> None:
        """Step 7: whether a grant would purge the policy's context."""

    # -- reporting -----------------------------------------------------
    def merge(self, other: "Recorder") -> None:
        """Fold another recorder's counters and histograms into this one.

        Counters are summed and stage stats combined per name, so a
        report over several recorders never shows a series twice.
        """
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        for mine, theirs in (
            (self._stages, other._stages),
            (self._sizes, other._sizes),
        ):
            for name, stats in theirs.items():
                merged = mine.get(name)
                if merged is None:
                    merged = mine[name] = StageStats(bounds=stats.bounds)
                merged.merge(stats)

    def snapshot(self) -> dict:
        """A JSON-compatible dump of every counter and stage.

        The ``sizes`` section is additive: it only appears once a size
        histogram has been observed, so pre-existing snapshot consumers
        (and the empty-after-reset shape) are unchanged.
        """
        snap = {
            "counters": dict(sorted(self._counters.items())),
            "stages": {
                name: stats.to_dict()
                for name, stats in sorted(self._stages.items())
            },
        }
        if self._sizes:
            snap["sizes"] = {
                name: stats.to_dict()
                for name, stats in sorted(self._sizes.items())
            }
        return snap

    def reset(self) -> None:
        """Forget every counter and histogram (tracing stays as set)."""
        self._counters.clear()
        self._stages.clear()
        self._sizes.clear()


class NoopRecorder(Recorder):
    """The do-nothing recorder production code runs with by default.

    ``enabled`` is False, so guarded call sites never reach it; the
    empty overrides keep the few unguarded ones (the client's call and
    retry counters) free of clock reads and dict traffic.
    """

    enabled = False

    def incr(self, name: str, amount: int = 1) -> None:
        pass

    def start(self) -> float:
        return 0.0

    def span(self, name: str, started: float) -> float:
        return 0.0

    def observe_size(self, name: str, value: int) -> None:
        pass

    def trace_decisions(self, slowlog_capacity: int = 0):
        raise ValueError(
            "the no-op recorder cannot trace; pass a Recorder instead"
        )


#: Shared no-op instance; safe to use from any thread (it has no state).
NOOP = NoopRecorder()
