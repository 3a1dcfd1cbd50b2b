"""The sharded MSoD authorization service (transport-independent core).

One service owns one :class:`~repro.core.engine.MSoDEngine` and its
retained-ADI store, and dispatches every decision request to one of
``n_shards`` worker queues keyed by the requesting user::

    shard = crc32(user_id) % n_shards

Decisions for the *same* user are therefore strictly serialized — the
property that keeps retained-ADI history evaluation race-free without
any cross-request locking — while distinct users proceed concurrently
across shards.  (The MSoD algorithm's history reads and its grant
commit are per-user state transitions; interleaving two requests of one
user could read stale history between another's read and commit.)

Workers drain their queues of *slices* (one submission's requests for
one shard) in *adaptive micro-batches*: whatever is queued when the
worker wakes, capped at ``batch_max`` requests, is evaluated under a
single ``store.batch()`` — one SQLite transaction (one fsync) per batch
under load, one per decision when idle — and answered once it commits.
When the store
commits in batches (SQLite, or tiered over SQLite), a worker under
sustained load (a per-worker EMA of recent batch sizes) additionally
lingers for a short *gather window*, so requests still in flight
through connection handlers share its commit.  The window scales with
the shard count — more shards spread the same arrival stream thinner —
and is skipped when recent batches show no queueing, keeping idle
latency at one event-loop hop.  Over a memory store, which has no
commit to share, workers never linger.

Admission control is applied at submit time: every shard queue is
bounded in requests, and a full queue sheds the rest immediately with
a ``retry_after`` hint instead of growing without bound (the
503-equivalent).  Shutdown is graceful: submission stops, queued work
drains, the audit sink is flushed, then workers exit.
"""

from __future__ import annotations

import asyncio
import zlib
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from repro.core.decision import Decision, DecisionRequest
from repro.core.engine import MSoDEngine
from repro.core.policy import MSoDPolicySet
from repro.core.policy_epoch import PolicySwapReport
from repro.errors import PolicyError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit.trail import AuditEvent
    from repro.verify.gate import GateResult
    from repro.verify.static import VerifyReport
    from repro.verify.whatif import WhatIfReport


class ServiceOverloadedError(ReproError):
    """A shard queue was full; the request was shed before queueing."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceUnavailableError(ReproError):
    """The service is not accepting requests (not started or draining)."""


#: Gather-window scaling: per-shard contribution, hard ceiling, the
#: sleep slice the lingering worker polls at, and the batch-size EMA a
#: worker must see before it lingers at all.
_GATHER_WINDOW_PER_SHARD = 0.0005
_GATHER_WINDOW_MAX = 0.002
_GATHER_SLICE = 0.0002
_GATHER_EMA_THRESHOLD = 1.25


def shard_of(user_id: str, n_shards: int) -> int:
    """The shard index a user's decisions are serialized on.

    ``crc32`` rather than ``hash()``: deterministic across processes
    (``hash(str)`` is salted per interpreter), cheap, and uniform enough
    for queue balancing.
    """
    return zlib.crc32(user_id.encode("utf-8")) % n_shards


class _Slice(NamedTuple):
    """A queue item: one shard's requests from one submission, in order,
    and their outcomes (a Decision or exception each).  Once all are
    committed, ``future`` gets the list (a ``single`` submit: its item)."""

    requests: list
    future: asyncio.Future
    single: bool
    outcomes: list

    def resolve(self) -> None:
        outcome = self.outcomes[0] if self.single else self.outcomes
        if self.future.cancelled():
            return
        if isinstance(outcome, BaseException):
            self.future.set_exception(outcome)
        else:
            self.future.set_result(outcome)


class ShardStats:
    """Monotonic per-shard counters, snapshot by ``/metrics``."""

    __slots__ = ("submitted", "completed", "rejected", "batches", "max_batch")

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.batches = 0
        self.max_batch = 0

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "batches": self.batches,
            "max_batch": self.max_batch,
        }


class AuthorizationService:
    """Sharded, batching front end over one :class:`MSoDEngine`.

    Parameters
    ----------
    engine:
        The MSoD engine; its store is shared by all shard workers (the
        SQLite store's single-lock discipline makes that safe).
    n_shards:
        Number of worker queues.  Decisions of one user always land on
        the same shard.
    queue_depth:
        Bound of each shard queue; a full queue sheds load.
    batch_max:
        Cap on one worker micro-batch (and on the span of one SQLite
        transaction).
    gather_window:
        Seconds a loaded worker lingers to let in-flight requests join
        its micro-batch; a finite number >= 0.  ``None`` (the default)
        adapts to the shard count (``0.5 ms × n_shards``, capped at
        2 ms) when the store commits in batches, and is ``0.0`` (no
        lingering) otherwise.  Idle workers never linger regardless —
        the window is gated on an EMA of recent batch sizes.
    retry_after:
        Hint (seconds) returned with overload rejections.
    audit_sink:
        Optional callable receiving every decision made; if it has a
        ``flush`` method it is called on graceful drain.
    perf:
        Recorder for service-level counters/timings; defaults to the
        engine's, so one object observes the whole serving path.
    health_extra:
        Optional callable returning extra keys merged into the
        ``healthz`` body (a cluster node reports its role and epoch
        this way).
    trail_reader:
        Optional callable returning this server's recorded trail events
        as a *fresh* :class:`~repro.audit.trail.TrailFollower` reads
        them from the lineage's start (the sink may still be appending).
        Enables the ``whatif`` verb and the what-if half of verified
        reloads; without it only static verification runs.
    """

    def __init__(
        self,
        engine: MSoDEngine,
        n_shards: int = 4,
        queue_depth: int = 256,
        batch_max: int = 32,
        gather_window: float | None = None,
        retry_after: float = 0.05,
        audit_sink: Callable[[Decision], None] | None = None,
        perf: Recorder | None = None,
        health_extra: Callable[[], dict] | None = None,
        trail_reader: "Callable[[], Iterable[AuditEvent]] | None" = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if gather_window is None:
            gather_window = (
                min(_GATHER_WINDOW_MAX, _GATHER_WINDOW_PER_SHARD * n_shards)
                if engine.store.commits_in_batches
                else 0.0
            )
        if not 0.0 <= gather_window < float("inf"):  # rejects nan too
            raise ValueError("gather_window must be a finite number >= 0")
        self._engine = engine
        self._n_shards = n_shards
        self._queue_depth = queue_depth
        self._batch_max = batch_max
        self._gather_window = gather_window
        self._retry_after = retry_after
        self._audit_sink = audit_sink
        self._health_extra = health_extra
        self._trail_reader = trail_reader
        self._perf = perf if perf is not None else engine.perf
        self._queues: list[asyncio.Queue] = []
        #: Requests queued per shard, not yet taken into a micro-batch.
        self._backlog = [0] * n_shards
        self._workers: list[asyncio.Task] = []
        self._stats = [ShardStats() for _ in range(n_shards)]
        self._accepting = False
        self._started = False
        self._registry: MetricsRegistry | None = None
        self._policy_reloads = 0
        self._last_findings: tuple[str, ...] = ()
        self._last_gate: "GateResult | None" = None
        self._verify_counts: dict[str, int] = {}
        self._whatif_flips = 0

    # ------------------------------------------------------------------
    @property
    def engine(self) -> MSoDEngine:
        return self._engine

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def gather_window(self) -> float:
        """Seconds a loaded shard worker lingers to grow its batch."""
        return self._gather_window

    @property
    def perf(self) -> Recorder:
        return self._perf

    def queue_depths(self) -> list[int]:
        """Current per-shard backlog, in requests (0s before start)."""
        return list(self._backlog)

    def health(self) -> dict:
        """The ``/healthz`` body: status plus per-shard backlog."""
        body = {
            "status": "ok" if self._accepting else "draining",
            "shards": self._n_shards,
            "queue_depth_limit": self._queue_depth,
            "queue_depths": self.queue_depths(),
        }
        if self._health_extra is not None:
            body.update(self._health_extra())
        return body

    def metrics(self) -> dict:
        """The ``/metrics`` JSON body: perf, per-shard and store stats."""
        return {
            "shards": [stats.to_dict() for stats in self._stats],
            "queue_depths": self.queue_depths(),
            "perf": self.metrics_registry().merged().snapshot(),
            "store": self._engine.store.stats(),
        }

    def metrics_registry(self) -> MetricsRegistry:
        """The Prometheus registry over this service (built once).

        Exposes the service's perf recorder *and* the engine's (merged
        when they are the same object), plus per-shard gauges: queue
        depth (current backlog), the queue-depth limit, and the
        monotonic submitted/completed/rejected (shed)/batch counters.
        """
        if self._registry is not None:
            return self._registry
        registry = MetricsRegistry()
        registry.register_perf(self._perf)
        registry.register_perf(self._engine.perf)

        def per_shard(value_of) -> "list[tuple[dict[str, str], float]]":
            return [
                ({"shard": str(index)}, value_of(index))
                for index in range(self._n_shards)
            ]

        registry.register_gauge(
            "shard_queue_depth",
            "Requests currently queued on each shard.",
            lambda: per_shard(lambda i: self._backlog[i]),
        )
        registry.register_gauge(
            "shard_queue_depth_limit",
            "Bound of each shard queue (overload sheds beyond it).",
            lambda: float(self._queue_depth),
        )
        registry.register_gauge(
            "shard_max_batch",
            "Largest micro-batch each shard worker has drained.",
            lambda: per_shard(lambda i: self._stats[i].max_batch),
        )
        def store_stat(key: str) -> float:
            return float(self._engine.store.stats().get(key, 0))

        registry.register_gauge(
            "store_resident_users",
            "User aggregates resident in the store's hot layer.",
            lambda: store_stat("resident_users"),
        )
        registry.register_counter(
            "store_evictions_total",
            "Hot-layer user aggregates evicted to the warm layer.",
            lambda: store_stat("evictions"),
        )
        registry.register_counter(
            "store_hydrations_total",
            "Cold user aggregates hydrated from the warm layer.",
            lambda: store_stat("hydrations"),
        )
        registry.register_gauge(
            "policy_epoch",
            "Epoch of the policy set decisions are currently made under.",
            lambda: float(self._engine.policy_epoch),
        )
        registry.register_counter(
            "policy_reloads_total",
            "Completed policy hot-reloads that changed the active set.",
            lambda: float(self._policy_reloads),
        )
        registry.register_counter(
            "verify_findings_total",
            "Static verification findings observed, by severity.",
            lambda: [
                ({"severity": severity}, float(self._verify_counts.get(severity, 0)))
                for severity in ("error", "warning", "info")
            ],
        )
        registry.register_counter(
            "whatif_flips_total",
            "Decision flips observed across what-if replays.",
            lambda: float(self._whatif_flips),
        )
        for attr, help_text in (
            ("submitted", "Requests admitted to each shard queue."),
            ("completed", "Decisions completed by each shard worker."),
            ("rejected", "Requests shed by each full shard queue."),
            ("batches", "Micro-batches drained by each shard worker."),
        ):
            registry.register_counter(
                f"shard_{attr}_total",
                help_text,
                lambda attr=attr: per_shard(
                    lambda i: getattr(self._stats[i], attr)
                ),
            )
        self._registry = registry
        return registry

    def metrics_text(self) -> str:
        """The ``metrics`` body in Prometheus text exposition format."""
        return self.metrics_registry().render()

    def policy_status(self) -> dict:
        """The ``policy-status`` body: version, reload count, findings.

        ``findings`` carries the analyzer output of the most recent
        successful swap (empty before the first reload) so operators
        can see outstanding warnings without replaying the reload.
        """
        version = self._engine.policy_version()
        return {
            "version": version.to_dict(),
            "reloads": self._policy_reloads,
            "findings": list(self._last_findings),
            # Additive: per-kind constraint census of the active epoch
            # (old clients ignore it; old servers simply omit it).
            "constraint_kinds": self._engine.compiled_matcher.constraint_kind_counts,
        }

    @property
    def last_gate(self) -> "GateResult | None":
        """The gate verdict of the most recent verified reload attempt."""
        return self._last_gate

    def _note_verify(self, report: "VerifyReport") -> None:
        for severity, count in report.counts_by_severity().items():
            self._verify_counts[severity] = (
                self._verify_counts.get(severity, 0) + count
            )

    def _note_gate(self, gate: "GateResult") -> None:
        self._note_verify(gate.static)
        if gate.whatif is not None:
            self._whatif_flips += gate.whatif.flip_count
        self._last_gate = gate

    def verify_policy(self, policy_set: MSoDPolicySet) -> "VerifyReport":
        """Run the structured static analyzer over a candidate set."""
        from repro.verify.static import analyze_policy_set

        report = analyze_policy_set(policy_set)
        self._note_verify(report)
        return report

    def what_if(self, policy_set: MSoDPolicySet) -> "WhatIfReport":
        """Differentially replay this server's trail under a candidate.

        Raises :class:`~repro.errors.PolicyError` when the server has no
        recorded audit trail to replay.
        """
        from repro.verify.whatif import what_if_replay

        if self._trail_reader is None:
            raise PolicyError(
                "what-if replay needs a recorded audit trail "
                "(this server has none)"
            )
        report = what_if_replay(self._trail_reader(), policy_set)
        self._whatif_flips += report.flip_count
        return report

    def reload_policy(
        self,
        policy_set: MSoDPolicySet,
        *,
        verify: bool = False,
        max_flips: int = 0,
        force: bool = False,
        principal: str | None = None,
    ) -> PolicySwapReport:
        """Atomically swap the engine's policy set (see ``swap_policy``).

        Must run on the service's event loop (the wire handler already
        does; thread-side callers go through
        :meth:`~repro.server.testing.ServerThread.reload_policy`).  That
        makes the swap trivially atomic with respect to decisions:
        :meth:`_run_batch` never awaits mid-batch, so the loop never
        interleaves a swap into a half-evaluated batch — and the
        engine's one-tuple-read discipline protects even multi-threaded
        embedders.

        Admission is :func:`~repro.verify.gate.admit_reload`: the
        ``principal`` against the outgoing set's admin boundaries
        (``force`` never overrides that), then static analysis plus —
        with ``verify=True`` and when this server records an audit
        trail — the differential what-if replay.  Error-severity findings or
        more than ``max_flips`` flipped decisions refuse the swap and
        leave the active epoch untouched; ``force=True`` overrides the
        gate (and additionally advances the epoch even for an identical
        digest, see :meth:`~repro.core.engine.MSoDEngine.swap_policy`).
        """
        from repro.verify.gate import reload_engine

        report = reload_engine(
            self._engine,
            policy_set,
            principal=principal,
            verify=verify,
            max_flips=max_flips,
            force=force,
            trail_reader=self._trail_reader,
            observe=self._note_gate,
        )
        self._last_findings = report.findings
        if report.changed:
            self._policy_reloads += 1
            if self._perf.enabled:
                self._perf.incr("server.policy_reloads")
        return report

    def slowlog(self) -> dict:
        """The ``slowlog`` body: the engine's slowest retained traces.

        Empty (``enabled: false``) unless the engine's recorder traces
        decisions into a slow-decision log.
        """
        log = self._engine.perf.slow_log
        if log is None:
            return {"enabled": False, "capacity": 0, "offered": 0, "traces": []}
        return {"enabled": True, **log.to_dict()}

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the shard queues and spawn one worker task each."""
        if self._started:
            return
        self._queues = [asyncio.Queue() for _ in range(self._n_shards)]
        self._backlog = [0] * self._n_shards
        self._workers = [
            asyncio.create_task(
                self._worker(index), name=f"msod-shard-{index}"
            )
            for index in range(self._n_shards)
        ]
        self._started = True
        self._accepting = True

    async def stop(self) -> None:
        """Graceful drain: stop admitting, flush queues, flush audit."""
        if not self._started:
            return
        self._accepting = False
        # Wait until every queued request has been decided and answered.
        await asyncio.gather(*(queue.join() for queue in self._queues))
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._started = False
        flush = getattr(self._audit_sink, "flush", None)
        if callable(flush):
            flush()

    async def abort(self) -> None:
        """Abrupt stop for fault injection: drop queued work on the floor.

        Unlike :meth:`stop` this neither drains the shard queues nor
        flushes the audit sink — it models a process crash as closely
        as an in-process server can.  Queued-but-undecided requests are
        simply abandoned (their clients see the connection drop), which
        is exactly the window failover recovery must cover.
        """
        if not self._started:
            return
        self._accepting = False
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._started = False

    # ------------------------------------------------------------------
    def submit(self, request: DecisionRequest) -> "asyncio.Future[Decision]":
        """Enqueue one request on its user's shard.

        Returns a future resolving to the :class:`Decision`.  Raises
        :class:`ServiceOverloadedError` when the shard queue is full and
        :class:`ServiceUnavailableError` when not accepting — both
        *before* any queueing, so the caller may safely retry.
        """
        pending, outcomes = self._enqueue([request], single=True)
        if not pending:
            raise outcomes[0]
        return pending[0][1]

    async def decide(self, request: DecisionRequest) -> Decision:
        """Submit and await one decision (convenience for in-process use)."""
        return await self.submit(request)

    async def decide_many(self, requests: Sequence[DecisionRequest]) -> list:
        """Queue ``requests`` as one slice per shard; await one outcome
        each: the :class:`Decision` or the exception that failed it."""
        pending, outcomes = self._enqueue(requests, single=False)
        for positions, future in pending:
            for position, outcome in zip(positions, await future):
                outcomes[position] = outcome
        return outcomes

    def _enqueue(self, requests: Sequence[DecisionRequest], single: bool) -> tuple:
        """Queue one slice per shard, cut to its room: ``(positions,
        future)`` per slice, and outcome slots, filled for entries shed."""
        if not self._accepting:
            raise ServiceUnavailableError(
                "authorization service is not accepting requests"
            )
        slices: dict[int, list[int]] = {}
        for position, request in enumerate(requests):
            shard = shard_of(request.user_id, self._n_shards)
            slices.setdefault(shard, []).append(position)
        outcomes: list = [None] * len(requests)
        pending, perf = [], self._perf
        for shard, positions in slices.items():
            stats, room = self._stats[shard], self._queue_depth - self._backlog[shard]
            if room < len(positions):
                shed = positions[max(room, 0):]
                del positions[len(positions) - len(shed):]
                stats.rejected += len(shed)
                if perf.enabled:
                    perf.incr("server.rejected_overload", len(shed))
                error = ServiceOverloadedError(
                    f"shard {shard} queue is full "
                    f"({self._queue_depth} requests pending)",
                    retry_after=self._retry_after,
                )
                for position in shed:
                    outcomes[position] = error
            if positions:
                future = asyncio.get_running_loop().create_future()
                batch = [requests[position] for position in positions]
                self._queues[shard].put_nowait(_Slice(batch, future, single, []))
                self._backlog[shard] += len(batch)
                stats.submitted += len(batch)
                if perf.enabled:
                    perf.incr("server.submitted", len(batch))
                pending.append((positions, future))
        return pending, outcomes

    # ------------------------------------------------------------------
    async def _worker(self, shard: int) -> None:
        queue = self._queues[shard]
        backlog = self._backlog
        stats = self._stats[shard]
        perf = self._perf
        batch_max = self._batch_max
        window = self._gather_window
        ema = 1.0  # recent batch-size average; >1 means queueing happens
        head = None  # (slice, offset): what the last batch had no room for
        while True:
            head = head or (await queue.get(), 0)
            segments: list[tuple[_Slice, int, int]] = []
            size, deadline = 0, None
            while True:
                while size < batch_max and (head or not queue.empty()):
                    item, start = head or (queue.get_nowait(), 0)
                    stop = min(len(item.requests), start + batch_max - size)
                    segments.append((item, start, stop))
                    backlog[shard] -= stop - start
                    size += stop - start
                    head = (item, stop) if stop < len(item.requests) else None
                if size == batch_max or window == 0.0 or ema <= _GATHER_EMA_THRESHOLD:
                    break
                # Sustained load: linger so requests still in flight
                # through connection handlers join this batch (and this
                # store transaction).  Sleep slices + get_nowait rather
                # than wait_for(queue.get()) — a cancelled get() can
                # drop the item it just dequeued.
                loop = asyncio.get_running_loop()
                deadline = deadline or loop.time() + window
                remaining = deadline - loop.time()
                if remaining <= 0.0:
                    break
                await asyncio.sleep(min(_GATHER_SLICE, remaining))
            ema += 0.25 * (size - ema)
            stats.batches += 1
            if size > stats.max_batch:
                stats.max_batch = size
            if perf.enabled:
                perf.incr("server.batches")
                perf.incr("server.batched_requests", size)
            self._run_batch(segments, stats)
            for item, _, stop in segments:
                if stop == len(item.requests):
                    item.resolve()
                    queue.task_done()

    def _run_batch(self, segments: list, stats: ShardStats) -> None:
        """Decide ``(slice, start, stop)`` runs under one store transaction.

        A failing decision fails only its own request — the worker and
        the rest of the batch carry on (the engine's per-decision
        atomicity plus the store's savepoints guarantee no partial
        state from the failed one); a failed commit fails them all.
        """
        engine = self._engine
        sink = self._audit_sink
        perf = self._perf
        timing = perf.enabled
        try:
            with engine.store.batch():
                for item, start, stop in segments:
                    outcomes = item.outcomes
                    for request in item.requests[start:stop]:
                        started = perf.start() if timing else 0.0
                        try:
                            outcome = engine.check(request)
                        except Exception as exc:
                            outcomes.append(exc)
                            continue
                        finally:
                            if timing:
                                perf.span("server.decide", started)
                        stats.completed += 1
                        if timing:
                            perf.incr("server.decided")
                        if sink is not None:
                            try:
                                sink(outcome)
                            except Exception as exc:
                                # A failed sink (trail I/O error, cluster
                                # node demoted mid-flight) fails this
                                # decision only: the client must not
                                # receive an ack the audit trail does not
                                # hold, and the worker must survive to
                                # serve the rest of the shard.
                                outcome = exc
                        outcomes.append(outcome)
        except Exception as exc:  # the store could not open or commit it
            for item, start, stop in segments:
                item.outcomes[start:] = [exc] * (stop - start)

