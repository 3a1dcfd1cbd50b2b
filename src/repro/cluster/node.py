"""One member of an MSoD cluster shard: a primary or a warm standby.

A ``ClusterNode`` wraps the single-node serving stack unchanged — the
same :class:`~repro.core.engine.MSoDEngine`,
:class:`~repro.server.service.AuthorizationService` and
:class:`~repro.server.testing.ServerThread` — and adds exactly three
cluster concerns, all injected through hooks the base server already
exposes:

**Role + epoch gating** (``decide_gate``).  Only the shard's primary
decides; a standby (or a deposed primary) answers ``not-primary`` so a
client with a stale routing table can never split one user's retained
ADI across two nodes.  Every decide frame may carry the client's route
``epoch``; a mismatch against the node's own epoch answers ``fenced``
— the deposed primary's late traffic and the stale client's misdirected
traffic are both rejected before touching the engine.

**Durable audit shipping** (``audit_sink``).  Every decision is
appended — fsync'd by default — to the node's own trail directory
*before* the client sees the response (the service calls the sink ahead
of resolving the decide future).  That ordering is the whole failover
story: an acknowledged decision is always in the trail, so the standby
that replays the trail holds every grant any client has seen.

**Exactly-once decides** (the request journal).  The sink also records
each decision by ``request_id``, and the gate answers a retry with that
decision verbatim; a promoted standby rebuilds the journal from replay
(:func:`~repro.audit.recovery.decision_from_event`), so a retry after
failover gets the trail's record of the outcome instead of a second
evaluation — the one case where retrying a decide is safe.  The
journal is bounded (``journal_max``, FIFO eviction): retries only need
the recent outcomes spanning a failover window, so a long-running node
does not grow memory with lifetime request volume.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterator

from repro.audit.recovery import (
    IdempotentApply,
    decision_event_payload,
    decision_from_event,
    recover_retained_adi,
)
from repro.audit.trail import (
    EVENT_DECISION,
    AuditEvent,
    AuditTrailManager,
    TrailFollower,
)
from repro.core.decision import Decision
from repro.core.engine import MSoDEngine
from repro.core.policy import MSoDPolicySet
from repro.core.retained_adi import ADIMutation, RetainedADIStore
from repro.errors import ClusterError, RequestFencedError
from repro.server import protocol
from repro.server.service import AuthorizationService
from repro.server.testing import ServerThread
from repro.cluster.ring import HashRing

ROLE_PRIMARY = "primary"
ROLE_STANDBY = "standby"

#: Shard queues in each node's authorization service.
SERVICE_SHARDS = 2


class _BoundedJournal(dict):
    """``request_id -> Decision`` with FIFO eviction beyond a cap.

    Exactly-once retry dedupe only needs outcomes recent enough to span
    a failover window, so the oldest entry is evicted once the cap is
    reached (dict preserves insertion order, and both the audit sink
    and trail replay insert in decision order).  A re-inserted id moves
    to the back so a hot request_id stays resident.
    """

    def __init__(self, max_entries: int) -> None:
        super().__init__()
        if max_entries < 1:
            raise ClusterError("journal_max must be >= 1")
        self._max_entries = max_entries

    def __setitem__(self, key: str, value: Decision) -> None:
        if key in self:
            del self[key]
        elif len(self) >= self._max_entries:
            del self[next(iter(self))]
        super().__setitem__(key, value)


class ClusterNode:
    """One authorization-server node owned by a cluster shard."""

    def __init__(
        self,
        name: str,
        shard: str,
        policy_set: MSoDPolicySet,
        store: RetainedADIStore,
        trail_dir: str,
        audit_key: bytes,
        *,
        role: str = ROLE_STANDBY,
        epoch: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        audit_max_records: int = 10_000,
        audit_max_bytes: int | None = None,
        fsync: bool = True,
        journal_max: int | None = None,
    ) -> None:
        if role not in (ROLE_PRIMARY, ROLE_STANDBY):
            raise ValueError(f"unknown node role {role!r}")
        self.name = name
        self.shard = shard
        self._policy_set = policy_set
        self._store = store
        self._audit_key = audit_key
        self._role = role
        self._epoch = epoch
        self._lock = threading.Lock()
        # Default cap: two full trail rotations — comfortably more
        # history than any failover-window retry needs.
        self._journal: dict[str, Decision] = _BoundedJournal(
            journal_max if journal_max is not None
            else max(1024, 2 * audit_max_records)
        )
        self._trails = AuditTrailManager(
            trail_dir,
            audit_key,
            max_records=audit_max_records,
            max_bytes=audit_max_bytes,
            fsync=fsync,
        )
        # Incremental catch-up state, per source lineage directory: the
        # trail-follower position of the last *successfully replayed*
        # tick, plus how many events that position represents from the
        # lineage's start (the ``max_events`` seal budget is counted
        # from the start).  Committed only after a tick succeeds, so a
        # tick that raises mid-replay is re-read in full next time —
        # replay idempotency absorbs the partial application.
        self._catchup: dict[str, tuple[dict, int]] = {}
        # The serving ring this node fences ownership against.  When
        # installed, the decide gate and the audit sink both refuse
        # users the ring assigns to another shard, which is what makes
        # a reshard cutover's per-user fencing *derived* (flip the ring
        # everywhere) instead of an accumulated fence set that could go
        # stale on a freshly promoted standby.
        self._ring: HashRing | None = None
        self._engine = MSoDEngine(policy_set, store)
        self._service = AuthorizationService(
            self._engine,
            n_shards=SERVICE_SHARDS,
            audit_sink=self._audit_sink,
            health_extra=self._health_extra,
            trail_reader=lambda: TrailFollower(trail_dir, audit_key).poll(),
        )
        self._thread = ServerThread(
            self._service,
            host=host,
            port=port,
            owns=[store, self._trails],
            decide_gate=self._decide_gate,
        )

    # ------------------------------------------------------------------
    @property
    def role(self) -> str:
        with self._lock:
            return self._role

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    @property
    def host(self) -> str:
        return self._thread.host

    @property
    def port(self) -> int:
        return self._thread.port

    @property
    def address(self) -> tuple[str, int]:
        return (self._thread.host, self._thread.port)

    @property
    def trail_dir(self) -> str:
        return self._trails.directory

    def trail_tip(self) -> dict | None:
        """Where a follower of this node's trail reads only later appends.

        Read under the lock the audit sink appends under, so no append
        is half counted.
        """
        with self._lock:
            return self._trails.tip()

    @property
    def store(self) -> RetainedADIStore:
        return self._store

    @property
    def service(self) -> AuthorizationService:
        return self._service

    @property
    def engine(self) -> MSoDEngine:
        return self._engine

    @property
    def journal_size(self) -> int:
        return len(self._journal)

    # ------------------------------------------------------------------
    def policy_version(self):
        """The :class:`PolicyVersion` this node decides under."""
        return self._engine.policy_version()

    def reload_policy(self, policy_set: MSoDPolicySet, *, force: bool = False):
        """Swap this node's policy set on its own serving loop.

        Routed through :meth:`ServerThread.reload_policy` so the swap
        serialises with the node's shard micro-batches exactly like a
        wire-level reload would, admission included.  Returns the
        :class:`~repro.core.policy_epoch.PolicySwapReport`.  ``force``
        is :meth:`~repro.server.service.AuthorizationService.reload_policy`'s:
        it overrides the static analyzer and advances the epoch even
        for an identical digest.
        """
        return self._thread.reload_policy(policy_set, force=force)

    # ------------------------------------------------------------------
    def start(self) -> "ClusterNode":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful stop: drain queues, close the store and the trail."""
        self._thread.stop()

    def kill(self) -> None:
        """Fault injection: abandon queued work, stop answering."""
        with self._lock:
            self._role = ROLE_STANDBY  # a dead primary is no primary
        self._thread.kill()

    # ------------------------------------------------------------------
    def promote(self, epoch: int) -> None:
        """Become the shard primary under a new fencing epoch.

        The coordinator calls this only after the final catch-up replay
        (sealed at the dead primary's last visible event), so the node
        steps up already holding every acknowledged decision.
        """
        with self._lock:
            self._role = ROLE_PRIMARY
            self._epoch = epoch

    def demote(self) -> None:
        with self._lock:
            self._role = ROLE_STANDBY

    def install_ring(self, ring: HashRing | None) -> None:
        """Install the serving ring this node fences ownership against.

        Shares the node lock with the audit sink: once this returns, no
        decision for a user the ring assigns elsewhere can enter this
        node's trail — the reshard cutover's quiescence point.
        """
        with self._lock:
            self._ring = ring

    def _ownership_filter(self) -> Callable[[str], bool] | None:
        """The replay filter matching this node's installed ring."""
        ring = self._ring
        if ring is None:
            return None
        shard = self.shard
        return lambda user_id: ring.shard_for(user_id) == shard

    def catch_up(
        self,
        source_trail_dir: str,
        *,
        max_events: int | None = None,
        user_filter: Callable[[str], bool] | None = None,
    ):
        """Replay a primary's shipped trails into this node's store.

        Reuses :func:`repro.audit.recovery.recover_retained_adi` —
        recovery *is* replication here.  Replay is idempotent (see
        ``tests/test_property_recovery.py``), and each call is
        **incremental**: a persistent
        :class:`~repro.audit.trail.TrailFollower` position per source
        lineage means a tick verifies and replays only the events
        appended since the last successful tick, not the whole lineage.
        That bound matters beyond throughput — the coordinator holds
        the shard lock during catch-up ticks, and a reshard cutover
        fences sources under that same lock, so O(new-tail) ticks are
        what keep the fenced cutover pause milliseconds instead of a
        full-history re-verification — on the store side too: a tick
        whose tail holds no grant never scans the store.  A tick that
        raises (a corrupted source segment included) commits no
        position and is re-read next time; idempotency absorbs whatever
        it half-applied.  The journal fills with every
        decision outcome seen, which is what makes post-failover
        client retries exactly-once.

        ``max_events`` still counts from the lineage's *start* (it is
        the failover seal: the authoritative record count at
        promotion), so the budget for a tick is the seal minus what
        earlier ticks already consumed.

        ``user_filter`` defaults to the installed ring's ownership
        predicate: after a reshard cutover the source's trail still
        holds the moved users' history, and an unfiltered replay would
        resurrect it on the standby the next tick.  (Events consumed
        before the cutover under the old ring are not re-examined; the
        cutover's purge step removes the movers' records from both
        source nodes, which is what keeps the two consistent.)
        """
        if user_filter is None:
            user_filter = self._ownership_filter()
        position, consumed = self._catchup.get(source_trail_dir, (None, 0))
        # A mirror applies every recorded add (policy_set=None): the
        # primary only retained what its own set matched, whichever
        # set that was, and a standby that re-filtered by its own set
        # would lose history a failover must keep.
        report, position = self._replay_tail(
            source_trail_dir,
            position,
            None if max_events is None else max_events - consumed,
            lambda events: recover_retained_adi(
                None,
                None,
                self._store,
                journal=self._journal,
                user_filter=user_filter,
                events=events,
            ),
        )
        self._catchup[source_trail_dir] = (
            position,
            consumed + report.events_scanned,
        )
        return report

    def _replay_tail(
        self,
        source_trail_dir: str,
        position: dict | None,
        budget: int | None,
        apply: Callable[[Iterator[AuditEvent]], object],
    ):
        """``apply`` a lineage's verified tail; return its result and
        the follower position to commit.

        ``islice`` consumes exactly ``budget`` events, so the position
        never passes an event ``apply`` did not examine, and it is read
        only after ``apply`` returned: a replay that raises commits
        nothing and is re-read from ``position`` next time.
        """
        follower = TrailFollower(
            source_trail_dir, self._audit_key, position=position
        )
        events = follower.poll()
        if budget is not None:
            events = itertools.islice(events, max(0, budget))
        return apply(events), follower.position()

    def import_decision_events(
        self,
        source_trail_dir: str,
        user_filter: Callable[[str], bool],
        *,
        max_events: int | None = None,
        cursor: dict | None = None,
    ) -> dict:
        """Import another shard's decision events for users moving here.

        The reshard migration's transfer primitive.  Unlike
        :meth:`catch_up` (which only rebuilds the *store*), an import
        appends each moving user's decision events — verbatim, original
        epoch and all — to this node's **own** trail, so the history
        survives everything the trail protects against: this shard's
        own failover (the standby replays it), a later drain of this
        shard (the next migration re-exports it), and recovery.

        Idempotent per event: a ``request_id`` already journaled is
        skipped, and a grant whose journal entry was evicted is caught
        by its record identities already sitting in the store.  Source
        events are read outside the node lock; dedupe + append + store
        apply run under it, sharing one acquisition with the audit sink
        so imported and native history interleave cleanly.

        ``cursor`` is a :class:`~repro.audit.trail.TrailFollower`
        position: the byte offset, chain tip and segment index where
        the previous import of this lineage stopped.  Trail lineages
        are append-only (rotation seals segments, never deletes them),
        so a position that was valid once stays valid; the coordinator
        persists it per (target, lineage) and resumes from it every
        tick, making steady-state ticks proportional to the **new
        tail** — read, parsed *and verified* from the stored chain tip
        — instead of the lineage's whole history.  The cursor is an
        optimisation only: losing it (coordinator crash before the
        save) merely re-reads from an older position, and the journal
        / record-identity dedupe below keeps that correct.

        Returns ``{"scanned", "imported", "skipped", "next_cursor"}``,
        where ``next_cursor`` is the position to pass next time.
        """
        counts, next_cursor = self._replay_tail(
            source_trail_dir,
            cursor,
            max_events,
            lambda events: self._import_events(events, user_filter),
        )
        return dict(counts, next_cursor=next_cursor)

    def _import_events(
        self,
        events: Iterator[AuditEvent],
        user_filter: Callable[[str], bool],
    ) -> dict:
        scanned = 0
        moving = []
        for event in events:
            scanned += 1
            if event.event_type != EVENT_DECISION:
                # Admin purges are store-wide, not per-user; a reshard
                # migration window must not overlap one (documented in
                # docs/CLUSTER.md's resizing runbook).
                continue
            decision = decision_from_event(event.payload)
            if user_filter(decision.request.user_id):
                moving.append((event, decision))
        imported = skipped = 0
        with self._lock:
            # Steady-state ticks dedupe entirely through the journal
            # and never reach `apply`, so they never scan the store.
            target = IdempotentApply(self._store)
            for event, decision in moving:
                request_id = decision.request.request_id
                if request_id in self._journal:
                    skipped += 1
                    continue
                adds = decision.adi_adds
                if target.apply(decision.adi_purged_contexts, adds) or not adds:
                    self._trails.append(
                        EVENT_DECISION, event.timestamp, event.payload
                    )
                    imported += 1
                else:
                    # Already imported; only the journal entry was
                    # evicted.  Re-journal the outcome, skip the append.
                    skipped += 1
                self._journal[request_id] = decision
        return {"scanned": scanned, "imported": imported, "skipped": skipped}

    def purge_users(self, user_filter: Callable[[str], bool]) -> int:
        """Drop matching users' records and journal entries; count users.

        The reshard cutover's final source-side step: once the moved
        users' history is imported on the target, their records here
        are orphans (including any record a fence-refused in-flight
        decision committed before its sink raised).  Journal entries go
        too — the ring-ownership gate answers before the journal, so a
        mover's journaled outcome is unreachable here and the target
        holds the imported copy.  The records go in one store apply,
        one transaction on a SQLite node, however many users move.
        """
        with self._lock:
            moved = tuple(filter(user_filter, self._store.user_ids()))
            if moved:
                self._store.apply(ADIMutation(purge_users=moved))
            dead = [
                request_id
                for request_id, decision in self._journal.items()
                if user_filter(decision.request.user_id)
            ]
            for request_id in dead:
                del self._journal[request_id]
        return len(moved)

    # ------------------------------------------------------------------
    def _audit_sink(self, decision: Decision) -> None:
        payload = decision_event_payload(decision)
        # Role check and append share one lock acquisition with
        # promote()/demote(): once demote() returns, no decision can
        # enter this trail, so a seal counted afterwards is a true
        # upper bound of the lineage.  A decision caught mid-flight by
        # a forced failover is refused here — the client gets an error
        # instead of an ack and re-evaluates on the new primary.
        with self._lock:
            if self._role != ROLE_PRIMARY:
                raise RequestFencedError(
                    f"node {self.name} was demoted during evaluation; "
                    "decision not recorded — retry against the new primary"
                )
            if self._ring is not None and (
                self._ring.shard_for(decision.request.user_id) != self.shard
            ):
                # Reshard cutover caught this decision in flight: the
                # user moved off this shard between the gate and the
                # sink.  Refuse before the append — the event never
                # enters the trail, so the migration's final import
                # cannot see it and the client's fenced re-route
                # re-evaluates exactly once on the new owner.  (Any
                # records the engine committed to this store are purged
                # by the cutover's ``purge_users``.)
                raise RequestFencedError(
                    f"user {decision.request.user_id!r} moved off shard "
                    f"{self.shard} during evaluation; decision not "
                    "recorded — refresh the route and retry"
                )
            payload["epoch"] = self._epoch
            self._trails.append(
                EVENT_DECISION, decision.request.timestamp, payload
            )
            self._journal[decision.request.request_id] = decision

    def _health_extra(self) -> dict:
        with self._lock:
            role, epoch = self._role, self._epoch
        version = self._engine.policy_version()
        return {
            "cluster": {
                "node": self.name,
                "shard": self.shard,
                "role": role,
                "epoch": epoch,
                "policy_epoch": version.epoch,
                "policy_digest": version.digest,
            }
        }

    def _decide_gate(self, frame_id, frame: dict, request) -> dict | None:
        with self._lock:
            role, epoch, ring = self._role, self._epoch, self._ring
        if role != ROLE_PRIMARY:
            return protocol.error_frame(
                frame_id,
                protocol.ERR_NOT_PRIMARY,
                f"node {self.name} is {role} for shard {self.shard}; "
                "refresh the route",
            )
        claimed = frame.get("epoch")
        if claimed is not None and claimed != epoch:
            return protocol.error_frame(
                frame_id,
                protocol.ERR_FENCED,
                f"frame epoch {claimed} != node epoch {epoch} for shard "
                f"{self.shard}; refresh the route",
            )
        if ring is not None and ring.shard_for(request.user_id) != self.shard:
            # Ownership fence, checked *before* the journal: a moved
            # user's retry must be answered by the shard that now owns
            # the user (whose journal holds the imported outcome), not
            # from this node's stale copy.
            return protocol.error_frame(
                frame_id,
                protocol.ERR_FENCED,
                f"user {request.user_id!r} is not owned by shard "
                f"{self.shard} on the current ring; refresh the route",
            )
        journaled = self._journal.get(request.request_id)
        if journaled is not None:
            if journaled.request[:6] != request[:6]:
                # Same request_id, different request: two clients with
                # independent id counters collided.  Answering with the
                # journaled outcome would hand one client the *other's*
                # decision, so refuse loudly instead.
                return protocol.error_frame(
                    frame_id,
                    protocol.ERR_PROTOCOL,
                    f"request_id {request.request_id!r} was already used "
                    "by a different request; request ids must be unique "
                    "across clients",
                )
            return protocol.response_frame(
                frame_id,
                protocol.OP_DECIDE,
                "decision",
                protocol.decision_to_wire(journaled),
            )
        return None
