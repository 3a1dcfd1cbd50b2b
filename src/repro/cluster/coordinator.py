"""The cluster coordinator: topology, health checking and failover.

``LocalCluster`` owns N shards, each a (primary, standby) pair of
:class:`~repro.cluster.node.ClusterNode` instances, and runs three
background concerns on one private event loop:

* a **health loop** probing every primary's ``healthz`` with the fast
  :class:`~repro.client.RemotePDP` health timeout; after
  ``health_failures`` consecutive misses the shard fails over;
* a **catch-up loop** re-running audit-trail replay on every standby
  (replay is idempotent, so each tick simply replays the primary's
  shipped trails into the standby's store and journal);
* a **coordinator endpoint** on the same
  :class:`~repro.server.frames.FrameServer` loop the nodes serve from,
  with one op table for both protocol versions: ``route`` (the
  client's routing table),
  ``cluster-status``, ``healthz``, ``metrics`` (JSON or Prometheus
  text exposition with per-node gauges), ``policy-status``,
  ``reshard-status``, ``reshard`` and ``policy-reload``.

Failover sequence (the tentpole's fencing story):

1. the primary stops answering health probes (crash, kill, partition)
   — or an operator forces failover of a live primary;
2. the coordinator **demotes** the old primary first: its decide gate
   refuses new work and its audit sink (role-checked under the node
   lock) refuses in-flight appends, so the trail stops moving;
3. it then **seals the lineage**: it counts the events visible in the
   now-quiescent trails — anything the deposed process might still
   produce past that point is outside authoritative history and will
   never be replayed.  Demote-before-seal is load-bearing: sealing
   first would let a live primary acknowledge decisions *after* the
   count, silently dropping grants clients already saw;
4. the standby runs one final sealed catch-up, so it holds exactly the
   acknowledged decision history (the audit sink runs before the
   client ack, so nothing a client saw can be missing);
5. the standby is promoted under ``epoch + 1``; the routing table
   version bumps; clients re-fetch the route and retry with the new
   epoch, and any node still claiming the old epoch answers ``fenced``.

Both background loops treat a failing tick (an unreadable trail, a
probe raising something unexpected, a promote that cannot complete) as
an event to log and count — ``cluster_coordinator_loop_errors_total``
— never as a reason to die: a replication or health loop that silently
stops is strictly worse than one that retries next tick.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import threading
import time
from typing import Iterable

from repro.audit.trail import EVENT_DECISION, TrailFollower
from repro.client.remote import RemotePDP
from repro.core.policy import MSoDPolicySet
from repro.core.policy_epoch import policy_set_digest
from repro.errors import (
    ClusterError,
    PDPUnavailableError,
    PolicyError,
    ProtocolError,
    StoreSpecError,
)
from repro.storespec import ParsedStoreSpec, build_store, parse_store_spec
from repro.obs.metrics import MetricsRegistry
from repro.server import protocol
from repro.server.frames import FrameServer, Handler, body_handler
from repro.server.testing import LoopThread
from repro.verify.gate import admit_routing
from repro.cluster.node import ROLE_PRIMARY, ROLE_STANDBY, ClusterNode
from repro.cluster.reshard import (
    KIND_DRAIN,
    KIND_SPLIT,
    PHASE_CATCHUP,
    PHASE_CUTOVER,
    PHASE_DONE,
    Migration,
    plan_rebalance,
)
from repro.cluster.ring import HashRing

logger = logging.getLogger(__name__)

#: File under ``data_dir`` holding the coordinator's durable state:
#: ring topology, route version, per-shard epochs/roles and the
#: in-flight migration.  Written atomically (temp + rename) on every
#: transition so a restarted coordinator resumes instead of resetting.
STATE_FILENAME = "coordinator-state.json"

#: How often a canary polls its primary's completed-decision count
#: while it waits out the observation window.
CANARY_POLL_INTERVAL = 0.05


class ShardState:
    """One shard's pair of nodes plus its fencing epoch."""

    __slots__ = ("name", "primary", "standby", "epoch", "failovers", "lock")

    def __init__(
        self, name: str, primary: ClusterNode, standby: ClusterNode
    ) -> None:
        self.name = name
        self.primary = primary
        self.standby = standby
        self.epoch = primary.epoch
        self.failovers = 0
        self.lock = threading.Lock()


def _parse_cluster_store(store: str) -> ParsedStoreSpec:
    """Parse and vet a per-node store spec for cluster use.

    Clusters instantiate one store per node under ``data_dir``, so the
    spec must not pin a single path: use bare ``sqlite`` (each node
    gets ``<data_dir>/<node>.db``) or ``tiered:sqlite?...``; ``memory``
    and ``tiered:memory?...`` work too.  Explicit paths, ``remote:``
    and pre-built instances are rejected — they cannot be cloned per
    node.
    """
    parsed = parse_store_spec(store)
    if parsed.kind in ("instance", "remote"):
        raise StoreSpecError(
            "cluster nodes each build their own store; pass 'memory', "
            "'sqlite' or 'tiered:...', not "
            + ("a store instance" if parsed.kind == "instance" else repr(store))
        )
    pinned = parsed.warm if parsed.kind == "tiered" else parsed
    if pinned is not None and pinned.kind == "sqlite" and pinned.path:
        raise StoreSpecError(
            "cluster sqlite files live under data_dir, one per node — "
            f"use bare 'sqlite' (no path), got {store!r}"
        )
    return parsed


class LocalCluster:
    """N shards of primary+standby nodes plus a routing coordinator.

    Every node runs in-process on its own server thread (the same
    harness the single-node tests use), which keeps the whole cluster
    bootable inside one pytest worker or one CI step; the ``cluster
    node`` CLI runs the same :class:`ClusterNode` as a standalone
    process for multi-process benchmarking.
    """

    def __init__(
        self,
        policy_set: MSoDPolicySet,
        n_shards: int,
        data_dir: str,
        *,
        audit_key: bytes = b"cluster-trail-key",
        store: str = "memory",
        vnodes: int = 64,
        host: str = "127.0.0.1",
        port: int = 0,
        health_interval: float = 0.2,
        health_failures: int = 2,
        health_timeout: float = 0.25,
        catchup_interval: float = 0.4,
        reshard_interval: float = 0.1,
        fsync: bool = True,
        audit_max_records: int = 10_000,
        audit_max_bytes: int | None = None,
        journal_max: int | None = None,
        service_shards: int = 2,
        resume: bool = True,
    ) -> None:
        if n_shards < 1:
            raise ClusterError("a cluster needs at least one shard")
        parsed_store = _parse_cluster_store(store)
        self._policy_set = policy_set
        self._data_dir = data_dir
        self._audit_key = audit_key
        self._host = host
        self._port = port
        self._health_interval = health_interval
        self._health_failures = health_failures
        self._health_timeout = health_timeout
        self._catchup_interval = catchup_interval
        self._reshard_interval = reshard_interval
        self._parsed_store = parsed_store
        self._service_shards = service_shards
        self._fsync = fsync
        self._audit_max_records = audit_max_records
        self._audit_max_bytes = audit_max_bytes
        self._journal_max = journal_max
        self._route_version = 1
        self._route_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._state_path = os.path.join(data_dir, STATE_FILENAME)
        self._shards: dict[str, ShardState] = {}
        self._dead: set[str] = set()
        self._migration: Migration | None = None
        self._last_migration: dict | None = None
        self._migrations_total: dict[str, int] = {
            KIND_SPLIT: 0,
            KIND_DRAIN: 0,
        }
        self._users_moved_total = 0
        self._cutover_pauses: list[float] = []
        # Serialises topology changes with policy rollouts, so a set
        # admitted for N shards is what N shards run.
        self._reshard_lock = threading.Lock()
        os.makedirs(data_dir, exist_ok=True)
        persisted = self._load_state_file() if resume else None
        admit_routing(
            policy_set, len(persisted["shards"]) if persisted else n_shards
        )
        if persisted is not None:
            # Restart-stable topology: the ring, route version, shard
            # epochs and any in-flight migration come from the state
            # file, not from CLI flags — a coordinator restarted
            # mid-migration resumes instead of resetting to
            # ``shard-0..n-1`` at epoch 1.
            self._route_version = int(persisted.get("route_version", 1))
            self._ring = HashRing.from_dict(persisted["ring"])
            for name, shard_data in persisted.get("shards", {}).items():
                self._shards[name] = self._build_shard(
                    name,
                    primary_name=shard_data.get("primary"),
                    epoch=int(shard_data.get("epoch", 1)),
                    failovers=int(shard_data.get("failovers", 0)),
                )
            migration = persisted.get("migration")
            if migration:
                self._migration = Migration.from_dict(migration)
            self._last_migration = persisted.get("last_migration")
            self._migrations_total.update(
                persisted.get("migrations_total", {})
            )
            self._users_moved_total = int(
                persisted.get("users_moved_total", 0)
            )
        else:
            for index in range(n_shards):
                shard = f"shard-{index}"
                self._shards[shard] = self._build_shard(shard)
            self._ring = HashRing(self._shards.keys(), vnodes=vnodes)
        self._registry: MetricsRegistry | None = None
        self._runner: LoopThread | None = None
        self._stopping = threading.Event()
        self._endpoint: FrameServer | None = None
        self._coordinator_port = 0
        self._background: list[asyncio.Task] = []
        self._loop_errors = {"health": 0, "catchup": 0, "reshard": 0}
        self._policy_reloads = 0
        self._started = False

    def _build_shard(
        self,
        shard: str,
        *,
        primary_name: str | None = None,
        epoch: int = 1,
        failovers: int = 0,
    ) -> ShardState:
        """Construct one shard's primary+standby node pair (not started).

        ``primary_name`` restores a persisted role assignment (after a
        failover the ``-b`` node may be the primary); by default the
        ``-a`` node leads at ``epoch``.
        """
        nodes: dict[str, ClusterNode] = {}
        if primary_name is None:
            primary_name = f"{shard}-a"
        for suffix in ("a", "b"):
            node_name = f"{shard}-{suffix}"
            is_primary = node_name == primary_name
            backend, _ = build_store(
                self._parsed_store,
                default_sqlite_path=os.path.join(
                    self._data_dir, f"{node_name}.db"
                ),
            )
            nodes[node_name] = ClusterNode(
                node_name,
                shard,
                self._policy_set,
                backend,
                os.path.join(self._data_dir, f"{node_name}-trails"),
                self._audit_key,
                role=ROLE_PRIMARY if is_primary else ROLE_STANDBY,
                epoch=epoch if is_primary else 0,
                host=self._host,
                service_shards=self._service_shards,
                fsync=self._fsync,
                audit_max_records=self._audit_max_records,
                audit_max_bytes=self._audit_max_bytes,
                journal_max=self._journal_max,
            )
        standby_name = next(
            name for name in nodes if name != primary_name
        )
        state = ShardState(shard, nodes[primary_name], nodes[standby_name])
        state.failovers = failovers
        return state

    # ------------------------------------------------------------------
    @property
    def ring(self) -> HashRing:
        return self._ring

    @property
    def shard_names(self) -> tuple[str, ...]:
        return self._ring.shard_names

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The coordinator's bound port."""
        return self._coordinator_port

    def shard(self, name: str) -> ShardState:
        try:
            return self._shards[name]
        except KeyError:
            raise ClusterError(f"unknown shard {name!r}") from None

    def nodes(self) -> Iterable[ClusterNode]:
        for state in self._shards.values():
            yield state.primary
            yield state.standby

    @property
    def cluster(self) -> "LocalCluster":
        """This cluster (what :func:`repro.api.open_cluster` returned)."""
        return self

    def client(self, **kwargs):
        """A :class:`~repro.cluster.ClusterPDP` connected to this cluster."""
        from repro.cluster.client import ClusterPDP

        return ClusterPDP((self.host, self.port), **kwargs)

    # ------------------------------------------------------------------
    def start(self) -> "LocalCluster":
        """Start every node and the coordinator; a second call is a no-op."""
        if self._started:
            return self
        self._started = True
        for node in self.nodes():
            node.start()
            node.install_ring(self._ring)
        self._start_coordinator_thread()
        self._save_state()
        return self

    def _start_coordinator_thread(self) -> None:
        self._stopping.clear()
        # A restart rebinds the port the first boot was given (clients
        # hold the coordinator address; an ephemeral rebind would
        # orphan them all).
        handlers = self._handlers()
        self._endpoint = FrameServer(
            self._host,
            self._coordinator_port or self._port,
            {
                protocol.PROTOCOL_VERSION: handlers,
                protocol.PROTOCOL_VERSION_2: handlers,
            },
        )
        self._runner = LoopThread(
            "msod-coordinator", self._boot, self._endpoint.close
        ).start()

    def _stop_coordinator_thread(self) -> None:
        runner, self._runner = self._runner, None
        if runner is not None:
            self._stopping.set()
            runner.stop()

    def stop(self) -> None:
        self._stop_coordinator_thread()
        for node in self.nodes():
            if node.name not in self._dead:
                node.stop()

    close = stop

    def crash_coordinator(self) -> None:
        """Fault injection: kill the coordinator, leave every node serving.

        Stops the health/catch-up/reshard loops and the route server
        mid-whatever-they-were-doing — the in-process analogue of the
        coordinator process dying.  Nodes keep deciding; clients keep
        working off their cached route (and merely fail to refresh it).
        :meth:`restart_coordinator` brings it back *from the persisted
        state file*, exactly as a real process restart would.
        """
        self._stop_coordinator_thread()

    def restart_coordinator(self) -> "LocalCluster":
        """Restart a crashed coordinator from the persisted state file.

        Reloads the ring topology, route version and in-flight
        migration from ``coordinator-state.json`` (anything a mid-tick
        crash left unpersisted is simply redone — every migration phase
        is idempotent), rebinds the same coordinator port and resumes
        the background loops.
        """
        if self._runner is not None:
            raise ClusterError("coordinator is already running")
        persisted = self._load_state_file()
        if persisted is not None:
            with self._route_lock:
                self._route_version = max(
                    self._route_version,
                    int(persisted.get("route_version", 1)),
                )
                self._ring = HashRing.from_dict(persisted["ring"])
            migration = persisted.get("migration")
            self._migration = (
                Migration.from_dict(migration) if migration else None
            )
            self._last_migration = persisted.get("last_migration")
        self._start_coordinator_thread()
        return self

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def kill_primary(self, shard_name: str) -> str:
        """Fault injection: crash the shard's current primary."""
        state = self.shard(shard_name)
        victim = state.primary
        victim.kill()
        self._dead.add(victim.name)
        return victim.name

    def promote(self, shard_name: str) -> int:
        """Fail a shard over to its standby; returns the new epoch.

        Steps 2–5 of the failover sequence (demote, seal, final
        catch-up, promote + route bump).  Normally driven by the health
        loop, public so tests and operators can force it — including on
        a shard whose primary is still alive.

        The order matters: the old primary is demoted *before* the seal
        is counted.  Demotion stops its decide gate admitting new work
        and its audit sink appending in-flight work (both checked under
        the node lock), so the trail is quiescent when counted — a seal
        taken first would let a live primary acknowledge decisions
        after the count, outside the sealed lineage, silently dropping
        grants clients already saw.
        """
        state = self.shard(shard_name)
        with state.lock:
            old_primary, standby = state.primary, state.standby
            if standby.name in self._dead:
                raise ClusterError(
                    f"shard {shard_name} has no live standby to promote"
                )
            old_primary.demote()
            sealed = TrailFollower(old_primary.trail_dir, self._audit_key)
            seal = sum(1 for _ in sealed.poll())
            standby.catch_up(old_primary.trail_dir, max_events=seal)
            new_epoch = state.epoch + 1
            standby.promote(new_epoch)
            state.primary, state.standby = standby, old_primary
            state.epoch = new_epoch
            state.failovers += 1
        with self._route_lock:
            self._route_version += 1
        self._save_state()
        return new_epoch

    # ------------------------------------------------------------------
    # Durable coordinator state (restart-stable ring + migrations).
    # ------------------------------------------------------------------
    def _load_state_file(self) -> dict | None:
        try:
            with open(self._state_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise ClusterError(
                f"unreadable coordinator state at {self._state_path}: {exc}"
            ) from exc
        if not isinstance(data, dict) or "ring" not in data:
            raise ClusterError(
                f"malformed coordinator state at {self._state_path}"
            )
        return data

    def _snapshot_state(self) -> dict:
        with self._route_lock:
            version = self._route_version
            ring = self._ring
        migration = self._migration
        return {
            "route_version": version,
            "ring": ring.to_dict(),
            "shards": {
                name: {
                    "primary": state.primary.name,
                    "standby": state.standby.name,
                    "epoch": state.epoch,
                    "failovers": state.failovers,
                }
                for name, state in list(self._shards.items())
            },
            "dead": sorted(self._dead),
            "migration": migration.to_dict() if migration else None,
            "last_migration": self._last_migration,
            "migrations_total": dict(self._migrations_total),
            "users_moved_total": self._users_moved_total,
        }

    def _save_state(self) -> None:
        """Atomically persist the coordinator's durable state.

        Temp-file + ``os.replace`` so a crash mid-write leaves the
        previous state intact; called on every topology/epoch/migration
        transition, never from a hot path.
        """
        with self._state_lock:
            snapshot = self._snapshot_state()
            tmp_path = self._state_path + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, self._state_path)

    # ------------------------------------------------------------------
    # Online resharding: split (add-node), drain, rebalancing.
    # ------------------------------------------------------------------
    def _next_shard_name(self) -> str:
        index = 0
        while f"shard-{index}" in self._shards:
            index += 1
        return f"shard-{index}"

    def add_shard(self, name: str | None = None) -> str:
        """Start a split migration onto a freshly created shard.

        Builds and starts the new shard's primary+standby pair (it
        joins the health and catch-up loops immediately) but does *not*
        put it on the serving ring: the reshard loop first catches the
        moving users' history up onto it, and only the cutover flips
        routing.  Returns the new shard's name; progress is observable
        through :meth:`reshard_status` / :meth:`wait_reshard`.
        """
        with self._reshard_lock:
            # A one-shard cluster may run any set; growing it must not.
            admit_routing(self._policy_set, len(self._shards) + 1)
            if self._migration is not None:
                raise ClusterError(
                    "a reshard migration is already in flight; wait for "
                    "it to complete"
                )
            if name is None:
                name = self._next_shard_name()
            if name in self._shards:
                raise ClusterError(f"shard {name!r} already exists")
            new_ring = self._ring.with_shard(name)
            state = self._build_shard(name)
            for node in (state.primary, state.standby):
                node.start()
                # The *old* ring on purpose: until cutover the moving
                # users are still owned (and served) by their source
                # shards, so the joining primary's ownership gate must
                # refuse them — routing there early would split history.
                node.install_ring(self._ring)
            self._shards[name] = state
            self._migration = Migration(
                KIND_SPLIT,
                name,
                self._ring.shard_names,
                new_ring.shard_names,
                self._ring.vnodes,
            )
            self._save_state()
            return name

    def drain_shard(self, name: str) -> str:
        """Start a drain migration moving every user off ``name``.

        The shard keeps serving its users until cutover; afterwards its
        nodes are stopped and it leaves the topology (its trails remain
        on disk as sealed lineages).
        """
        with self._reshard_lock:
            if self._migration is not None:
                raise ClusterError(
                    "a reshard migration is already in flight; wait for "
                    "it to complete"
                )
            if name not in self._shards:
                raise ClusterError(f"unknown shard {name!r}")
            if name not in self._ring.shard_names:
                raise ClusterError(f"shard {name!r} is not serving")
            new_ring = self._ring.without_shard(name)
            self._migration = Migration(
                KIND_DRAIN,
                name,
                self._ring.shard_names,
                new_ring.shard_names,
                self._ring.vnodes,
            )
            self._save_state()
            return name

    def shard_stats(self) -> dict[str, dict]:
        """Per-shard primary ``store.stats()`` (resident users et al.)."""
        stats = {}
        for shard_name, state in list(self._shards.items()):
            try:
                stats[shard_name] = state.primary.store.stats()
            except Exception as exc:  # a killed node's closed store
                stats[shard_name] = {"error": str(exc)}
        return stats

    def rebalance(
        self, *, threshold: float = 1.5, apply: bool = False
    ) -> dict:
        """Imbalance plan from the per-shard resident-user gauges.

        With ``apply=True`` and the plan recommending a split, starts
        one (``add_shard``) and reports the joining shard under
        ``"added"``.  A serving shard whose primary cannot report
        (killed, its store closed) makes the plan a :class:`ClusterError`.
        """
        stats = self.shard_stats()
        resident = {}
        for shard_name in self._ring.shard_names:
            if shard_name not in stats:
                continue
            if "error" in stats[shard_name]:
                raise ClusterError(
                    f"cannot plan a rebalance: shard {shard_name!r} has no "
                    f"live primary ({stats[shard_name]['error']})"
                )
            resident[shard_name] = int(stats[shard_name].get("resident_users", 0))
        plan = plan_rebalance(resident, threshold=threshold)
        if apply and plan["action"] == "split":
            plan["added"] = self.add_shard()
        return plan

    def reshard_status(self) -> dict:
        """The ``reshard-status`` body: live, last and lifetime state."""
        migration = self._migration
        with self._route_lock:
            version = self._route_version
            serving = list(self._ring.shard_names)
        return {
            "active": migration is not None,
            "migration": migration.to_dict() if migration else None,
            "last_migration": self._last_migration,
            "migrations_total": dict(self._migrations_total),
            "users_moved_total": self._users_moved_total,
            "serving_shards": serving,
            "managed_shards": sorted(self._shards.keys()),
            "route_version": version,
        }

    def wait_reshard(self, timeout: float = 60.0) -> dict:
        """Block until the in-flight migration completes; return status.

        Raises :class:`ClusterError` at the deadline — an operator (or
        a fault test) polling a migration that cannot converge should
        hear about it rather than hang.
        """
        deadline = time.monotonic() + timeout
        while self._migration is not None:
            if time.monotonic() >= deadline:
                raise ClusterError(
                    "reshard migration did not complete within "
                    f"{timeout:.1f}s: {self.reshard_status()['migration']}"
                )
            time.sleep(0.02)
        return self.reshard_status()

    def _reshard_tick(self) -> None:
        """One migration step; phases are idempotent and crash-safe.

        Catch-up ticks import the moving users' events from every
        source lineage; once the per-tick delta converges to the live
        tail (``converge_events``) — or the tick budget runs out — the
        cutover runs as one tick.  State persists on every transition,
        so a coordinator crash anywhere in here resumes by redoing the
        current phase.
        """
        with self._reshard_lock:
            migration = self._migration
            if migration is None:
                return
            if migration.phase == PHASE_CATCHUP:
                delta = self._import_moves(migration)
                migration.ticks += 1
                if (
                    delta <= migration.converge_events
                    or migration.ticks >= migration.max_catchup_ticks
                ):
                    migration.phase = PHASE_CUTOVER
                self._save_state()
            elif migration.phase == PHASE_CUTOVER:
                self._cutover(migration)

    def _import_moves(self, migration: Migration) -> int:
        """Import every lineage of every move from its cursor on; return
        the events scanned."""
        scanned = 0
        for source, target, predicate in migration.moves():
            source_state = self._shards.get(source)
            target_state = self._shards.get(target)
            if source_state is None or target_state is None:
                continue
            migration.note_trail_dir(source, source_state.primary.trail_dir)
            for trail_dir in migration.trail_dirs[source]:
                report = target_state.primary.import_decision_events(
                    trail_dir,
                    predicate,
                    cursor=migration.cursor(target, trail_dir),
                )
                migration.set_cursor(target, trail_dir, report["next_cursor"])
                scanned += report["scanned"]
                migration.events_imported += report["imported"]
        return scanned

    def _cutover(self, migration: Migration) -> None:
        """Fence the movers, drain the tail, flip the ring, re-route.

        The ordering is the whole correctness argument (see
        ``docs/CLUSTER.md``):

        1. install the new ring on every **source** shard's nodes under
           a bumped fencing epoch (gate *and* sink now refuse the
           moving users — their trail history is quiescent from here;
           the epoch bump also forces every client of those shards to
           re-fetch the route, so none keeps deciding on a pre-cutover
           table) and bump the route version;
        2. one final import per moving range, walking **every** trail
           lineage the source ever had — with the movers quiescent this
           captures the complete acknowledged history, journal entries
           included, so in-flight retries stay exactly-once;
        3. purge the movers' records and journal entries from the
           source nodes (including any orphan a fence-refused in-flight
           decision committed between engine and sink);
        4. install the new ring on every node, flip the serving ring
           and bump the route version again — clients re-route the
           movers to the target, whose journal answers any retry;
        5. a drain additionally retires the subject shard (nodes
           stopped, trails kept on disk as sealed lineages).
        """
        started = time.monotonic()
        new_ring = HashRing(migration.new_shards, vnodes=migration.vnodes)
        sources = migration.sources()
        for source in sources:
            state = self._shards.get(source)
            if state is None:
                continue
            with state.lock:
                state.primary.install_ring(new_ring)
                state.standby.install_ring(new_ring)
                new_epoch = state.epoch + 1
                state.primary.promote(new_epoch)
                state.epoch = new_epoch
        with self._route_lock:
            self._route_version += 1
        self._save_state()
        self._import_moves(migration)
        if migration.kind != KIND_DRAIN:
            # A drained shard retires whole — nothing to purge.
            for source in sources:
                state = self._shards.get(source)
                if state is None:
                    continue
                leaving = migration.leaving_predicate(source)
                with state.lock:
                    moved = state.primary.purge_users(leaving)
                    if state.standby.name not in self._dead:
                        state.standby.purge_users(leaving)
                migration.users_moved += moved
        else:
            subject_state = self._shards.get(migration.subject)
            if subject_state is not None:
                stats = subject_state.primary.store.stats()
                migration.users_moved += int(
                    stats.get("resident_users", 0)
                )
        for state in list(self._shards.values()):
            for node in (state.primary, state.standby):
                node.install_ring(new_ring)
        with self._route_lock:
            self._ring = new_ring
            self._route_version += 1
        if migration.kind == KIND_DRAIN:
            retired = self._shards.pop(migration.subject, None)
            if retired is not None:
                for node in (retired.primary, retired.standby):
                    if node.name not in self._dead:
                        node.stop()
        migration.cutover_pause_s = time.monotonic() - started
        migration.phase = PHASE_DONE
        self._migrations_total[migration.kind] += 1
        self._users_moved_total += migration.users_moved
        self._cutover_pauses.append(migration.cutover_pause_s)
        self._last_migration = migration.to_dict()
        self._migration = None
        self._save_state()

    # ------------------------------------------------------------------
    def policy_version(self):
        """The cluster-wide :class:`PolicyVersion` (first primary's view).

        :meth:`reload_policy` rolls every live node together, so the
        primaries agree outside a rollout window; per-node versions are
        in :meth:`policy_status`, where a partially failed rollout
        would show up as divergent epochs.
        """
        first = next(iter(self._shards.values()))
        return first.primary.policy_version()

    def policy_status(self) -> dict:
        """The ``policy-status`` body: cluster and per-node versions.

        ``findings`` mirrors the first primary's last-swap analyzer
        output (the rollout path swaps every node with the same set, so
        any primary's findings are the cluster's).
        """
        first = next(iter(self._shards.values()))
        return {
            "version": self.policy_version().to_dict(),
            "reloads": self._policy_reloads,
            "findings": first.primary.service.policy_status().get(
                "findings", []
            ),
            "nodes": {
                node.name: node.policy_version().to_dict()
                for node in self.nodes()
            },
        }

    def _live_engines(self) -> list:
        """Every live node's engine, each pair read under its shard lock."""
        engines = []
        for state in self._shards.values():
            with state.lock:
                engines.extend(
                    node.engine
                    for node in (state.standby, state.primary)
                    if node.name not in self._dead
                )
        return engines

    def reload_policy(
        self,
        policy,
        *,
        verify: bool = False,
        max_flips: int = 0,
        force: bool = False,
        principal: str | None = None,
    ) -> dict:
        """Roll a new policy set across every live node, standby first.

        ``policy`` is the source union :func:`repro.api.open_cluster`
        takes.  :func:`~repro.verify.gate.admit_reload` admits it once
        up front — a set per-user routing cannot enforce on these
        shards, then ``principal`` against every live node's outgoing
        admin boundary, then the structured verifier — so a refused set
        never partially rolls out (``force=True`` overrides the verifier
        only).  Admission and rollout hold the reshard lock, so no
        ``add_shard`` lands between them.  Each shard then swaps
        under its own ``state.lock`` — serialising the rollout with
        that shard's catch-up ticks and any concurrent failover — with
        the **standby first**: if the primary dies mid-rollout, the
        node being promoted already runs the new set, so failover
        during a reload can neither drop the new policy nor resurrect
        the old one.  The route version bumps after all shards swap,
        nudging clients to re-fetch (decides in flight stay valid:
        fencing epochs are untouched).

        ``verify=True`` additionally attaches the full gate verdict to
        the response body.  The coordinator holds no decision trail of
        its own, so its gate is static-only; the differential half of a
        safe cluster rollout is :meth:`canary_reload_policy`.
        """
        from repro.api import load_policy_source
        from repro.verify.gate import admit_reload

        policy_set = load_policy_source(policy)
        with self._reshard_lock:
            gate = admit_reload(
                self._live_engines(),
                policy_set,
                shards=len(self._shards),
                principal=principal,
                max_flips=max_flips,
                force=force,
            )
            body = self._roll_out(policy_set, gate, force=force)
        if verify:
            body["gate"] = gate.to_dict()
        return body

    def _roll_out(self, policy_set, gate, *, force: bool = False) -> dict:
        """Swap an admitted set onto every live node, standby first.

        The caller holds the reshard lock and has run ``gate`` (the
        admission) already, so this step never analyses the set again.
        Once every live node has swapped, the set is what
        :meth:`_build_shard` boots a joining shard with.
        """
        reports: dict[str, dict] = {}
        changed = False
        for state in self._shards.values():
            with state.lock:
                for node in (state.standby, state.primary):
                    if node.name in self._dead:
                        continue
                    report = node.reload_policy(policy_set, force=force)
                    reports[node.name] = report.to_dict()
                    changed = changed or report.changed
        self._policy_set = policy_set
        if changed:
            self._policy_reloads += 1
            with self._route_lock:
                self._route_version += 1
        return {
            "changed": changed,
            "version": self.policy_version().to_dict(),
            "reloads": self._policy_reloads,
            "nodes": reports,
            "findings": [str(finding) for finding in gate.static.findings],
        }

    def canary_reload_policy(
        self,
        policy,
        *,
        shard_name: str | None = None,
        max_flips: int = 0,
        min_decisions: int = 0,
        timeout: float = 5.0,
        principal: str | None = None,
    ) -> dict:
        """Safe rollout: verify, canary one shard, then roll the cluster.

        The full pipeline of ``docs/VERIFICATION.md``:

        1. the same admission as :meth:`reload_policy` refuses the
           candidate before any node is touched — the routing check,
           ``principal`` against every live node's admin boundary, then
           the structured static analyzer (no ``force`` here — a canary
           rollout is never blind);
        2. the canary shard's primary keeps serving under the active
           set until its trail holds ``min_decisions`` more decision
           events (or ``timeout`` elapses);
        3. the primary's own trail — recorded history and the window
           alike — is replayed under the candidate by
           :meth:`~repro.server.service.AuthorizationService.what_if`;
           a replay that fails, or more than ``max_flips`` flips,
           raises :class:`PolicyError` with no node touched;
        4. only then does the candidate roll out cluster-wide, through
           the same standby-first step as :meth:`reload_policy` but
           without a second admission.

        A candidate the primary already runs skips 2 and 3 and rolls
        out as a no-op (``canary["noop"]``).  The reshard lock is held
        from admission to the end of the rollout, so resharding waits
        for the canary; the shard's own lock is not held through the
        window, so a failover there does not wait for it.
        """
        from repro.api import load_policy_source
        from repro.verify.gate import admit_reload

        policy_set = load_policy_source(policy)
        with self._reshard_lock:
            gate = admit_reload(
                self._live_engines(),
                policy_set,
                shards=len(self._shards),
                principal=principal,
                max_flips=max_flips,
            )
            name = shard_name
            if name is None:
                name = next(iter(self._shards))
            state = self.shard(name)
            with state.lock:
                primary = state.primary
                if primary.name in self._dead:
                    raise ClusterError(
                        f"shard {name} has no live primary to canary on"
                    )
            canary: dict = {"shard": name}
            digest = primary.policy_version().digest
            if policy_set_digest(policy_set) == digest:
                canary["noop"] = True
            else:
                # Counted in the primary's trail from its tip, so every
                # decision the window counts is in what the replay reads,
                # and the recorded history is read once, by the replay.
                window = TrailFollower(
                    primary.trail_dir,
                    self._audit_key,
                    position=primary.trail_tip(),
                )
                live = 0
                deadline = time.monotonic() + timeout
                while live < min_decisions and time.monotonic() < deadline:
                    time.sleep(CANARY_POLL_INTERVAL)
                    live += sum(
                        1
                        for event in window.poll()
                        if event.event_type == EVENT_DECISION
                    )
                canary["live_decisions"] = live
                try:
                    report = primary.service.what_if(policy_set)
                except Exception as exc:
                    raise PolicyError(
                        f"canary rollout rejected on shard {name}: "
                        f"replay failed: {exc}"
                    ) from exc
                if report.flip_count > max_flips:
                    raise PolicyError(
                        f"canary rollout rejected on shard {name}: "
                        f"{report.flip_count} decision flips "
                        f"(budget {max_flips}) over "
                        f"{report.decisions_replayed} replayed decisions"
                    )
                canary["replay"] = report.to_dict()
            body = self._roll_out(policy_set, gate)
            body["canary"] = canary
            return body

    # ------------------------------------------------------------------
    def route(self) -> dict:
        """The routing table clients consume (see ``ClusterPDP``).

        Built from the **serving ring**, not the managed shard set:
        during a split the joining shard exists (health-checked,
        catching up) but carries no users until cutover flips the ring,
        and ``ClusterPDP`` derives its own ring from exactly this shard
        list — the route table *is* the topology.
        """
        with self._route_lock:
            version = self._route_version
            ring = self._ring
        shards = {}
        for name in ring.shard_names:
            state = self._shards.get(name)
            if state is None:  # pragma: no cover - mid-retirement race
                continue
            shards[name] = {
                "address": list(state.primary.address),
                "epoch": state.epoch,
            }
        return {
            "version": version,
            "vnodes": ring.vnodes,
            "shards": shards,
        }

    def status(self) -> dict:
        """The ``cluster-status`` body: every node's role and health.

        Each shard also reports its primary's ``store.stats()`` (with
        the ``resident_users`` gauge) and whether it is on the serving
        ring, so operators can see imbalance — and a migration's
        progress — from one verb instead of scraping every node.
        """
        with self._route_lock:
            version = self._route_version
            serving = set(self._ring.shard_names)
        shards = {}
        for name, state in list(self._shards.items()):
            try:
                stats = state.primary.store.stats()
            except Exception as exc:  # a killed node's closed store
                stats = {"error": str(exc)}
            shards[name] = {
                "epoch": state.epoch,
                "failovers": state.failovers,
                "serving": name in serving,
                "stats": stats,
                "resident_users": stats.get("resident_users"),
                "nodes": [
                    {
                        "name": node.name,
                        "address": list(node.address),
                        "role": node.role,
                        "epoch": node.epoch,
                        "up": node.name not in self._dead,
                        "journal_size": node.journal_size,
                        "policy_epoch": policy.epoch,
                        "policy_digest": policy.digest,
                    }
                    for node in (state.primary, state.standby)
                    for policy in [node.policy_version()]
                ],
            }
        return {
            "route_version": version,
            "loop_errors": dict(self._loop_errors),
            "policy_reloads": self._policy_reloads,
            "reshard": self.reshard_status(),
            "shards": shards,
        }

    # ------------------------------------------------------------------
    def metrics_registry(self) -> MetricsRegistry:
        """Cluster-level Prometheus registry with per-node gauges."""
        if self._registry is not None:
            return self._registry
        registry = MetricsRegistry()

        def per_node(value_of) -> list[tuple[dict[str, str], float]]:
            samples = []
            for state in list(self._shards.values()):
                for node in (state.primary, state.standby):
                    labels = {
                        "node": node.name,
                        "shard": node.shard,
                        "role": node.role,
                    }
                    samples.append((labels, value_of(node)))
            return samples

        registry.register_gauge(
            "cluster_node_up",
            "1 when the node is believed alive, 0 after a crash.",
            lambda: per_node(
                lambda node: 0.0 if node.name in self._dead else 1.0
            ),
        )
        registry.register_gauge(
            "cluster_node_primary",
            "1 when the node is its shard's current primary.",
            lambda: per_node(
                lambda node: 1.0 if node.role == ROLE_PRIMARY else 0.0
            ),
        )
        registry.register_gauge(
            "cluster_node_epoch",
            "The node's current fencing epoch.",
            lambda: per_node(lambda node: float(node.epoch)),
        )
        registry.register_gauge(
            "cluster_node_journal_size",
            "Decision outcomes held for exactly-once retry dedupe.",
            lambda: per_node(lambda node: float(node.journal_size)),
        )
        registry.register_gauge(
            "policy_epoch",
            "Epoch of the policy set each node decides under.",
            lambda: per_node(
                lambda node: float(node.policy_version().epoch)
            ),
        )
        registry.register_counter(
            "policy_reloads_total",
            "Cluster-wide policy rollouts that changed the active set.",
            lambda: float(self._policy_reloads),
        )
        registry.register_counter(
            "cluster_coordinator_loop_errors_total",
            "Background-loop ticks that raised (logged and retried), "
            "by loop.",
            lambda: [
                ({"loop": loop_name}, float(count))
                for loop_name, count in self._loop_errors.items()
            ],
        )
        registry.register_counter(
            "cluster_failovers_total",
            "Standby promotions performed, by shard.",
            lambda: [
                ({"shard": name}, float(state.failovers))
                for name, state in list(self._shards.items())
            ],
        )
        registry.register_gauge(
            "cluster_route_version",
            "Monotonic routing-table version (bumps on every failover).",
            lambda: float(self.route()["version"]),
        )
        registry.register_gauge(
            "cluster_shard_resident_users",
            "Users resident in each shard primary's retained-ADI store "
            "(the rebalance planner's imbalance signal).",
            lambda: [
                ({"shard": shard_name}, float(stats.get("resident_users", 0)))
                for shard_name, stats in self.shard_stats().items()
                if "error" not in stats
            ],
        )
        registry.register_counter(
            "reshard_migrations_total",
            "Completed online reshard migrations, by kind.",
            lambda: [
                ({"kind": kind}, float(count))
                for kind, count in self._migrations_total.items()
            ],
        )
        registry.register_counter(
            "reshard_users_moved_total",
            "Users whose retained ADI moved shards across all completed "
            "migrations.",
            lambda: float(self._users_moved_total),
        )
        registry.register_gauge(
            "reshard_active",
            "1 while a reshard migration is in flight.",
            lambda: 0.0 if self._migration is None else 1.0,
        )

        def cutover_pause_samples() -> list[tuple[dict[str, str], float]]:
            pauses = sorted(self._cutover_pauses)
            if not pauses:
                return []
            def quantile(fraction: float) -> float:
                rank = min(len(pauses) - 1, int(fraction * len(pauses)))
                return pauses[rank]
            return [
                ({"quantile": "0.5"}, quantile(0.5)),
                ({"quantile": "0.99"}, quantile(0.99)),
                ({"quantile": "1.0"}, pauses[-1]),
            ]

        registry.register_gauge(
            "reshard_cutover_pause_seconds",
            "Cutover fence-to-reroute pause per completed migration "
            "(summary quantiles over this coordinator's lifetime).",
            cutover_pause_samples,
        )
        registry.register_counter(
            "reshard_cutover_pause_seconds_sum",
            "Sum of cutover pauses across completed migrations.",
            lambda: float(sum(self._cutover_pauses)),
        )
        registry.register_counter(
            "reshard_cutover_pause_seconds_count",
            "Number of completed cutovers observed.",
            lambda: float(len(self._cutover_pauses)),
        )
        self._registry = registry
        return registry

    def metrics_text(self) -> str:
        return self.metrics_registry().render()

    # ------------------------------------------------------------------
    # Coordinator event loop: health checks, catch-up, route serving.
    # ------------------------------------------------------------------
    async def _boot(self) -> None:
        """Bind the endpoint and spawn the three background loops.

        All of them end with the loop thread: ``LoopThread`` closes the
        endpoint and cancels whatever is still pending.
        """
        await self._endpoint.start()
        self._coordinator_port = self._endpoint.port
        self._background = [
            asyncio.ensure_future(loop())
            for loop in (
                self._health_loop,
                self._catchup_loop,
                self._reshard_loop,
            )
        ]

    def _probe(self, node: ClusterNode) -> bool:
        """One blocking health probe with the fast health timeout."""
        host, port = node.address
        try:
            with RemotePDP(
                host,
                port,
                pool_size=1,
                timeout=self._health_timeout,
                health_timeout=self._health_timeout,
                max_retries=0,
            ) as pdp:
                body = pdp.healthz()
            return bool(body)
        except (PDPUnavailableError, ProtocolError):
            return False

    async def _health_loop(self) -> None:
        """Probe primaries forever; a failing tick never kills the loop.

        An exception from one shard's probe or promotion (an unreadable
        trail, a standby racing its own death...) is logged and counted;
        the shard is retried next tick and the other shards' checks
        proceed.  A silently-dead health loop would mean no shard could
        ever fail over again.
        """
        loop = asyncio.get_running_loop()
        misses: dict[str, int] = {}
        while not self._stopping.is_set():
            # Snapshot: a split adds shards and a drain retires them
            # from other threads while this loop sleeps.
            for name, state in list(self._shards.items()):
                try:
                    primary = state.primary
                    if primary.name in self._dead:
                        ok = False
                    else:
                        ok = await loop.run_in_executor(
                            None, self._probe, primary
                        )
                    if ok:
                        misses[name] = 0
                        continue
                    misses[name] = misses.get(name, 0) + 1
                    if misses[name] < self._health_failures:
                        continue
                    self._dead.add(primary.name)
                    if state.standby.name not in self._dead:
                        await loop.run_in_executor(None, self.promote, name)
                        misses[name] = 0
                except Exception:
                    self._loop_errors["health"] += 1
                    logger.exception(
                        "health tick failed for shard %s; retrying next tick",
                        name,
                    )
            await asyncio.sleep(self._health_interval)

    async def _catchup_loop(self) -> None:
        """Replay primaries' trails into standbys; ticks never kill it.

        Replay follows the live primary's trail, stopping before an
        append in flight; a tick that still raises (a corrupt segment,
        a store error) is logged and counted, and the standby simply
        catches up on the next tick — replay is idempotent, so a missed
        tick costs lag, never correctness.
        """
        loop = asyncio.get_running_loop()
        while not self._stopping.is_set():
            for name, state in list(self._shards.items()):
                standby, primary = state.standby, state.primary
                if standby.name in self._dead or primary.name in self._dead:
                    continue

                def tick(state=state, standby=standby, primary=primary):
                    with state.lock:
                        if state.standby is standby:
                            standby.catch_up(primary.trail_dir)

                try:
                    await loop.run_in_executor(None, tick)
                except Exception:
                    self._loop_errors["catchup"] += 1
                    logger.exception(
                        "catch-up tick failed for shard %s; retrying "
                        "next tick",
                        name,
                    )
            await asyncio.sleep(self._catchup_interval)

    async def _reshard_loop(self) -> None:
        """Drive the in-flight migration; ticks never kill the loop.

        Same discipline as the health and catch-up loops: a tick that
        raises (a source trail racing its own rotation, a node dying
        mid-import...) is logged and counted, and the migration — whose
        phases are idempotent — simply retries next tick.
        """
        loop = asyncio.get_running_loop()
        while not self._stopping.is_set():
            if self._migration is not None:
                try:
                    await loop.run_in_executor(None, self._reshard_tick)
                except Exception:
                    self._loop_errors["reshard"] += 1
                    logger.exception(
                        "reshard tick failed; retrying next tick"
                    )
            await asyncio.sleep(self._reshard_interval)

    # ------------------------------------------------------------------
    # Coordinator endpoint: one op table on the shared frame loop.
    # ------------------------------------------------------------------
    def _handlers(self) -> dict[str, Handler]:
        """The verbs the coordinator answers.

        No ``decide`` and no ``decide-batch``: the endpoint decides
        nothing *by table*, so both get the loop's unknown-op refusal.
        """
        return {
            protocol.OP_ROUTE: body_handler(lambda _: self.route()),
            protocol.OP_CLUSTER_STATUS: body_handler(lambda _: self.status()),
            protocol.OP_HEALTHZ: body_handler(
                lambda _: {"status": "ok", "role": "coordinator"}
            ),
            protocol.OP_METRICS: body_handler(self._metrics_body),
            protocol.OP_POLICY_STATUS: body_handler(
                lambda _: self.policy_status()
            ),
            protocol.OP_RESHARD_STATUS: body_handler(
                lambda _: self.reshard_status()
            ),
            protocol.OP_RESHARD: self._reshard,
            protocol.OP_POLICY_RELOAD: self._policy_reload,
        }

    def _metrics_body(self, frame: dict):
        fmt = protocol.metrics_format_of(frame)
        if fmt == protocol.METRICS_FORMAT_PROMETHEUS:
            return self.metrics_text()
        return self.status()

    @staticmethod
    async def _blocking_reply(frame_id, frame: dict, run) -> dict:
        """Answer ``frame`` with the body ``run()`` computes in the executor.

        The two verbs that take shard locks and block on node threads
        go through here, so route, status and health frames on other
        connections keep being answered meanwhile — and so a refusal
        reads the same from either: a rejected policy set is
        ``error.kind == "policy"``, any other :class:`ClusterError`
        (no live primary, a migration already in flight...) is
        ``"protocol"``.  Neither closes the connection.
        """
        try:
            body = await asyncio.get_running_loop().run_in_executor(None, run)
        except PolicyError as exc:
            return protocol.error_frame(frame_id, protocol.ERR_POLICY, str(exc))
        except ClusterError as exc:
            return protocol.error_frame(
                frame_id, protocol.ERR_PROTOCOL, str(exc)
            )
        return protocol.response_frame(frame_id, frame["op"], "body", body)

    async def _reshard(self, frame_id, frame: dict) -> dict:
        """Start a resize operation (add-node / drain / rebalance).

        Starting a split boots two server threads and everything takes
        the reshard lock; the response is the immediate reshard status
        (or rebalance plan) — the migration itself proceeds
        asynchronously under the reshard loop, observable via
        ``reshard-status``.
        """
        action, shard, apply, threshold = protocol.reshard_options_of(frame)

        def run() -> dict:
            if action == protocol.RESHARD_ACTION_ADD:
                added = self.add_shard(shard)
                body = self.reshard_status()
                body["added"] = added
                return body
            if action == protocol.RESHARD_ACTION_DRAIN:
                self.drain_shard(shard)
                return self.reshard_status()
            return self.rebalance(threshold=threshold, apply=apply)

        return await self._blocking_reply(frame_id, frame, run)

    async def _policy_reload(self, frame_id, frame: dict) -> dict:
        """Parse, validate and roll a policy set across the cluster.

        A rejected set leaves every node untouched.
        """
        from repro.xmlpolicy import parse_policy_set

        xml = protocol.policy_xml_of(frame)
        verify, max_flips, force = protocol.reload_options_of(frame)
        principal = protocol.reload_principal_of(frame)
        canary = frame.get("canary", False)
        if not isinstance(canary, bool):
            raise ProtocolError("policy-reload.canary must be a boolean")

        def run() -> dict:
            policy_set = parse_policy_set(xml)
            if canary:
                return self.canary_reload_policy(
                    policy_set, max_flips=max_flips, principal=principal
                )
            return self.reload_policy(
                policy_set,
                verify=verify,
                max_flips=max_flips,
                force=force,
                principal=principal,
            )

        return await self._blocking_reply(frame_id, frame, run)
