"""repro.api — the one way to construct and run an MSoD PDP.

Before this module existed the repository had three divergent
construction rituals: the CLI built ``SQLiteRetainedADIStore`` +
``MSoDEngine`` by hand, the server tests assembled engine + service +
``ServerThread``, and the benchmarks did both again.  :func:`open_pdp`
replaces all of them with a single call that returns a uniform
:class:`~repro.framework.pdp.PolicyDecisionPoint` handle::

    from repro.api import open_pdp

    with open_pdp("policy.xml") as pdp:                      # in-memory
        decision = pdp.decide(request)

    with open_pdp("policy.xml", store="sqlite:adi.db") as pdp:
        ...                                                  # durable

    with open_pdp(store="remote:pdp.example:8750") as pdp:
        ...                                                  # networked

Every handle supports the same lifecycle — ``decide``, ``close``,
context-manager exit, and a ``perf`` recorder — so callers never
special-case remote connection pooling against in-process stores.
``trace=True`` additionally switches trace building on in that recorder
(with a slow-decision log), and each decision carries its
:class:`~repro.obs.trace.DecisionTrace`.

:func:`open_server` is the serving twin: the same policy/store spec,
but wrapped in a sharded :class:`~repro.server.service
.AuthorizationService` listening on a socket, with a ``client()``
shortcut returning a connected :class:`~repro.client.RemotePDP`.
"""

from __future__ import annotations

import os
from typing import Union

from repro.core.context import ContextName
from repro.core.decision import Decision, DecisionRequest
from repro.core.engine import MODE_STRICT, MSoDEngine
from repro.core.policy import MSoDPolicySet
from repro.core.retained_adi import RetainedADIStore
from repro.errors import PolicyError, StoreSpecError
from repro.framework.pdp import PolicyDecisionPoint
from repro.obs.recorder import Recorder
from repro.obs.slowlog import SlowDecisionLog
from repro.storespec import (
    ParsedStoreSpec,
    build_store,
    open_store,
    parse_store_spec,
)

__all__ = [
    "open_pdp",
    "open_server",
    "open_cluster",
    "load_policy_source",
    "verify_policy",
    "what_if",
    "parse_store_spec",
    "build_store",
    "open_store",
    "ParsedStoreSpec",
    "StoreSpecError",
    "LocalPDP",
    "ServerHandle",
    "ClusterHandle",
]

#: Accepted ``policy`` argument shapes.
PolicySource = Union[MSoDPolicySet, str, "os.PathLike[str]", None]

#: Accepted ``store`` argument shapes.
StoreSpec = Union[str, RetainedADIStore]


def _load_policy_set(policy: PolicySource) -> MSoDPolicySet:
    if isinstance(policy, MSoDPolicySet):
        return policy
    if isinstance(policy, str) and policy.lstrip().startswith("<"):
        from repro.xmlpolicy import parse_policy_set

        return parse_policy_set(policy)
    if isinstance(policy, (str, os.PathLike)):
        from repro.xmlpolicy import parse_policy_set_file

        return parse_policy_set_file(os.fspath(policy))
    raise PolicyError(
        "policy must be an MSoDPolicySet, a path to a policy XML file, "
        f"or a policy XML string, got {type(policy).__name__}"
    )


def load_policy_source(policy: PolicySource) -> MSoDPolicySet:
    """Resolve any accepted policy source to an :class:`MSoDPolicySet`.

    The same union :func:`open_pdp` takes — an already-built set, a
    path to an Appendix-A XML file, or the XML text itself (detected by
    a leading ``<``).  ``reload_policy`` on every PDP handle funnels
    through this, so hot reloads accept exactly the shapes construction
    does.  ``None`` is rejected: a reload always needs a policy.
    """
    if policy is None:
        raise PolicyError(
            "policy source is required (an MSoDPolicySet, a path, or XML text)"
        )
    return _load_policy_set(policy)


def verify_policy(policy: PolicySource, *, permis=None, ssd=()):
    """Statically verify any accepted policy source.

    Returns the structured
    :class:`~repro.verify.static.VerifyReport` — the same analysis
    ``swap_policy`` gates on, plus the deeper RBAC cross-reference when
    a PERMIS companion policy is supplied.
    """
    from repro.verify.static import analyze_policy_set

    return analyze_policy_set(
        load_policy_source(policy), permis=permis, ssd=ssd
    )


def what_if(
    policy: PolicySource,
    trail_dir: str,
    *,
    audit_key: bytes,
    last_n_trails: int | None = None,
    since: float = 0.0,
):
    """Differentially replay a recorded trail under a candidate set.

    Convenience wrapper over
    :func:`repro.verify.whatif.what_if_replay` for operators holding a
    trail directory: returns the
    :class:`~repro.verify.whatif.WhatIfReport` of decisions the
    candidate would flip.
    """
    from repro.audit.trail import AuditTrailManager
    from repro.verify.whatif import what_if_replay

    with AuditTrailManager(trail_dir, audit_key, tolerate_ahead=True) as trails:
        return what_if_replay(
            trails,
            load_policy_source(policy),
            last_n_trails=last_n_trails,
            since=since,
        )


def _recorder(
    perf: Recorder | None, trace: bool, slowlog_capacity: int
) -> Recorder | None:
    """``perf`` as given, or — when tracing — it (or a fresh recorder)
    with trace building switched on."""
    if not trace:
        return perf
    recorder = perf if perf is not None else Recorder()
    return recorder.trace_decisions(slowlog_capacity)


class LocalPDP(PolicyDecisionPoint):
    """An in-process PDP over one MSoD engine and its retained ADI.

    The uniform handle :func:`open_pdp` returns for ``memory`` and
    ``sqlite:`` stores: ``decide`` runs the Section 4.2 algorithm,
    ``close`` releases the store (only when the handle created it), and
    ``perf`` / ``slow_log`` expose the observability layer.
    """

    def __init__(self, engine: MSoDEngine, *, owns_store: bool = True) -> None:
        self._engine = engine
        self._owns_store = owns_store
        self._closed = False

    @property
    def engine(self) -> MSoDEngine:
        return self._engine

    @property
    def store(self) -> RetainedADIStore:
        return self._engine.store

    @property
    def perf(self) -> Recorder:
        return self._engine.perf

    @property
    def slow_log(self) -> SlowDecisionLog | None:
        """The slow-decision log (None unless opened with ``trace=True``)."""
        return self._engine.perf.slow_log

    def decide(self, request: DecisionRequest) -> Decision:
        return self._engine.check(request)

    def policy_version(self):
        """The :class:`PolicyVersion` this handle's decisions run under."""
        return self._engine.policy_version()

    def reload_policy(
        self,
        policy: PolicySource,
        *,
        verify: bool = False,
        max_flips: int = 0,
        force: bool = False,
        principal: str | None = None,
    ):
        """Atomically swap the engine's policy set; see ``swap_policy``.

        ``verify=True`` runs the verification gate first (static-only:
        an in-process handle records no audit trail); ``force=True``
        overrides the gate.  ``max_flips`` is accepted for signature
        parity with the remote and cluster handles.  ``principal``
        names the acting operator: when the outgoing set guards the
        policy store with an admin boundary, a principal with retained
        operational decisions is refused (``force`` does not override
        the boundary).
        """
        policy_set = load_policy_source(policy)
        if principal is not None:
            from repro.core.constraints import POLICY_RELOAD_PRIVILEGE

            denial = self._engine.admin_boundary_denial(
                principal, POLICY_RELOAD_PRIVILEGE
            )
            if denial is not None:
                raise PolicyError(
                    f"policy reload refused by admin boundary: {denial}"
                )
        if verify:
            from repro.verify.gate import evaluate_gate

            gate = evaluate_gate(policy_set, max_flips=max_flips)
            if not gate.ok and not force:
                raise PolicyError(
                    "policy reload refused by verification gate: "
                    + "; ".join(gate.reasons)
                )
        return self._engine.swap_policy(policy_set, force=force)

    def notify_context_terminated(self, context: ContextName) -> int:
        """Forward an implied context termination to the engine."""
        return self._engine.notify_context_terminated(context)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_store:
            self._engine.store.close()


def open_pdp(
    policy: PolicySource = None,
    store: StoreSpec = "memory",
    *,
    perf: Recorder | None = None,
    trace: bool = False,
    slowlog_capacity: int = 32,
    mode: str = MODE_STRICT,
    timeout: float = 5.0,
    pool_size: int = 4,
    max_retries: int = 2,
    protocol: str = "auto",
) -> PolicyDecisionPoint:
    """Open a PDP handle over any backend with one uniform call.

    Parameters
    ----------
    policy:
        An :class:`MSoDPolicySet` or a path to an Appendix-A policy XML
        file.  Required for in-process stores; must be ``None`` for
        ``remote:`` stores (the server owns the policy).
    store:
        ``"memory"``, ``"sqlite:<path>"``, ``"remote:<host>:<port>"``,
        ``"tiered:<warm-spec>?hot_users=N"`` (hot in-memory aggregates
        with LRU eviction over a sqlite/memory warm layer — see
        ``docs/SCALE.md``), or an already-constructed
        :class:`RetainedADIStore` (whose lifetime then stays with the
        caller).  See :func:`parse_store_spec` for the full grammar.
    perf:
        Optional :class:`~repro.obs.recorder.Recorder`; for remote
        handles it records the client-side counters instead.
    trace:
        Switch trace building on in the recorder (a fresh one when
        ``perf`` is not given), with a slow-decision log of
        ``slowlog_capacity`` entries, so every decision carries
        a :class:`~repro.obs.trace.DecisionTrace`.  Unsupported for
        ``remote:`` handles — tracing happens server-side there (start
        the server with tracing and query its ``slowlog`` verb).
    mode:
        Engine mode, ``strict`` (default) or ``literal``.
    timeout, pool_size, max_retries:
        Remote-handle connection tuning; ignored for in-process stores.
    protocol:
        Remote decide wire protocol: ``"auto"`` (negotiate the
        pipelined binary v2, fall back to v1), ``"v1"`` or ``"v2"``.
        Ignored for in-process stores.
    """
    parsed = parse_store_spec(store)
    if parsed.is_remote:
        if policy is not None:
            raise PolicyError(
                "remote PDPs take no policy argument — the server owns "
                "the policy"
            )
        if trace:
            raise PolicyError(
                "tracing is server-side for remote PDPs: start the server "
                "with tracing enabled and query its slowlog/metrics verbs"
            )
        from repro.client.remote import RemotePDP

        return RemotePDP(
            parsed.host,
            parsed.port,
            pool_size=pool_size,
            timeout=timeout,
            max_retries=max_retries,
            perf=perf,
            protocol_version=protocol,
        )

    policy_set = _load_policy_set(policy)
    backend, owns_store = build_store(parsed)
    recorder = _recorder(perf, trace, slowlog_capacity)
    engine = MSoDEngine(policy_set, backend, mode=mode, perf=recorder)
    return LocalPDP(engine, owns_store=owns_store)


class ServerHandle:
    """A running authorization server plus the resources it owns.

    Returned by :func:`open_server`; closing it drains the shard
    queues, stops the listener thread and closes the store it opened.
    """

    def __init__(self, thread, owned_store: RetainedADIStore | None) -> None:
        self._thread = thread
        self._owned_store = owned_store
        self._closed = False

    @property
    def host(self) -> str:
        return self._thread.host

    @property
    def port(self) -> int:
        return self._thread.port

    @property
    def service(self):
        return self._thread.service

    @property
    def engine(self) -> MSoDEngine:
        return self._thread.service.engine

    def client(self, **kwargs):
        """A :class:`~repro.client.RemotePDP` connected to this server."""
        from repro.client.remote import RemotePDP

        return RemotePDP(self.host, self.port, **kwargs)

    def policy_version(self):
        """The :class:`PolicyVersion` the server decides under."""
        return self.engine.policy_version()

    def reload_policy(
        self,
        policy: PolicySource,
        *,
        verify: bool = False,
        max_flips: int = 0,
        force: bool = False,
        principal: str | None = None,
    ):
        """Hot-swap the server's policy set without dropping connections.

        Scheduled on the server's event loop (between shard
        micro-batches), so no in-flight decision mixes two versions.
        Accepts the same source union as :func:`open_server`; the
        keyword options run the server-side verification gate (see
        :meth:`AuthorizationService.reload_policy`).
        """
        return self._thread.reload_policy(
            load_policy_source(policy),
            verify=verify,
            max_flips=max_flips,
            force=force,
            principal=principal,
        )

    def close(self) -> None:
        """Drain, stop the server thread and release owned resources."""
        if self._closed:
            return
        self._closed = True
        self._thread.stop()
        if self._owned_store is not None:
            self._owned_store.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_server(
    policy: PolicySource,
    store: StoreSpec = "memory",
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    n_shards: int = 4,
    queue_depth: int = 256,
    batch_max: int = 32,
    gather_window: float | None = None,
    perf: Recorder | None = None,
    trace: bool = False,
    slowlog_capacity: int = 32,
    mode: str = MODE_STRICT,
) -> ServerHandle:
    """Boot a sharded authorization server on a background thread.

    The serving twin of :func:`open_pdp`: same policy/store specs
    (``remote:`` is meaningless here and rejected), one call instead of
    the engine + service + ``ServerThread`` ritual.  ``port=0`` binds
    an ephemeral port — read it back from the handle.
    """
    from repro.server.service import AuthorizationService
    from repro.server.testing import ServerThread

    parsed = parse_store_spec(store)
    if parsed.is_remote:
        raise StoreSpecError(
            "open_server runs the server side; use a local store"
        )
    policy_set = _load_policy_set(policy)
    backend, owns_store = build_store(parsed)
    owned = backend if owns_store else None
    recorder = _recorder(perf, trace, slowlog_capacity)
    engine = MSoDEngine(policy_set, backend, mode=mode, perf=recorder)
    service = AuthorizationService(
        engine,
        n_shards=n_shards,
        queue_depth=queue_depth,
        batch_max=batch_max,
        gather_window=gather_window,
    )
    thread = ServerThread(service, host=host, port=port).start()
    return ServerHandle(thread, owned)


class ClusterHandle:
    """A running multi-node MSoD cluster plus its coordinator.

    Returned by :func:`open_cluster`; ``client()`` connects a
    :class:`~repro.cluster.ClusterPDP` that routes by user, stamps the
    fencing epoch and survives failovers.
    """

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self._closed = False

    @property
    def cluster(self):
        return self._cluster

    @property
    def host(self) -> str:
        return self._cluster.host

    @property
    def port(self) -> int:
        """The coordinator's bound port (route/status/metrics verbs)."""
        return self._cluster.port

    @property
    def shard_names(self) -> tuple[str, ...]:
        return self._cluster.shard_names

    def client(self, **kwargs):
        """A :class:`~repro.cluster.ClusterPDP` connected to this cluster."""
        from repro.cluster import ClusterPDP

        return ClusterPDP((self.host, self.port), **kwargs)

    def kill_primary(self, shard_name: str) -> str:
        """Fault injection: crash one shard's primary (no drain)."""
        return self._cluster.kill_primary(shard_name)

    def policy_version(self):
        """The cluster-wide :class:`PolicyVersion` (coordinator's view)."""
        return self._cluster.policy_version()

    def reload_policy(
        self,
        policy: PolicySource,
        *,
        verify: bool = False,
        max_flips: int = 0,
        force: bool = False,
        principal: str | None = None,
    ):
        """Roll a new policy set across every node, standby first.

        The coordinator swaps each shard's standby before its primary
        and bumps the route version afterwards, so a failover during
        the rollout still lands on a node already running the new set.
        Accepts the same source union as :func:`open_cluster`.
        """
        return self._cluster.reload_policy(
            load_policy_source(policy),
            verify=verify,
            max_flips=max_flips,
            force=force,
            principal=principal,
        )

    def canary_reload_policy(
        self,
        policy: PolicySource,
        *,
        shard_name: str | None = None,
        max_flips: int = 0,
        min_decisions: int = 0,
        timeout: float = 5.0,
    ):
        """Safe rollout: canary one shard before the cluster-wide roll.

        See :meth:`LocalCluster.canary_reload_policy` — stage the
        candidate on one shard's standby, mirror that shard's live
        decide stream through old and candidate sets, and only roll
        cluster-wide when total flips stay within ``max_flips``.
        """
        return self._cluster.canary_reload_policy(
            load_policy_source(policy),
            shard_name=shard_name,
            max_flips=max_flips,
            min_decisions=min_decisions,
            timeout=timeout,
        )

    def status(self) -> dict:
        return self._cluster.status()

    # -- elastic resharding -------------------------------------------
    def add_shard(self, name: str | None = None) -> str:
        """Grow by one shard: start a primary+standby pair and begin a
        live split migration onto it.  Returns the new shard's name;
        poll :meth:`reshard_status` or call :meth:`wait_reshard` for
        completion."""
        return self._cluster.add_shard(name)

    def drain_shard(self, name: str) -> None:
        """Shrink by one shard: migrate ``name``'s users to the
        surviving shards, then retire its nodes (trails are kept as
        sealed lineages)."""
        self._cluster.drain_shard(name)

    def rebalance(self, *, threshold: float = 1.5, apply: bool = False):
        """Imbalance report from per-shard resident-user gauges;
        ``apply=True`` starts a split when the report recommends one."""
        return self._cluster.rebalance(threshold=threshold, apply=apply)

    def reshard_status(self) -> dict:
        """Active-migration state plus migration history counters."""
        return self._cluster.reshard_status()

    def wait_reshard(self, timeout: float = 60.0) -> dict:
        """Block until no migration is in flight (raises at timeout)."""
        return self._cluster.wait_reshard(timeout=timeout)

    def shard_stats(self) -> dict:
        """Per-shard primary ``store.stats()`` gauges."""
        return self._cluster.shard_stats()

    def crash_coordinator(self) -> None:
        """Fault injection: stop the coordinator (nodes keep serving)."""
        self._cluster.crash_coordinator()

    def restart_coordinator(self) -> None:
        """Restart a crashed coordinator from its persisted state file;
        an in-flight migration resumes from its recorded phase."""
        self._cluster.restart_coordinator()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._cluster.stop()

    def __enter__(self) -> "ClusterHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_cluster(
    policy: PolicySource,
    data_dir: str,
    *,
    n_shards: int = 2,
    store: str = "memory",
    host: str = "127.0.0.1",
    port: int = 0,
    audit_key: bytes = b"cluster-trail-key",
    audit_max_records: int = 10_000,
    audit_max_bytes: int | None = None,
    journal_max: int | None = None,
    fsync: bool = True,
    health_interval: float = 0.2,
    health_timeout: float = 0.25,
    vnodes: int = 64,
    resume: bool = True,
) -> ClusterHandle:
    """Boot an N-shard MSoD cluster (primary + standby per shard).

    The scale-out twin of :func:`open_server`: the same policy spec,
    but behind consistent-hash routing by ``user_id``, with each shard
    primary shipping its fsync'd audit trail to a warm standby (see
    :mod:`repro.cluster` and ``docs/CLUSTER.md``).  ``data_dir`` holds
    every node's trail directory and, for durable stores, its store
    file.  ``store`` takes the unified spec grammar minus anything
    pinning a single path or process: ``memory``, bare ``sqlite``
    (each node gets its own file under ``data_dir``), or
    ``tiered:sqlite?hot_users=N`` / ``tiered:memory?hot_users=N``.
    ``port=0`` binds the coordinator ephemerally — read it back from
    the handle.

    With ``resume=True`` (the default) a ``data_dir`` that already
    holds a ``coordinator-state.json`` restores the persisted topology
    — shard set, ring, epochs, route version and any in-flight
    migration — instead of rebuilding ``n_shards`` fresh shards, so a
    cluster restarted mid-resize finishes the resize.
    """
    from repro.cluster import LocalCluster

    policy_set = _load_policy_set(policy)
    cluster = LocalCluster(
        policy_set,
        n_shards,
        data_dir,
        audit_key=audit_key,
        store=store,
        host=host,
        port=port,
        vnodes=vnodes,
        health_interval=health_interval,
        health_timeout=health_timeout,
        fsync=fsync,
        audit_max_records=audit_max_records,
        audit_max_bytes=audit_max_bytes,
        journal_max=journal_max,
        resume=resume,
    )
    cluster.start()
    return ClusterHandle(cluster)
