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

:func:`open_server` is the serving twin — the same policy/store spec in
a sharded service on a socket, optionally audited — and returns the
started :class:`~repro.server.testing.ServerThread` (``ServerHandle``);
:func:`open_cluster` returns the started
:class:`~repro.cluster.LocalCluster` (``ClusterHandle``).  Both have a
``client()`` shortcut returning a connected PDP.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Union

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.audit.trail import AuditTrailManager
    from repro.cluster import LocalCluster
    from repro.server.testing import ServerThread

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


def __getattr__(name: str):
    # Bound lazily (PEP 562) so importing the facade never drags in the
    # server and cluster stacks.
    if name == "ServerHandle":
        from repro.server.testing import ServerThread as handle
    elif name == "ClusterHandle":
        from repro.cluster import LocalCluster as handle
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return handle


def load_policy_source(policy: PolicySource) -> MSoDPolicySet:
    """Resolve any accepted policy source to an :class:`MSoDPolicySet`.

    The same union :func:`open_pdp` takes — an already-built set, a
    path to an Appendix-A XML file, or the XML text itself (detected by
    a leading ``<``).  ``reload_policy`` on every PDP handle funnels
    through this, so hot reloads accept exactly the shapes construction
    does.  ``None`` is rejected: only a remote PDP takes no policy.
    """
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


def verify_policy(policy: PolicySource, *, permis=None, ssd=()):
    """Statically verify any accepted policy source.

    Returns the structured
    :class:`~repro.verify.static.VerifyReport` — the same analysis
    every reload's admission gates on, plus the deeper RBAC
    cross-reference when a PERMIS companion policy is supplied.
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
    candidate would flip.  The directory is followed, so a server may
    still be appending to it: the replay starts ``last_n_trails``
    segments from the end (all of them by default) and keeps the events
    stamped at or after ``since``.
    """
    from repro.audit.trail import GENESIS_HASH, TrailFollower, _segment_paths
    from repro.verify.whatif import what_if_replay

    position = None
    if last_n_trails is not None:
        if last_n_trails < 0:
            raise ValueError(
                f"last_n_trails must be >= 0, got {last_n_trails!r}"
            )
        first = max(0, len(_segment_paths(trail_dir)) - last_n_trails)
        position = {"segment": first, "offset": 0, "hash": GENESIS_HASH, "seq": 0}
    follower = TrailFollower(trail_dir, audit_key, position=position)
    return what_if_replay(
        (event for event in follower.poll() if event.timestamp >= since),
        load_policy_source(policy),
    )


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

        Admission is :func:`~repro.verify.gate.admit_reload`:
        ``principal`` names the acting operator, refused (``force`` or
        not) when the outgoing set guards the policy store with an
        admin boundary and the principal has retained operational
        decisions; the static analyzer then refuses error findings,
        which ``force=True`` overrides.  ``verify=True`` adds nothing
        here (an in-process handle records no audit trail to replay);
        it and ``max_flips`` are accepted for signature parity with the
        remote and cluster handles.
        """
        from repro.verify.gate import reload_engine

        return reload_engine(
            self._engine,
            load_policy_source(policy),
            principal=principal,
            verify=verify,
            max_flips=max_flips,
            force=force,
        )

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
        )

    # The one policy -> store -> recorder -> engine build (open_server
    # runs on it too): a store built here is closed again if a later
    # step raises.
    policy_set = load_policy_source(policy)
    backend, owns_store = build_store(parsed)
    try:
        if trace:
            perf = (perf if perf is not None else Recorder()).trace_decisions(
                slowlog_capacity
            )
        engine = MSoDEngine(policy_set, backend, mode=mode, perf=perf)
    except BaseException:
        if owns_store:
            backend.close()
        raise
    return LocalPDP(engine, owns_store=owns_store)


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
    audit: "AuditTrailManager | None" = None,
) -> "ServerThread":
    """Boot a sharded authorization server on a background thread.

    The serving twin of :func:`open_pdp`: same policy/store specs
    (``remote:`` is meaningless here and rejected), one call instead of
    the engine + service + ``ServerThread`` ritual.  Returns the
    started :class:`~repro.server.testing.ServerThread`; closing it
    drains the shard queues, stops the listener and closes the store
    it opened.  ``port=0`` binds an ephemeral port — read it back from
    ``.port``.

    ``audit`` is a deployment's open
    :class:`~repro.audit.trail.AuditTrailManager` (its trail directory
    and key).  Every decision is appended to it before it is answered,
    and verified reloads and the ``whatif`` verb replay it through a
    fresh :class:`~repro.audit.trail.TrailFollower`.  As with a
    passed-in store, the caller keeps ownership: close the trail after
    the server.
    """
    from repro.server.service import AuthorizationService
    from repro.server.testing import ServerThread

    if parse_store_spec(store).is_remote:
        raise StoreSpecError(
            "open_server runs the server side; use a local store"
        )
    audit_sink = trail_reader = None
    if audit is not None:
        from repro.audit import EVENT_DECISION, decision_event_payload
        from repro.audit.trail import TrailFollower

        def audit_sink(decision: Decision) -> None:
            audit.append(
                EVENT_DECISION,
                decision.request.timestamp,
                decision_event_payload(decision),
            )

        def trail_reader():
            return TrailFollower(audit.directory, audit._key).poll()
    pdp = open_pdp(
        policy,
        store,
        perf=perf,
        trace=trace,
        slowlog_capacity=slowlog_capacity,
        mode=mode,
    )
    try:
        service = AuthorizationService(
            pdp.engine,
            n_shards=n_shards,
            queue_depth=queue_depth,
            batch_max=batch_max,
            gather_window=gather_window,
            audit_sink=audit_sink,
            trail_reader=trail_reader,
        )
        return ServerThread(service, host=host, port=port, owns=[pdp]).start()
    except BaseException:
        pdp.close()
        raise


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
) -> "LocalCluster":
    """Boot an N-shard MSoD cluster (primary + standby per shard).

    The scale-out twin of :func:`open_server`: the same policy spec,
    but behind consistent-hash routing by ``user_id``, with each shard
    primary shipping its fsync'd audit trail to a warm standby (see
    :mod:`repro.cluster` and ``docs/CLUSTER.md``).  Returns the started
    :class:`~repro.cluster.LocalCluster`; its ``client()`` connects a
    :class:`~repro.cluster.ClusterPDP` that routes by user, stamps the
    fencing epoch and survives failovers.  ``data_dir`` holds every
    node's trail directory and, for durable stores, its store file.
    ``store`` takes the unified spec grammar minus anything pinning a
    single path or process: ``memory``, bare ``sqlite`` (each node gets
    its own file under ``data_dir``), or ``tiered:sqlite?hot_users=N``
    / ``tiered:memory?hot_users=N``.  ``port=0`` binds the coordinator
    ephemerally — read it back from ``.port``.

    With ``resume=True`` (the default) a ``data_dir`` that already
    holds a ``coordinator-state.json`` restores the persisted topology
    — shard set, ring, epochs, route version and any in-flight
    migration — instead of rebuilding ``n_shards`` fresh shards, so a
    cluster restarted mid-resize finishes the resize.
    """
    from repro.cluster import LocalCluster

    return LocalCluster(
        load_policy_source(policy),
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
    ).start()
