"""The cluster-aware PDP client: routing, fencing and safe failover.

``ClusterPDP`` implements the same
:class:`~repro.framework.pdp.PolicyDecisionPoint` protocol as
:class:`~repro.client.RemotePDP`, but in front of a whole cluster: it
hashes ``user_id`` on the same consistent-hash ring as the coordinator,
sends each decide to the owning shard's primary stamped with the route
epoch, and fails over when the cluster does.

Failover from the client's side::

    decide → PDPFencedError / PDPNotPrimaryError / PDPConnectError
           → re-fetch the route from the coordinator
           → retry the *same* request (same ``request_id``) against the
             new primary with the new epoch

    decide → PDPUnavailableError after the frame was sent
           → wait until the shard's epoch advances (failover sealed the
             old lineage), then retry; surface the error if it never
             does within ``failover_wait``

The distinction is what keeps decides exactly-once.  A fenced,
not-primary or connect failure means the request was **not** evaluated,
so resending is always safe.  A *post-send* transport failure is
ambiguous: the primary may be dead (request lost) or merely slow
(request still queued, about to evaluate and commit).  Resending to the
*same* primary could therefore evaluate the request twice and
double-record history — exactly what :class:`RemotePDP` forbids.  Only
after the coordinator promotes a new primary under a higher epoch is
the resend safe again: the old lineage is sealed and fenced, anything
the deposed primary still evaluates falls outside authoritative
history, and anything it committed *before* the seal is in the shipped
trail — so the journal on the new primary short-circuits the retried
``request_id`` to the recorded outcome instead of a second evaluation.
"""

from __future__ import annotations

import random
import threading
import time

from repro.client._core import policy_source_to_xml, version_from_status_body
from repro.client.remote import RemotePDP
from repro.core.decision import Decision, DecisionRequest
from repro.errors import (
    ClusterError,
    PDPConnectError,
    PDPFencedError,
    PDPNotPrimaryError,
    PDPOverloadedError,
    PDPUnavailableError,
)
from repro.framework.pdp import PolicyDecisionPoint
from repro.server import protocol
from repro.cluster.ring import HashRing


class ClusterPDP(PolicyDecisionPoint):
    """A :class:`PolicyDecisionPoint` spanning a sharded MSoD cluster.

    Parameters
    ----------
    coordinator:
        ``(host, port)`` of the cluster coordinator; the routing table
        is fetched from it at first use and re-fetched on every routing
        error.  Mutually exclusive with ``static_route``.
    static_route:
        A fixed routing table (the ``route`` response body) for
        coordinator-less deployments — the multi-process benchmark uses
        this.  No failover is possible without a coordinator to ask
        for fresh routes, so routing errors surface immediately.
    timeout, health_timeout, pool_size:
        Per-node :class:`RemotePDP` tuning (one pooled client per
        distinct primary address).  The fencing epoch rides at frame
        level, so pipelined batches group entries by epoch: unsent
        entries fail connect-class (re-route + resend), sent entries
        fail :class:`PDPUnavailableError` (resend only after the
        shard's epoch advances).
    failover_wait:
        Total seconds ``decide`` keeps retrying through a failover
        before giving up (route refreshes + backoff happen inside this
        budget).
    """

    def __init__(
        self,
        coordinator: tuple[str, int] | None = None,
        *,
        static_route: dict | None = None,
        timeout: float = 5.0,
        health_timeout: float = 0.25,
        pool_size: int = 4,
        failover_wait: float = 10.0,
        retry_interval: float = 0.1,
        rng: random.Random | None = None,
    ) -> None:
        if (coordinator is None) == (static_route is None):
            raise ClusterError(
                "ClusterPDP needs exactly one of coordinator=(host, port) "
                "or static_route={...}"
            )
        self._coordinator = coordinator
        self._timeout = timeout
        self._health_timeout = health_timeout
        self._pool_size = pool_size
        self._failover_wait = failover_wait
        self._retry_interval = retry_interval
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        self._route: dict | None = None
        self._ring: HashRing | None = None
        self._pdps: dict[tuple[str, int], RemotePDP] = {}
        self._coordinator_pdp: RemotePDP | None = None
        self._closed = False
        if static_route is not None:
            self._install_route(static_route)

    # -- routing -------------------------------------------------------
    def _install_route(self, route: dict) -> None:
        shards = route.get("shards")
        if not isinstance(shards, dict) or not shards:
            raise ClusterError(f"malformed routing table: {route!r}")
        ring = HashRing(sorted(shards), vnodes=int(route.get("vnodes", 64)))
        with self._lock:
            current = self._route
            if current is not None and current.get("version", 0) >= route.get(
                "version", 0
            ):
                return  # never step back to an older route
            self._route = route
            self._ring = ring

    def _coordinator_client(self) -> RemotePDP:
        if self._coordinator is None:
            raise ClusterError(
                "no coordinator configured (static route only); cannot "
                "refresh the routing table"
            )
        if self._coordinator_pdp is None:
            host, port = self._coordinator
            self._coordinator_pdp = RemotePDP(
                host,
                port,
                pool_size=1,
                timeout=self._timeout,
                health_timeout=self._health_timeout,
            )
        return self._coordinator_pdp

    def _coordinator_body(
        self, op: str, what: str, retriable: bool = True, **fields
    ) -> dict:
        """One coordinator verb under the client's retry rule; its body."""
        body = (
            self._coordinator_client()
            .request(op, retriable=retriable, **fields)
            .get("body")
        )
        if not isinstance(body, dict):
            raise ClusterError(f"coordinator returned a malformed {what}")
        return body

    def refresh_route(self) -> dict:
        """Fetch and install the coordinator's current routing table."""
        body = self._coordinator_body(protocol.OP_ROUTE, "route")
        self._install_route(body)
        return body

    def route(self) -> dict:
        """The routing table in use (fetching it on first use)."""
        with self._lock:
            route = self._route
        if route is None:
            return self.refresh_route()
        return route

    def cluster_status(self) -> dict:
        """The coordinator's ``cluster-status`` body."""
        return self._coordinator_body(protocol.OP_CLUSTER_STATUS, "status")

    def cluster_metrics_text(self) -> str:
        """The coordinator's Prometheus exposition (per-node gauges)."""
        client = self._coordinator_client()
        return client.metrics_text()

    # -- policy management --------------------------------------------
    def policy_status(self) -> dict:
        """The coordinator's cluster-wide policy status body."""
        return self._coordinator_body(
            protocol.OP_POLICY_STATUS, "policy status"
        )

    def policy_version(self):
        """The cluster-wide :class:`PolicyVersion` the coordinator reports."""
        return version_from_status_body(self.policy_status())

    def reload_policy(
        self,
        policy,
        *,
        verify: bool = False,
        max_flips: int = 0,
        force: bool = False,
        canary: bool = False,
        principal: str | None = None,
    ) -> dict:
        """Roll a new policy set across the whole cluster, standby first.

        ``policy`` is the usual source union (set, path, or XML text).
        Returns the coordinator's rollout body — ``changed``, the
        resulting ``version`` and each node's swap report — rather than
        a single :class:`PolicySwapReport`, because a cluster rollout
        is N swaps.  Safe to retry: a repeated rollout of the same set
        is a digest no-op on every node.

        ``verify=True`` runs the coordinator's (static) verification
        gate and attaches its verdict; ``canary=True`` runs the full
        canary rollout instead — observe one shard's live traffic,
        replay that shard primary's trail under the candidate, and only
        roll cluster-wide when flips stay within ``max_flips`` (see
        :meth:`LocalCluster.canary_reload_policy`).
        """
        extra = {} if principal is None else {"principal": principal}
        return self._coordinator_body(
            protocol.OP_POLICY_RELOAD,
            "reload report",
            policy_xml=policy_source_to_xml(policy),
            verify=verify,
            max_flips=max_flips,
            force=force,
            canary=canary,
            **extra,
        )

    # -- resharding ----------------------------------------------------
    def resize(
        self,
        action: str,
        *,
        shard: str | None = None,
        apply: bool = False,
        threshold: float | None = None,
    ) -> dict:
        """Start (or plan) an online topology change via the coordinator.

        ``action`` is ``"add-node"`` (split: grow by one shard),
        ``"drain"`` (shrink: migrate ``shard``'s users away and retire
        it) or ``"rebalance"`` (imbalance report from the per-shard
        resident-user gauges, recommending a split at or above
        ``threshold``, the protocol's default when not given;
        ``apply=True`` lets the coordinator start that split).
        Migrations run asynchronously in the coordinator — poll
        :meth:`reshard_status` until ``active`` is false.
        """
        extra = {} if threshold is None else {"threshold": threshold}
        return self._coordinator_body(
            protocol.OP_RESHARD,
            "reshard response",
            retriable=False,  # starting a migration twice is an error
            action=action,
            shard=shard,
            apply=apply,
            **extra,
        )

    def reshard_status(self) -> dict:
        """The coordinator's migration status body (active + history)."""
        return self._coordinator_body(
            protocol.OP_RESHARD_STATUS, "reshard status"
        )

    def _target_for(self, user_id: str) -> tuple[tuple[str, int], int, str]:
        route = self.route()
        with self._lock:
            ring = self._ring
        assert ring is not None  # installed with the route
        shard = ring.shard_for(user_id)
        entry = route["shards"].get(shard)
        if not isinstance(entry, dict):
            raise ClusterError(f"route has no entry for shard {shard!r}")
        host, port = entry["address"]
        return (str(host), int(port)), int(entry.get("epoch", 0)), shard

    def _pdp_for(self, address: tuple[str, int]) -> RemotePDP:
        with self._lock:
            pdp = self._pdps.get(address)
            if pdp is None:
                pdp = self._pdps[address] = RemotePDP(
                    address[0],
                    address[1],
                    pool_size=self._pool_size,
                    timeout=self._timeout,
                    health_timeout=self._health_timeout,
                    max_retries=0,  # this class owns the retry loop
                )
            return pdp

    # -- the PolicyDecisionPoint protocol ------------------------------
    def _pause(self) -> None:
        time.sleep(
            self._retry_interval * (1.0 + self._rng.uniform(0.0, 0.5))
        )

    def _await_epoch_bump(
        self,
        user_id: str,
        sent_epoch: int,
        sent_shard: str,
        deadline: float,
    ) -> bool:
        """Wait for the user's shard to fail over past ``sent_epoch``.

        Returns True once the routed epoch exceeds the one the failed
        send carried — the old lineage is sealed and fenced, so the
        resend cannot double-evaluate.  A *reassignment* (the route now
        sends this user to a different shard) counts the same way:
        resharding only flips the ring after the old owner was fenced
        at a bumped epoch and its trail (journal included) was imported
        by the new owner, so the old lineage is equally sealed and the
        new owner's journal dedupes anything the old one committed.
        Returns False at the deadline (the primary is alive but slow:
        the caller must surface the transport error, never resend into
        the same lineage).
        """
        while time.monotonic() < deadline:
            self._pause()
            try:
                self.refresh_route()
            except (PDPUnavailableError, ClusterError):
                continue
            _, epoch, shard = self._target_for(user_id)
            if shard != sent_shard or epoch > sent_epoch:
                return True
        return False

    def decide(self, request: DecisionRequest) -> Decision:
        """Route one decide to its user's primary, surviving failover."""
        deadline = time.monotonic() + self._failover_wait
        while True:
            address, epoch, shard = self._target_for(request.user_id)
            pdp = self._pdp_for(address)
            try:
                return pdp.decide(request, epoch=epoch)
            except PDPOverloadedError as exc:
                # Shed before queueing: safe to retry the same primary.
                if time.monotonic() >= deadline:
                    raise
                time.sleep(
                    exc.retry_after
                    + self._retry_interval * self._rng.uniform(0.0, 0.5)
                )
            except (
                PDPFencedError,
                PDPNotPrimaryError,
                PDPConnectError,
            ) as exc:
                # The request was not evaluated (rejected before the
                # engine, or never sent): always safe to re-route and
                # resend under the same request_id.
                if self._coordinator is None or time.monotonic() >= deadline:
                    raise
                self._pause()
                try:
                    self.refresh_route()
                except (PDPUnavailableError, ClusterError):
                    if time.monotonic() >= deadline:
                        raise exc
            except PDPUnavailableError as exc:
                # Post-send failure: the primary may still evaluate the
                # request.  Resend only once the shard's epoch advances
                # (failover sealed the old lineage and the journal
                # dedupes anything it committed); otherwise surface the
                # error rather than risk a double evaluation.
                if self._coordinator is None or not self._await_epoch_bump(
                    request.user_id, epoch, shard, deadline
                ):
                    raise exc

    # -- per-node passthroughs ----------------------------------------
    def healthz(self, user_id: str) -> dict:
        """The owning primary's health body for one user's shard."""
        address, _, _ = self._target_for(user_id)
        return self._pdp_for(address).healthz()

    def node_metrics_text(self, user_id: str) -> str:
        """The owning primary's own Prometheus exposition."""
        address, _, _ = self._target_for(user_id)
        return self._pdp_for(address).metrics_text()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every pooled per-node client.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pdps = list(self._pdps.values())
            self._pdps.clear()
            coordinator = self._coordinator_pdp
            self._coordinator_pdp = None
        for pdp in pdps:
            pdp.close()
        if coordinator is not None:
            coordinator.close()

    def __enter__(self) -> "ClusterPDP":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
