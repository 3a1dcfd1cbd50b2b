"""The asyncio TCP front end of the MSoD authorization service.

``MSoDServer`` puts an :class:`~repro.server.service.AuthorizationService`
behind a :class:`~repro.server.frames.FrameServer`.  The paper's
deployment shape (Section 5): applications keep their PEP, but the PDP
runs as a central service consulted over the network.

Connection handling rules live with the one connection loop, in
:mod:`repro.server.frames`; this module is the loop plus two op tables:

* ``handlers[1]`` — the verbs of :data:`protocol.KNOWN_OPS`, answered
  on a connection that starts with a JSON line;
* ``handlers[2]`` — the same handlers plus ``decide-batch``
  (:data:`protocol.V2_OPS`), answered on a connection that starts with
  a length-prefixed v2 frame.  ``decide-batch`` is the one
  *concurrent* op: a pipelining client's frames overlap in the shard
  queues (see :class:`repro.client.RemotePDP`);
* every handler builds its reply frame and returns it; a malformed body
  raises :class:`~repro.errors.ProtocolError`, which the loop answers;
* overload and drain rejections are fast failures with ``retry_after``
  hints, the 503-equivalent of the wire protocol.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import PolicyError, RequestFencedError
from repro.server import protocol
from repro.server.frames import FrameServer, Handler, body_handler
from repro.server.service import (
    AuthorizationService,
    ServiceOverloadedError,
    ServiceUnavailableError,
)


class MSoDServer:
    """One listening socket in front of one authorization service.

    ``decide_gate``, when given, is called with every validated
    ``decide`` frame *before* the request is submitted; returning a
    response-frame dict short-circuits the decide (the dict is sent
    verbatim), returning ``None`` lets it proceed.  A cluster node uses
    this hook for epoch fencing, primary-role gating and exactly-once
    request deduplication without the base server knowing any of those
    concepts.
    """

    def __init__(
        self,
        service: AuthorizationService,
        host: str = "127.0.0.1",
        port: int = 0,
        decide_gate=None,
    ) -> None:
        self._service = service
        self._decide_gate = decide_gate
        v1: dict[str, Handler] = {
            protocol.OP_DECIDE: self._decide,
            protocol.OP_HEALTHZ: body_handler(lambda _: service.health()),
            protocol.OP_METRICS: body_handler(self._metrics_body),
            protocol.OP_SLOWLOG: body_handler(lambda _: service.slowlog()),
            protocol.OP_POLICY_STATUS: body_handler(
                lambda _: service.policy_status()
            ),
            protocol.OP_POLICY_RELOAD: self._policy,
            protocol.OP_VERIFY: self._policy,
            protocol.OP_WHATIF: self._policy,
        }
        #: Protocol version → op → handler: what this endpoint answers.
        self.handlers: Mapping[int, Mapping[str, Handler]] = {
            protocol.PROTOCOL_VERSION: v1,
            protocol.PROTOCOL_VERSION_2: {
                **v1,
                protocol.OP_DECIDE_BATCH: self._decide_batch,
            },
        }
        self._frames = FrameServer(
            host,
            port,
            self.handlers,
            concurrent=(protocol.OP_DECIDE_BATCH,),
            perf=service.perf,
        )

    # ------------------------------------------------------------------
    @property
    def service(self) -> AuthorizationService:
        return self._service

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return self._frames.port

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the shard workers and begin listening."""
        await self._service.start()
        await self._frames.start()

    async def stop(self) -> None:
        """Stop listening, drain queued decisions, flush the audit sink."""
        await self._frames.close()
        await self._service.stop()

    async def abort(self) -> None:
        """Fault-injection stop: close the socket, abandon queued work."""
        await self._frames.close()
        await self._service.abort()

    # ------------------------------------------------------------------
    def _metrics_body(self, frame: dict):
        fmt = protocol.metrics_format_of(frame)
        if fmt == protocol.METRICS_FORMAT_PROMETHEUS:
            return self._service.metrics_text()
        return self._service.metrics()

    async def _policy(self, frame_id, frame: dict) -> dict:
        """Answer ``policy-reload``, ``verify`` or ``whatif`` for a candidate.

        ``policy-reload`` parses, validates and atomically installs the
        set; ``verify`` runs static verification without swapping;
        ``whatif`` differentially replays this server's trail under it.
        A rejected set (XML that does not parse, analyzer errors, a
        failed ``verify`` gate, no recorded trail) gets an
        ``error.kind == "policy"`` response and leaves the active
        policy untouched.  Runs synchronously on the event loop between
        worker batches, so a swap cannot interleave with a
        half-evaluated micro-batch, and a trail read sees a consistent
        prefix reflecting every decision acked before this frame.
        """
        from repro.xmlpolicy import parse_policy_set

        op = frame["op"]
        xml = protocol.policy_xml_of(frame)
        if op == protocol.OP_POLICY_RELOAD:
            verify, max_flips, force = protocol.reload_options_of(frame)
            principal = protocol.reload_principal_of(frame)
        try:
            policy_set = parse_policy_set(xml)
            if op == protocol.OP_VERIFY:
                body = self._service.verify_policy(policy_set).to_dict()
            elif op == protocol.OP_WHATIF:
                body = self._service.what_if(policy_set).to_dict()
            else:
                body = self._service.reload_policy(
                    policy_set,
                    verify=verify,
                    max_flips=max_flips,
                    force=force,
                    principal=principal,
                ).to_dict()
                if verify and self._service.last_gate is not None:
                    body["gate"] = self._service.last_gate.to_dict()
        except PolicyError as exc:
            return protocol.error_frame(frame_id, protocol.ERR_POLICY, str(exc))
        return protocol.response_frame(frame_id, op, "body", body)

    async def _decide(self, frame_id, frame: dict) -> dict:
        request = protocol.request_from_wire(frame.get("request"))
        if self._decide_gate is not None:
            short_circuit = self._decide_gate(frame_id, frame, request)
            if short_circuit is not None:
                return short_circuit
        try:
            decision = await self._service.decide(request)
        except Exception as exc:  # shed, draining, or failed
            return _decide_failure(frame_id, exc)
        return protocol.response_frame(
            frame_id,
            protocol.OP_DECIDE,
            "decision",
            protocol.decision_to_wire(decision),
        )

    async def _decide_batch(self, frame_id, frame: dict) -> dict:
        """Answer one ``decide-batch`` frame with per-entry results.

        The whole batch is parsed before anything is submitted (one
        garbled entry rejects the frame — never a partial commit), then
        the entries the decide gate passes are queued as one slice per
        shard *in frame order* before the first await, so same-user
        entries keep their serialization and the shard micro-batcher
        sees the burst at once — one store transaction per wire batch.
        Per-entry failures (overload shed, gate fencing, engine errors)
        fail only their own slot.
        """
        requests = protocol.batch_requests_of(frame)
        perf = self._service.perf
        if perf.enabled:
            perf.observe_size("wire.batch_size", len(requests))
        results: list[dict | None] = [None] * len(requests)
        gate = self._decide_gate
        if gate is not None:
            for slot, request in enumerate(requests):
                short_circuit = gate(frame_id, frame, request)
                if short_circuit is not None:
                    results[slot] = _batch_entry_of(short_circuit)
        slots = [slot for slot, entry in enumerate(results) if entry is None]
        requests = [requests[slot] for slot in slots]
        try:
            outcomes = await self._service.decide_many(requests)
        except ServiceUnavailableError as exc:
            outcomes = [exc] * len(requests)
        for slot, request, outcome in zip(slots, requests, outcomes):
            results[slot] = (
                _batch_entry_of(_decide_failure(frame_id, outcome))
                if isinstance(outcome, BaseException)
                else protocol.decision_entry(outcome, request)
            )
        return {
            "v": protocol.PROTOCOL_VERSION_2,
            "id": frame_id,
            "ok": True,
            "op": protocol.OP_DECIDE_BATCH,
            "results": results,
        }


def _decide_failure(frame_id, exc: BaseException) -> dict:
    """The error frame for a decide the service shed or failed.

    One mapping for ``decide`` frames and (through
    :func:`_batch_entry_of`) ``decide-batch`` entries, so a failure
    reads the same to a client whichever way its request travelled.
    """
    if isinstance(exc, ServiceOverloadedError):
        return protocol.error_frame(
            frame_id,
            protocol.ERR_OVERLOADED,
            str(exc),
            retry_after=exc.retry_after,
        )
    if isinstance(exc, ServiceUnavailableError):
        return protocol.error_frame(
            frame_id, protocol.ERR_SHUTTING_DOWN, str(exc)
        )
    if isinstance(exc, RequestFencedError):
        # The audit sink refused the commit (the user was fenced
        # mid-flight by a failover or reshard cutover): the client
        # never saw an ack, so it may re-route and resend safely.
        return protocol.error_frame(frame_id, protocol.ERR_FENCED, str(exc))
    # Engine/store failure, not the client's.
    return protocol.error_frame(
        frame_id, protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
    )


def _batch_entry_of(short_circuit: dict) -> dict:
    """Map a response frame (decide-gate short circuit or
    :func:`_decide_failure`) to a batch entry."""
    if short_circuit.get("ok"):
        return {"ok": True, "decision": short_circuit.get("decision")}
    error = short_circuit.get("error")
    if not isinstance(error, dict):  # pragma: no cover - defensive
        error = {"kind": protocol.ERR_INTERNAL, "detail": "gate rejected"}
    return {"ok": False, "error": error}
