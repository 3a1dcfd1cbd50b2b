"""The asyncio TCP front end of the MSoD authorization service.

``MSoDServer`` binds a host/port, speaks the wire protocols of
:mod:`repro.server.protocol`, and forwards ``decide`` frames to a
:class:`~repro.server.service.AuthorizationService`.  The paper's
deployment shape (Section 5): applications keep their PEP, but the PDP
runs as a central service consulted over the network.

Connection handling rules:

* every connection starts in JSON-lines v1; a ``hello`` frame may
  upgrade it to the length-prefixed binary v2 encoding (same ops, plus
  ``decide-batch``) — v1 clients never send ``hello`` and see no
  change whatsoever;
* frames on one connection are answered in order (clients wanting
  concurrency open several pooled connections, or negotiate v2 and
  pipeline batched frames — see :class:`repro.client.RemotePDP`);
* malformed frames (bad JSON, bad UTF-8, unknown ops, invalid request
  bodies, garbled batch entries) get an ``error`` response and the
  connection stays open — a fuzzer must never take a worker down;
* a frame that corrupts the *stream* (an oversized v1 line, a v2
  header with a bad magic/length) cannot be resynchronised, so it gets
  a final error frame and the connection is closed;
* overload and drain rejections are fast failures with ``retry_after``
  hints, the 503-equivalent of the wire protocol.
"""

from __future__ import annotations

import asyncio

from repro.errors import PolicyError, ProtocolError, RequestFencedError
from repro.server import protocol
from repro.server.service import (
    AuthorizationService,
    ServiceOverloadedError,
    ServiceUnavailableError,
)

#: ``_handle_frame`` outcomes.
_CLOSE = 0
_CONTINUE = 1
_UPGRADE_V2 = 2

#: Per-connection bound on concurrently processing ``decide-batch``
#: frames.  Reads pause (TCP backpressure) once this many frames sit in
#: shard queues — comfortably above any client's pipeline window while
#: keeping one connection from monopolising the service.
_V2_INFLIGHT_FRAMES = 64


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
        self._host = host
        self._port = port
        self._decide_gate = decide_gate
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    @property
    def service(self) -> AuthorizationService:
        return self._service

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        if self._server is None:
            return self._port
        sockets = self._server.sockets or []
        return sockets[0].getsockname()[1] if sockets else self._port

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the shard workers and begin listening."""
        await self._service.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=protocol.MAX_FRAME_BYTES,
        )

    async def stop(self) -> None:
        """Stop listening, drain queued decisions, flush the audit sink."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._service.stop()

    async def abort(self) -> None:
        """Fault-injection stop: close the socket, abandon queued work."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._service.abort()

    async def serve_forever(self) -> None:
        """Block until cancelled (the ``python -m repro serve`` loop)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        send = self._sender(writer, protocol.encode_frame)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized frame: the stream cannot be resynced.
                    await send(
                        protocol.error_frame(
                            None,
                            protocol.ERR_PROTOCOL,
                            "frame exceeds size limit",
                        )
                    )
                    break
                if not line:
                    break  # EOF (including one after a truncated frame)
                outcome = await self._handle_frame(send, line)
                if outcome == _CLOSE:
                    break
                if outcome == _UPGRADE_V2:
                    # The hello response is on the wire; every byte from
                    # here on is length-prefixed binary, both directions.
                    await self._serve_v2(
                        reader, self._sender(writer, protocol.encode_frame_v2)
                    )
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-exchange; nothing to answer
        except asyncio.CancelledError:
            pass  # server teardown cancelled this connection; close it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_frame(self, send, line: bytes) -> int:
        """Answer one v1 frame; returns a ``_CLOSE``/``_CONTINUE``/
        ``_UPGRADE_V2`` outcome for the connection loop."""
        frame_id = None
        perf = self._service.perf
        try:
            if perf.enabled:
                perf.incr("wire.bytes_in", len(line))
                perf.incr("wire.frames_in")
                started = perf.start()
                frame = protocol.decode_frame(line)
                perf.span("wire.decode_s", started)
            else:
                frame = protocol.decode_frame(line)
            frame_id = frame.get("id")
            op = frame.get("op")
            if op == protocol.OP_HELLO:
                version = protocol.negotiated_version(frame)
                await send(_hello_response(frame_id, version))
                if version >= protocol.PROTOCOL_VERSION_2:
                    return _UPGRADE_V2
                return _CONTINUE
            await send(await self._dispatch(frame_id, op, frame))
        except ProtocolError as exc:
            await send(
                protocol.error_frame(frame_id, protocol.ERR_PROTOCOL, str(exc))
            )
        except (ConnectionResetError, BrokenPipeError):
            return _CLOSE
        return _CONTINUE

    async def _serve_v2(self, reader: asyncio.StreamReader, send) -> None:
        """The post-hello loop: length-prefixed binary frames only.

        Framing errors (bad magic — e.g. a stray v1 JSON line — bad
        lengths, truncated prefixes) corrupt the stream and close the
        connection after a final error frame; *payload* errors (garbled
        binpack, unknown ops, malformed batch entries) leave the stream
        in sync — exactly the declared length was consumed — so they
        are answered and the connection stays open.

        ``decide-batch`` frames are handled *concurrently* (bounded by
        ``_V2_INFLIGHT_FRAMES``): the read loop keeps draining while
        earlier batches sit in shard queues, so a pipelining client's
        in-flight window actually overlaps on the server instead of
        serialising one round trip per frame.  Responses may therefore
        leave out of frame order — clients correlate by frame id.
        """
        perf = self._service.perf
        gate = asyncio.Semaphore(_V2_INFLIGHT_FRAMES)
        in_flight: set[asyncio.Task] = set()
        try:
            await self._serve_v2_frames(reader, send, perf, gate, in_flight)
        finally:
            for task in in_flight:
                task.cancel()
            if in_flight:
                await asyncio.gather(*in_flight, return_exceptions=True)

    async def _serve_v2_frames(
        self,
        reader: asyncio.StreamReader,
        send,
        perf,
        gate: asyncio.Semaphore,
        in_flight: set,
    ) -> None:
        while True:
            try:
                header = await reader.readexactly(protocol.V2_HEADER_BYTES)
            except asyncio.IncompleteReadError:
                # EOF — clean, or after a truncated header; either way
                # there is no frame id to answer and nothing to resync.
                return
            try:
                length = protocol.v2_payload_length(header)
            except ProtocolError as exc:
                await send(
                    protocol.error_frame(None, protocol.ERR_PROTOCOL, str(exc))
                )
                return
            try:
                payload = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return  # frame truncated at EOF; the connection is gone
            frame_id = None
            try:
                if perf.enabled:
                    perf.incr(
                        "wire.bytes_in", protocol.V2_HEADER_BYTES + length
                    )
                    perf.incr("wire.frames_in")
                    started = perf.start()
                    frame = protocol.decode_frame_v2(payload)
                    perf.span("wire.decode_s", started)
                else:
                    frame = protocol.decode_frame_v2(payload)
                frame_id = frame.get("id")
                op = frame.get("op")
                if op == protocol.OP_DECIDE_BATCH:
                    await gate.acquire()
                    task = asyncio.ensure_future(
                        self._decide_batch_task(send, frame_id, frame, gate)
                    )
                    in_flight.add(task)
                    task.add_done_callback(in_flight.discard)
                elif op == protocol.OP_HELLO:
                    # Redundant re-negotiation; stays v2 either way.
                    protocol.negotiated_version(frame)
                    await send(
                        _hello_response(frame_id, protocol.PROTOCOL_VERSION_2)
                    )
                else:
                    await send(await self._dispatch(frame_id, op, frame))
            except ProtocolError as exc:
                await send(
                    protocol.error_frame(
                        frame_id, protocol.ERR_PROTOCOL, str(exc)
                    )
                )
            except (ConnectionResetError, BrokenPipeError):
                return

    async def _dispatch(self, frame_id, op, frame: dict) -> dict:
        """The op switch shared by the v1 and v2 connection loops.

        Handlers build the reply frame and never touch the connection:
        the loop that read the request sends it, through the encoder
        bound when the connection's protocol was negotiated.
        """
        if op == protocol.OP_DECIDE:
            return await self._decide_response(frame_id, frame)
        if op in _POLICY_OPS:
            return self._policy_response(frame_id, op, frame)
        if op == protocol.OP_HEALTHZ:
            body = self._service.health()
        elif op == protocol.OP_METRICS:
            fmt = protocol.metrics_format_of(frame)
            body = (
                self._service.metrics_text()
                if fmt == protocol.METRICS_FORMAT_PROMETHEUS
                else self._service.metrics()
            )
        elif op == protocol.OP_SLOWLOG:
            body = self._service.slowlog()
        elif op == protocol.OP_POLICY_STATUS:
            body = self._service.policy_status()
        else:
            raise ProtocolError(f"unknown operation {op!r}")
        return protocol.response_frame(frame_id, op, "body", body)

    def _policy_response(self, frame_id, op, frame: dict) -> dict:
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

    async def _decide_response(self, frame_id, frame: dict) -> dict:
        request = protocol.request_from_wire(frame.get("request"))
        if self._decide_gate is not None:
            short_circuit = self._decide_gate(frame_id, frame, request)
            if short_circuit is not None:
                return short_circuit
        try:
            future = self._service.submit(request)
        except (ServiceOverloadedError, ServiceUnavailableError) as exc:
            return _decide_failure(frame_id, exc)
        try:
            decision = await future
        except Exception as exc:
            return _decide_failure(frame_id, exc)
        return protocol.response_frame(
            frame_id,
            protocol.OP_DECIDE,
            "decision",
            protocol.decision_to_wire(decision),
        )

    async def _decide_batch_task(self, send, frame_id, frame: dict, gate) -> None:
        """One concurrently-running ``decide-batch`` frame.

        Mirrors the connection loop's error discipline: a payload-level
        ``ProtocolError`` (malformed batch) is answered and the stream
        stays open; a vanished client is ignored.  Always releases its
        in-flight slot so the read loop can admit the next frame.
        """
        try:
            try:
                await send(await self._decide_batch_response(frame_id, frame))
            except ProtocolError as exc:
                await send(
                    protocol.error_frame(
                        frame_id, protocol.ERR_PROTOCOL, str(exc)
                    )
                )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            gate.release()

    async def _decide_batch_response(self, frame_id, frame: dict) -> dict:
        """Answer one ``decide-batch`` frame with per-entry results.

        The whole batch is parsed before anything is submitted (one
        garbled entry rejects the frame — never a partial commit), then
        every entry is enqueued on its user's shard *in frame order*
        before the first await, so same-user entries keep their
        serialization and the shard micro-batcher sees the burst at
        once — one store transaction per wire batch under load.
        Per-entry failures (overload shed, gate fencing, engine errors)
        fail only their own slot.
        """
        requests = protocol.batch_requests_of(frame)
        perf = self._service.perf
        if perf.enabled:
            perf.observe_size("wire.batch_size", len(requests))
        results: list[dict | None] = []
        pending: list[tuple[int, asyncio.Future]] = []
        gate = self._decide_gate
        for request in requests:
            if gate is not None:
                short_circuit = gate(frame_id, frame, request)
                if short_circuit is not None:
                    results.append(_batch_entry_of(short_circuit))
                    continue
            try:
                future = self._service.submit(request)
            except (ServiceOverloadedError, ServiceUnavailableError) as exc:
                results.append(_batch_entry_of(_decide_failure(frame_id, exc)))
                continue
            pending.append((len(results), future, request))
            results.append(None)
        if pending:
            outcomes = await asyncio.gather(
                *(future for _, future, _ in pending), return_exceptions=True
            )
            for (slot, _, request), outcome in zip(pending, outcomes):
                if isinstance(outcome, BaseException):
                    results[slot] = _batch_entry_of(
                        _decide_failure(frame_id, outcome)
                    )
                else:
                    results[slot] = {
                        "ok": True,
                        "decision": protocol.decision_to_wire_delta(
                            outcome, request
                        ),
                    }
        return {
            "v": protocol.PROTOCOL_VERSION_2,
            "id": frame_id,
            "ok": True,
            "op": protocol.OP_DECIDE_BATCH,
            "results": results,
        }

    def _sender(self, writer: asyncio.StreamWriter, encode):
        """The connection's ``send(frame)`` coroutine function.

        Bound once to the encoder the connection speaks — v1 JSON lines
        from accept, binary v2 once a hello negotiates it — so handlers
        answer without knowing which protocol they are on.
        """
        perf = self._service.perf

        async def send(frame: dict) -> None:
            if perf.enabled:
                started = perf.start()
                data = encode(frame)
                perf.span("wire.encode_s", started)
                perf.incr("wire.bytes_out", len(data))
                perf.incr("wire.frames_out")
            else:
                data = encode(frame)
            writer.write(data)
            await writer.drain()

        return send


#: Ops answered by :meth:`MSoDServer._policy_response`.
_POLICY_OPS = frozenset(
    {protocol.OP_POLICY_RELOAD, protocol.OP_VERIFY, protocol.OP_WHATIF}
)


def _hello_response(frame_id, version: int) -> dict:
    return protocol.response_frame(
        frame_id,
        protocol.OP_HELLO,
        "body",
        {
            "version": version,
            "max_batch": protocol.MAX_WIRE_BATCH,
            "max_frame_bytes": protocol.MAX_FRAME_BYTES_V2,
        },
    )


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
