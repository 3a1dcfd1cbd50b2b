"""The one server-side connection loop: bytes → frames → handlers → bytes.

``FrameServer`` binds a host/port and answers every connection from a
single loop.  An endpoint — the authorization server, the cluster
coordinator — is that loop plus an *op table* for each protocol
version: ``{version: {op: handler}}``, where a handler is a coroutine
function ``(frame_id, frame) -> reply frame``.  Handlers never touch the
connection; the loop that read the request sends the reply.

Connection handling rules (the only copy in ``src/``):

* a connection's first byte fixes its protocol version for life:
  :data:`protocol.V2_MAGIC`, which can never begin a JSON line, opens a
  v2 connection and anything else a v1 one.  The connection then reads
  and writes through that version's :class:`Codec` — a
  ``(read, decode, encode)`` triple (plus the header size ``read``
  strips, for the byte counters) — and answers from that version's op
  table.  Both versions carry a frame as JSON: :data:`CODECS` ``[1]``
  one line per frame, ``[2]`` a payload behind an 8-byte length header;
* frames are answered in order, except ops the endpoint marks
  *concurrent* (``decide-batch``): those run as tasks, at most
  :data:`MAX_INFLIGHT_FRAMES` per connection — reads pause (TCP
  backpressure) while that many sit in shard queues — so a pipelining
  client's window overlaps on the server and replies may leave out of
  frame order; clients correlate by frame id;
* a *payload* error (bad UTF-8 or JSON, nesting past the depth cap,
  unknown op, invalid body, one malformed batch entry) leaves the
  stream in sync, so it is answered with ``error.kind == "protocol"``
  and the connection stays open — a fuzzer must never take a worker
  down;
* a frame that corrupts the *stream* (an oversized v1 line, a v2
  header with a bad magic or length — e.g. a v1 line on a v2
  connection) cannot be resynchronised: one final error frame, then
  close;
* EOF — before the first byte, clean, or after a truncated frame — and
  a vanished peer close silently; server teardown cancels the
  connection, which closes it.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Collection, Mapping, NamedTuple

from repro.errors import ProtocolError
from repro.obs import NOOP, Recorder
from repro.server import protocol

#: ``(frame_id, frame) -> reply frame``; raising :class:`ProtocolError`
#: answers an ``error.kind == "protocol"`` frame for ``frame_id``.
Handler = Callable[[Any, dict], Awaitable[dict]]

#: Per-connection bound on concurrently running frames — comfortably
#: above any client's pipeline window while keeping one connection
#: from monopolising the service.
MAX_INFLIGHT_FRAMES = 64


class StreamCorrupt(Exception):
    """The byte stream cannot be resynchronised to a frame boundary."""


class Codec(NamedTuple):
    """How one protocol version frames bytes on a connection."""

    #: Next frame's payload, given the bytes of it already read (the
    #: connection's first byte, for its first frame); ``None`` at EOF
    #: (also mid-frame: there is nobody left to answer); raises
    #: :class:`StreamCorrupt`.
    read: Callable[[asyncio.StreamReader, bytes], Awaitable[bytes | None]]
    decode: Callable[[bytes], dict]
    encode: Callable[[Mapping[str, Any]], bytes]
    #: Bytes ``read`` consumed beyond the payload it returned.
    framing: int


async def _read_line(reader: asyncio.StreamReader, head: bytes) -> bytes | None:
    if head == b"\n":
        return head
    try:
        line = head + await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise StreamCorrupt("frame exceeds size limit") from None
    # ``readline`` hands back what precedes EOF without its newline: a
    # truncated frame, never run.
    return line if line.endswith(b"\n") else None


async def _read_v2_payload(
    reader: asyncio.StreamReader, head: bytes
) -> bytes | None:
    try:
        header = head + await reader.readexactly(
            protocol.V2_HEADER_BYTES - len(head)
        )
        try:
            length = protocol.v2_payload_length(header)
        except ProtocolError as exc:
            raise StreamCorrupt(str(exc)) from None
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        return None


#: Protocol version → codec.
CODECS: Mapping[int, Codec] = {
    protocol.PROTOCOL_VERSION: Codec(
        _read_line, protocol.decode_frame, protocol.encode_frame, 0
    ),
    protocol.PROTOCOL_VERSION_2: Codec(
        _read_v2_payload,
        protocol.decode_frame_v2,
        protocol.encode_frame_v2,
        protocol.V2_HEADER_BYTES,
    ),
}


def body_handler(body_of: Callable[[dict], Any]) -> Handler:
    """A handler answering its op with ``body_of(frame)`` as the body."""

    async def handler(frame_id, frame: dict) -> dict:
        return protocol.response_frame(
            frame_id, frame["op"], "body", body_of(frame)
        )

    return handler


def _refusal(frame_id, exc: Exception) -> dict:
    return protocol.error_frame(frame_id, protocol.ERR_PROTOCOL, str(exc))


class FrameServer:
    """One listening socket answering frames from per-version op tables."""

    def __init__(
        self,
        host: str,
        port: int,
        handlers: Mapping[int, Mapping[str, Handler]],
        *,
        concurrent: Collection[str] = (),
        perf: Recorder = NOOP,
    ) -> None:
        self._host = host
        self._port = port
        self._handlers = handlers
        self._concurrent = frozenset(concurrent)
        self._perf = perf
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        if self._server is None:
            return self._port
        sockets = self._server.sockets or []
        return sockets[0].getsockname()[1] if sockets else self._port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection,
            self._host,
            self._port,
            limit=protocol.MAX_FRAME_BYTES,
        )

    async def close(self) -> None:
        """Stop listening; open connections end with their loop."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        perf = self._perf
        slots = asyncio.Semaphore(MAX_INFLIGHT_FRAMES)
        in_flight: set[asyncio.Task] = set()

        async def send(frame: dict) -> None:
            if perf.enabled:
                started = perf.start()
                data = codec.encode(frame)
                perf.span("wire.encode_s", started)
                perf.incr("wire.bytes_out", len(data))
                perf.incr("wire.frames_out")
            else:
                data = codec.encode(frame)
            writer.write(data)
            await writer.drain()

        async def answer(handler: Handler, frame_id, frame: dict) -> None:
            try:
                reply = await handler(frame_id, frame)
            except ProtocolError as exc:
                reply = _refusal(frame_id, exc)
            await send(reply)

        async def answer_concurrently(handler, frame_id, frame) -> None:
            try:
                await answer(handler, frame_id, frame)
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                slots.release()

        try:
            try:
                head = await reader.readexactly(1)
            except asyncio.IncompleteReadError:
                return  # closed before its first byte
            version = (
                protocol.PROTOCOL_VERSION_2
                if head[0] == protocol.V2_MAGIC
                else protocol.PROTOCOL_VERSION
            )
            codec, table = CODECS[version], self._handlers[version]
            while True:
                try:
                    data = await codec.read(reader, head)
                except StreamCorrupt as exc:
                    await send(_refusal(None, exc))
                    break
                if data is None:
                    break
                head = b""
                frame_id = None
                try:
                    if perf.enabled:
                        perf.incr("wire.bytes_in", codec.framing + len(data))
                        perf.incr("wire.frames_in")
                        started = perf.start()
                        frame = codec.decode(data)
                        perf.span("wire.decode_s", started)
                    else:
                        frame = codec.decode(data)
                    frame_id = frame.get("id")
                    op = frame.get("op")
                    # ``op`` is outside input: a non-string one (a JSON
                    # list is not even hashable) is just an unknown op.
                    handler = table.get(op) if isinstance(op, str) else None
                    if handler is None:
                        raise ProtocolError(f"unknown operation {op!r}")
                except ProtocolError as exc:
                    await send(_refusal(frame_id, exc))
                    continue
                if op in self._concurrent:
                    await slots.acquire()
                    task = asyncio.ensure_future(
                        answer_concurrently(handler, frame_id, frame)
                    )
                    in_flight.add(task)
                    task.add_done_callback(in_flight.discard)
                    continue
                await answer(handler, frame_id, frame)
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer vanished mid-exchange; nothing to answer
        except asyncio.CancelledError:
            pass  # server teardown cancelled this connection; close it
        finally:
            for task in in_flight:
                task.cancel()
            if in_flight:
                await asyncio.gather(*in_flight, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            except asyncio.CancelledError:
                # The loop's teardown sweep cancels a handler a second
                # time while it waits here; ending normally keeps 3.11's
                # stream callback from logging the cancellation.
                pass
