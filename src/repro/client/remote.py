"""Remote PDP clients: the existing PEP, pointed at a network service.

:class:`RemotePDP` implements the
:class:`~repro.framework.pdp.PolicyDecisionPoint` protocol over the
wire format of :mod:`repro.server.protocol`, so a
:class:`~repro.framework.pep.PolicyEnforcementPoint` works unchanged
whether its PDP is in-process or a socket away.  :class:`AsyncRemotePDP`
is the asyncio variant for async applications.

Both are IO shells over :mod:`repro.client._core`, which owns the retry
discipline (only provably idempotent work is retried — see its module
docstring), the decide queue and what a dead or timed-out connection
does to it, the codec every connection speaks and the control verbs.
This module only moves bytes: blocking sockets with a sender and a
reader thread here, asyncio streams with a flush and a reader task
there.  In both the queue outlives its connection, so decides reach the
server in queue order, also across a re-open.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import math
import random
import socket
import threading
import time

from repro.client._core import (
    ClientCore,
    check_response,
    lost_connection,
    next_frame_id,
    no_response,
)
from repro.core.decision import Decision, DecisionRequest
from repro.errors import (
    PDPConnectError,
    PDPOverloadedError,
    PDPUnavailableError,
    ProtocolError,
)
from repro.framework.pdp import PolicyDecisionPoint
from repro.obs.recorder import Recorder
from repro.server import protocol


def _resolve_futures(resolutions: list) -> None:
    """Deliver pipeline resolutions to their waiters.

    The waiter is a ``concurrent.futures.Future`` in the blocking shell
    and an ``asyncio.Future`` in the asyncio shell; both settle alike.
    """
    for future, decision, error in resolutions:
        if future.done():  # its decide() timed out or was cancelled
            continue
        if error is None:
            future.set_result(decision)
        else:
            future.set_exception(error)


# ---------------------------------------------------------------------------
# Blocking-socket shell
# ---------------------------------------------------------------------------
def _read_exactly(file, n: int) -> bytes:
    data = file.read(n)
    if data is None or len(data) != n:
        raise PDPUnavailableError("connection closed by server")
    return data


def _read_v2_payload(file) -> bytes:
    """The payload of the next v2 frame on a blocking socket's file."""
    header = _read_exactly(file, protocol.V2_HEADER_BYTES)
    return _read_exactly(file, protocol.v2_payload_length(header))


class _PipelinedV2Connection:
    """One protocol-v2 connection of a :class:`RemotePDP`.

    The decide queue belongs to the client and outlives the connection:
    the client's sender thread writes the frames it cuts (bounded by
    this connection's in-flight ``window``), and a reader thread feeds
    responses back and resolves the futures by correlation id, out of
    order.
    """

    def __init__(self, client: "RemotePDP") -> None:
        conn = _SyncConnection(client._host, client._port, client._timeout)
        self._sock = conn.sock
        self._file = conn.file
        self._core = client._queue
        self._cond = client._cond  # guards every _core call
        self._perf = client._perf
        self.window = threading.Semaphore(client._pipeline_window)
        self.lost = False
        # A decide queued before the connection existed is timed from
        # the moment it could first be sent.
        self.opened_at = time.monotonic()
        # Blocking IO from here on: a drop shuts the socket down, which
        # unblocks both threads.
        self._sock.settimeout(None)
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-pdp-reader", daemon=True
        )
        self._reader.start()

    def send(self, payload: bytes, size: int) -> None:
        try:
            self._sock.sendall(payload)
        except OSError as exc:
            # sendall may have transmitted part of the frame: the
            # whole batch counts as sent (ambiguous on the server).
            self.drop(lost_connection(exc))
            return
        perf = self._perf
        if perf.enabled:
            perf.incr("client.frames_out")
            perf.incr("client.bytes_out", len(payload))
            perf.observe_size("client.batch_size", size)

    # -- reader thread -------------------------------------------------
    def _read_loop(self) -> None:
        try:
            while True:
                payload = _read_v2_payload(self._file)
                frame = protocol.decode_frame_v2(payload)
                if self._perf.enabled:
                    self._perf.incr("client.frames_in")
                    self._perf.incr(
                        "client.bytes_in", protocol.V2_HEADER_BYTES + len(payload)
                    )
                with self._cond:
                    resolutions = self._core.receive(frame)
                self.window.release()
                _resolve_futures(resolutions)
        except (PDPUnavailableError, ProtocolError, OSError) as exc:
            self.drop(lost_connection(exc))
        finally:
            with contextlib.suppress(OSError):
                self._file.close()

    # -- teardown ------------------------------------------------------
    def drop(self, exc: Exception, cutoff: float = -math.inf) -> None:
        """Settle the sent decides (and unsent ones submitted by
        ``cutoff``) with ``exc`` and shut the socket; the rest stay
        queued."""
        with self._cond:
            if self.lost:
                return
            self.lost = True
            resolutions = self._core.drop(exc, cutoff)
        # Wake a sender parked on an exhausted in-flight window; it
        # finds the connection lost and opens another.
        self.window.release()
        _resolve_futures(resolutions)
        # shutdown (not file.close) unblocks a reader parked in read():
        # closing the buffered file here would block on the read lock
        # the reader holds.  The reader closes the file as it exits.
        with contextlib.suppress(OSError):  # already torn down
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):  # best-effort teardown
            self._sock.close()

    def join(self) -> None:
        self._reader.join()


class _SyncConnection:
    """One blocking socket, one request and its answer at a time."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float,
        connect_timeout: float | None = None,
    ) -> None:
        self._timeout = timeout
        try:
            self.sock = socket.create_connection(
                (host, port),
                timeout=connect_timeout if connect_timeout is not None else timeout,
            )
        except OSError as exc:
            raise PDPConnectError(
                f"cannot connect to PDP at {host}:{port}: {exc}"
            ) from exc
        self.sock.settimeout(timeout)
        self.file = self.sock.makefile("rb")

    def round_trip(
        self, payload: bytes, v2: bool, timeout: float | None = None
    ) -> bytes:
        """Write one encoded frame, read its answer: a v2 frame's
        payload, or a v1 line."""
        if timeout is not None:
            self.sock.settimeout(timeout)
        try:
            self.sock.sendall(payload)
            if v2:
                return _read_v2_payload(self.file)
            return self.file.readline(protocol.MAX_FRAME_BYTES + 1)
        finally:
            if timeout is not None:
                self.sock.settimeout(self._timeout)

    def close(self) -> None:
        try:
            self.file.close()
            self.sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass


class RemotePDP(ClientCore, PolicyDecisionPoint):
    """A :class:`PolicyDecisionPoint` backed by a remote MSoD server.

    Thread-safe: a bounded pool of connections serves concurrent
    control calls (each request has exclusive use of one connection for
    its round trip, preserving the one-frame-in-flight protocol
    invariant), and v2 decides share one queue that a sender thread
    sends, in order, over one pipelined connection it opens and
    re-opens.  Any verb after :meth:`close` raises
    :class:`~repro.errors.PDPUnavailableError`.

    Parameters
    ----------
    host, port:
        The server address.
    pool_size:
        Maximum concurrent connections (callers beyond it queue).
    timeout:
        Per-operation socket timeout, seconds; a pipelined decide that
        has waited this long for its answer fails, and drops the
        connection as it does.
    health_timeout:
        Socket timeout for ``healthz`` probes only; defaults to the
        general ``timeout``.  A cluster health checker sets this much
        lower than the decide timeout so a dead node is detected in
        probe-time, not decide-time (failover satellite).
    max_retries:
        Extra attempts for retriable failures (see
        :meth:`~repro.client._core.ClientCore.retry_delay`).
    backoff_base, backoff_cap:
        Full-jitter exponential backoff parameters, seconds.
    rng:
        Injectable randomness source for deterministic tests.
    perf:
        Optional recorder for client-side counters (``client.calls``,
        ``client.retries``, ``client.overload_rejections``,
        ``client.transport_failures``) and the ``client.call``
        round-trip stage histogram; concurrent callers record under one
        client-wide lock, so the counts are exact.
    protocol_version:
        The codec of every connection, pooled and pipelined: ``"v2"``
        (default) for length-prefixed frames, decides riding the
        pipelined connection as ``decide-batch`` entries; ``"v1"`` for
        JSON lines, each decide its own pooled round trip.  Against a
        server that speaks only v1, a ``"v2"`` decide goes unanswered
        and fails with :class:`~repro.errors.PDPUnavailableError` after
        ``timeout``.
    batch_max:
        Most decide requests coalesced into one ``decide-batch`` frame
        (v2 only).  A frame also carries at most half the connection's
        outstanding decides, so a burst leaves on at least two frames.
    pipeline_window:
        Most correlated v2 frames in flight per connection before
        submission blocks (v2 only).
    """

    def _init_io(self) -> None:
        self._slots = threading.BoundedSemaphore(self._pool_size)
        self._idle: list[_SyncConnection] = []
        self._idle_lock = threading.Lock()
        # Guards the queue and every change of _pipe and _closed; the
        # sender thread waits on it for work.
        self._cond = threading.Condition()
        self._sender: threading.Thread | None = None
        # A Recorder is not thread-safe and callers arrive on their own
        # threads: everything they record goes through this lock.  (The
        # sender and reader threads each own the frame counters they
        # write, so those need none.)
        self._perf_lock = threading.Lock()

    @property
    def perf(self) -> Recorder:
        return self._perf

    # -- connection pool ----------------------------------------------
    def _acquire(self, connect_timeout: float | None = None) -> _SyncConnection:
        with self._idle_lock:
            if self._idle:
                return self._idle.pop()
        return _SyncConnection(
            self._host, self._port, self._timeout, connect_timeout
        )

    def _release(self, conn: _SyncConnection, reusable: bool) -> None:
        if reusable and not self._closed:
            with self._idle_lock:
                self._idle.append(conn)
        else:
            conn.close()

    def close(self) -> None:
        """Close every connection and stop the sender.  Idempotent."""
        closed = PDPUnavailableError("remote PDP client is closed")
        with self._cond:
            self._closed = True
            queued = self._queue.drop(closed, math.inf)
            sender, self._sender = self._sender, None
            self._cond.notify_all()
        _resolve_futures(queued)
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()
        if self._pipe is not None:
            self._pipe.drop(closed)  # wakes a sender parked on its window
        if sender is not None:
            sender.join()
        pipe = self._pipe  # the sender may have opened it as we closed
        if pipe is not None:
            pipe.drop(closed)
            pipe.join()

    # -- round trips ---------------------------------------------------
    def _exchange_once(
        self, op: str, fields: dict, timeout: float | None = None
    ) -> dict:
        """One request/response on one pooled connection."""
        frame_id = next_frame_id()
        payload = self._encode(protocol.request_frame(op, frame_id, **fields))
        with self._slots:
            conn = self._acquire(connect_timeout=timeout)
            reusable = False
            try:
                try:
                    data = conn.round_trip(payload, self._v2, timeout)
                except (OSError, EOFError) as exc:
                    raise PDPUnavailableError(
                        f"PDP transport failure: {exc}"
                    ) from exc
                response = self._decode(data)
                reusable = True
                return check_response(response, frame_id)
            finally:
                self._release(conn, reusable)

    def request(
        self,
        op: str,
        *,
        retriable: bool,
        op_timeout: float | None = None,
        **fields,
    ) -> dict:
        """One pooled round trip under the shared retry rule.

        Returns the validated response frame.  ``retriable`` says
        whether ``op`` may be replayed after its bytes were sent.
        """
        perf = self._perf
        timing = perf.enabled
        if timing and op != protocol.OP_DECIDE:  # decide() counts its own
            with self._perf_lock:
                perf.incr("client.calls")
        attempt = 0
        while True:
            self.check_open()
            started = perf.start() if timing else 0.0
            try:
                response = self._exchange_once(op, fields, op_timeout)
            except PDPUnavailableError as exc:
                with self._perf_lock:  # retry_delay counts the failure
                    delay = self.retry_delay(exc, attempt, retriable)
            else:
                if timing:
                    with self._perf_lock:
                        perf.span("client.call", started)
                return response
            time.sleep(delay)
            attempt += 1

    @staticmethod
    def _then(answer: dict, parse):
        return parse(answer)

    # -- the PolicyDecisionPoint protocol ------------------------------
    def decide(
        self, request: DecisionRequest, *, epoch: int | None = None
    ) -> Decision:
        """Evaluate one request on the remote PDP.

        Raises :class:`PDPUnavailableError` (or its
        :class:`PDPOverloadedError` subclass once the retry budget for
        overload rejections is exhausted) instead of socket errors.

        ``epoch``, when given, rides on the decide frame; a cluster
        node compares it against its own fencing epoch and answers
        ``fenced`` (:class:`~repro.errors.PDPFencedError`) when the
        client's routing table is stale.  Plain single-node servers
        ignore the field.
        """
        perf = self._perf
        if perf.enabled:
            with self._perf_lock:
                perf.incr("client.calls")
        wire = protocol.request_to_wire(request)
        if not self._v2:
            return self._decide_v1(wire, epoch)
        attempt = 0
        while True:
            started = perf.start() if perf.enabled else 0.0
            future: concurrent.futures.Future = concurrent.futures.Future()
            submitted = time.monotonic()
            with self._cond:
                self.check_open()
                self._queue.submit(future, wire, epoch, submitted)
                if self._sender is None or not self._sender.is_alive():
                    self._sender = threading.Thread(
                        target=self._send_loop, name="repro-pdp-sender", daemon=True
                    )
                    self._sender.start()
                self._cond.notify()
            try:
                answer = self._wait(future, submitted)
            except PDPOverloadedError as exc:
                with self._perf_lock:
                    delay = self.retry_delay(exc, attempt, retriable=False)
                time.sleep(delay)
                attempt += 1
                continue
            if perf.enabled:
                with self._perf_lock:
                    perf.span("client.call", started)
            return protocol.decision_from_wire_delta(answer, request)

    def _wait(self, future: concurrent.futures.Future, submitted: float):
        """The answer to one queued decide.  Once it has waited
        ``timeout`` — from its call, or from when its connection opened
        if it was queued before that — it drops the connection."""
        timeout = self._timeout
        while True:
            pipe = self._pipe
            if pipe is None or pipe.lost:  # timed from the next opening
                pipe, opened = None, time.monotonic()
            else:
                opened = pipe.opened_at
            try:
                due = max(submitted, opened) + timeout
                return future.result(due - time.monotonic())
            except concurrent.futures.TimeoutError:
                if pipe is not None:
                    pipe.drop(no_response(timeout), time.monotonic() - timeout)

    def _send_loop(self) -> None:
        """Send the queue in order, (re)opening the connection first
        (failed opens: :meth:`~ClientCore.open_failed`).  Runs on the
        sender thread until :meth:`close`."""
        queue, cond = self._queue, self._cond
        while True:
            with cond:
                cond.wait_for(lambda: queue.has_unsent or self._closed)
                if self._closed:
                    return
                pipe = self._pipe
            if pipe is None or pipe.lost:
                started = time.monotonic()
                try:
                    pipe = _PipelinedV2Connection(self)
                except PDPUnavailableError as exc:
                    with cond, self._perf_lock:
                        delay, settled = self.open_failed(exc, started)
                    _resolve_futures(settled)
                    if delay:
                        with cond:
                            cond.wait_for(lambda: self._closed, delay)
                    continue
                with cond:
                    self.opened(pipe)
            pipe.window.acquire()
            with cond:
                if pipe.lost:  # drop() released the window
                    continue
                payload, size, failed = queue.next_frame()
            if payload is None:
                pipe.window.release()
                _resolve_futures(failed)
            else:
                pipe.send(payload, size)


# ---------------------------------------------------------------------------
# Asyncio shell
# ---------------------------------------------------------------------------
async def _open_stream(
    host: str, port: int, limit: int, timeout: float
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    try:
        return await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=limit), timeout=timeout
        )
    except (OSError, asyncio.TimeoutError) as exc:
        raise PDPConnectError(
            f"cannot connect to PDP at {host}:{port}: {exc}"
        ) from exc


async def _read_v2_stream(reader: asyncio.StreamReader) -> bytes:
    """The payload of the next v2 frame on an asyncio stream."""
    header = await reader.readexactly(protocol.V2_HEADER_BYTES)
    return await reader.readexactly(protocol.v2_payload_length(header))


class _AsyncPipelinedV2:
    """One protocol-v2 connection on asyncio streams.

    The decide queue belongs to the client and outlives the connection:
    the client's flush task writes the frames it cuts (bounded by this
    connection's in-flight ``window``), a reader task feeds responses
    back and resolves the futures by correlation id, and one
    ``call_at`` timer, kept armed for the oldest outstanding decide,
    drops the connection once that decide has waited ``timeout``.
    """

    def __init__(
        self,
        client: "AsyncRemotePDP",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._stream_reader = reader
        self._writer = writer
        self._timeout = client._timeout
        self._core = client._queue
        self.window = asyncio.Semaphore(client._pipeline_window)
        self.lost = False
        self._loop = asyncio.get_running_loop()
        # A decide queued before the connection existed is timed from
        # the moment it could first be sent.
        self._opened = self._loop.time()
        self._timer: asyncio.TimerHandle | None = None
        # Ends once the aborted or lost transport reports the loss.
        self.reader_task = self._loop.create_task(self._read_loop())

    async def send(self, payload: bytes) -> None:
        if self._timer is None:
            self._check_deadline()
        try:
            self._writer.write(payload)
            await self._writer.drain()
        except (OSError, ConnectionError) as exc:
            self.drop(lost_connection(exc))

    def _check_deadline(self) -> None:
        """Re-arm for the oldest outstanding decide, or drop the connection."""
        self._timer = None
        oldest = self._core.oldest()
        if oldest is None:
            return  # the next frame sent arms the timer again
        due = max(oldest, self._opened) + self._timeout
        now = self._loop.time()
        if now < due:
            self._timer = self._loop.call_at(due, self._check_deadline)
            return
        self.drop(no_response(self._timeout), cutoff=now - self._timeout)

    # -- reader task ---------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                payload = await _read_v2_stream(self._stream_reader)
                resolutions = self._core.receive(
                    protocol.decode_frame_v2(payload)
                )
                self.window.release()
                _resolve_futures(resolutions)
        except (ProtocolError, OSError, asyncio.IncompleteReadError) as exc:
            self.drop(lost_connection(exc))

    # -- teardown ------------------------------------------------------
    def drop(self, exc: Exception, cutoff: float = -math.inf) -> None:
        """Settle the sent decides (and unsent ones submitted by
        ``cutoff``) with ``exc`` and abort; the rest stay queued."""
        if self.lost:
            return
        self.lost = True
        if self._timer is not None:
            self._timer.cancel()
        _resolve_futures(self._core.drop(exc, cutoff))
        # Wake a flush task parked on an exhausted in-flight window or
        # in drain(); it finds the connection lost and opens another.
        self.window.release()
        self._writer.transport.abort()


class AsyncRemotePDP(ClientCore):
    """The asyncio twin of :class:`RemotePDP`.

    Same wire protocol, retry discipline and pooling semantics, with
    coroutine methods (``await pdp.decide(request)``) for applications
    that live on an event loop; the control verbs return awaitables of
    the values documented on :class:`~repro.client._core.ClientCore`.
    ``protocol_version``/``batch_max``/``pipeline_window`` mirror
    :class:`RemotePDP`: under ``"v2"`` decides ride one pipelined
    connection whose flush task coalesces concurrent callers into
    ``decide-batch`` frames, while control verbs take pooled round
    trips in the same codec.  A decide that has waited ``timeout`` for
    its answer fails, and drops the connection as it does.
    """

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 4,
        timeout: float = 5.0,
        health_timeout: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.02,
        backoff_cap: float = 0.5,
        rng: random.Random | None = None,
        protocol_version: str = "v2",
        batch_max: int = 32,
        pipeline_window: int = 8,
    ) -> None:
        super().__init__(
            host,
            port,
            pool_size,
            timeout,
            health_timeout,
            max_retries,
            backoff_base,
            backoff_cap,
            rng,
            None,
            protocol_version,
            batch_max,
            pipeline_window,
        )

    def _init_io(self) -> None:
        self._slots = asyncio.Semaphore(self._pool_size)
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._flush_task: asyncio.Task | None = None

    async def _release(
        self,
        conn: tuple[asyncio.StreamReader, asyncio.StreamWriter],
        reusable: bool,
    ) -> None:
        if reusable and not self._closed:
            self._idle.append(conn)
        else:
            _, writer = conn
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):  # pragma: no cover
                pass

    async def close(self) -> None:
        """Close every pooled connection.  Idempotent."""
        self._closed = True
        idle, self._idle = self._idle, []
        for conn in idle:
            await self._release(conn, reusable=False)
        closed = PDPUnavailableError("remote PDP client is closed")
        _resolve_futures(self._queue.drop(closed, math.inf))
        if self._flush_task is not None:
            self._flush_task.cancel()
            await asyncio.gather(self._flush_task, return_exceptions=True)
        pipe, self._pipe = self._pipe, None
        if pipe is not None:
            pipe.drop(closed)
            await pipe.reader_task

    async def __aenter__(self) -> "AsyncRemotePDP":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- one attempt, and the loop around it ----------------------------
    async def _exchange_once(
        self, op: str, fields: dict, timeout: float | None = None
    ) -> dict:
        frame_id = next_frame_id()
        payload = self._encode(protocol.request_frame(op, frame_id, **fields))
        op_timeout = timeout if timeout is not None else self._timeout
        async with self._slots:
            conn = self._idle.pop() if self._idle else await _open_stream(
                self._host, self._port, protocol.MAX_FRAME_BYTES, op_timeout
            )
            reader, writer = conn
            reusable = False
            try:
                try:
                    writer.write(payload)
                    await asyncio.wait_for(
                        writer.drain(), timeout=op_timeout
                    )
                    data = await asyncio.wait_for(
                        _read_v2_stream(reader) if self._v2 else reader.readline(),
                        timeout=op_timeout,
                    )
                except (
                    OSError,
                    ConnectionError,
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    ValueError,
                ) as exc:
                    raise PDPUnavailableError(
                        f"PDP transport failure: {exc}"
                    ) from exc
                response = self._decode(data)
                reusable = True
                return check_response(response, frame_id)
            finally:
                await self._release(conn, reusable)

    async def request(
        self,
        op: str,
        *,
        retriable: bool,
        op_timeout: float | None = None,
        **fields,
    ) -> dict:
        """One pooled round trip under the shared retry rule (coroutine)."""
        attempt = 0
        while True:
            self.check_open()
            try:
                return await self._exchange_once(op, fields, op_timeout)
            except PDPUnavailableError as exc:
                delay = self.retry_delay(exc, attempt, retriable)
            await asyncio.sleep(delay)
            attempt += 1

    @staticmethod
    async def _then(answer, parse):
        return parse(await answer)

    # -- decide --------------------------------------------------------
    async def decide(
        self, request: DecisionRequest, *, epoch: int | None = None
    ) -> Decision:
        """Evaluate one request on the remote PDP (coroutine).

        Over v2 the decide joins the client's queue before its first
        ``await``, so decides reach the server in call order.  The one
        exception is a decide the server sheds as ``overloaded``: it is
        queued again after its back-off, behind later ones.
        """
        wire = protocol.request_to_wire(request)
        if not self._v2:
            return await self._decide_v1(wire, epoch)
        attempt = 0
        while True:
            self.check_open()
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            self._queue.submit(future, wire, epoch, loop.time())
            if self._flush_task is None or self._flush_task.done():
                self._flush_task = loop.create_task(self._flush())
            try:
                answer = await future
            except PDPOverloadedError as exc:
                delay = self.retry_delay(exc, attempt, retriable=False)
                await asyncio.sleep(delay)
                attempt += 1
                continue
            return protocol.decision_from_wire_delta(answer, request)

    async def _flush(self) -> None:
        """Send the queue in order, (re)opening the connection first
        (failed opens: :meth:`~ClientCore.open_failed`)."""
        # One event-loop tick lets concurrent decide() callers land in
        # the queue before the first frame is cut.
        await asyncio.sleep(0)
        queue = self._queue
        while queue.has_unsent:
            pipe = self._pipe
            if pipe is None or pipe.lost:
                started = asyncio.get_running_loop().time()
                try:
                    streams = await _open_stream(
                        self._host,
                        self._port,
                        protocol.MAX_FRAME_BYTES_V2,
                        self._timeout,
                    )
                except PDPUnavailableError as exc:
                    delay, settled = self.open_failed(exc, started)
                    _resolve_futures(settled)
                    await asyncio.sleep(delay)
                    continue
                pipe = _AsyncPipelinedV2(self, *streams)
                self.opened(pipe)
            await pipe.window.acquire()
            if pipe.lost:  # drop() released the window
                continue
            payload, _, failed = queue.next_frame()
            if payload is None:
                pipe.window.release()
                _resolve_futures(failed)
            else:
                await pipe.send(payload)
