"""Remote PDP clients: the existing PEP, pointed at a network service.

:class:`RemotePDP` implements the
:class:`~repro.framework.pdp.PolicyDecisionPoint` protocol over the
JSON-lines wire format, so a
:class:`~repro.framework.pep.PolicyEnforcementPoint` works unchanged
whether its PDP is in-process or a socket away.  :class:`AsyncRemotePDP`
is the asyncio variant for async applications.

Both are IO shells over :mod:`repro.client._core`, which owns the retry
discipline (only provably idempotent work is retried — see its module
docstring), the decide pipeline, the handshake check and the control
verbs.  This module only moves bytes: blocking sockets with a sender
and a reader thread here, asyncio streams with a flush and a reader
task there.  The asyncio shell's queue outlives its connection, so its
decides reach the server in call order, also across a re-open.
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
    DecidePipeline,
    check_response,
    decode_response_line,
    hello_request,
    hello_version,
    next_frame_id,
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


def _decide_fields(wire: dict, epoch: int | None) -> dict:
    fields: dict = {"request": wire}
    if epoch is not None:
        fields["epoch"] = epoch
    return fields


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
class _PipelinedV2Connection:
    """One negotiated protocol-v2 connection with pipelined batches.

    Concurrent ``decide`` callers submit one future each to the
    :class:`DecidePipeline`; a sender thread writes the frames it cuts,
    keeping at most ``window`` correlated frames in flight; a reader
    thread feeds responses back and resolves the futures as they
    complete, out of order.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float,
        batch_max: int,
        window: int,
        perf: Recorder,
    ) -> None:
        self._timeout = timeout
        self._perf = perf
        conn = _SyncConnection(host, port, timeout)
        self._sock = conn.sock
        self._file = conn.file
        frame_id, payload = hello_request()
        try:
            try:
                line = conn.round_trip(payload)
            except OSError as exc:
                raise PDPConnectError(f"handshake failed: {exc}") from exc
            self.version = hello_version(line, frame_id)
        except BaseException:
            conn.close()
            raise
        # Blocking IO from here on: decide() waits enforce the timeout and
        # kill the socket when the server goes quiet, which unblocks
        # both threads.
        self._sock.settimeout(None)
        self._core = DecidePipeline(batch_max)
        self._cond = threading.Condition()  # guards every _core call
        self._window = threading.Semaphore(window)
        self._sender = threading.Thread(
            target=self._sender_loop, name="repro-pdp-sender", daemon=True
        )
        self._reader = threading.Thread(
            target=self._reader_loop, name="repro-pdp-reader", daemon=True
        )
        self._sender.start()
        self._reader.start()

    @property
    def is_dead(self) -> bool:
        return self._core.dead is not None

    # -- submit --------------------------------------------------------
    def decide(self, request: dict, epoch: int | None) -> dict | None:
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._cond:
            self._core.submit(future, request, epoch, time.monotonic())
            self._cond.notify()
        try:
            return future.result(self._timeout)
        except concurrent.futures.TimeoutError:
            self._fail(
                PDPUnavailableError(
                    f"no response within {self._timeout}s; "
                    "pipelined connection dropped"
                )
            )
            try:
                return future.result(1.0)
            except concurrent.futures.TimeoutError:  # pragma: no cover - _fail settled it
                raise PDPUnavailableError("pipelined connection wedged") from None

    # -- sender thread -------------------------------------------------
    def _sender_loop(self) -> None:
        core = self._core
        while True:
            with self._cond:
                while not core.has_unsent and core.dead is None:
                    self._cond.wait()
            # _fail releases the window too, so a sender parked on a
            # full window wakes up to see the death below.
            self._window.acquire()
            with self._cond:
                if core.dead is not None:
                    return
                payload, size, failed = core.next_frame()
            if payload is None:
                self._window.release()
                _resolve_futures(failed)
                continue
            try:
                self._sock.sendall(payload)
            except OSError as exc:
                # sendall may have transmitted part of the frame: the
                # whole batch counts as sent (ambiguous on the server).
                self._fail(
                    PDPUnavailableError(f"PDP transport failure: {exc}")
                )
                return
            perf = self._perf
            if perf.enabled:
                perf.incr("client.frames_out")
                perf.incr("client.bytes_out", len(payload))
                perf.observe_size("client.batch_size", size)

    # -- reader thread -------------------------------------------------
    def _reader_loop(self) -> None:
        try:
            while True:
                header = self._read_exactly(protocol.V2_HEADER_BYTES)
                length = protocol.v2_payload_length(header)
                payload = self._read_exactly(length)
                frame = protocol.decode_frame_v2(payload)
                if self._perf.enabled:
                    self._perf.incr("client.frames_in")
                    self._perf.incr(
                        "client.bytes_in", protocol.V2_HEADER_BYTES + length
                    )
                with self._cond:
                    resolutions = self._core.receive(frame)
                self._window.release()
                _resolve_futures(resolutions)
        except PDPUnavailableError as exc:
            self._fail(exc)
        except ProtocolError as exc:
            self._fail(
                PDPUnavailableError(f"protocol violation from server: {exc}")
            )
        except OSError as exc:
            self._fail(PDPUnavailableError(f"PDP transport failure: {exc}"))
        finally:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass

    def _read_exactly(self, n: int) -> bytes:
        data = self._file.read(n)
        if data is None or len(data) != n:
            raise PDPUnavailableError("connection closed by server")
        return data

    # -- teardown ------------------------------------------------------
    def _fail(self, exc: Exception) -> None:
        with self._cond:
            resolutions = self._core.fail(exc)
            self._cond.notify_all()
        self._window.release()
        _resolve_futures(resolutions)
        # shutdown (not file.close) unblocks a reader parked in read():
        # closing the buffered file here would block on the read lock
        # the reader holds.  The reader closes the file as it exits.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - already torn down
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass

    def close(self) -> None:
        self._fail(PDPUnavailableError("pipelined connection closed"))
        self._sender.join(self._timeout)
        self._reader.join(self._timeout)


class _SyncConnection:
    """One blocking socket speaking newline-delimited JSON frames."""

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

    def round_trip(self, payload: bytes, timeout: float | None = None) -> bytes:
        """Write one encoded frame, read one response line."""
        if timeout is not None:
            self.sock.settimeout(timeout)
        try:
            self.sock.sendall(payload)
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

    Thread-safe: a bounded pool of pooled connections serves concurrent
    callers (each request has exclusive use of one connection for its
    round trip, preserving the one-frame-in-flight protocol invariant).
    Any verb after :meth:`close` raises
    :class:`~repro.errors.PDPUnavailableError`.

    Parameters
    ----------
    host, port:
        The server address.
    pool_size:
        Maximum concurrent connections (callers beyond it queue).
    timeout:
        Per-operation socket timeout, seconds.
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
        ``"auto"`` (default) negotiates protocol v2 on the first decide
        and falls back to v1 when the server rejects the ``hello``;
        ``"v2"`` requires v2 (raising
        :class:`~repro.errors.ProtocolError` against a v1-only server);
        ``"v1"`` pins the JSON-lines protocol.  Control verbs always
        use v1 pooled connections — only ``decide`` rides the
        pipelined binary transport.
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
        self._pipe: _PipelinedV2Connection | None = None
        self._pipe_lock = threading.Lock()
        # A Recorder is not thread-safe and callers arrive on their own
        # threads: everything they record goes through this lock.  (The
        # pipeline's sender and reader threads each own the counters
        # they write, so they need none.)
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
        """Close every pooled connection.  Idempotent."""
        self._closed = True
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()
        with self._pipe_lock:
            pipe, self._pipe = self._pipe, None
        if pipe is not None:
            pipe.close()

    # -- one attempt, and the loop around it ----------------------------
    def _exchange_once(
        self, op: str, fields: dict, timeout: float | None = None
    ) -> dict:
        """One request/response on one pooled connection."""
        frame_id = next_frame_id()
        payload = protocol.encode_frame(
            protocol.request_frame(op, frame_id, **fields)
        )
        with self._slots:
            conn = self._acquire(connect_timeout=timeout)
            reusable = False
            try:
                try:
                    line = conn.round_trip(payload, timeout)
                except (OSError, EOFError) as exc:
                    raise PDPUnavailableError(
                        f"PDP transport failure: {exc}"
                    ) from exc
                response = decode_response_line(line)
                reusable = True
                return check_response(response, frame_id)
            finally:
                self._release(conn, reusable)

    def _retrying(self, once, retriable: bool):
        perf = self._perf
        timing = perf.enabled
        if timing:
            with self._perf_lock:
                perf.incr("client.calls")
        attempt = 0
        while True:
            self.check_open()
            started = perf.start() if timing else 0.0
            try:
                result = once()
            except PDPUnavailableError as exc:
                with self._perf_lock:  # retry_delay counts the failure
                    delay = self.retry_delay(exc, attempt, retriable)
            else:
                if timing:
                    with self._perf_lock:
                        perf.span("client.call", started)
                return result
            time.sleep(delay)
            attempt += 1

    def request(
        self,
        op: str,
        *,
        retriable: bool,
        op_timeout: float | None = None,
        **fields,
    ) -> dict:
        """One control round trip under the shared retry rule.

        Returns the validated response frame.  ``retriable`` says
        whether ``op`` may be replayed after its bytes were sent.
        """
        return self._retrying(
            lambda: self._exchange_once(op, fields, op_timeout), retriable
        )

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
        wire = protocol.request_to_wire(request)
        return self._retrying(
            lambda: self._decide_once(request, wire, epoch),
            retriable=False,  # post-send decide retries could double-record
        )

    def _decide_once(
        self, request: DecisionRequest, wire: dict, epoch: int | None
    ) -> Decision:
        if self._negotiated != 1:
            pipe = self._pipeline()
            if pipe is not None:
                return protocol.decision_from_wire_delta(
                    pipe.decide(wire, epoch), request
                )
        response = self._exchange_once(
            protocol.OP_DECIDE, _decide_fields(wire, epoch)
        )
        return protocol.decision_from_wire(response.get("decision"))

    def _pipeline(self) -> _PipelinedV2Connection | None:
        """The shared pipelined v2 connection, (re)establishing it.

        Returns ``None`` when decides should speak v1 instead: an
        ``"auto"`` client whose server rejected the hello (the fallback
        is then remembered for the client's lifetime).
        """
        with self._pipe_lock:
            if self._negotiated == 1:
                return None
            pipe = self._pipe
            if pipe is not None and not pipe.is_dead:
                return pipe
            if pipe is not None:
                pipe.close()
                self._pipe = None
            try:
                pipe = _PipelinedV2Connection(
                    self._host,
                    self._port,
                    timeout=self._timeout,
                    batch_max=self._batch_max,
                    window=self._pipeline_window,
                    perf=self._perf,
                )
            except ProtocolError as exc:
                self.v2_refused(exc)
                return None
            self._negotiated = pipe.version
            self._pipe = pipe
            return pipe


# ---------------------------------------------------------------------------
# Asyncio shell
# ---------------------------------------------------------------------------
#: What queued decides are answered with when ``"auto"`` falls back to v1.
_SPEAK_V1 = object()


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


class _AsyncPipelinedV2:
    """One negotiated protocol-v2 connection on asyncio streams.

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
        version: int,
    ) -> None:
        self._stream_reader = reader
        self._writer = writer
        self.version = version
        self._timeout = client._timeout
        self._core = client._queue
        self.window = asyncio.Semaphore(client._pipeline_window)
        self.dead = False
        self._loop = asyncio.get_running_loop()
        # A decide queued before the connection existed is timed from
        # the moment it could first be sent.
        self._opened = self._loop.time()
        self._timer: asyncio.TimerHandle | None = None
        # Ends once the aborted or lost transport reports the loss.
        self.reader_task = self._loop.create_task(self._read_loop())

    @classmethod
    async def open(cls, client: "AsyncRemotePDP") -> "_AsyncPipelinedV2":
        timeout = client._timeout
        reader, writer = await _open_stream(
            client._host, client._port, protocol.MAX_FRAME_BYTES_V2, timeout
        )
        try:
            frame_id, payload = hello_request()
            writer.write(payload)
            await asyncio.wait_for(writer.drain(), timeout=timeout)
            line = await asyncio.wait_for(reader.readline(), timeout=timeout)
            version = hello_version(line, frame_id)
        except (OSError, ConnectionError, asyncio.TimeoutError) as exc:
            writer.close()
            raise PDPConnectError(f"handshake failed: {exc}") from exc
        except BaseException:
            writer.close()
            raise
        return cls(client, reader, writer, version)

    async def send(self, payload: bytes) -> None:
        if self._timer is None:
            self._check_deadline()
        try:
            self._writer.write(payload)
            await self._writer.drain()
        except (OSError, ConnectionError) as exc:
            self.fail(PDPUnavailableError(f"PDP transport failure: {exc}"))

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
        exc = PDPUnavailableError(
            f"no response within {self._timeout}s; pipelined connection dropped"
        )
        self.fail(exc, cutoff=now - self._timeout)

    # -- reader task ---------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                header = await self._stream_reader.readexactly(
                    protocol.V2_HEADER_BYTES
                )
                length = protocol.v2_payload_length(header)
                payload = await self._stream_reader.readexactly(length)
                resolutions = self._core.receive(
                    protocol.decode_frame_v2(payload)
                )
                self.window.release()
                _resolve_futures(resolutions)
        except ProtocolError as exc:
            self.fail(
                PDPUnavailableError(f"protocol violation from server: {exc}")
            )
        except (OSError, ConnectionError, asyncio.IncompleteReadError) as exc:
            self.fail(PDPUnavailableError(f"PDP transport failure: {exc}"))

    # -- teardown ------------------------------------------------------
    def fail(self, exc: Exception, cutoff: float = -math.inf) -> None:
        """Settle the sent decides (and unsent ones submitted by
        ``cutoff``) with ``exc`` and abort; the rest stay queued."""
        if self.dead:
            return
        self.dead = True
        if self._timer is not None:
            self._timer.cancel()
        _resolve_futures(self._core.drop(exc, cutoff))
        # Wake a flush task parked on an exhausted in-flight window or
        # in drain(); it finds the connection dead and opens another.
        self.window.release()
        self._writer.transport.abort()


class AsyncRemotePDP(ClientCore):
    """The asyncio twin of :class:`RemotePDP`.

    Same wire protocol, retry discipline and pooling semantics, with
    coroutine methods (``await pdp.decide(request)``) for applications
    that live on an event loop; the control verbs return awaitables of
    the values documented on :class:`~repro.client._core.ClientCore`.
    ``protocol_version``/``batch_max``/``pipeline_window`` mirror
    :class:`RemotePDP`: in ``"auto"`` or ``"v2"`` mode decides ride one
    pipelined binary connection whose flush task coalesces concurrent
    callers into ``decide-batch`` frames, while control verbs stay on
    v1 pooled connections.  A decide that has waited ``timeout`` for
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
        protocol_version: str = "auto",
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
        self._queue = DecidePipeline(self._batch_max)
        self._pipe: _AsyncPipelinedV2 | None = None
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
            pipe.fail(closed)
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
        payload = protocol.encode_frame(
            protocol.request_frame(op, frame_id, **fields)
        )
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
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=op_timeout
                    )
                except (
                    OSError,
                    ConnectionError,
                    asyncio.TimeoutError,
                    asyncio.LimitOverrunError,
                    ValueError,
                ) as exc:
                    raise PDPUnavailableError(
                        f"PDP transport failure: {exc}"
                    ) from exc
                response = decode_response_line(line)
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
        """One v1 round trip under the shared retry rule (coroutine)."""
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
        attempt = 0
        while self._negotiated != 1:
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
            if answer is not _SPEAK_V1:
                return protocol.decision_from_wire_delta(answer, request)
        response = await self.request(  # never replayed once sent
            protocol.OP_DECIDE, retriable=False, **_decide_fields(wire, epoch)
        )
        return protocol.decision_from_wire(response.get("decision"))

    async def _flush(self) -> None:
        """Send the queue in order, (re)opening the connection first.

        When :meth:`retry_delay` gives up on connecting, the decides
        queued before the first failed attempt fail with its error.
        """
        # One event-loop tick lets concurrent decide() callers land in
        # the queue before the first frame is cut.
        await asyncio.sleep(0)
        queue = self._queue
        attempt = 0
        while queue.has_unsent:
            pipe = self._pipe
            if pipe is None or pipe.dead:
                if attempt == 0:
                    since = asyncio.get_running_loop().time()
                try:
                    pipe = await _AsyncPipelinedV2.open(self)
                except ProtocolError as exc:
                    refused = queue.drop(exc, math.inf)
                    with contextlib.suppress(ProtocolError):  # pinned to v2
                        self.v2_refused(exc)
                        refused = [(w, _SPEAK_V1, None) for w, _, _ in refused]
                    _resolve_futures(refused)
                    return
                except PDPUnavailableError as exc:
                    try:
                        delay = self.retry_delay(exc, attempt, retriable=False)
                    except PDPUnavailableError:
                        _resolve_futures(queue.drop(exc, since))
                        attempt = 0
                        continue
                    attempt += 1
                    await asyncio.sleep(delay)
                    continue
                attempt = 0
                self._negotiated = pipe.version
                self._pipe = pipe
            await pipe.window.acquire()
            if pipe.dead:  # fail() released the window
                continue
            payload, _, failed = queue.next_frame()
            if payload is None:
                pipe.window.release()
                _resolve_futures(failed)
            else:
                await pipe.send(payload)
