"""The socket-free core both remote-PDP clients are built on.

Everything a client must *decide* lives here exactly once: how a wire
error becomes a typed exception, when a failed attempt may be retried,
how concurrent decides queue, are cut into ``decide-batch`` frames,
resolved and failed when a connection dies or times out, which codec
every connection speaks, which fields and body shape each control verb
has, and that a closed client stays closed.  :mod:`repro.client.remote`
adds only IO — a blocking-socket shell (:class:`~repro.client.RemotePDP`)
and an asyncio shell (:class:`~repro.client.AsyncRemotePDP`) — so the
retry and failure discipline is proven on one implementation, not
copied to a twin.

Retry discipline — only provably idempotent work is retried (the one
rule is :meth:`ClientCore.retry_delay`):

* *connect* failures (typed :class:`~repro.errors.PDPConnectError`):
  nothing reached the server, so every operation — ``decide``
  included — is retried with jittered exponential backoff.
* *overload* rejections: the server sheds load **before** queueing, so
  the request never entered a shard; retried after the server's
  ``retry_after`` hint (plus jitter).
* ``healthz``/``metrics`` and the other control verbs: read-only or
  digest-idempotent; retried on any transport error.
* a ``decide`` that failed **after** the request was written is *not*
  retried — the server may have committed the grant to the retained
  ADI, and replaying it could double-record history.  The caller gets a
  typed :class:`~repro.errors.PDPUnavailableError` instead.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from repro.core.policy_epoch import PolicySwapReport, PolicyVersion
from repro.errors import (
    PDPConnectError,
    PDPFencedError,
    PDPNotPrimaryError,
    PDPOverloadedError,
    PDPUnavailableError,
    PolicyError,
    ProtocolError,
)
from repro.obs.recorder import NOOP, Recorder
from repro.server import protocol

_FRAME_COUNTER = itertools.count(1)


def next_frame_id() -> str:
    return f"c-{next(_FRAME_COUNTER):08d}"


# ---------------------------------------------------------------------------
# Wire responses → values and typed errors
# ---------------------------------------------------------------------------
def error_to_exception(error) -> Exception:
    """Map a wire error object to the typed exception it represents.

    Shared by whole-frame (v1 and v2) and per-entry (``decide-batch``)
    error handling, so a fenced or overloaded entry inside a batch
    raises exactly what the same failure raises on a v1 round trip.
    """
    if not isinstance(error, dict):
        return ProtocolError("response is neither ok nor a valid error frame")
    kind = error.get("kind")
    detail = str(error.get("detail", ""))
    if kind == protocol.ERR_OVERLOADED:
        retry_after = error.get("retry_after")
        return PDPOverloadedError(
            f"remote PDP overloaded: {detail}",
            retry_after=float(retry_after) if retry_after else 0.0,
        )
    if kind == protocol.ERR_PROTOCOL:
        return ProtocolError(f"remote PDP rejected the frame: {detail}")
    if kind == protocol.ERR_FENCED:
        return PDPFencedError(f"remote PDP fenced the request: {detail}")
    if kind == protocol.ERR_NOT_PRIMARY:
        return PDPNotPrimaryError(f"remote PDP is not primary: {detail}")
    if kind == protocol.ERR_POLICY:
        # A rejected policy-reload: caller error, never retried (and the
        # server's active policy is untouched).
        return PolicyError(f"remote PDP rejected the policy: {detail}")
    return PDPUnavailableError(f"remote PDP error ({kind}): {detail}")


def decode_response_line(line: bytes) -> dict:
    """One received v1 line as a frame; a short read is a transport loss."""
    if not line.endswith(b"\n"):
        raise PDPUnavailableError(
            "connection closed mid-response"
            if not line
            else "oversized or truncated response frame"
        )
    return protocol.decode_frame(line)


def check_response(frame: dict, frame_id: str) -> dict:
    """Validate a response envelope; raise the typed error it carries."""
    if frame.get("id") != frame_id:
        raise ProtocolError(
            f"response id {frame.get('id')!r} does not match request "
            f"id {frame_id!r} (connection used concurrently?)"
        )
    if frame.get("ok") is True:
        return frame
    raise error_to_exception(frame.get("error"))


def lost_connection(exc: Exception) -> PDPUnavailableError:
    """What a pipelined connection that died of ``exc`` fails its sent
    decides with."""
    if isinstance(exc, PDPUnavailableError):
        return exc
    if isinstance(exc, ProtocolError):
        return PDPUnavailableError(f"protocol violation from server: {exc}")
    return PDPUnavailableError(f"PDP transport failure: {exc}")


def no_response(timeout: float) -> PDPUnavailableError:
    """What a pipelined decide that waited ``timeout`` for its answer
    fails with, and drops its connection with."""
    return PDPUnavailableError(
        f"no response within {timeout}s; pipelined connection dropped"
    )


def policy_source_to_xml(policy) -> str:
    """Normalise a ``PolicySource`` to canonical wire XML.

    Accepts the same union as :func:`repro.api.open_pdp` (an
    :class:`MSoDPolicySet`, a path, or an XML string) and parses/
    validates it *locally* first, so a malformed source fails on the
    client without a round trip.
    """
    from repro.api import load_policy_source
    from repro.xmlpolicy import write_policy_set

    return write_policy_set(load_policy_source(policy), pretty=False)


def version_from_status_body(body) -> PolicyVersion:
    version = body.get("version") if isinstance(body, dict) else None
    try:
        return PolicyVersion.from_dict(version if isinstance(version, dict) else {})
    except PolicyError as exc:
        raise ProtocolError(f"invalid policy-status body: {exc}") from exc


def _report_from_reload_body(body) -> PolicySwapReport:
    try:
        return PolicySwapReport.from_dict(body if isinstance(body, dict) else {})
    except PolicyError as exc:
        raise ProtocolError(f"invalid policy-reload body: {exc}") from exc


def _body_or_empty(body):
    return {} if body is None else body


def _body_of_type(kind: type, what: str):
    def parse(body):
        if not isinstance(body, kind):
            raise ProtocolError(what)
        return body

    return parse


# ---------------------------------------------------------------------------
# The sans-IO decide pipeline
# ---------------------------------------------------------------------------
class DecidePipeline:
    """The state machine of pipelined protocol-v2 decides.

    No socket, thread, event or future in here: a shell submits an
    opaque *waiter* per decide with its submit time, asks for the next
    frame to write, feeds in every response frame it reads, and reports
    the transport's death; each call that settles decides returns their
    resolutions as ``(waiter, decision, error)`` triples for the shell
    to deliver.  The shell serialises calls (a lock, or one event loop).
    Frames are cut off the head of the queue, so they carry decides in
    submission order.

    The queue belongs to the client and outlives each connection.  The
    idempotent-only retry discipline maps onto queue position when a
    connection dies (:meth:`drop`): a decide in a frame that was
    **sent** fails with the transport's :class:`PDPUnavailableError`
    (the server may still evaluate and commit it — never replayed).
    One still **unsent** never reached the server: it stays queued, in
    call order, for the next connection, unless it was submitted by the
    drop's cutoff (it has waited out its deadline, or the connect
    retries gave up on it).

    A frame carries at most half the connection's outstanding decides
    (unsent plus in flight, rounded up), so a burst always leaves on at
    least two frames: the server decides one while the client consumes
    the answers to the other, instead of the two taking turns.
    """

    def __init__(self, batch_max: int) -> None:
        self._batch_max = batch_max
        self._unsent: deque[tuple[object, dict, int | None, float]] = deque()
        # frame id -> (its waiters, the first one's submit time)
        self._pending: dict[str, tuple[list, float]] = {}
        self.in_flight = 0

    @property
    def has_unsent(self) -> bool:
        return bool(self._unsent)

    def submit(
        self, waiter, request: dict, epoch: int | None, submitted: float
    ) -> None:
        """Queue one decide behind every earlier one."""
        self._unsent.append((waiter, request, epoch, submitted))

    def oldest(self) -> float | None:
        """When the oldest outstanding decide was submitted, if any."""
        for _, submitted in self._pending.values():
            return submitted
        return self._unsent[0][3] if self._unsent else None

    def next_frame(self) -> tuple[bytes | None, int, list]:
        """Cut the next ``decide-batch`` frame off the unsent queue.

        Batches group by fencing epoch and hold at most ``batch_max``
        requests and at most half the outstanding decides, rounded up.
        Returns ``(payload, batch size, [])`` with the batch now counted
        as **sent** and in flight — the shell must write the payload or
        call :meth:`drop` — or ``(None, 0, resolutions)`` when nothing
        is queued or the batch could not be encoded.
        """
        unsent = self._unsent
        if not unsent:
            return None, 0, []
        size = min(self._batch_max, (len(unsent) + self.in_flight + 1) // 2)
        _, _, epoch, submitted = unsent[0]
        waiters = []
        requests = []
        while unsent and len(waiters) < size and unsent[0][2] == epoch:
            waiter, request, _, _ = unsent.popleft()
            waiters.append(waiter)
            requests.append(request)
        frame_id = next_frame_id()
        frame: dict = {
            "op": protocol.OP_DECIDE_BATCH,
            "id": frame_id,
            "requests": requests,
        }
        if epoch is not None:
            frame["epoch"] = epoch
        try:
            payload = protocol.encode_frame_v2(frame)
        except ProtocolError as exc:
            # Unencodable request: fail this batch, keep the wire.
            return None, 0, [(waiter, None, exc) for waiter in waiters]
        self._pending[frame_id] = (waiters, submitted)
        self.in_flight += len(waiters)
        return payload, len(waiters), []

    def receive(self, frame: dict) -> list:
        """Resolutions for one response frame, matched by frame id.

        Raises :class:`ProtocolError` for a frame nobody asked for or a
        result list of the wrong length; the batch then stays pending,
        so the :meth:`drop` that must follow still reaches its waiters.
        """
        frame_id = frame.get("id")
        pending = self._pending.get(frame_id)
        if pending is None:
            raise ProtocolError(f"unsolicited response id {frame_id!r}")
        waiters = pending[0]
        if frame.get("ok") is not True:
            # Whole-frame error (e.g. shutting-down): same typed mapping
            # a v1 round trip would get.
            error = error_to_exception(frame.get("error"))
            resolutions = [(waiter, None, error) for waiter in waiters]
        else:
            entries = protocol.batch_result_entries(frame, expected=len(waiters))
            resolutions = [
                (waiter, entry.get("decision"), None)
                if entry.get("ok") is True
                else (waiter, None, error_to_exception(entry.get("error")))
                for waiter, entry in zip(waiters, entries)
            ]
        del self._pending[frame_id]
        self.in_flight -= len(waiters)
        return resolutions

    def drop(self, exc: Exception, cutoff: float) -> list:
        """Settle every sent decide, and each unsent one submitted at or
        before ``cutoff``, with ``exc``; later unsent decides stay queued."""
        dropped = [waiter for sent, _ in self._pending.values() for waiter in sent]
        self._pending.clear()
        self.in_flight = 0
        unsent = self._unsent
        while unsent and unsent[0][3] <= cutoff:
            dropped.append(unsent.popleft()[0])
        return [(waiter, None, exc) for waiter in dropped]


# ---------------------------------------------------------------------------
# What both clients are, minus the IO
# ---------------------------------------------------------------------------
class ClientCore:
    """Configuration, retry rule, lifecycle, decide queue and control
    verbs of a client.

    A shell subclass supplies ``_init_io()`` (its pool and IO state),
    ``request(op, retriable=..., op_timeout=..., **fields)`` — one
    control round trip under :meth:`retry_delay`, answering with the
    response frame — and ``_then(answer, parse)``, which applies
    ``parse`` to that answer.  :class:`RemotePDP` answers with values;
    :class:`AsyncRemotePDP` answers with awaitables, so there every
    verb below returns an awaitable of the documented value.  Its send
    loop reports each (re)open of the pipelined connection to
    :meth:`opened` or :meth:`open_failed`.

    ``protocol_version`` fixes the codec of every connection the client
    opens, pooled and pipelined alike: ``"v2"`` frames each request
    with :func:`~repro.server.protocol.encode_frame_v2` and sends
    decides pipelined as ``decide-batch`` frames; ``"v1"`` writes JSON
    lines and sends each decide as its own round trip.
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
        perf: Recorder | None = None,
        protocol_version: str = "v2",
        batch_max: int = 32,
        pipeline_window: int = 8,
    ) -> None:
        if protocol_version not in ("v1", "v2"):
            raise ValueError(
                f"protocol_version must be 'v1' or 'v2', got {protocol_version!r}"
            )
        if not 1 <= batch_max <= protocol.MAX_WIRE_BATCH:
            raise ValueError(
                f"batch_max must be in 1..{protocol.MAX_WIRE_BATCH}, "
                f"got {batch_max!r}"
            )
        if pipeline_window < 1:
            raise ValueError(f"pipeline_window must be >= 1, got {pipeline_window!r}")
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size!r}")
        if not 1 <= port <= 65535:
            raise ValueError(f"port must be in 1..65535, got {port!r}")
        for name, value in (("timeout", timeout), ("health_timeout", health_timeout)):
            if value is not None and not value > 0:  # rejects nan too
                raise ValueError(f"{name} must be positive, got {value!r}")
        self._host = host
        self._port = port
        self._pool_size = pool_size
        self._timeout = timeout
        self._health_timeout = (
            health_timeout if health_timeout is not None else timeout
        )
        self._max_retries = max_retries
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._rng = rng if rng is not None else random.Random()
        self._perf = perf if perf is not None else NOOP
        self._v2 = protocol_version == "v2"
        # How a control frame goes on the wire, and how its answer (a
        # v2 payload, or a v1 line) comes off it.
        self._encode, self._decode = (
            (protocol.encode_frame_v2, protocol.decode_frame_v2)
            if self._v2
            else (protocol.encode_frame, decode_response_line)
        )
        self._batch_max = batch_max
        self._pipeline_window = pipeline_window
        self._closed = False
        # The v2 decides of every caller, and the shell's pipelined
        # connection that sends them, with its connect attempts so far.
        self._queue = DecidePipeline(batch_max)
        self._pipe = None
        self._attempt = 0
        self._since = 0.0
        self._init_io()

    def check_open(self) -> None:
        """Refuse use after ``close()``.

        Shells call this before every attempt, *outside* the retried
        region: a closed client must not quietly reconnect (its fresh
        pipelined connection would never be closed again).
        """
        if self._closed:
            raise PDPUnavailableError("remote PDP client is closed")

    def retry_delay(
        self, exc: PDPUnavailableError, attempt: int, retriable: bool
    ) -> float:
        """Seconds to wait before retrying after ``exc`` — or re-raise it.

        The one retry rule (module docstring): overload and connect
        failures never reached a shard, so they are retried for every
        operation; any other transport failure is ambiguous and only a
        ``retriable`` (idempotent) operation tries again.  Full-jitter
        exponential backoff, floored at the server's ``retry_after``.
        """
        perf = self._perf
        floor = 0.0
        if isinstance(exc, PDPOverloadedError):
            # Shed *before* queueing: always safe to retry.
            perf.incr("client.overload_rejections")
            floor = exc.retry_after
        else:
            perf.incr("client.transport_failures")
            # Not a connect failure: sent but unanswered.
            if not retriable and not isinstance(exc, PDPConnectError):
                raise exc
        if attempt >= self._max_retries:
            raise exc
        perf.incr("client.retries")
        ceiling = min(self._backoff_cap, self._backoff_base * (2**attempt))
        return floor + self._rng.uniform(0.0, ceiling)

    def opened(self, pipe) -> None:
        """Send the queue over ``pipe``, a newly opened connection."""
        self._attempt = 0
        self._pipe = pipe

    def open_failed(self, exc: PDPUnavailableError, started: float) -> tuple:
        """``(back-off, resolutions)`` after an open begun at ``started``
        failed with ``exc``.

        The open is retried under :meth:`retry_delay`; once that gives
        up, the decides queued before the first failed attempt fail
        with ``exc`` and the next attempt starts a new budget.
        """
        if self._attempt == 0:
            self._since = started
        try:
            delay = self.retry_delay(exc, self._attempt, retriable=False)
        except PDPUnavailableError:
            self._attempt = 0
            return 0.0, self._queue.drop(exc, self._since)
        self._attempt += 1
        return delay, []

    def _decide_v1(self, wire: dict, epoch: int | None):
        """One decide as a v1 round trip, never replayed once sent."""
        fields = {"request": wire}
        if epoch is not None:
            fields["epoch"] = epoch
        return self._then(
            self.request(protocol.OP_DECIDE, retriable=False, **fields),
            lambda answer: protocol.decision_from_wire(answer.get("decision")),
        )

    # -- control verbs -------------------------------------------------
    def _verb(
        self,
        op: str,
        parse=_body_or_empty,
        op_timeout: float | None = None,
        **fields,
    ):
        return self._then(
            self.request(op, retriable=True, op_timeout=op_timeout, **fields),
            lambda response: parse(response.get("body")),
        )

    def healthz(self) -> dict:
        """The server's health snapshot (status + per-shard backlog).

        Uses the dedicated ``health_timeout`` (connect and read), so a
        probe against a hung node fails fast even when the decide
        timeout is generous.
        """
        return self._verb(protocol.OP_HEALTHZ, op_timeout=self._health_timeout)

    def metrics(self) -> dict:
        """The server's metrics snapshot (perf counters + shard stats)."""
        return self._verb(protocol.OP_METRICS)

    def metrics_text(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return self._verb(
            protocol.OP_METRICS,
            _body_of_type(str, "prometheus metrics body must be a string"),
            format=protocol.METRICS_FORMAT_PROMETHEUS,
        )

    def slowlog(self) -> dict:
        """The server's slowest-decision traces (requires server tracing)."""
        return self._verb(protocol.OP_SLOWLOG)

    def policy_status(self) -> dict:
        """The ``policy-status`` body: active version + reload count."""
        return self._verb(protocol.OP_POLICY_STATUS)

    def policy_version(self) -> PolicyVersion:
        """The policy version the server currently decides under."""
        return self._verb(protocol.OP_POLICY_STATUS, version_from_status_body)

    def reload_policy(
        self,
        policy,
        *,
        verify: bool = False,
        max_flips: int = 0,
        force: bool = False,
        principal: str | None = None,
    ) -> PolicySwapReport:
        """Atomically swap the server's policy set (zero downtime).

        Same ``PolicySource`` union and semantics as
        :meth:`repro.api.LocalPDP.reload_policy`: the source is parsed
        and validated locally, shipped as canonical XML, and swapped in
        by the server between micro-batches.  Safe to retry — reloading
        an identical set is a digest no-op on the server — and a
        server-side rejection raises
        :class:`~repro.errors.PolicyError`, leaving the active policy
        untouched.

        ``verify=True`` runs the server-side verification gate first
        (static analysis plus, when the server records an audit trail,
        the differential what-if replay): error findings or more than
        ``max_flips`` flipped decisions refuse the swap; ``force=True``
        overrides the gate.

        ``principal`` names the acting operator; when the server's
        outgoing policy set carries admin-boundary constraints over the
        policy store, a principal with retained operational decisions
        is refused (``force`` does not override the boundary).
        """
        extra = {} if principal is None else {"principal": principal}
        return self._verb(
            protocol.OP_POLICY_RELOAD,
            _report_from_reload_body,
            policy_xml=policy_source_to_xml(policy),
            verify=verify,
            max_flips=max_flips,
            force=force,
            **extra,
        )

    def verify_policy(self, policy) -> dict:
        """Server-side static verification of a candidate set.

        Returns the structured :class:`~repro.verify.static.VerifyReport`
        body (``{"ok", "counts", "findings"}``) without swapping
        anything.
        """
        return self._verb(
            protocol.OP_VERIFY,
            _body_of_type(dict, "verify body must be an object"),
            policy_xml=policy_source_to_xml(policy),
        )

    def what_if(self, policy) -> dict:
        """Differentially replay the server's audit trail under a candidate.

        Returns the :class:`~repro.verify.whatif.WhatIfReport` body.
        Raises :class:`~repro.errors.PolicyError` when the server holds
        no recorded trail.
        """
        return self._verb(
            protocol.OP_WHATIF,
            _body_of_type(dict, "whatif body must be an object"),
            policy_xml=policy_source_to_xml(policy),
        )
