"""A tamper-evident secure audit trail (paper Section 5.2, reference [5]).

The paper logs every PDP request/response in "a cryptographically
protected log of events in stable storage" (a PKI-based secure audit web
service).  We reproduce its tamper-evidence with stdlib primitives:

* each trail is an append-only JSONL file;
* record *i* carries ``hash_i = SHA-256(hash_{i-1} || canonical payload)``
  (a hash chain, so any modification, insertion, deletion or reordering
  breaks verification from that point on);
* each record additionally carries ``tag_i = HMAC-SHA256(key, hash_i)``,
  standing in for the per-record digital signature of the PKI service —
  an attacker without the trail key cannot re-seal a forged chain.

The substitution (HMAC for PKI signatures) preserves the property the
MSoD implementation relies on: recovered retained ADI comes from a log
that cannot be silently altered.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import warnings
import weakref
from dataclasses import dataclass
from typing import Generator, Iterator

from repro.errors import AuditTrailError

GENESIS_HASH = "0" * 64

#: Event types written by the PERMIS PDP.
EVENT_DECISION = "decision"
EVENT_PURGE = "purge"
EVENT_ADMIN = "admin"


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _chain_hash(prev_hash: str, payload: dict) -> str:
    digest = hashlib.sha256()
    digest.update(prev_hash.encode())
    digest.update(_canonical(payload))
    return digest.hexdigest()


def _seal(key: bytes, record_hash: str) -> str:
    return hmac.new(key, record_hash.encode(), hashlib.sha256).hexdigest()


@dataclass(frozen=True, slots=True)
class AuditEvent:
    """One verified event read back from a trail."""

    seq: int
    timestamp: float
    event_type: str
    payload: dict


@dataclass(slots=True)
class _SegmentCursor:
    """Where a verifying read of one segment stands: the byte just past
    the last verified record, and the chain tip there.  ``torn`` is set
    when the last read stopped at an unparsable final line, not at EOF.
    """

    offset: int = 0
    prev_hash: str = GENESIS_HASH
    seq: int = 0
    torn: bool = False


def _read_segment(
    path: str, key: bytes, cursor: _SegmentCursor
) -> Iterator[AuditEvent]:
    """The one verifier: yield the sealed events that follow ``cursor``.

    Checks every record of a ``readlines()`` snapshot taken from
    ``cursor.offset`` — sequence number, hash-chain link, HMAC seal —
    against the cursor's chain tip, advancing the cursor *before* each
    yield so a consumer that stops early leaves it exactly past the
    last event it received.  The first failed check raises
    :class:`~repro.errors.AuditTrailError`, and so does an unparsable
    complete line with lines after it: only a line the read ended in can
    be an append in flight or one torn by a crash.  There the read stops
    without advancing and sets ``cursor.torn``; what that means is the
    caller's stopping rule.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(cursor.offset)
            raw_lines = handle.readlines()
    except OSError as exc:
        raise AuditTrailError(f"cannot read {path!r}: {exc}") from exc
    cursor.torn = False
    offset = cursor.offset
    for index, raw in enumerate(raw_lines, start=1):
        offset += len(raw)
        if raw.isspace():
            cursor.offset = offset
            continue
        record = None
        if raw.endswith(b"\n"):
            try:
                record = json.loads(raw)
            except ValueError:  # undecodable bytes or malformed JSON
                pass
        if not isinstance(record, dict):
            # A line without its newline is where the read met end of
            # file.  Lines after it mean the file grew meanwhile: the
            # read went on past an append in flight, so this is a torn
            # tail too, not corruption.
            if index == len(raw_lines) or not raw.endswith(b"\n"):
                cursor.torn = True
                return
            raise AuditTrailError(
                f"{path}: corrupt JSON at byte {cursor.offset}, where "
                f"seq {cursor.seq} belongs, with records after it"
            )
        body = {
            "seq": record.get("seq"),
            "ts": record.get("ts"),
            "type": record.get("type"),
            "payload": record.get("payload"),
        }
        if body["seq"] != cursor.seq:
            raise AuditTrailError(
                f"{path}: sequence break at byte {cursor.offset} "
                f"(expected {cursor.seq}, got {body['seq']})"
            )
        record_hash = _chain_hash(cursor.prev_hash, body)
        if record.get("hash") != record_hash:
            raise AuditTrailError(
                f"{path}: hash chain broken at seq {cursor.seq}"
            )
        if not hmac.compare_digest(
            record.get("tag", ""), _seal(key, record_hash)
        ):
            raise AuditTrailError(
                f"{path}: HMAC seal invalid at seq {cursor.seq}"
            )
        cursor.offset = offset
        cursor.prev_hash = record_hash
        cursor.seq += 1
        yield AuditEvent(
            seq=body["seq"],
            timestamp=body["ts"],
            event_type=body["type"],
            payload=body["payload"],
        )


def _segment_paths(directory: str) -> list[str]:
    """A lineage's segment files, oldest first (lexicographic index order)."""
    try:
        names = sorted(
            name
            for name in os.listdir(directory)
            if name.startswith("audit-") and name.endswith(".log")
        )
    except FileNotFoundError:
        return []
    return [os.path.join(directory, name) for name in names]


def _checkpoint_tag(key: bytes, count: int, last_hash: str) -> str:
    return _seal(key, f"{count}|{last_hash}")


def _read_checkpoint(path: str, key: bytes) -> dict | None:
    """``path``'s sealed sidecar; ``None`` when missing or still empty.

    The writer overwrites it in place, so a concurrent read can mix two
    checkpoints: a read that fails to parse or verify is retried, and
    only two identical bad reads in a row are tampering.
    """
    previous = None
    while True:
        try:
            with open(path + ".chk", "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise AuditTrailError(f"{path}: unreadable checkpoint: {exc}") from exc
        if not raw:
            return None
        try:
            checkpoint = json.loads(raw)
            expected_tag = _checkpoint_tag(
                key, checkpoint.get("count", -1), checkpoint.get("last_hash", "")
            )
            if hmac.compare_digest(checkpoint.get("tag", ""), expected_tag):
                return checkpoint
            failure = "checkpoint seal invalid"
        except (ValueError, AttributeError, TypeError) as exc:  # no object
            failure = f"unreadable checkpoint: {exc}"
        if raw == previous:
            raise AuditTrailError(f"{path}: {failure}")
        previous = raw


def _verify_checkpoint(
    path: str, key: bytes, count: int, last_hash: str
) -> None:
    """Detect truncation (or checkpoint tampering) after a replay."""
    checkpoint = _read_checkpoint(path, key)
    if checkpoint is None:
        if count == 1:
            # The `count == checkpoint + 1` window below, before the
            # very first checkpoint write: accept the sealed record.
            warnings.warn(
                f"{path}: no checkpoint yet for a one-record "
                "trail (crash or in-flight first append); accepting "
                "the sealed record",
                stacklevel=2,
            )
            return
        if count:
            raise AuditTrailError(
                f"{path}: checkpoint file missing for a non-empty "
                "trail (possible truncation)"
            )
        return
    if count == checkpoint["count"] + 1:
        # One verified record beyond the checkpoint: the appender crashed
        # (or is mid-append) between writing the record and rewriting the
        # sidecar.  The record's own seal verified: accept and warn.
        warnings.warn(
            f"{path}: trail is one record ahead of its checkpoint "
            "(crash or in-flight append); accepting the sealed record",
            stacklevel=2,
        )
        return
    if checkpoint["count"] != count or checkpoint["last_hash"] != last_hash:
        raise AuditTrailError(
            f"{path}: trail does not match its checkpoint "
            f"(expected {checkpoint['count']} records, found {count}; "
            "possible truncation)"
        )


def _read_strict(
    path: str, key: bytes
) -> Generator[AuditEvent, None, _SegmentCursor]:
    """:func:`_read_segment` from the genesis position under the strict
    stopping rule; returns the final cursor (a writer's chain tip)."""
    cursor = _SegmentCursor()
    if os.path.exists(path):
        yield from _read_segment(path, key, cursor)
    if cursor.torn:
        # The appender died (or is still writing) mid-line.  Every
        # *sealed* record before it is intact, so recover those
        # instead of refusing the whole trail.
        warnings.warn(
            f"{path}: skipping torn final line (crash mid-append)",
            stacklevel=2,
        )
    _verify_checkpoint(path, key, cursor.seq, cursor.prev_hash)
    return cursor


_CREATE = os.O_WRONLY | os.O_CREAT


def _close_descriptors(fds: list[int]) -> None:
    while fds:
        os.close(fds.pop())


class SecureAuditTrail:
    """One append-only, hash-chained, HMAC-sealed trail file.

    Reads are :func:`_read_segment` — the verifier shared with
    :class:`TrailFollower` — under the *strict* stopping rule, which is
    for a trail nobody is appending to (recovery at open, a writer's
    re-open, an integrity audit): replay the whole file from the
    genesis hash, then judge it as a whole.  A trail a writer may still
    extend is read by a :class:`TrailFollower` instead.  A
    hash chain alone cannot detect *truncation* (a shorter chain is
    still consistent), so each append also rewrites a sealed checkpoint
    sidecar (``<path>.chk``) holding the record count and chain tip,
    and a strict read compares the replayed chain against it.

    The first append opens the segment (``O_APPEND``, unbuffered) and
    the sidecar; both descriptors are held until :meth:`close` (or a
    finalizer, for an owner that drops the trail).  An append is one
    ``write`` of the record, then one overwrite of the sidecar at
    offset 0 — in place because the sidecar is smaller than a device
    sector and only grows, so a crash leaves the old bytes or the new
    and an overlapping reader re-reads (:func:`_read_checkpoint`).

    A crash (or a failed write) mid-append leaves a *torn* final line or
    a complete record whose checkpoint rewrite never happened.  Neither
    is tampering: the torn tail is skipped with a warning (the next
    ``append`` truncates it away) and a trail exactly one record ahead
    of its checkpoint is accepted.  Anything else — an unparsable line
    *before* the tail, a chain break, a bad seal, a trail behind its
    checkpoint — raises.  Opening an existing file verifies it, so a
    writer fails at boot, not at its first append, on a tampered trail.

    ``fsync=True`` fsyncs the record, then the checkpoint, before
    ``append`` returns; the cluster's log-shipping replication relies
    on this so an acknowledged decision survives primary death.
    """

    def __init__(self, path: str, key: bytes, *, fsync: bool = False) -> None:
        if not key:
            raise AuditTrailError("audit trail key must be non-empty")
        self._path = path
        self._key = key
        self._fsync = fsync
        # The chain tip appends continue from: the cursor a strict read
        # of the file ends at (``torn``: a tail to truncate first).
        self._tip = _SegmentCursor()
        # [segment, sidecar] descriptors, once the first append opened them.
        self._fds: list[int] = []
        weakref.finalize(self, _close_descriptors, self._fds)
        if os.path.exists(path):
            self.verify()

    @property
    def path(self) -> str:
        return self._path

    @property
    def record_count(self) -> int:
        return self._tip.seq

    @property
    def byte_size(self) -> int:
        """Bytes occupied by the verified records (torn tail excluded)."""
        return self._tip.offset

    def close(self) -> None:
        """Release the held descriptors; a later append re-opens them."""
        _close_descriptors(self._fds)

    # ------------------------------------------------------------------
    def append(self, event_type: str, timestamp: float, payload: dict) -> int:
        """Append one event; returns its sequence number."""
        tip, fds = self._tip, self._fds
        body = {
            "seq": tip.seq,
            "ts": timestamp,
            "type": event_type,
            "payload": payload,
        }
        record_hash = _chain_hash(tip.prev_hash, body)
        line = dict(body, hash=record_hash, tag=_seal(self._key, record_hash))
        data = (json.dumps(line, sort_keys=True) + "\n").encode("utf-8")
        try:
            if not fds:
                fds.append(os.open(self._path, _CREATE | os.O_APPEND, 0o666))
            if tip.torn:
                # Cut a torn tail (a crash's, or what a failed write below
                # left) so a partial line never precedes a valid record.
                os.ftruncate(fds[0], tip.offset)
            tip.torn = True
            if os.write(fds[0], data) != len(data):
                raise OSError("short write")
            tip.torn = False
            tip.prev_hash = record_hash
            tip.seq += 1
            tip.offset += len(data)
            if self._fsync:
                os.fsync(fds[0])
            # Sealed in place, no rename: the class docstring says why.
            checkpoint = {
                "count": tip.seq,
                "last_hash": record_hash,
                "tag": _checkpoint_tag(self._key, tip.seq, record_hash),
            }
            data = json.dumps(checkpoint).encode("utf-8")
            if len(fds) < 2:
                fds.append(os.open(self._path + ".chk", _CREATE, 0o666))
            if os.pwrite(fds[1], data, 0) != len(data):
                raise OSError("short checkpoint write")
            if self._fsync:
                os.fsync(fds[1])
        except OSError as exc:
            raise AuditTrailError(f"cannot append to {self._path!r}: {exc}") from exc
        return body["seq"]

    # ------------------------------------------------------------------
    def verify_and_read(self) -> Iterator[AuditEvent]:
        """Yield every event, verified, under the strict stopping rule.

        Consumed to the end, it also updates the in-memory chain tip so
        :meth:`append` continues the chain (and repairs a torn tail).
        """
        self._tip = yield from _read_strict(self._path, self._key)

    def verify(self) -> int:
        """Verify the whole trail; return the number of valid records."""
        return sum(1 for _ in self.verify_and_read())


class TrailFollower:
    """Resumable live reader over a rotated trail lineage.

    Every reader of a trail a writer may still extend reads through
    :meth:`poll`: standby catch-up, reshard import, the failover seal
    count, the canary window and every what-if replay.  It is the same
    verifier as :class:`SecureAuditTrail` (:func:`_read_segment`) under
    the *live* stopping rule: reading resumes from a stored position
    instead of the genesis hash, and an unparsable **final** line — the
    writer is mid-append, or crashed and will truncate it on its next
    append — ends the poll at the last verified record without
    advancing; the next poll retries it.  An
    unparsable line with records after it is corruption and raises like
    any chain or seal failure, so a catch-up or reshard loop counts and
    logs the damage instead of lagging behind it forever.

    The position — ``(segment, byte offset, chain tip, seq)`` — is
    serialisable, so a restarted (or different) process resumes exactly
    where the last poll stopped, and a poll costs the **new tail**, not
    the lineage's history.  A standby follows its primary this way, and
    a reshard target a source lineage.

    Rotation seals segments — the manager only ever appends to the
    newest file — so a segment read to its end is advanced past once a
    newer one exists (each restarts its chain at the genesis hash).
    The checkpoint sidecar is *not* consulted — the writer rewrites it
    after each record, so a live read cannot pair the two — and a live
    read cannot tell a crash from an append in flight, so it never
    warns: truncation detection and the crash warnings remain the strict
    readers' (a writer's re-open, recovery, ``verify_all``).
    """

    def __init__(
        self, directory: str, key: bytes, *, position: dict | None = None
    ) -> None:
        if not key:
            raise AuditTrailError("audit trail key must be non-empty")
        self._directory = directory
        self._key = key
        self._segment = 0
        self._cursor = _SegmentCursor()
        if position:
            self._segment = int(position["segment"])
            self._cursor = _SegmentCursor(
                int(position["offset"]),
                str(position["hash"]),
                int(position["seq"]),
            )

    def position(self) -> dict:
        """The resume point: serialise, persist, pass back as ``position``."""
        return {
            "segment": self._segment,
            "offset": self._cursor.offset,
            "hash": self._cursor.prev_hash,
            "seq": self._cursor.seq,
        }

    def poll(self) -> Iterator[AuditEvent]:
        """Yield the events appended since the last poll, verified."""
        while True:
            paths = _segment_paths(self._directory)
            if self._segment >= len(paths):
                return
            yield from self._poll_segment(paths[self._segment])
            # Advance only when a re-listed directory shows a newer
            # segment — and then only after one more poll of ours: the
            # writer may have appended to it *and* rotated between our
            # read and the re-listing.  Once a newer segment exists,
            # ours is sealed, so that final poll drains it completely.
            paths = _segment_paths(self._directory)
            if self._segment >= len(paths) - 1:
                return
            yield from self._poll_segment(paths[self._segment])
            self._segment += 1
            self._cursor = _SegmentCursor()

    def _poll_segment(self, path: str) -> Iterator[AuditEvent]:
        return _read_segment(path, self._key, self._cursor)


class AuditTrailManager:
    """A directory of rotated trails, as processed at PDP start-up.

    Section 5.2: "the PDP ... processes the last *n* audit trails
    starting from time *t* (where *t* and *n* are administrative
    parameters)".  The manager rotates the active trail after
    ``max_records`` events — or, when ``max_bytes`` is set, once the
    active trail file reaches that many bytes, whichever comes first
    (bounded files keep follower catch-up and recovery replay O(file),
    whatever the per-event payload size).  ``fsync=True`` makes every
    append durable before it is acknowledged.  Opening a directory
    verifies its *active* segment; :meth:`events` and
    :meth:`verify_all` read and verify each segment exactly once.
    Rotation closes the sealed segment's descriptors; whoever constructs
    a manager it appends through closes it (:meth:`close`, or ``with``).

    Its reads use the strict rule, so they are for a directory nobody
    else is appending to: recovery at start-up, the writer itself, and
    an integrity audit.  A directory another writer is extending is
    read by a :class:`TrailFollower` over :attr:`directory`.
    """

    def __init__(
        self,
        directory: str,
        key: bytes,
        max_records: int = 10_000,
        *,
        max_bytes: int | None = None,
        fsync: bool = False,
    ) -> None:
        if max_records < 1:
            raise AuditTrailError("max_records must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise AuditTrailError("max_bytes must be >= 1 (or None)")
        os.makedirs(directory, exist_ok=True)
        self._directory = directory
        self._key = key
        self._max_records = max_records
        self._max_bytes = max_bytes
        self._fsync = fsync
        self._active: SecureAuditTrail | None = None
        existing = self.trail_paths()
        if existing:
            self._active = SecureAuditTrail(existing[-1], key, fsync=fsync)

    @property
    def directory(self) -> str:
        return self._directory

    def trail_paths(self) -> list[str]:
        """All trail files, oldest first (lexicographic index order)."""
        return _segment_paths(self._directory)

    def _new_trail(self) -> SecureAuditTrail:
        index = len(self.trail_paths())
        path = os.path.join(self._directory, f"audit-{index:06d}.log")
        return SecureAuditTrail(path, self._key, fsync=self._fsync)

    def _active_is_full(self) -> bool:
        active = self._active
        if active is None:
            return True
        if active.record_count >= self._max_records:
            return True
        return (
            self._max_bytes is not None
            and active.record_count > 0
            and active.byte_size >= self._max_bytes
        )

    def append(self, event_type: str, timestamp: float, payload: dict) -> None:
        """Append to the active trail, rotating when it is full."""
        if self._active_is_full():
            self.close()  # the segment this rotation seals
            self._active = self._new_trail()
        self._active.append(event_type, timestamp, payload)

    def tip(self) -> dict | None:
        """The :class:`TrailFollower` position just past the last append.

        A follower started there reads only what is appended later.
        The caller serialises this with its own appends; ``None`` (a
        follower's start) when nothing was ever appended.
        """
        active = self._active
        if active is None:
            return None
        cursor = active._tip
        return {
            "segment": len(self.trail_paths()) - 1,
            "offset": cursor.offset,
            "hash": cursor.prev_hash,
            "seq": cursor.seq,
        }

    def close(self) -> None:
        """Release the active segment's descriptors (appends re-open)."""
        if self._active is not None:
            self._active.close()

    def __enter__(self) -> "AuditTrailManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def verify_all(self) -> int:
        """Verify every trail in the directory; return total records.

        Raises :class:`~repro.errors.AuditTrailError` at the first trail
        that fails its hash chain, seals or checkpoint.
        """
        return sum(
            1
            for path in self.trail_paths()
            for _ in _read_strict(path, self._key)
        )

    def events(
        self, last_n_trails: int | None = None, since: float = 0.0
    ) -> Iterator[AuditEvent]:
        """Verified events from the last *n* trails, from time *t* on."""
        paths = self.trail_paths()
        if last_n_trails is not None:
            if last_n_trails < 0:
                raise ValueError(
                    f"last_n_trails must be >= 0, got {last_n_trails!r}"
                )
            paths = paths[-last_n_trails:] if last_n_trails else []
        return (
            event
            for path in paths
            for event in _read_strict(path, self._key)
            if event.timestamp >= since
        )
