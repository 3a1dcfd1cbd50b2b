"""Unit tests for the secure audit trail and ADI recovery (Section 5.2)."""

import builtins
import io
import json
import os
import signal
import subprocess
import sys
import threading
import warnings

import pytest

import repro.audit.trail as trail_module
from repro.audit import (
    AuditTrailManager,
    EVENT_DECISION,
    SecureAuditTrail,
    decision_event_payload,
    recover_retained_adi,
)
from repro.audit.trail import TrailFollower
from repro.core import (
    ContextName,
    DecisionRequest,
    InMemoryRetainedADIStore,
    MSoDEngine,
    Role,
    store_digest,
)
from repro.errors import AuditTrailError
from repro.xmlpolicy import bank_policy_set

KEY = b"trail-key"
TELLER = Role("employee", "Teller")
AUDITOR = Role("employee", "Auditor")


def trail(tmp_path, name="audit-000000.log"):
    # Named like a manager's first segment so a TrailFollower over
    # ``tmp_path`` reads the same file.
    return SecureAuditTrail(str(tmp_path / name), KEY)


def strict_count(path, key=KEY):
    return SecureAuditTrail(path, key).verify()


def read_strict_count(path, key=KEY):
    """One strict read — ``strict_count`` makes two (open, then verify)."""
    return sum(1 for _ in trail_module._read_strict(path, key))


def follower_count(path, key=KEY):
    return len(list(TrailFollower(os.path.dirname(path), key).poll()))


#: The two faces of the one verifier.  Tamper cases that do not depend
#: on the checkpoint sidecar must fail under both; truncation cases stay
#: strict-only (a follower does not consult the sidecar).
READERS = (strict_count, follower_count)


class TestSecureAuditTrail:
    def test_append_and_read(self, tmp_path):
        t = trail(tmp_path)
        t.append("decision", 1.0, {"n": 1})
        t.append("decision", 2.0, {"n": 2})
        events = list(t.verify_and_read())
        assert [e.payload["n"] for e in events] == [1, 2]
        assert [e.seq for e in events] == [0, 1]

    def test_empty_key_rejected(self, tmp_path):
        with pytest.raises(AuditTrailError):
            SecureAuditTrail(str(tmp_path / "x.log"), b"")

    def test_verify_counts(self, tmp_path):
        t = trail(tmp_path)
        for n in range(5):
            t.append("e", float(n), {})
        assert t.verify() == 5

    def test_reopen_continues_chain(self, tmp_path):
        path = str(tmp_path / "t.log")
        first = SecureAuditTrail(path, KEY)
        first.append("e", 1.0, {"n": 1})
        second = SecureAuditTrail(path, KEY)
        second.append("e", 2.0, {"n": 2})
        assert SecureAuditTrail(path, KEY).verify() == 2

    def test_modified_payload_detected(self, tmp_path):
        t = trail(tmp_path)
        t.append("e", 1.0, {"user": "alice"})
        path = t.path
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text.replace("alice", "mallory"))
        for count in READERS:
            with pytest.raises(AuditTrailError, match="hash chain"):
                count(path)

    def test_deleted_record_detected(self, tmp_path):
        t = trail(tmp_path)
        for n in range(3):
            t.append("e", float(n), {"n": n})
        with open(t.path) as handle:
            lines = handle.readlines()
        with open(t.path, "w") as handle:
            handle.writelines(lines[:1] + lines[2:])  # drop the middle
        for count in READERS:
            with pytest.raises(AuditTrailError, match="sequence break"):
                count(t.path)

    def test_reordered_records_detected(self, tmp_path):
        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        t.append("e", 2.0, {"n": 2})
        with open(t.path) as handle:
            lines = handle.readlines()
        with open(t.path, "w") as handle:
            handle.writelines(reversed(lines))
        for count in READERS:
            with pytest.raises(AuditTrailError, match="sequence break"):
                count(t.path)

    def test_forged_reseal_without_key_detected(self, tmp_path):
        """Re-computing the hash chain without the key fails the HMAC."""
        import hashlib

        t = trail(tmp_path)
        t.append("e", 1.0, {"user": "alice"})
        with open(t.path) as handle:
            record = json.loads(handle.read())
        body = {
            "seq": record["seq"],
            "ts": record["ts"],
            "type": record["type"],
            "payload": {"user": "mallory"},
        }
        digest = hashlib.sha256()
        digest.update(("0" * 64).encode())
        digest.update(
            json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        )
        record.update(body, hash=digest.hexdigest())
        with open(t.path, "w") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        for count in READERS:
            with pytest.raises(AuditTrailError, match="HMAC"):
                count(t.path)

    def test_wrong_key_fails(self, tmp_path):
        t = trail(tmp_path)
        t.append("e", 1.0, {})
        for count in READERS:
            with pytest.raises(AuditTrailError, match="HMAC"):
                count(t.path, b"other-key")

    def test_truncation_detected_via_checkpoint(self, tmp_path):
        """Removing the *last* record leaves a valid hash chain; only the
        sealed checkpoint exposes the truncation."""
        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        t.append("e", 2.0, {"n": 2})
        with open(t.path) as handle:
            lines = handle.readlines()
        with open(t.path, "w") as handle:
            handle.writelines(lines[:1])
        with pytest.raises(AuditTrailError, match="checkpoint"):
            SecureAuditTrail(t.path, KEY).verify()

    def test_missing_checkpoint_detected(self, tmp_path):
        import os

        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        t.append("e", 2.0, {"n": 2})
        os.remove(t.path + ".chk")
        with pytest.raises(AuditTrailError, match="checkpoint file missing"):
            SecureAuditTrail(t.path, KEY).verify()

    def test_missing_checkpoint_tolerated_for_first_append_crash(
        self, tmp_path
    ):
        # Crash window between the very first record (durable) and the
        # very first checkpoint write: the sealed record is recovered
        # with a warning, not refused.
        import os

        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        os.remove(t.path + ".chk")
        with pytest.warns(UserWarning, match="no checkpoint yet"):
            assert SecureAuditTrail(t.path, KEY).verify() == 1

    def test_checkpoint_write_is_atomic_rename(self, tmp_path):
        # The sidecar is overwritten in place (it is smaller than a
        # device sector, so a crash leaves the old bytes or the new);
        # nothing like the temp file of the old write-and-rename
        # discipline is left behind.
        t = trail(tmp_path)
        for n in range(3):
            t.append("e", float(n), {"n": n})
        import os

        assert not os.path.exists(t.path + ".chk.tmp")
        with open(t.path + ".chk", encoding="utf-8") as handle:
            checkpoint = json.load(handle)
        assert checkpoint["count"] == 3

    def test_live_reader_tolerates_checkpoint_ahead_of_snapshot(
        self, tmp_path
    ):
        # A standby replaying a live primary's trail reads the record
        # lines and the checkpoint non-atomically: the primary may
        # append (and advance the checkpoint) in between, so the
        # checkpoint can record more records than the snapshot holds.
        # Simulate the race by pairing a 2-record trail's checkpoint
        # with a 1-record copy of its data.
        import shutil

        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        with open(t.path, "rb") as handle:
            first_record = handle.readline()
        t.append("e", 2.0, {"n": 2})
        (tmp_path / "snap").mkdir()
        snap = str(tmp_path / "snap" / "audit-000000.log")
        with open(snap, "wb") as handle:
            handle.write(first_record)
        shutil.copy(t.path + ".chk", snap + ".chk")

        # A strict reader treats the mismatch as truncation...
        with pytest.raises(AuditTrailError, match="does not match"):
            SecureAuditTrail(snap, KEY).verify()
        # ...a follower reads the verified prefix, and says nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert follower_count(snap) == 1
        assert os.path.exists(snap)

    def test_follower_reads_a_racing_trail(self, tmp_path):
        # Same race over a lineage: a follower yields the verified
        # prefix where the strict events() raises.
        import shutil

        writer = AuditTrailManager(str(tmp_path / "w"), KEY)
        for n in range(4):
            writer.append("e", float(n), {"n": n})
        reader_dir = tmp_path / "r"
        shutil.copytree(tmp_path / "w", reader_dir)
        trail_path = AuditTrailManager(str(reader_dir), KEY).trail_paths()[0]
        with open(trail_path, "rb") as handle:
            lines = handle.readlines()
        with open(trail_path, "wb") as handle:
            handle.writelines(lines[:2])
        follower = TrailFollower(str(reader_dir), KEY)
        assert [e.payload["n"] for e in follower.poll()] == [0, 1]
        with pytest.raises(AuditTrailError):
            list(AuditTrailManager(str(reader_dir), KEY).events())

    def test_forged_checkpoint_detected(self, tmp_path):
        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        t.append("e", 2.0, {"n": 2})
        with open(t.path) as handle:
            lines = handle.readlines()
        with open(t.path, "w") as handle:
            handle.writelines(lines[:1])
        # Attacker rewrites the checkpoint without knowing the key.
        record = json.loads(lines[0])
        with open(t.path + ".chk", "w") as handle:
            json.dump(
                {"count": 1, "last_hash": record["hash"], "tag": "f" * 64},
                handle,
            )
        with pytest.raises(AuditTrailError, match="checkpoint seal"):
            SecureAuditTrail(t.path, KEY).verify()

    def test_corrupt_json_before_tail_detected(self, tmp_path):
        """Junk *before* the final line is corruption, not a torn append."""
        t = trail(tmp_path)
        t.append("e", 1.0, {})
        with open(t.path, "a") as handle:
            handle.write("not json\n")
            handle.write("also not json\n")
        for count in READERS:
            with pytest.raises(AuditTrailError, match="corrupt JSON"):
                count(t.path)

    def test_torn_final_line_skipped_with_warning(self, tmp_path):
        """A crash mid-append leaves a partial final line; replay must
        recover every sealed record before it instead of raising."""
        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        t.append("e", 2.0, {"n": 2})
        with open(t.path) as handle:
            intact = handle.read()
        # Simulate the crash: a prefix of a third record, no newline.
        with open(t.path, "a") as handle:
            handle.write('{"seq": 2, "ts": 3.0, "type": "e", "pay')
        with pytest.warns(UserWarning, match="torn final line"):
            reopened = SecureAuditTrail(t.path, KEY)
        assert reopened.record_count == 2

        # The next append repairs the tail: the file is a clean chain
        # again and verifies silently.
        reopened.append("e", 4.0, {"n": 3})
        assert SecureAuditTrail(t.path, KEY).verify() == 3
        with open(t.path) as handle:
            assert handle.read().startswith(intact)

    @pytest.mark.parametrize("failure", ["short", "raises"])
    def test_failed_write_is_cut_not_glued(self, tmp_path, monkeypatch, failure):
        """Half a record on disk and an exception: the next append must
        cut the partial line, not glue onto it or repeat a seq."""
        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        real_write = os.write

        def fail_once(fd, data):
            monkeypatch.setattr(os, "write", real_write)
            written = real_write(fd, data[: len(data) // 2])
            if failure == "raises":
                raise OSError(28, "No space left on device")
            return written

        monkeypatch.setattr(os, "write", fail_once)
        with pytest.raises(AuditTrailError, match="cannot append"):
            t.append("e", 2.0, {"n": 2})
        assert t.record_count == 1
        assert follower_count(t.path) == 1
        with pytest.warns(UserWarning, match="torn final line"):
            assert strict_count(t.path) == 1  # the checkpoint stayed at 1
        assert t.append("e", 2.0, {"n": 2}) == 1
        assert t.append("e", 3.0, {"n": 3}) == 2
        for count in READERS:
            assert count(t.path) == 3

    def test_unterminated_final_record_is_torn_not_accepted(self, tmp_path):
        """A last line missing only its newline is an append in flight
        for both readers; accepting it would glue the next record on."""
        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        with open(t.path + ".chk", "rb") as handle:
            checkpoint_after_first = handle.read()
        t.append("e", 2.0, {"n": 2})
        with open(t.path, "rb") as handle:
            intact = handle.read()
        with open(t.path, "wb") as handle:
            handle.write(intact[:-1])
        assert follower_count(t.path) == 1
        # Crashed inside the second append: its checkpoint never landed.
        with open(t.path + ".chk", "wb") as handle:
            handle.write(checkpoint_after_first)
        with pytest.warns(UserWarning, match="torn final line"):
            reopened = SecureAuditTrail(t.path, KEY)
        assert reopened.record_count == 1
        reopened.append("e", 2.0, {"n": 2})
        with open(t.path, "rb") as handle:
            assert handle.read() == intact
        assert strict_count(t.path) == 2

    def test_torn_final_line_without_append_leaves_file_untouched(
        self, tmp_path
    ):
        """A read-only replayer (a follower tailing a live primary trail)
        must not truncate someone else's file."""
        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        with open(t.path, "a") as handle:
            handle.write('{"seq": 1, "ts"')
        with open(t.path, "rb") as handle:
            before = handle.read()
        with pytest.warns(UserWarning, match="torn final line"):
            events = list(SecureAuditTrail(t.path, KEY).verify_and_read())
        assert len(events) == 1
        with open(t.path, "rb") as handle:
            assert handle.read() == before

    def test_record_ahead_of_checkpoint_tolerated(self, tmp_path):
        """Crash between record write and checkpoint rewrite: the sealed
        extra record is accepted with a warning, not rejected."""
        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        with open(t.path + ".chk") as handle:
            checkpoint_after_first = handle.read()
        t.append("e", 2.0, {"n": 2})
        with open(t.path + ".chk", "w") as handle:
            handle.write(checkpoint_after_first)  # roll the sidecar back
        with pytest.warns(UserWarning, match="one record ahead"):
            assert SecureAuditTrail(t.path, KEY).verify() == 2


class TestAuditTrailManager:
    def test_rotation(self, tmp_path):
        manager = AuditTrailManager(str(tmp_path), KEY, max_records=2)
        for n in range(5):
            manager.append("e", float(n), {"n": n})
        assert len(manager.trail_paths()) == 3

    def test_size_based_rotation(self, tmp_path):
        """max_bytes rotates long before the record-count policy would."""
        manager = AuditTrailManager(
            str(tmp_path), KEY, max_records=10_000, max_bytes=600
        )
        for n in range(6):
            manager.append("e", float(n), {"n": n, "pad": "x" * 120})
        paths = manager.trail_paths()
        assert len(paths) > 1
        # Every rotated (non-active) trail respects the byte bound at
        # rotation time: it was closed at the first append beyond it.
        import os

        for path in paths[:-1]:
            assert os.path.getsize(path) >= 600
        # All events across the rotated trails are intact and ordered.
        payloads = [
            event.payload["n"]
            for event in manager.events()
        ]
        assert payloads == list(range(6))

    def test_size_rotation_survives_reopen(self, tmp_path):
        manager = AuditTrailManager(
            str(tmp_path), KEY, max_records=10_000, max_bytes=400
        )
        for n in range(3):
            manager.append("e", float(n), {"n": n, "pad": "y" * 150})
        count_before = len(manager.trail_paths())
        reopened = AuditTrailManager(
            str(tmp_path), KEY, max_records=10_000, max_bytes=400
        )
        reopened.append("e", 99.0, {"n": 99, "pad": "y" * 150})
        assert len(reopened.trail_paths()) >= count_before
        assert [e.payload["n"] for e in reopened.events()] == [0, 1, 2, 99]

    def test_durable_fsync_append(self, tmp_path):
        """fsync mode round-trips identically to buffered mode."""
        manager = AuditTrailManager(str(tmp_path), KEY, fsync=True)
        manager.append("e", 1.0, {"n": 1})
        manager.append("e", 2.0, {"n": 2})
        assert [e.payload["n"] for e in manager.events()] == [1, 2]

    def test_events_across_trails_in_order(self, tmp_path):
        manager = AuditTrailManager(str(tmp_path), KEY, max_records=2)
        for n in range(5):
            manager.append("e", float(n), {"n": n})
        numbers = [event.payload["n"] for event in manager.events()]
        assert numbers == [0, 1, 2, 3, 4]

    def test_last_n_trails(self, tmp_path):
        manager = AuditTrailManager(str(tmp_path), KEY, max_records=2)
        for n in range(6):
            manager.append("e", float(n), {"n": n})
        numbers = [
            event.payload["n"] for event in manager.events(last_n_trails=1)
        ]
        assert numbers == [4, 5]

    def test_a_negative_last_n_trails_is_refused(self, tmp_path):
        manager = AuditTrailManager(str(tmp_path), KEY, max_records=2)
        for n in range(6):
            manager.append("e", float(n), {"n": n})
        with pytest.raises(ValueError, match="last_n_trails"):
            manager.events(last_n_trails=-1)

    def test_since_filter(self, tmp_path):
        manager = AuditTrailManager(str(tmp_path), KEY, max_records=100)
        for n in range(6):
            manager.append("e", float(n), {"n": n})
        numbers = [event.payload["n"] for event in manager.events(since=3.0)]
        assert numbers == [3, 4, 5]

    def test_reopen_existing_directory(self, tmp_path):
        first = AuditTrailManager(str(tmp_path), KEY, max_records=10)
        first.append("e", 1.0, {"n": 1})
        second = AuditTrailManager(str(tmp_path), KEY, max_records=10)
        second.append("e", 2.0, {"n": 2})
        numbers = [event.payload["n"] for event in second.events()]
        assert numbers == [1, 2]

    def test_bad_max_records(self, tmp_path):
        with pytest.raises(AuditTrailError):
            AuditTrailManager(str(tmp_path), KEY, max_records=0)

    def test_verify_all(self, tmp_path):
        manager = AuditTrailManager(str(tmp_path), KEY, max_records=2)
        for n in range(5):
            manager.append("e", float(n), {"n": n})
        assert manager.verify_all() == 5

    def test_verify_all_detects_tampering_in_any_trail(self, tmp_path):
        manager = AuditTrailManager(str(tmp_path), KEY, max_records=2)
        for n in range(5):
            manager.append("e", float(n), {"n": n})
        victim = manager.trail_paths()[1]
        with open(victim) as handle:
            text = handle.read()
        with open(victim, "w") as handle:
            handle.write(text.replace('"n": 2', '"n": 9'))
        with pytest.raises(AuditTrailError):
            manager.verify_all()


class TestSinglePassReads:
    """Every reader verifies each record once — counted, not timed."""

    RECORDS = 8
    LAST_SEGMENT = 2  # max_records=3 rotates 8 records into 3 + 3 + 2

    @pytest.fixture
    def lineage(self, tmp_path):
        manager = AuditTrailManager(str(tmp_path), KEY, max_records=3)
        for n in range(self.RECORDS):
            manager.append("e", float(n), {"n": n})
        assert len(manager.trail_paths()) == 3
        return str(tmp_path)

    @pytest.fixture
    def hashes(self, lineage, monkeypatch):
        computed = []
        chain_hash = trail_module._chain_hash

        def counting(prev_hash, body):
            computed.append(body["seq"])
            return chain_hash(prev_hash, body)

        monkeypatch.setattr(trail_module, "_chain_hash", counting)
        return computed

    def test_manager_events_hash_each_record_once(self, lineage, hashes):
        events = list(AuditTrailManager(lineage, KEY).events())
        assert [e.payload["n"] for e in events] == list(range(self.RECORDS))
        # One pass, plus the constructor's check of the active segment.
        assert len(hashes) <= self.RECORDS + self.LAST_SEGMENT

    def test_verify_all_hashes_each_record_once(self, lineage, hashes):
        assert AuditTrailManager(lineage, KEY).verify_all() == self.RECORDS
        assert len(hashes) <= self.RECORDS + self.LAST_SEGMENT

    def test_follower_poll_hashes_each_record_exactly_once(
        self, lineage, hashes
    ):
        assert len(list(TrailFollower(lineage, KEY).poll())) == self.RECORDS
        assert len(hashes) == self.RECORDS

    def test_recovery_opens_each_segment_once(self, lineage, monkeypatch):
        manager = AuditTrailManager(lineage, KEY)
        opened = []
        real_open = builtins.open

        def counting_open(file, mode="r", *args, **kwargs):
            if str(file).endswith(".log") and "r" in mode:
                opened.append(os.path.basename(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        report = recover_retained_adi(
            None,
            bank_policy_set(),
            InMemoryRetainedADIStore(),
            events=manager.events(),
        )
        assert report.events_scanned == self.RECORDS
        assert sorted(opened) == [
            os.path.basename(path) for path in manager.trail_paths()
        ]


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


class TestWriteDiscipline:
    """What an append costs in system calls — counted, not timed."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []

        def count(owner, name, label):
            real = getattr(owner, name)

            def counting(*args, **kwargs):
                made.append(label)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        count(builtins, "open", "open")
        for name in ("open", "replace", "rename", "ftruncate"):
            count(os, name, f"os.{name}")
        for name in ("write", "pwrite", "fsync"):
            count(os, name, name)
        return made

    def test_steady_state_append_is_two_writes_and_no_open(
        self, tmp_path, calls
    ):
        t = trail(tmp_path)
        t.append("e", 0.0, {"n": 0})
        assert calls == ["os.open", "write", "os.open", "pwrite"]
        del calls[:]
        for n in range(1, 201):
            t.append("e", float(n), {"n": n})
        assert calls == ["write", "pwrite"] * 200
        del calls[:]
        assert strict_count(t.path) == 201

    def test_fsync_makes_record_then_checkpoint_durable(self, tmp_path, calls):
        t = SecureAuditTrail(str(tmp_path / "audit-000000.log"), KEY, fsync=True)
        t.append("e", 0.0, {"n": 0})
        del calls[:]
        t.append("e", 1.0, {"n": 1})
        assert calls == ["write", "fsync", "pwrite", "fsync"]

    def test_rotation_and_close_release_descriptors(self, tmp_path):
        before = open_descriptors()
        manager = AuditTrailManager(str(tmp_path), KEY, max_records=3)
        for n in range(16):
            manager.append("e", float(n), {"n": n})
            assert open_descriptors() == before + 2
        assert len(manager.trail_paths()) == 6  # five rotations
        manager.close()
        assert open_descriptors() == before
        manager.append("e", 16.0, {"n": 16})  # re-opens
        assert open_descriptors() == before + 2
        del manager
        assert open_descriptors() == before
        with AuditTrailManager(str(tmp_path), KEY, max_records=3) as manager:
            manager.append("e", 17.0, {"n": 17})
            assert open_descriptors() == before + 2
            assert manager.verify_all() == 18
        assert open_descriptors() == before


class TestCheckpointReread:
    """A reader that overlaps the writer's in-place overwrite re-reads;
    only a sidecar that reads bad twice over is tampering."""

    @pytest.fixture
    def torn(self, tmp_path):
        """A two-record trail, and a sidecar read that mixes its two
        checkpoints: the new count over the old chain tip and seal."""
        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        with open(t.path + ".chk", "rb") as handle:
            old = handle.read()
        t.append("e", 2.0, {"n": 2})
        with open(t.path + ".chk", "rb") as handle:
            new = handle.read()
        cut = len(b'{"count": 2')
        return t.path, new[:cut] + old[cut:], new

    @staticmethod
    def feed(monkeypatch, path, reads):
        real_open = builtins.open

        def scripted(file, *args, **kwargs):
            if file == path + ".chk":
                return io.BytesIO(reads.pop(0))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", scripted)

    def test_torn_read_then_good_read_is_accepted(self, torn, monkeypatch):
        path, mixed, good = torn
        reads = [mixed, good]
        self.feed(monkeypatch, path, reads)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_strict_count(path) == 2
        assert reads == []

    def test_same_bad_read_twice_is_tampering(self, torn, monkeypatch):
        path, mixed, _ = torn
        self.feed(monkeypatch, path, [mixed, mixed])
        with pytest.raises(AuditTrailError, match="checkpoint seal invalid"):
            read_strict_count(path)

    def test_same_unparsable_read_twice_is_unreadable(self, torn, monkeypatch):
        path, _, good = torn
        self.feed(monkeypatch, path, [good[:-1], good[:-1]])
        with pytest.raises(AuditTrailError, match="unreadable checkpoint"):
            read_strict_count(path)

    def test_empty_sidecar_reads_as_missing(self, tmp_path):
        t = trail(tmp_path)
        t.append("e", 1.0, {"n": 1})
        with open(t.path + ".chk", "wb"):
            pass  # created, not yet written
        with pytest.warns(UserWarning, match="no checkpoint yet"):
            assert strict_count(t.path) == 1
        t.append("e", 2.0, {"n": 2})
        with open(t.path + ".chk", "wb"):
            pass
        with pytest.raises(AuditTrailError, match="checkpoint file missing"):
            strict_count(t.path)


#: Children import the ``repro`` this process imported.
_SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

#: Appends ``appends`` records, printing each seq once ``append`` has
#: returned (the acknowledgement), and SIGKILLs itself just before or
#: just after its ``kth`` call of one ``os`` primitive.  Only the trail
#: calls ``os.open``/``os.write``/``os.pwrite`` here (``print`` writes
#: through the C-level file object), so the k-th call is the trail's.
_CRASHING_WRITER = """
import os, signal, sys
from repro.audit.trail import AuditTrailManager
directory, primitive, when, kth, appends, max_records = sys.argv[1:]
real, calls = getattr(os, primitive), [0]
def die():
    os.kill(os.getpid(), signal.SIGKILL)
def dying(*args):
    calls[0] += 1
    if calls[0] == int(kth) and when == "before":
        die()
    result = real(*args)
    if calls[0] == int(kth) and when == "after":
        die()
    return result
setattr(os, primitive, dying)
manager = AuditTrailManager(directory, b"trail-key", max_records=int(max_records))
for n in range(int(appends)):
    manager.append("e", float(n), {"n": n})
    print(n, flush=True)
"""

NO_CHECKPOINT_YET = "no checkpoint yet"
ONE_AHEAD = "one record ahead"


class TestCrashBoundaries:
    """``kill -9`` at every step of the write path, in a subprocess.

    With ``max_records=3`` the child's calls are: ``os.open`` 1/2 the
    first segment and its sidecar, 3/4 the second segment's; ``os.write``
    k record k; ``os.pwrite`` k the checkpoint sealing record k.  Each
    case names what the parent must find: how many records beyond the
    acknowledged ones, the state of the active segment's sidecar, and
    the one warning a strict open may give.
    """

    CASES = [
        # primitive, when, kth, acked, beyond, sidecar, warning
        # -- the very first record
        ("open", "before", 1, 0, 0, "absent", None),
        ("open", "after", 1, 0, 0, "absent", None),
        ("write", "before", 1, 0, 0, "absent", None),
        ("write", "after", 1, 0, 1, "absent", NO_CHECKPOINT_YET),
        ("open", "after", 2, 0, 1, "empty", NO_CHECKPOINT_YET),
        ("pwrite", "after", 1, 0, 1, "current", None),
        # -- mid-segment
        ("write", "before", 2, 1, 0, "current", None),
        ("write", "after", 2, 1, 1, "behind", ONE_AHEAD),
        ("pwrite", "after", 2, 1, 1, "current", None),
        # -- the rotation boundary (record 4 starts the second segment)
        ("open", "before", 3, 3, 0, "current", None),
        ("open", "after", 3, 3, 0, "absent", None),
        ("write", "after", 4, 3, 1, "absent", NO_CHECKPOINT_YET),
        ("open", "after", 4, 3, 1, "empty", NO_CHECKPOINT_YET),
        ("pwrite", "after", 4, 3, 1, "current", None),
    ]

    @staticmethod
    def sidecar_state(manager):
        paths = manager.trail_paths()
        if not paths or not os.path.exists(paths[-1] + ".chk"):
            return "absent"
        with open(paths[-1] + ".chk", "rb") as handle:
            raw = handle.read()
        if not raw:
            return "empty"
        with open(paths[-1], "rb") as handle:
            records = len(handle.readlines())
        return "current" if json.loads(raw)["count"] == records else "behind"

    @pytest.mark.parametrize(
        "primitive, when, kth, acked, beyond, sidecar, warning", CASES
    )
    def test_sigkill_boundary(
        self, tmp_path, primitive, when, kth, acked, beyond, sidecar, warning
    ):
        directory = str(tmp_path / "trail")
        child = subprocess.run(
            [sys.executable, "-c", _CRASHING_WRITER]
            + [directory, primitive, when, str(kth), "5", "3"],
            env=_SUBPROCESS_ENV,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        assert child.stdout.split() == [str(n) for n in range(acked)]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            manager = AuditTrailManager(directory, KEY, max_records=3)
        assert self.sidecar_state(manager) == sidecar
        messages = [str(item.message) for item in caught]
        if warning is None:
            assert messages == []
        else:
            assert len(messages) == 1 and warning in messages[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            survivors = [event.payload["n"] for event in manager.events()]
        # Nothing acknowledged is missing; at most the in-flight record
        # is there beyond it.
        assert survivors == list(range(acked + beyond))

        manager.append("e", float(len(survivors)), {"n": len(survivors)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert manager.verify_all() == len(survivors) + 1
            assert [e.payload["n"] for e in manager.events()] == list(
                range(len(survivors) + 1)
            )
        manager.close()


#: Says when it is up, then appends ``PER_POLL`` records for every line
#: on stdin, until EOF.
_PACED_WRITER = """
import sys
from repro.audit.trail import AuditTrailManager
manager = AuditTrailManager(sys.argv[1], b"trail-key", max_records=32)
print("up", flush=True)
n = 0
for _ in sys.stdin:
    for n in range(n, n + int(sys.argv[2])):
        manager.append("e", float(n), {"n": n})
    n += 1
"""


class TestLiveReaderAgainstLiveWriter:
    """A follower polled while a writer appends never takes an append
    in flight for tampering, and never warns.

    The writer is paced — ``PER_POLL`` appends per reader poll, granted
    without waiting for them — because a follower's poll runs until it
    has caught up, which it never would against an unpaced writer.
    """

    POLLS = 2000
    PER_POLL = 4

    def poll(self, directory, grant):
        """Poll a follower ``POLLS`` times; a live read never warns."""
        follower = TrailFollower(directory, KEY)
        followed = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(self.POLLS):
                grant()
                for event in follower.poll():
                    assert event.payload["n"] == followed
                    followed += 1
        assert followed > 0
        return follower, followed

    def test_writer_thread(self, tmp_path):
        directory = str(tmp_path)
        manager = AuditTrailManager(directory, KEY, max_records=32)
        granted = threading.Semaphore(0)
        done = threading.Event()
        written = [0]

        def write():
            while granted.acquire() and not done.is_set():
                manager.append("e", float(written[0]), {"n": written[0]})
                written[0] += 1

        writer = threading.Thread(target=write)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writer.start()
        try:
            follower, followed = self.poll(
                directory, lambda: granted.release(self.PER_POLL)
            )
        finally:
            done.set()
            granted.release()
            writer.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        followed += sum(1 for _ in follower.poll())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert manager.verify_all() == written[0] == followed
        manager.close()

    def test_writer_process(self, tmp_path):
        directory = str(tmp_path)
        writer = subprocess.Popen(
            [sys.executable, "-c", _PACED_WRITER, directory, str(self.PER_POLL)],
            env=_SUBPROCESS_ENV,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            assert writer.stdout.readline() == b"up\n"
            follower, followed = self.poll(
                directory, lambda: writer.stdin.write(b"\n") and writer.stdin.flush()
            )
            writer.stdin.close()
            assert writer.wait(timeout=60) == 0
        finally:
            writer.kill()
            writer.wait(timeout=60)
            writer.stdin.close()
            writer.stdout.close()
        followed += sum(1 for _ in follower.poll())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total = AuditTrailManager(directory, KEY).verify_all()
        assert total == self.POLLS * self.PER_POLL == followed

    def test_end_of_file_inside_an_append_is_a_torn_tail(
        self, tmp_path, monkeypatch
    ):
        """A read meets end of file inside an append in flight, and the
        read after it finds the rest: the reader must see one torn final
        line, not a corrupt line with records after it."""
        manager = AuditTrailManager(str(tmp_path), KEY)
        for n in range(3):
            manager.append("e", float(n), {"n": n})
        manager.close()
        path = manager.trail_paths()[0]
        with open(path, "rb") as handle:
            data = handle.read()
        cut = data.index(b"\n") + 10  # inside the second record

        class AppendInFlight(io.RawIOBase):
            """A short read up to the writer's progress, end of file,
            then the rest once the write has landed."""

            def __init__(self):
                self.chunks = [data[:cut], b"", data[cut:]]

            def readable(self):
                return True

            def seekable(self):
                return True

            def seek(self, offset, whence=0):
                assert (offset, whence) == (0, 0)
                return 0

            def readinto(self, buffer):
                chunk = self.chunks.pop(0) if self.chunks else b""
                buffer[: len(chunk)] = chunk
                return len(chunk)

        real_open = builtins.open

        def racing_open(file, mode="r", *args, **kwargs):
            if file == path:
                return io.BufferedReader(AppendInFlight())
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", racing_open)
        follower = TrailFollower(str(tmp_path), KEY)
        assert [event.payload["n"] for event in follower.poll()] == [0]


class TestOnDiskFormatIsUnchanged:
    """Bytes written before the readers were folded into one verifier.

    The fixture was produced by the previous implementation (three
    appends through ``AuditTrailManager(dir, b"fixture-key",
    max_records=2)`` and a follower stopped after one event), not by the
    code under test.
    """

    FIXTURE_KEY = b"fixture-key"
    FILES = {
        "audit-000000.log": (
            b'{"hash": "23a22d6562dbbba45e0a45881b5c68b4f683e95b0e20373fa07fc'
            b'a2761fc008e", "payload": {"n": 0, "who": "u0"}, "seq": 0, "tag"'
            b': "be92143e330ccf2b1701da6c0bdc94971c7f3f5c0b61f5c7d908e751438f'
            b'4b8e", "ts": 0.0, "type": "decision"}\n'
            b'{"hash": "5764b44859f1592b0ede33c532e8418c21e51e01aced0e77e89c2'
            b'7d58f2b60fe", "payload": {"n": 1, "who": "u1"}, "seq": 1, "tag"'
            b': "6d05f868fcf48a1bc3b2c6a38488effb3270171577805487ba91e84d76cb'
            b'a20c", "ts": 1.0, "type": "decision"}\n'
        ),
        "audit-000000.log.chk": (
            b'{"count": 2, "last_hash": "5764b44859f1592b0ede33c532e8418c21e5'
            b'1e01aced0e77e89c27d58f2b60fe", "tag": "17a22b9d09dd02705307b880'
            b'c48efda8aaaa3e94eed1eb72355b4877e875ef3d"}'
        ),
        "audit-000001.log": (
            b'{"hash": "4914e6066eed6fd3e156ecf6bd8d02834a9f192f308966a1383bd'
            b'6dcdfd7f42b", "payload": {"n": 2, "who": "u2"}, "seq": 0, "tag"'
            b': "11f011f22f2dfe75c090aaecfb87a37bc7d7241620abfc02348dc4e185c3'
            b'430e", "ts": 2.0, "type": "decision"}\n'
        ),
        "audit-000001.log.chk": (
            b'{"count": 1, "last_hash": "4914e6066eed6fd3e156ecf6bd8d02834a9f'
            b'192f308966a1383bd6dcdfd7f42b", "tag": "733e099ce10b43a11015215b'
            b'f10ee43dfe8f30fe9ff4beb058ce4da33e27dcce"}'
        ),
    }
    #: ``TrailFollower.position()`` after the first event, as persisted.
    POSITION = {
        "segment": 0,
        "offset": 227,
        "hash": (
            "23a22d6562dbbba45e0a45881b5c68b4f683e95b0e20373fa07fca2761fc008e"
        ),
        "seq": 1,
    }

    def _write_fixture(self, directory):
        os.makedirs(directory)
        for name, data in self.FILES.items():
            with open(os.path.join(directory, name), "wb") as handle:
                handle.write(data)

    def test_old_bytes_are_read_by_both_readers(self, tmp_path):
        directory = str(tmp_path / "old")
        self._write_fixture(directory)
        manager = AuditTrailManager(directory, self.FIXTURE_KEY, max_records=2)
        assert manager.verify_all() == 3
        assert [e.payload["n"] for e in manager.events()] == [0, 1, 2]
        resumed = TrailFollower(
            directory, self.FIXTURE_KEY, position=dict(self.POSITION)
        )
        assert [e.payload["n"] for e in resumed.poll()] == [1, 2]
        # ...and the old lineage is continued, not just read.
        manager.append("decision", 3.0, {"n": 3, "who": "u3"})
        assert manager.verify_all() == 4

    def test_new_bytes_are_the_old_bytes(self, tmp_path):
        directory = str(tmp_path / "new")
        manager = AuditTrailManager(directory, self.FIXTURE_KEY, max_records=2)
        for n in range(3):
            manager.append("decision", float(n), {"n": n, "who": f"u{n}"})
        written = {}
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), "rb") as handle:
                written[name] = handle.read()
        assert written == self.FILES
        follower = TrailFollower(directory, self.FIXTURE_KEY)
        next(follower.poll())
        assert follower.position() == self.POSITION


class TestRecovery:
    CTX = ContextName.parse("Branch=York, Period=2006")

    def _engine_with_audit(self, tmp_path):
        manager = AuditTrailManager(str(tmp_path), KEY, max_records=1000)
        engine = MSoDEngine(bank_policy_set(), InMemoryRetainedADIStore())
        return engine, manager

    def _run_and_log(self, engine, manager, user, role, op, at):
        decision = engine.check(
            DecisionRequest(
                user_id=user,
                roles=(role,),
                operation=op,
                target="till://1" if role is TELLER else (
                    "http://audit.location.com/audit"
                ),
                context_instance=self.CTX,
                timestamp=at,
            )
        )
        manager.append(EVENT_DECISION, at, decision_event_payload(decision))
        return decision

    def test_recovery_restores_store_state(self, tmp_path):
        engine, manager = self._engine_with_audit(tmp_path)
        self._run_and_log(engine, manager, "alice", TELLER, "handleCash", 1.0)
        self._run_and_log(engine, manager, "bob", TELLER, "handleCash", 2.0)
        recovered = InMemoryRetainedADIStore()
        report = recover_retained_adi(
            manager, bank_policy_set(), recovered
        )
        assert report.records_replayed == engine.store.count()
        assert store_digest(recovered) == store_digest(engine.store)

    def test_denied_decisions_not_replayed(self, tmp_path):
        engine, manager = self._engine_with_audit(tmp_path)
        self._run_and_log(engine, manager, "alice", TELLER, "handleCash", 1.0)
        denied = self._run_and_log(
            engine, manager, "alice", AUDITOR, "auditBooks", 2.0
        )
        assert denied.denied
        recovered = InMemoryRetainedADIStore()
        recover_retained_adi(manager, bank_policy_set(), recovered)
        assert store_digest(recovered) == store_digest(engine.store)

    def test_purges_replayed(self, tmp_path):
        engine, manager = self._engine_with_audit(tmp_path)
        self._run_and_log(engine, manager, "alice", TELLER, "handleCash", 1.0)
        self._run_and_log(engine, manager, "bob", AUDITOR, "CommitAudit", 2.0)
        assert engine.store.count() == 0
        recovered = InMemoryRetainedADIStore()
        report = recover_retained_adi(manager, bank_policy_set(), recovered)
        assert recovered.count() == 0
        assert report.purges_replayed > 0

    def test_standalone_purge_events_replayed(self, tmp_path):
        """Administrative EVENT_PURGE records replay during recovery."""
        from repro.audit import EVENT_PURGE

        engine, manager = self._engine_with_audit(tmp_path)
        self._run_and_log(engine, manager, "alice", TELLER, "handleCash", 1.0)
        manager.append(
            EVENT_PURGE, 2.0, {"context": "Branch=*, Period=2006"}
        )
        recovered = InMemoryRetainedADIStore()
        report = recover_retained_adi(manager, bank_policy_set(), recovered)
        assert recovered.count() == 0
        assert report.purges_replayed == 1

    def test_irrelevant_contexts_skipped(self, tmp_path):
        """Recovery filters by the *current* policy set."""
        from repro.core import MSoDPolicySet

        engine, manager = self._engine_with_audit(tmp_path)
        self._run_and_log(engine, manager, "alice", TELLER, "handleCash", 1.0)
        recovered = InMemoryRetainedADIStore()
        report = recover_retained_adi(manager, MSoDPolicySet(), recovered)
        assert recovered.count() == 0
        assert report.records_skipped > 0
