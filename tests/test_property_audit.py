"""Property-based tamper-evidence tests for the secure audit trail."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import SecureAuditTrail
from repro.audit.trail import TrailFollower
from repro.errors import AuditTrailError

KEY = b"property-test-key"


def follow_from_zero(path):
    """The live face of the verifier, over the directory holding ``path``."""
    return list(TrailFollower(os.path.dirname(path), KEY).poll())


_payloads = st.dictionaries(
    keys=st.text(
        alphabet=st.characters(whitelist_categories=("Ll",)),
        min_size=1,
        max_size=6,
    ),
    values=st.one_of(
        st.integers(min_value=-1000, max_value=1000),
        st.text(max_size=12),
        st.booleans(),
    ),
    max_size=4,
)

_event_lists = st.lists(
    st.tuples(st.sampled_from(["decision", "purge", "admin"]), _payloads),
    min_size=1,
    max_size=12,
)


@given(_event_lists)
@settings(max_examples=60, deadline=None)
def test_any_honest_trail_verifies(tmp_path_factory, events):
    path = str(tmp_path_factory.mktemp("trail") / "audit-000000.log")
    trail = SecureAuditTrail(path, KEY)
    for index, (event_type, payload) in enumerate(events):
        trail.append(event_type, float(index), payload)
    read_back = list(SecureAuditTrail(path, KEY).verify_and_read())
    assert len(read_back) == len(events)
    for event, (event_type, payload) in zip(read_back, events):
        assert event.event_type == event_type
        assert event.payload == payload


@given(_event_lists, st.data())
@settings(max_examples=60, deadline=None)
def test_any_single_record_mutation_detected(tmp_path_factory, events, data):
    """Flipping any record's payload content breaks verification."""
    path = str(tmp_path_factory.mktemp("trail") / "audit-000000.log")
    trail = SecureAuditTrail(path, KEY)
    for index, (event_type, payload) in enumerate(events):
        trail.append(event_type, float(index), payload)

    with open(path) as handle:
        lines = handle.readlines()
    victim = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    record = json.loads(lines[victim])
    record["payload"] = {"forged": True}
    lines[victim] = json.dumps(record, sort_keys=True) + "\n"
    with open(path, "w") as handle:
        handle.writelines(lines)

    with pytest.raises(AuditTrailError):
        SecureAuditTrail(path, KEY).verify()
    with pytest.raises(AuditTrailError):
        follow_from_zero(path)


@given(_event_lists, st.data())
@settings(max_examples=60, deadline=None)
def test_any_record_deletion_detected(tmp_path_factory, events, data):
    path = str(tmp_path_factory.mktemp("trail") / "audit-000000.log")
    trail = SecureAuditTrail(path, KEY)
    for index, (event_type, payload) in enumerate(events):
        trail.append(event_type, float(index), payload)
    with open(path) as handle:
        lines = handle.readlines()
    victim = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
    remaining = lines[:victim] + lines[victim + 1:]
    with open(path, "w") as handle:
        handle.writelines(remaining)
    # Deleting the final record is pure truncation: the hash chain stays
    # internally consistent and only the sealed checkpoint catches it.
    with pytest.raises(AuditTrailError):
        SecureAuditTrail(path, KEY).verify()
    # The follower does not consult the sidecar, so truncation is not
    # its to detect; any interior deletion breaks its chain as well.
    if victim < len(lines) - 1:
        with pytest.raises(AuditTrailError):
            follow_from_zero(path)
    else:
        assert len(follow_from_zero(path)) == len(remaining)
