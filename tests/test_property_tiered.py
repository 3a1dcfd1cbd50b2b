"""A tier over SQLite answers as if every user were resident.

The store differential (:mod:`tests.test_property_store_differential`)
holds its tiered shape, and the always-resident shapes, to the
reference.  Here it runs at the tier's sizes that matter: every step
kind at two shards and one to three hot users; and a stream of
decisions at one hot user and one shard, where the checks' rotating
read order evicts a user at nearly every step, so the eviction
schedule is all that varies.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_property_store_differential import (
    _check,
    _run_differential,
    _steps,
    _steps_of,
)


@given(_steps, st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_tiered_matches_always_resident_sqlite(steps, hot_users):
    _run_differential(steps, hot_users, shards=2)


@given(_steps_of(_check, min_size=1))
@settings(max_examples=30, deadline=None)
def test_eviction_schedule_cannot_change_answers(steps):
    _run_differential(steps, hot_users=1, shards=1)
