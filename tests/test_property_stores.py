"""Lookups and purges by context agree across every store shape.

SQLite prefilters a context query with LIKE, so these properties draw
records in contexts whose values are rich in LIKE metacharacters and
run the store differential (:mod:`tests.test_property_store_differential`)
over steps that only store records, or store them and then purge one
context.  After every step ``find``, ``has_context`` and ``find_user``
of every shape equal the reference's.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_property_store_differential import (
    _add,
    _check,
    _purge_context,
    _run_differential,
    _steps_of,
)

_sizes = st.integers(1, 3)


@given(_steps_of(_add, min_size=1, max_size=10), _sizes, _sizes)
@settings(max_examples=40, deadline=None)
def test_find_agrees_across_backends(steps, hot_users, shards):
    _run_differential(steps, hot_users, shards)


@given(_steps_of(_add, _check, min_size=1, max_size=10), _sizes, _sizes)
@settings(max_examples=30, deadline=None)
def test_find_user_agrees_across_backends(steps, hot_users, shards):
    _run_differential(steps, hot_users, shards)


@given(
    st.tuples(_steps_of(_add, min_size=1, max_size=10), _purge_context),
    _sizes,
    _sizes,
)
@settings(max_examples=40, deadline=None)
def test_purge_agrees_across_backends(adds_then_purge, hot_users, shards):
    adds, purge = adds_then_purge
    _run_differential([*adds, purge], hot_users, shards)
