"""Engines over every store shape decide alike, and their views are the
scan definitions.

The store differential (:mod:`tests.test_property_store_differential`)
over streams of decisions in one mode, which commit through ``apply``
and purge through a policy's last step; and over decisions mixed with
the writes that bypass a decision — direct adds, the purge one-liners,
a redelivered record and policy swaps — after each of which every
engine view must equal the reference's.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MODE_LITERAL, MODE_STRICT
from tests.test_property_store_differential import (
    _add,
    _check,
    _check_in,
    _overlapping_purge,
    _purge,
    _redeliver_step,
    _run_differential,
    _steps_of,
    _swap,
)


@given(_steps_of(_check_in(MODE_STRICT), min_size=1))
@example([("check", MODE_STRICT, *request) for request in _overlapping_purge])
@settings(max_examples=30, deadline=None)
def test_engines_agree_across_backends_strict(steps):
    _run_differential(steps, hot_users=2, shards=2)


@given(_steps_of(_check_in(MODE_LITERAL), min_size=1))
@example([("check", MODE_LITERAL, *request) for request in _overlapping_purge])
@settings(max_examples=30, deadline=None)
def test_engines_agree_across_backends_literal(steps):
    _run_differential(steps, hot_users=2, shards=2)


@given(
    _steps_of(_check, _check, _add, _purge, _swap, _redeliver_step),
    st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_aggregate_views_match_scan_definitions(steps, shards):
    _run_differential(steps, hot_users=2, shards=shards)
