"""Every record a store hands out equals the reference's, field by field.

The store differential (:mod:`tests.test_property_store_differential`)
over writes only: direct adds, ``apply`` with every purge kind, and the
purge one-liners.  Each outcome's records, and ``records``/``find``/
``find_user`` after every step, must equal the reference's in record-id
order, in type and in every field (``granted_at`` is a ``float`` however
it was given).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.test_property_store_differential import (
    _add,
    _apply,
    _purge,
    _run_differential,
    _steps_of,
)


@given(
    _steps_of(_add, _apply, _apply, _purge, min_size=1),
    st.integers(1, 3),
    st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_every_record_handed_out_equals_the_reference(steps, hot_users, shards):
    _run_differential(steps, hot_users, shards)
