"""The window law "every F+1 consecutive slots settle at most C", checked
against a direct quadratic reference at each place the program uses it."""

import pytest
from hypothesis import given, strategies as st

from collatsim.model import (
    CollateralError,
    EventTrace,
    ModelParams,
    first_overfull_window,
    validate_window_bound,
)
from oracle_reference import reference_first_overfull


def columns(pairs):
    return [s for s, _ in pairs], [v for _, v in pairs]


pair_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=10)),
    max_size=25,
)
capacities = st.integers(min_value=1, max_value=40)
outages = st.integers(min_value=0, max_value=6)


@given(pair_lists, capacities, outages)
def test_first_overfull_window_matches_reference(pairs, C, F):
    pairs.sort()
    assert first_overfull_window(*columns(pairs), C, F) == reference_first_overfull(pairs, C, F)


@given(pair_lists, capacities, outages.filter(lambda f: f >= 1))
def test_validate_window_bound_matches_reference(pairs, C, F):
    params = ModelParams(C=C, T=1, F=F)
    trace = EventTrace()
    for slot, value in sorted(pairs):
        trace.wallet_settle(slot, 1, value)
        trace.wallet_flush(slot, 1, value)
    expected = reference_first_overfull(sorted(pairs), C, F)
    if expected is None:
        validate_window_bound(trace, params)
        return
    s, total = expected
    with pytest.raises(CollateralError) as err:
        validate_window_bound(trace, params)
    assert str(err.value) == (
        f"window bound violated: {total} > C={C} in slots [{s}, {s + F}]"
    )


def test_only_a_later_window_fails():
    # [1, 3] carries 7 and [2, 4] carries 3; [5, 7] carries 11 > 10
    pairs = [(1, 4), (2, 3), (5, 6), (6, 5)]
    assert first_overfull_window(*columns(pairs), 10, 2) == (5, 11)
    trace = EventTrace()
    for slot, value in pairs:
        trace.wallet_settle(slot, 1, value)
    message = r"^window bound violated: 11 > C=10 in slots \[5, 7\]$"
    with pytest.raises(CollateralError, match=message):
        validate_window_bound(trace, ModelParams(C=10, T=6, F=2))


