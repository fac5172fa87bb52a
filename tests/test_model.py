"""Slot-level machinery: parameters, sequences, the test-side wallet bank,
pools, traces."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from collatsim.model import (
    MAX_WALLETS,
    PPM,
    CollateralError,
    CollateralPool,
    EventTrace,
    ModelParams,
    RunResult,
    SettleLog,
    Transaction,
    TransactionSequence,
    validate_window_bound,
)
from collatsim.policies import make_policy
from oracle_reference import ReferenceBank, reference_ndjson
from trace_reader import ARRIVE, DISCARD, FLUSH, ONLINE, SETTLE, Event, read_events


def test_transaction_validation():
    with pytest.raises(CollateralError, match=r"^slot must be >= 1, got 0$"):
        Transaction(0, 5)
    with pytest.raises(CollateralError, match=r"^value must be >= 1, got 0$"):
        Transaction(1, 0)
    with pytest.raises(CollateralError, match=r"^value must be >= 1, got -2$"):
        Transaction(slot=4, value=-2)
    tx = Transaction(3, 7)
    assert (tx.slot, tx.value) == (3, 7)
    with pytest.raises(AttributeError):
        tx.value = 8  # immutable


def test_sequence_slots_strictly_increasing():
    with pytest.raises(CollateralError, match=r"^slots must be strictly increasing: 2 then 2$"):
        TransactionSequence.from_pairs([(2, 1), (2, 1)])
    with pytest.raises(CollateralError, match=r"^slots must be strictly increasing: 3 then 2$"):
        TransactionSequence.from_pairs([(3, 1), (2, 1)])


def test_sequence_accessors():
    seq = TransactionSequence.from_pairs([(1, 3), (4, 2)])
    assert seq.horizon == 4
    assert tuple(seq) == (Transaction(1, 3), Transaction(4, 2))
    assert seq.offered_value() == 5
    with pytest.raises(CollateralError, match=r"^value 3 at slot 1 exceeds cap 2$"):
        seq.validate_values(2)  # 3 > T
    seq.validate_values(3)


# offers with a fault, and the text of the first one: a slot or value below 1
# (the slot first within an offer) in offer order, then slot order
COLUMN_FAULTS = [
    ([(1, 1), (0, 1), (3, 0)], "slot must be >= 1, got 0"),
    ([(1, 0), (0, 1)], "value must be >= 1, got 0"),
    ([(-2, 0)], "slot must be >= 1, got -2"),
    ([(3, 1), (2, 1), (4, 0)], "value must be >= 1, got 0"),
    ([(1, 1), (3, 1), (2, 1), (2, 1)], "slots must be strictly increasing: 3 then 2"),
    ([(1, 1), (5, 1), (5, 1)], "slots must be strictly increasing: 5 then 5"),
]


@pytest.mark.parametrize("pairs, message", COLUMN_FAULTS)
def test_sequence_columns_name_the_first_fault(pairs, message):
    # the columns are checked whole, and a failing check names the offender
    # that a Transaction per offer and a pairwise slot check would name
    slots, values = zip(*pairs)
    for build in (
        lambda: TransactionSequence(slots, values),
        lambda: TransactionSequence.from_pairs(pairs),
    ):
        with pytest.raises(CollateralError) as err:
            build()
        assert str(err.value) == message


def test_sequence_is_two_int_columns():
    seq = TransactionSequence([1, 4, 6], [3, 2, 5], horizon=8)
    assert (seq.slots, seq.values, seq.horizon) == ((1, 4, 6), (3, 2, 5), 8)
    assert seq == TransactionSequence.from_pairs([(1, 3), (4, 2), (6, 5)], 8)
    assert [(t.slot, t.value) for t in seq] == [(1, 3), (4, 2), (6, 5)]
    assert repr(seq) == "TransactionSequence((1, 4, 6), (3, 2, 5), horizon=8)"
    with pytest.raises(CollateralError, match=r"^value 5 at slot 6 exceeds cap 4$"):
        seq.validate_values(4)
    with pytest.raises(CollateralError, match=r"^value 3 at slot 1 exceeds cap 2$"):
        seq.validate_values(2)  # the first of three offenders
    with pytest.raises(CollateralError, match=r"^2 slots but 1 values$"):
        TransactionSequence([1, 2], [1])


def test_sequence_explicit_horizon():
    seq = TransactionSequence([2], [1], horizon=9)
    assert seq.horizon == 9
    with pytest.raises(CollateralError, match=r"^horizon 4 precedes last slot 5$"):
        TransactionSequence([5], [1], horizon=4)


PARAMS_REFUSALS = [
    (dict(C=0, T=1, F=1), "C must be positive, got 0"),
    (dict(C=10, T=0, F=1), "T must satisfy 1 <= T <= C, got T=0 C=10"),
    (dict(C=10, T=11, F=1), "T must satisfy 1 <= T <= C, got T=11 C=10"),
    (dict(C=10, T=5, F=0), "F must be positive, got 0"),
    (dict(C=10, T=5, F=1, k=0), "k must be positive, got 0"),
    (dict(C=10, T=5, F=1, p_ppm=0), "p_ppm must be in [1, 1000000], got 0"),
    (dict(C=10, T=5, F=1, p_ppm=10**6 + 1), "p_ppm must be in [1, 1000000], got 1000001"),
    (dict(C=10, T=5, F=1, tau=-1), "tau must be nonnegative, got -1"),
    # below the floor T/C
    (dict(C=10, T=5, F=1, eta_ppm=100000), "eta must satisfy T/C <= eta <= 1, got eta_ppm=100000"),
    (dict(C=10, T=5, F=1, eta_ppm=10**6 + 1),
     "eta must satisfy T/C <= eta <= 1, got eta_ppm=1000001"),
    # the whole collateral must be able to out-earn one flush
    (dict(C=20, T=6, F=1, p_ppm=100000, tau=3), "p*C must exceed tau: p_ppm=100000 C=20 tau=3"),
]


@pytest.mark.parametrize(
    "kwargs, message", PARAMS_REFUSALS, ids=[f"kwargs{i}" for i in range(len(PARAMS_REFUSALS))]
)
def test_params_rejected(kwargs, message):
    with pytest.raises(CollateralError, match=f"^{re.escape(message)}$"):
        ModelParams(**kwargs)


BIG = 10**400  # past the float range


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(C=BIG, T=1, F=1), "C"),
        (dict(C=BIG, T=BIG, F=1), "C"),
        (dict(C=10, T=BIG, F=1), "T"),
        (dict(C=10, T=5, F=1, k=BIG), "k"),
        (dict(C=10, T=5, F=1, tau=-BIG), "tau"),
    ],
    ids=["C", "C-and-T", "T", "k", "tau"],
)
def test_params_past_the_float_range_rejected(kwargs, name):
    # the closed-form bounds read C, T, k and tau as floats
    message = f"^{name} must be a finite number, got {kwargs[name]}$"
    with pytest.raises(CollateralError, match=message):
        ModelParams(**kwargs)


def test_params_derived_quantities():
    params = ModelParams(C=12, T=3, F=1, k=2)
    assert params.load_ratio == Fraction(1, 2)
    assert params.p == 1
    eta = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=418000)
    assert eta.p == Fraction(1, 10)
    assert eta.eta == Fraction(418, 1000)


def test_params_kwallet_guard():
    with pytest.raises(CollateralError, match=r"^C=13 not divisible by k=2$"):
        ModelParams(C=13, T=3, F=1, k=2).require_kwallet()
    with pytest.raises(CollateralError, match=r"^need k\*T <= C, got k=3 T=5 C=12$"):
        ModelParams(C=12, T=5, F=1, k=3).require_kwallet()
    ModelParams(C=12, T=3, F=1, k=2).require_kwallet()


def test_wallet_count_past_the_cap_refused():
    # a wallet policy keeps a room and an outage end per wallet: past the
    # cap it is refused before any is built, and 10^30 wallets would not
    # fit an index at all
    policy = make_policy("fa", ModelParams(C=MAX_WALLETS, T=1, F=1, k=MAX_WALLETS))
    assert len(policy.state(0)) == 2 * 1000 + 1
    for k in (MAX_WALLETS + 1, 10**30):
        params = ModelParams(C=k, T=1, F=1, k=k)
        for build in (params.require_kwallet, lambda: make_policy("fa", params)):
            with pytest.raises(CollateralError, match=f"^k must be at most 1000, got {k}$"):
                build()


def test_wallet_outage_window():
    # flush at slot 1 with F=2: offline slots 2 and 3, back at 4
    params = ModelParams(C=20, T=6, F=2, k=2)
    bank = ReferenceBank(params)
    bank.begin_slot(1)
    bank.settle(1, 6, 1)
    bank.flush(1, 1)
    assert bank.offline_until == [3, 0]

    def came_online(slot):
        bank.begin_slot(slot)
        return [e.wallet for e in read_events(bank.trace) if e.kind == ONLINE and e.slot == slot]

    assert came_online(2) == []
    assert bank.offline_until[0] >= 2 > bank.offline_until[1]
    assert came_online(3) == []
    assert bank.offline_until[0] >= 3
    assert bank.remaining == [4, 10]
    assert came_online(4) == [1]
    assert bank.offline_until[0] < 4
    assert bank.remaining == [10, 10]
    kinds = [e.kind for e in read_events(bank.trace)]
    assert kinds == [ARRIVE, SETTLE, FLUSH, ONLINE]


def test_wallet_catch_up_logs_each_return_at_its_slot():
    # F=2: wallet 3 flushed at 1 is back at 4, wallets 2 and 1 flushed at 2
    # (2 first) are back at 5; one begin_slot well past both restores all
    # three, ordered by return slot and then by wallet
    bank = ReferenceBank(ModelParams(C=30, T=5, F=2, k=3))
    bank.begin_slot(1)
    bank.settle(3, 5, 1)
    bank.flush(3, 1)
    bank.begin_slot(2)
    bank.flush(2, 2)
    bank.flush(1, 2)
    bank.begin_slot(9)
    online = [(e.slot, e.wallet) for e in read_events(bank.trace) if e.kind == ONLINE]
    assert online == [(4, 3), (5, 1), (5, 2)]
    assert bank.remaining == [10, 10, 10]
    assert bank.offline_until == [0, 0, 0] and bank.outages == []


def test_pool_catch_up_logs_each_return_at_its_slot():
    pool = CollateralPool(ModelParams(C=10, T=5, F=1))
    pool.begin_slot(1)
    pool.settle(5, 1)
    pool.flush(2 * PPM, 1)
    pool.begin_slot(2)
    pool.flush(3 * PPM, 2)
    pool.begin_slot(3)  # the first tranche is due; the second is not
    pool.begin_slot(7)
    online = [(e.slot, e.flush_amount) for e in read_events(pool.trace) if e.kind == ONLINE]
    assert online == [(3, 2), (4, 3)]
    assert (pool.free, pool.committed, pool.inflight) == (10 * PPM, 0, [])


def test_wallet_settle_guards():
    params = ModelParams(C=20, T=6, F=1, k=2)
    bank = ReferenceBank(params)
    bank.begin_slot(1)
    bank.settle(1, 6, 1)
    with pytest.raises(CollateralError, match=r"^wallet 1 has 4, needs 5$"):
        bank.settle(1, 5, 1)
    bank.flush(1, 1)
    with pytest.raises(CollateralError, match=r"^wallet 1 offline at slot 2$"):
        bank.settle(1, 1, 2)
    with pytest.raises(CollateralError, match=r"^wallet 1 already offline at slot 2$"):
        bank.flush(1, 2)


def test_wallet_flush_takes_whole_wallet():
    params = ModelParams(C=20, T=6, F=1, k=2)
    bank = ReferenceBank(params)
    bank.begin_slot(1)
    bank.settle(2, 4, 1)
    bank.flush(2, 1)
    flush_events = [e for e in read_events(bank.trace) if e.kind == FLUSH]
    assert len(flush_events) == 1
    assert flush_events[0].flush_amount == 4  # only the committed part moved
    bank.begin_slot(2)
    bank.begin_slot(3)
    assert bank.remaining == [10, 10]


def test_wallet_conservation():
    params = ModelParams(C=30, T=5, F=1, k=3)
    bank = ReferenceBank(params)
    bank.begin_slot(1)
    bank.settle(1, 5, 1)
    bank.settle(3, 2, 1)
    assert bank.remaining == [bank.size - 5, bank.size, bank.size - 2]
    assert bank.settled == 7


def test_pool_lifecycle():
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=418000)
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(60, 1)
    pool.flush(8_360_000, 1)  # 836/100
    assert pool.committed == 51_640_000  # 1291/25
    assert pool.inflight == [(8_360_000, 3)]  # 209/25
    # flushed amount is out for slot 2 and back for slot 3
    pool.begin_slot(2)
    assert pool.free == 140 * PPM
    pool.begin_slot(3)
    assert pool.free == 148_360_000  # 3709/25
    assert not pool.inflight
    assert pool.free + pool.committed == params.C * PPM


def test_pool_guards():
    params = ModelParams(C=10, T=5, F=1)
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(5, 1)
    with pytest.raises(CollateralError, match=r"^pool has 5 available, needs 6$"):
        pool.settle(5 + 1, 1)
    with pytest.raises(CollateralError, match=r"^flush amount must be positive, got 0$"):
        pool.flush(0, 1)
    with pytest.raises(CollateralError, match=r"^flush 6 exceeds committed 5$"):
        pool.flush(6 * PPM, 1)
    with pytest.raises(CollateralError, match=r"^flush 501/100 exceeds committed 5$"):
        pool.flush(5_010_000, 1)
    pool.flush(5 * PPM, 1)
    assert pool.committed == 0


def test_pool_flushing_uncommitted_is_legal():
    # the pool may push idle collateral offline; it just wastes capacity
    params = ModelParams(C=10, T=5, F=2)
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(3, 1)
    pool.flush(2 * PPM, 1)
    assert pool.committed == 1 * PPM
    pool.begin_slot(2)
    assert pool.free == 7 * PPM


def test_ndjson_shapes():
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=418000)
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(60, 1)
    pool.flush(8_360_000, 1)  # 836/100
    lines = [json.loads(line) for line in pool.trace.to_ndjson().splitlines()]
    # a settle logs the offer's arrive with it
    assert lines[:2] == [
        {"slot": 1, "kind": "arrive", "value": 60},
        {"slot": 1, "kind": "settle", "value": 60, "available": 140, "committed": 60},
    ]
    # non-integral amounts serialize as exact num/den strings
    assert lines[2]["flushAmount"] == "209/25"
    assert lines[2]["committed"] == "1291/25"


SLOTS = st.integers(min_value=1, max_value=10**9)
WALLETS = st.integers(min_value=1, max_value=64)
VALUES = st.integers(min_value=1, max_value=10**9)
# pool amounts in units of 1/PPM: whole amounts, and any, mostly not whole
UNITS = st.one_of(
    st.integers(min_value=0, max_value=10**9).map(lambda n: n * PPM),
    st.integers(min_value=0, max_value=10**15),
)


def _exact(units):
    return Fraction(units, PPM)


# each trace method with its arguments, and the events it logs: an offer's
# discard or settle comes with its arrive
TRACE_CALLS = st.one_of(
    st.builds(
        lambda t, v: ("discard", (t, v), [Event(t, ARRIVE, value=v), Event(t, DISCARD, value=v)]),
        SLOTS, VALUES,
    ),
    st.builds(
        lambda t, w, v: ("wallet_settle", (t, w, v), [
            Event(t, ARRIVE, value=v), Event(t, SETTLE, w, v)]),
        SLOTS, WALLETS, VALUES,
    ),
    st.builds(
        lambda t, w, a: ("wallet_flush", (t, w, a), [Event(t, FLUSH, w, flush_amount=a)]),
        SLOTS, WALLETS, st.integers(min_value=0, max_value=10**9),
    ),
    st.builds(lambda t, w: ("wallet_online", (t, w), [Event(t, ONLINE, w)]), SLOTS, WALLETS),
    st.builds(
        lambda t, v, f, c: ("pool_settle", (t, v, f, c), [Event(t, ARRIVE, value=v), Event(
            t, SETTLE, value=v, available=_exact(f), committed=_exact(c))]),
        SLOTS, VALUES, UNITS, UNITS,
    ),
    st.builds(
        lambda t, a, f, c: ("pool_flush", (t, a, f, c), [Event(
            t, FLUSH, flush_amount=_exact(a), available=_exact(f), committed=_exact(c))]),
        SLOTS, UNITS, UNITS, UNITS,
    ),
    st.builds(
        lambda t, a, c: ("pool_online", (t, a, c), [Event(
            t, ONLINE, flush_amount=_exact(a), committed=_exact(c))]),
        SLOTS, UNITS, UNITS,
    ),
)


@given(st.lists(TRACE_CALLS, max_size=12))
def test_ndjson_matches_json_module(calls):
    # each event kind's template gives the json module's bytes, and the
    # trace's settle columns and flush count agree with the events logged
    trace = EventTrace()
    for method, args, _ in calls:
        getattr(trace, method)(*args)
    events = [event for _, _, logged in calls for event in logged]
    assert trace.to_ndjson() == reference_ndjson(events)
    assert read_events(trace) == events
    settles = [e for e in events if e.kind == SETTLE]
    assert trace.flushes == sum(e.kind == FLUSH for e in events)
    assert trace.settle_slots == [e.slot for e in settles]
    assert trace.settle_values == [e.value for e in settles]


def test_empty_trace_ndjson():
    assert EventTrace().to_ndjson() == ""


def test_trace_totals():
    # the bank counts its own totals; a clone copies them with an empty trace
    params = ModelParams(C=20, T=6, F=1, k=2)
    bank = ReferenceBank(params)
    bank.begin_slot(1)
    bank.settle(1, 6, 1)
    bank.settle(2, 4, 2)
    bank.flush(1, 2)
    assert (bank.settled, bank.flushes) == (10, 1)
    clone = bank.clone()
    assert (clone.settled, clone.flushes, read_events(clone.trace)) == (10, 1, [])
    bank.flush(2, 2)
    assert clone.flushes == 1
    assert bank.flushes == 2
    kinds = [e.kind for e in read_events(bank.trace)]
    assert kinds == [ARRIVE, SETTLE, ARRIVE, SETTLE, FLUSH, FLUSH]
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(6, 1)
    pool.flush(2_500_000, 1)  # 5/2
    pool.flush(3_500_000, 1)  # 7/2
    assert (sum(pool.trace.settle_values), pool.trace.flushes) == (6, 2)
    # either sink is a run's record: fed one run of calls, both keep the
    # same settle columns and count one flush per wallet or tranche, each
    # wallet of a slot's group flush included
    calls = [
        ("wallet_settle", 1, 1, 6), ("wallet_settle", 2, 2, 4), ("discard", 3, 6),
        ("wallet_flush", 3, 1, 6), ("wallet_flush", 3, 2, 4), ("wallet_online", 5, 1),
        ("wallet_online", 5, 2), ("pool_settle", 6, 6, 14 * PPM, 6 * PPM),
        ("pool_flush", 6, 2_500_000, 14 * PPM, 3_500_000), ("pool_online", 8, 2_500_000, 0),
    ]
    kept, full = SettleLog(), EventTrace()
    for sink in (kept, full):
        for method, *args in calls:
            getattr(sink, method)(*args)
    assert (kept.settle_slots, kept.settle_values, kept.flushes) == ([1, 2, 6], [6, 4, 6], 3)
    assert (full.settle_slots, full.settle_values, full.flushes) == (
        kept.settle_slots, kept.settle_values, kept.flushes
    )


def test_run_result_charging_modes():
    params = ModelParams(C=40, T=10, F=1, k=2, p_ppm=500000, tau=2)
    seq = TransactionSequence.from_pairs([(1, 10), (2, 10)])
    bank = ReferenceBank(params)
    bank.begin_slot(1)
    bank.settle(1, seq.values[0], 1)
    bank.settle(2, seq.values[1], 2)
    bank.flush(1, 2)
    bank.flush(2, 2)
    # two wallets flushed in one slot pay the fee twice
    per_wallet = RunResult.from_machine(bank, seq)
    assert per_wallet.settled_value == 20
    assert per_wallet.flush_count == 2
    assert (per_wallet.n_tx, per_wallet.offered_value) == (2, 20)
    assert per_wallet.utility == Fraction(1, 2) * 20 - 2 * 2


def test_window_bound_validator():
    params = ModelParams(C=10, T=10, F=2)
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(10, 1)
    pool.flush(10 * PPM, 1)
    validate_window_bound(pool.trace, params)
    # forge a settle inside the outage window; the validator must object
    pool.trace.pool_settle(2, 10, 0, 10 * PPM)
    with pytest.raises(Exception):
        validate_window_bound(pool.trace, params)


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=8),
    st.integers(min_value=1, max_value=4),
)
def test_pool_never_overdraws(values, F):
    # settle-if-fits with immediate full flush keeps free within [0, C]
    params = ModelParams(C=12, T=6, F=F)
    pool = CollateralPool(params)
    slot = 0
    for v in values:
        slot += 1
        pool.begin_slot(slot)
        assert 0 <= pool.free <= params.C * PPM
        if pool.free >= v * PPM:
            pool.settle(v, slot)
        if pool.committed > 0:
            pool.flush(pool.committed, slot)
        assert pool.free + pool.committed + sum(a for a, _ in pool.inflight) == params.C * PPM
