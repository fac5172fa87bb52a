"""Slot-level machinery: parameters, sequences, wallet banks, pools, traces."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from collatsim.model import (
    FLUSH,
    ONLINE,
    SETTLE,
    CollateralPool,
    EventTrace,
    FlushExceedsCommitted,
    InsufficientCollateral,
    InvalidParams,
    ModelParams,
    RunResult,
    Transaction,
    TransactionSequence,
    WalletBank,
    WalletOffline,
    ZeroFlush,
    validate_window_bound,
)


def test_transaction_validation():
    with pytest.raises(InvalidParams):
        Transaction(0, 5)
    with pytest.raises(InvalidParams):
        Transaction(1, 0)
    tx = Transaction(3, 7)
    assert (tx.slot, tx.value) == (3, 7)


def test_sequence_slots_strictly_increasing():
    with pytest.raises(InvalidParams):
        TransactionSequence.from_pairs([(2, 1), (2, 1)])
    with pytest.raises(InvalidParams):
        TransactionSequence.from_pairs([(3, 1), (2, 1)])


def test_sequence_accessors():
    seq = TransactionSequence.from_pairs([(1, 3), (4, 2)])
    assert seq.horizon == 4
    assert seq.at(4) == Transaction(4, 2)
    assert seq.at(2) is None
    assert seq.offered_value() == 5
    assert seq.prefix(1).txs == (Transaction(1, 3),)
    assert seq.prefix(10).txs == seq.txs
    with pytest.raises(InvalidParams):
        seq.validate_values(2)  # 3 > T
    seq.validate_values(3)


def test_sequence_explicit_horizon():
    seq = TransactionSequence([Transaction(2, 1)], horizon=9)
    assert seq.horizon == 9
    with pytest.raises(InvalidParams):
        TransactionSequence([Transaction(5, 1)], horizon=4)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(C=0, T=1, F=1),
        dict(C=10, T=0, F=1),
        dict(C=10, T=11, F=1),
        dict(C=10, T=5, F=0),
        dict(C=10, T=5, F=1, k=0),
        dict(C=10, T=5, F=1, p_ppm=0),
        dict(C=10, T=5, F=1, p_ppm=10**6 + 1),
        dict(C=10, T=5, F=1, tau=-1),
        dict(C=10, T=5, F=1, eta_ppm=100000),  # below the floor T/C
        dict(C=10, T=5, F=1, eta_ppm=10**6 + 1),
        # the whole collateral must be able to out-earn one flush
        dict(C=20, T=6, F=1, p_ppm=100000, tau=3),
    ],
)
def test_params_rejected(kwargs):
    with pytest.raises(InvalidParams):
        ModelParams(**kwargs)


def test_params_derived_quantities():
    params = ModelParams(C=12, T=3, F=1, k=2)
    assert params.wallet_size == 6
    assert params.load_ratio == Fraction(1, 2)
    assert params.p == 1
    eta = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=418000)
    assert eta.p == Fraction(1, 10)
    assert eta.eta == Fraction(418, 1000)
    assert eta.eta_collateral == Fraction(418, 5)  # 83.6


def test_params_kwallet_guard():
    with pytest.raises(InvalidParams):
        ModelParams(C=13, T=3, F=1, k=2).require_kwallet()  # k does not divide C
    with pytest.raises(InvalidParams):
        ModelParams(C=12, T=5, F=1, k=3).require_kwallet()  # kT > C
    ModelParams(C=12, T=3, F=1, k=2).require_kwallet()


def test_wallet_outage_window():
    # flush at slot 1 with F=2: offline slots 2 and 3, back at 4
    params = ModelParams(C=20, T=6, F=2, k=2)
    bank = WalletBank(params)
    bank.begin_slot(1)
    bank.settle(1, Transaction(1, 6), 1)
    bank.flush(1, 1)
    assert bank.offline_until == [3, 0]
    assert bank.begin_slot(2) == []
    assert not bank.wallet_available(1, 2)
    assert bank.wallet_available(2, 2)
    assert bank.begin_slot(3) == []
    assert not bank.wallet_available(1, 3)
    assert bank.begin_slot(4) == [1]
    assert bank.wallet_available(1, 4)
    assert bank.remaining == [10, 10]
    kinds = [e.kind for e in bank.trace.events]
    assert kinds == [SETTLE, FLUSH, ONLINE]


def test_wallet_settle_guards():
    params = ModelParams(C=20, T=6, F=1, k=2)
    bank = WalletBank(params)
    bank.begin_slot(1)
    bank.settle(1, Transaction(1, 6), 1)
    with pytest.raises(InsufficientCollateral):
        bank.settle(1, Transaction(1, 5), 1)  # only 4 left in wallet 1
    bank.flush(1, 1)
    with pytest.raises(WalletOffline):
        bank.settle(1, Transaction(2, 1), 2)
    with pytest.raises(WalletOffline):
        bank.flush(1, 2)


def test_wallet_flush_takes_whole_wallet():
    params = ModelParams(C=20, T=6, F=1, k=2)
    bank = WalletBank(params)
    bank.begin_slot(1)
    bank.settle(2, Transaction(1, 4), 1)
    bank.flush(2, 1)
    flush_events = [e for e in bank.trace.events if e.kind == FLUSH]
    assert len(flush_events) == 1
    assert flush_events[0].flush_amount == 4  # only the committed part moved
    bank.begin_slot(2)
    bank.begin_slot(3)
    assert bank.remaining == [10, 10]


def test_wallet_conservation():
    params = ModelParams(C=30, T=5, F=1, k=3)
    bank = WalletBank(params)
    bank.begin_slot(1)
    bank.settle(1, Transaction(1, 5), 1)
    bank.settle(3, Transaction(1, 2), 1)
    for i in (1, 2, 3):
        assert bank.committed(i) + bank.remaining[i - 1] == bank.size


def test_pool_lifecycle():
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=418000)
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(Transaction(1, 60), 1)
    pool.flush(Fraction(836, 100), 1)
    assert pool.committed == Fraction(1291, 25)
    assert pool.pending() == Fraction(209, 25)
    # flushed amount is out for slot 2 and back for slot 3
    assert pool.available(2) == 140
    assert pool.available(3) == Fraction(3709, 25)


def test_pool_guards():
    params = ModelParams(C=10, T=5, F=1)
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(Transaction(1, 5), 1)
    with pytest.raises(InsufficientCollateral):
        pool.settle(Transaction(1, 5 + 1), 1)
    with pytest.raises(ZeroFlush):
        pool.flush(0, 1)
    with pytest.raises(FlushExceedsCommitted):
        pool.flush(6, 1)
    pool.flush(5, 1)
    assert pool.committed == 0


def test_pool_flushing_uncommitted_is_legal():
    # the pool may push idle collateral offline; it just wastes capacity
    params = ModelParams(C=10, T=5, F=2)
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(Transaction(1, 3), 1)
    pool.flush(2, 1)
    assert pool.committed == 1
    assert pool.available(2) == 7


def test_ndjson_shapes():
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=418000)
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(Transaction(1, 60), 1)
    pool.flush(Fraction(836, 100), 1)
    lines = [json.loads(line) for line in pool.trace.to_ndjson().splitlines()]
    assert lines[0] == {
        "slot": 1, "kind": "settle", "value": 60,
        "available": 140, "committed": 60,
    }
    # non-integral amounts serialize as exact num/den strings
    assert lines[1]["flushAmount"] == "209/25"
    assert lines[1]["committed"] == "1291/25"


def test_trace_totals():
    # the bank counts its own totals; a clone copies them with an empty trace
    params = ModelParams(C=20, T=6, F=1, k=2)
    bank = WalletBank(params)
    bank.begin_slot(1)
    bank.settle(1, Transaction(1, 6), 1)
    bank.settle(2, Transaction(2, 4), 2)
    bank.flush(1, 2)
    assert (bank.settled, bank.flushes) == (10, 1)
    clone = bank.clone()
    assert (clone.settled, clone.flushes, clone.trace.events) == (10, 1, [])
    bank.flush(2, 2)
    assert clone.flushes == 1
    assert bank.flushes == 2
    assert [e.kind for e in bank.trace.events] == [SETTLE, SETTLE, FLUSH, FLUSH]
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(Transaction(1, 6), 1)
    pool.flush(Fraction(5, 2), 1)
    pool_clone = pool.clone()
    pool.flush(Fraction(7, 2), 1)
    assert (pool.settled, pool.flushes) == (6, 2)
    assert (pool_clone.settled, pool_clone.flushes, pool_clone.trace.events) == (6, 1, [])


def test_run_result_charging_modes():
    params = ModelParams(C=40, T=10, F=1, k=2, p_ppm=500000, tau=2)
    seq = TransactionSequence.from_pairs([(1, 10), (2, 10)])
    bank = WalletBank(params)
    bank.begin_slot(1)
    bank.settle(1, seq.at(1), 1)
    bank.settle(2, seq.at(2), 2)
    bank.flush(1, 2)
    bank.flush(2, 2)
    per_wallet = RunResult.from_machine(bank, seq, flush_actions=1)
    assert per_wallet.settled_value == 20
    assert per_wallet.flush_count == 2
    assert (per_wallet.n_tx, per_wallet.offered_value) == (2, 20)
    assert per_wallet.utility == Fraction(1, 2) * 20 - 2 * 2
    per_action = RunResult.from_machine(bank, seq, flush_actions=1, charge="per-action")
    assert per_action.utility == Fraction(1, 2) * 20 - 2 * 1


def test_window_bound_validator():
    params = ModelParams(C=10, T=10, F=2)
    pool = CollateralPool(params)
    pool.begin_slot(1)
    pool.settle(Transaction(1, 10), 1)
    pool.flush(10, 1)
    validate_window_bound(pool.trace, params)
    # forge a settle inside the outage window; the validator must object
    bad = EventTrace(list(pool.trace.events))
    bad.add(slot=2, kind=SETTLE, value=10)
    with pytest.raises(Exception):
        validate_window_bound(bad, params)


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=8),
    st.integers(min_value=1, max_value=4),
)
def test_pool_never_overdraws(values, F):
    # settle-if-fits with immediate full flush keeps available within [0, C]
    params = ModelParams(C=12, T=6, F=F)
    pool = CollateralPool(params)
    slot = 0
    for v in values:
        slot += 1
        pool.begin_slot(slot)
        avail = pool.available(slot)
        assert 0 <= avail <= params.C
        if avail >= v:
            pool.settle(Transaction(slot, v), slot)
        if pool.committed > 0:
            pool.flush(pool.committed, slot)
        assert pool.committed + pool.pending() <= params.C
