"""Online policies: hand-checked traces, guards, determinism, mirroring."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from collatsim.model import FLUSH, SETTLE, InvalidParams, ModelParams, TransactionSequence
from collatsim.policies import (
    InvalidEta,
    OddWalletCount,
    FlushAllPolicy,
    FlushTwoWhenFullPolicy,
    FlushWhenFullPolicy,
    RandTwoPolicy,
    ThresholdPolicy,
    make_policy,
)
from collatsim.harness import run_sequence


def settle_slots(result):
    return [e.slot for e in result.trace.events if e.kind == SETTLE]


def flush_events(result):
    return [(e.slot, e.wallet, e.flush_amount) for e in result.trace.events if e.kind == FLUSH]


FIVE_SIXES = TransactionSequence.from_pairs([(t, 6) for t in range(1, 6)])


def test_flush_all_trace():
    # wallets of 10: settle 6,6; the third 6 fits nowhere, so flush both
    params = ModelParams(C=20, T=6, F=1, k=2)
    res = run_sequence(FlushAllPolicy(params), FIVE_SIXES)
    assert res.settled_value == 18
    assert settle_slots(res) == [1, 2, 5]
    assert flush_events(res) == [(3, 1, 6), (3, 2, 6)]
    assert res.flush_count == 2
    assert res.flush_actions == 1  # one simultaneous flush of the bank


def test_flush_all_waits_for_whole_bank():
    # during the outage nothing settles, even though capacity would fit it
    params = ModelParams(C=20, T=6, F=3, k=2)
    seq = TransactionSequence.from_pairs([(1, 6), (2, 6), (3, 6), (4, 1), (5, 1)])
    res = run_sequence(FlushAllPolicy(params), seq)
    assert settle_slots(res) == [1, 2]
    assert res.settled_value == 12


def test_flush_when_full_trace():
    params = ModelParams(C=20, T=6, F=1, k=2)
    res = run_sequence(FlushWhenFullPolicy(params), FIVE_SIXES)
    assert res.settled_value == 18
    assert settle_slots(res) == [1, 3, 5]
    assert flush_events(res) == [(2, 1, 6), (4, 2, 6)]


def test_flush_when_full_strict_rotation():
    # after flushing wallet 1 the cycle moves on: the next settle lands in
    # wallet 2 even though wallet 1 is back online with room to spare
    params = ModelParams(C=8, T=4, F=1, k=2)
    seq = TransactionSequence.from_pairs([(1, 3), (2, 2), (4, 1)])
    res = run_sequence(FlushWhenFullPolicy(params), seq)
    assert flush_events(res) == [(2, 1, 3)]
    settles = [(e.slot, e.wallet) for e in res.trace.events if e.kind == SETTLE]
    assert settles == [(1, 1), (4, 2)]


def test_flush_two_when_full_trace():
    # one pair of size-3 wallets; the third 3 triggers a pair flush
    params = ModelParams(C=6, T=3, F=1, k=2)
    seq = TransactionSequence.from_pairs([(1, 3), (2, 3), (3, 3), (4, 3), (5, 3)])
    res = run_sequence(FlushTwoWhenFullPolicy(params), seq)
    assert settle_slots(res) == [1, 2, 5]
    assert flush_events(res) == [(3, 1, 3), (3, 2, 3)]
    assert res.settled_value == 9


def test_flush_two_when_full_advances_pairs():
    params = ModelParams(C=12, T=3, F=1, k=4)
    seq = TransactionSequence.from_pairs([(t, 3) for t in range(1, 6)])
    res = run_sequence(FlushTwoWhenFullPolicy(params), seq)
    # pair (1,2) fills, flushes on the trigger, pair (3,4) takes over at once
    assert settle_slots(res) == [1, 2, 4, 5]
    assert flush_events(res) == [(3, 1, 3), (3, 2, 3)]


def test_flush_two_needs_even_k():
    with pytest.raises(OddWalletCount):
        FlushTwoWhenFullPolicy(ModelParams(C=9, T=3, F=1, k=3))


@pytest.mark.parametrize("g", [0, 3, 8])
def test_group_size_must_divide_k(g):
    # imported here so the golden traces above also run on the three-class code
    from collatsim.policies import GroupFlushPolicy

    with pytest.raises(OddWalletCount):
        GroupFlushPolicy(ModelParams(C=12, T=3, F=1, k=4), g)


def test_threshold_trace_integral():
    # x10 units: C=200, T=60, tau=5 stands for C=20, T=6, tau=0.5
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=500000)
    seq = TransactionSequence.from_pairs([(t, 60) for t in range(1, 5)])
    res = run_sequence(ThresholdPolicy(params), seq, terminal_flushes=True)
    assert res.settled_value == 240
    assert flush_events(res) == [(2, None, 100), (4, None, 100), (4, None, 40)]
    assert res.flush_count == 3
    assert res.utility == 9


def test_threshold_trace_fractional_quantum():
    # eta*C = 83.6 is not an integer; amounts stay exact rationals
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=418000)
    seq = TransactionSequence.from_pairs([(1, 60), (2, 60)])
    res = run_sequence(ThresholdPolicy(params), seq, terminal_flushes=True)
    assert res.settled_value == 120
    assert flush_events(res) == [
        (2, None, Fraction(418, 5)),
        (2, None, Fraction(182, 5)),
    ]
    assert res.utility == 12 - 10


def test_threshold_discards_when_short():
    params = ModelParams(C=10, T=6, F=3, p_ppm=500000, tau=1, eta_ppm=600000)
    seq = TransactionSequence.from_pairs([(1, 6), (2, 6), (3, 5)])
    res = run_sequence(ThresholdPolicy(params), seq, terminal_flushes=True)
    # 6 settles and the threshold flushes it at once; with that 6 in flight
    # only 4 is available, so both later offers are turned away
    assert settle_slots(res) == [1]
    assert flush_events(res) == [(1, None, 6)]
    assert res.settled_value == 6


def test_threshold_requires_eta():
    with pytest.raises(InvalidEta):
        ThresholdPolicy(ModelParams(C=10, T=5, F=1))


def test_threshold_eta_one_flushes_only_when_saturated():
    # eta = 1 is legal: flush C exactly when the whole pool is committed
    params = ModelParams(C=6, T=3, F=1, eta_ppm=10**6)
    seq = TransactionSequence.from_pairs([(1, 3), (2, 3), (3, 3)])
    res = run_sequence(ThresholdPolicy(params), seq, terminal_flushes=True)
    assert flush_events(res) == [(2, None, 6)]
    assert settle_slots(res) == [1, 2]


def test_rand2_follows_the_chosen_shadow_wallet():
    params = ModelParams(C=10, T=10, F=1)
    seq = TransactionSequence.from_pairs([(1, 5), (2, 7), (3, 3)])
    res0 = run_sequence(make_policy("rand2", params, coins=lambda: 0), seq)
    res1 = run_sequence(make_policy("rand2", params, coins=lambda: 1), seq)
    # shadow puts 5 and 3 in one wallet, 7 in the other
    assert sorted([res0.settled_value, res1.settled_value]) == [7, 8]
    assert res0.settled_value + res1.settled_value == 15


def test_rand2_mirrors_shadow_flushes():
    params = ModelParams(C=4, T=4, F=1)
    seq = TransactionSequence.from_pairs([(1, 4), (2, 4), (3, 4), (4, 4)])
    pol = make_policy("rand2", params, coins=lambda: 0)
    res = run_sequence(pol, seq)
    assert flush_events(res) == [(3, 1, 4)]
    assert settle_slots(res) == [1]
    assert pol.coins_drawn == 1  # second coin would come with the next online slot


def test_rand2_draws_one_coin_per_online_period():
    params = ModelParams(C=4, T=4, F=1)
    seq = TransactionSequence.from_pairs([(1, 4), (2, 4), (3, 4), (5, 4), (6, 4)])
    pol = make_policy("rand2", params, coins=lambda: 1)
    run_sequence(pol, seq)
    assert pol.coins_drawn == 2


def test_rand2_seeded_determinism():
    params = ModelParams(C=10, T=10, F=2)
    seq = TransactionSequence.from_pairs([(t, 3 + (t % 5)) for t in range(1, 15)])
    a = run_sequence(make_policy("rand2", params, seed=42), seq)
    b = run_sequence(make_policy("rand2", params, seed=42), seq)
    assert a.settled_value == b.settled_value
    assert a.trace.to_ndjson() == b.trace.to_ndjson()


def test_rand2_needs_single_wallet():
    with pytest.raises(InvalidParams):
        RandTwoPolicy(ModelParams(C=10, T=5, F=1, k=2))


def test_make_policy_unknown_kind():
    with pytest.raises(InvalidParams):
        make_policy("nope", ModelParams(C=10, T=5, F=1))


@given(st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=3)), max_size=10))
@settings(max_examples=60, deadline=None)
def test_policies_are_online(symbols):
    # a policy's decisions on a prefix never depend on the suffix
    params = ModelParams(C=12, T=3, F=2, k=2)
    pairs = [(i + 1, v) for i, v in enumerate(symbols) if v is not None]
    if not pairs:
        return
    full = TransactionSequence.from_pairs(pairs)
    cut = len(symbols) // 2
    head = [(s, v) for s, v in pairs if s <= cut]
    for kind in ("fa", "fwf", "ftwf"):
        whole = run_sequence(make_policy(kind, params), full)
        if head:
            part = run_sequence(make_policy(kind, params), TransactionSequence.from_pairs(head))
            prefix_events = [e for e in whole.trace.events if e.slot <= cut]
            assert [e.to_json_obj() for e in prefix_events] == [
                e.to_json_obj() for e in part.trace.events if e.slot <= cut
            ]


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=12),
    st.sampled_from(["fa", "fwf", "ftwf", "eta"]),
)
@settings(max_examples=80, deadline=None)
def test_settled_never_exceeds_offered(values, kind):
    params = ModelParams(C=12, T=6, F=1, k=2, eta_ppm=500000)
    seq = TransactionSequence.from_pairs([(i + 1, v) for i, v in enumerate(values)])
    res = run_sequence(make_policy(kind, params), seq, terminal_flushes=True)
    assert 0 <= res.settled_value <= res.offered_value
    assert res.n_tx == len(values)


def rescan(ndjson):
    """The run totals read back from the NDJSON trace alone."""
    events = [json.loads(line) for line in ndjson.splitlines()]
    return {
        "settled_value": sum(e["value"] for e in events if e["kind"] == "settle"),
        "flush_count": sum(1 for e in events if e["kind"] == "flush"),
        "n_tx": sum(1 for e in events if e["kind"] == "arrive"),
        "offered_value": sum(e["value"] for e in events if e["kind"] == "arrive"),
    }


COUNTER_PARAMS = {
    "fa": ModelParams(C=12, T=3, F=2, k=4),
    "fwf": ModelParams(C=12, T=3, F=2, k=2),
    "ftwf": ModelParams(C=12, T=3, F=2, k=4),
    "rand2": ModelParams(C=6, T=3, F=2),
    # eta*C = 18/5, so tranches are not integral
    "eta": ModelParams(C=12, T=3, F=2, eta_ppm=300000),
}


@given(
    st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=3)), max_size=30),
    st.sampled_from(sorted(COUNTER_PARAMS)),
    st.booleans(),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_counters_match_trace(symbols, kind, terminal_flushes, seed):
    params = COUNTER_PARAMS[kind]
    pairs = [(i + 1, v) for i, v in enumerate(symbols) if v is not None]
    seq = TransactionSequence.from_pairs(pairs, horizon=len(symbols))
    res = run_sequence(
        make_policy(kind, params, seed=seed), seq, terminal_flushes=terminal_flushes
    )
    expected = rescan(res.trace.to_ndjson())
    assert {name: getattr(res, name) for name in expected} == expected
    # stepping a clone leaves the original's counters and trace alone
    cut = len(symbols) // 2
    policy = make_policy(kind, params, seed=seed)
    for slot in range(1, cut + 1):
        policy.step(slot, seq.at(slot))
    machine = policy.machine
    before = (machine.settled, machine.flushes, machine.trace.to_ndjson())
    fork = policy.clone()
    for slot in range(cut + 1, seq.horizon + 1):
        fork.step(slot, seq.at(slot))
    fork.finish(seq.horizon, terminal_flushes)
    assert (machine.settled, machine.flushes, machine.trace.to_ndjson()) == before
    # the fork carried the counters on and logged only its own slots
    assert (fork.machine.settled, fork.machine.flushes) == (
        res.settled_value, res.flush_count
    )
    assert fork.machine.trace.events == [e for e in res.trace.events if e.slot > cut]


# sha256 of the NDJSON trace, flush_actions and utility, with terminal
# flushes off and on; recorded from the three-class implementation so
# the one-rule policy is held to the same bytes
GOLDEN = {
    ("fa", 1): (("f896525694afda6472ed152f9084f6004c122376a097b251d93e198260dcd6c0", 14, "20"),
                ("01acc6ce1076ff1ce850833a33c8154c1b42042d80da9593edb6c33fbf534742", 15, "19")),
    ("fa", 2): (("cecdb7e6f1cacc882ccea17a2d23c8ec4244d38f7b8b4e2c68428737deb9f9d9", 10, "61/2"),
                ("cecdb7e6f1cacc882ccea17a2d23c8ec4244d38f7b8b4e2c68428737deb9f9d9", 10, "61/2")),
    ("fa", 3): (("ce9389c3263bfe69428687c15a702ac13c96fbb53fea0899d0ce5c1476139386", 7, "33"),
                ("ce9389c3263bfe69428687c15a702ac13c96fbb53fea0899d0ce5c1476139386", 7, "33")),
    ("fa", 4): (("b584a0579b2fc93063b88a0fe1bcbf0634f14854290405267b3a43976d808d9a", 5, "40"),
                ("c3a92063abd0e68a50965d949b233eb58de9f169a7ec7f02d82812c09bd83e1c", 6, "37")),
    ("fwf", 2): (("f5958ff14d3b96f2f458135cea9a0a006a908dcc12ad99dad059d0c38c873ad3", 19, "65/2"),
                 ("9ac3b59c891de7a52172f30e658c2b441f376db79223add30aea3f5f34d2226e", 20, "63/2")),
    ("fwf", 3): (("8b4f6d568726f616a366baab19bf30f1d3008773d60a60de3ffc11fa9ce235d3", 19, "30"),
                 ("2f3a711995e39a4d33883caf9795e6adc1c247369ef9da77c52444f843656fac", 20, "29")),
    ("fwf", 4): (("5c109b4cdedff8979923428082517d4c2a3c60a4bfebf3b768827ad6ad31bbec", 20, "30"),
                 ("5c109b4cdedff8979923428082517d4c2a3c60a4bfebf3b768827ad6ad31bbec", 20, "30")),
    ("ftwf", 2): (("cecdb7e6f1cacc882ccea17a2d23c8ec4244d38f7b8b4e2c68428737deb9f9d9", 10, "61/2"),
                  ("cecdb7e6f1cacc882ccea17a2d23c8ec4244d38f7b8b4e2c68428737deb9f9d9", 10, "61/2")),
    ("ftwf", 4): (("34c943d3f1dffbda918a40d7099fe94a2fdd5dfeca5ef0f596be1676a3b12ba1", 11, "38"),
                  ("a19a31bbd4749a92e8805e56d7b4ad7751201d4eef982674e43d14e2bb99e943", 12, "37")),
    ("ftwf", 6): (("a61763101aeaa6e83966ab3678a6a4ba958bc9722713724f1bfc4ab2001ddb48", 11, "77/2"),
                  ("a6efa635544c7c39e08be6e7f0e2e94438574cb7dfc6c2c8418d30e69d473f73", 12, "75/2")),
}


def golden_sequence(seed, T, slots=80):
    rng = random.Random(seed)
    pairs = [(s, 1 + int(rng.random() * T)) for s in range(1, slots + 1) if rng.random() < 0.8]
    return TransactionSequence.from_pairs(pairs)


@pytest.mark.parametrize("kind,k", sorted(GOLDEN))
def test_golden_traces(kind, k):
    params = ModelParams(C=6 * k, T=4, F=2, k=k, p_ppm=500000, tau=1)
    seq = golden_sequence(1000 + k, params.T)
    for terminal_flushes, expected in zip((False, True), GOLDEN[(kind, k)]):
        res = run_sequence(make_policy(kind, params), seq, terminal_flushes=terminal_flushes)
        digest = hashlib.sha256(res.trace.to_ndjson().encode()).hexdigest()
        assert (digest, res.flush_actions, str(res.utility)) == expected
    # the rotation wraps: wallet 1 flushes again after wallet k has flushed
    flushed = [e.wallet for e in res.trace.events if e.kind == FLUSH]
    assert 1 in flushed[flushed.index(k) + 1:]
