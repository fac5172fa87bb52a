"""Online policies: hand-checked traces, guards, determinism, mirroring."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from collatsim.model import (
    PPM,
    CollateralError,
    EventTrace,
    ModelParams,
    SettleLog,
    TransactionSequence,
    validate_window_bound,
)
from collatsim.policies import (
    POLICY_KINDS,
    GroupFlushPolicy,
    RandTwoPolicy,
    ThresholdPolicy,
    make_policy,
)
from collatsim.harness import run_sequence
from oracle_reference import (
    ReferenceRandTwo,
    ReferenceThreshold,
    reference_first_overfull,
    reference_group_policy,
    reference_ndjson,
    run_every_slot,
)
from trace_reader import FLUSH, SETTLE, read_events, trace_problems, trace_totals

import identity_grid as grid


def settle_slots(policy):
    return [e.slot for e in read_events(policy.trace) if e.kind == SETTLE]


def flush_events(policy):
    return [
        (e.slot, e.wallet, e.flush_amount)
        for e in read_events(policy.trace) if e.kind == FLUSH
    ]


class CountingCoins:
    """A rand2 coin source that counts its draws, each the next of ``coins``."""

    def __init__(self, coins):
        self.coins, self.drawn = coins, 0

    def __call__(self):
        self.drawn += 1
        return self.coins()


def seeded_coins(seed):
    """Counted coins drawn as rand2 draws them from its seed."""
    return CountingCoins(partial(random.Random(seed).getrandbits, 1))


FIVE_SIXES = TransactionSequence.from_pairs([(t, 6) for t in range(1, 6)])


def test_flush_all_trace():
    # wallets of 10: settle 6,6; the third 6 fits nowhere, so flush both
    params = ModelParams(C=20, T=6, F=1, k=2)
    policy = make_policy("fa", params)
    res = run_sequence(policy, FIVE_SIXES)
    assert res.settled_value == 18
    assert settle_slots(policy) == [1, 2, 5]
    assert flush_events(policy) == [(3, 1, 6), (3, 2, 6)]
    assert res.flush_count == 2


def test_flush_all_waits_for_whole_bank():
    # during the outage nothing settles, even though capacity would fit it
    params = ModelParams(C=20, T=6, F=3, k=2)
    seq = TransactionSequence.from_pairs([(1, 6), (2, 6), (3, 6), (4, 1), (5, 1)])
    policy = make_policy("fa", params)
    res = run_sequence(policy, seq)
    assert settle_slots(policy) == [1, 2]
    assert res.settled_value == 12


def test_flush_when_full_trace():
    params = ModelParams(C=20, T=6, F=1, k=2)
    policy = make_policy("fwf", params)
    res = run_sequence(policy, FIVE_SIXES)
    assert res.settled_value == 18
    assert settle_slots(policy) == [1, 3, 5]
    assert flush_events(policy) == [(2, 1, 6), (4, 2, 6)]


def test_flush_when_full_strict_rotation():
    # after flushing wallet 1 the cycle moves on: the next settle lands in
    # wallet 2 even though wallet 1 is back online with room to spare
    params = ModelParams(C=8, T=4, F=1, k=2)
    seq = TransactionSequence.from_pairs([(1, 3), (2, 2), (4, 1)])
    policy = make_policy("fwf", params)
    run_sequence(policy, seq)
    assert flush_events(policy) == [(2, 1, 3)]
    settles = [(e.slot, e.wallet) for e in read_events(policy.trace) if e.kind == SETTLE]
    assert settles == [(1, 1), (4, 2)]


def test_flush_two_when_full_trace():
    # one pair of size-3 wallets; the third 3 triggers a pair flush
    params = ModelParams(C=6, T=3, F=1, k=2)
    seq = TransactionSequence.from_pairs([(1, 3), (2, 3), (3, 3), (4, 3), (5, 3)])
    policy = make_policy("ftwf", params)
    res = run_sequence(policy, seq)
    assert settle_slots(policy) == [1, 2, 5]
    assert flush_events(policy) == [(3, 1, 3), (3, 2, 3)]
    assert res.settled_value == 9


def test_flush_two_when_full_advances_pairs():
    params = ModelParams(C=12, T=3, F=1, k=4)
    seq = TransactionSequence.from_pairs([(t, 3) for t in range(1, 6)])
    policy = make_policy("ftwf", params)
    run_sequence(policy, seq)
    # pair (1,2) fills, flushes on the trigger, pair (3,4) takes over at once
    assert settle_slots(policy) == [1, 2, 4, 5]
    assert flush_events(policy) == [(3, 1, 3), (3, 2, 3)]


def test_flush_two_needs_even_k():
    with pytest.raises(CollateralError, match=r"^pair policy needs even k, got 3$"):
        make_policy("ftwf", ModelParams(C=9, T=3, F=1, k=3))


@pytest.mark.parametrize("g", [0, 3, 8])
def test_group_size_must_divide_k(g):
    with pytest.raises(CollateralError, match=f"^groups of {g} need k divisible by {g}, got 4$"):
        GroupFlushPolicy(ModelParams(C=12, T=3, F=1, k=4), g, "group")


def test_make_policy_gives_each_group_kind_its_g_and_name():
    # at k = 4 the three group sizes differ; the reference's clone keeps both
    # fields
    params = ModelParams(C=12, T=3, F=1, k=4)
    for kind, g in (("fa", 4), ("fwf", 1), ("ftwf", 2)):
        policy = make_policy(kind, params)
        assert type(policy) is GroupFlushPolicy
        assert (policy.g, policy.name) == (g, kind)
        twin = reference_group_policy(kind, params).clone()
        assert (twin.g, twin.name) == (g, kind)


def test_group_state_is_relative_to_the_slot():
    params = ModelParams(C=12, T=3, F=2, k=2)
    early, late = make_policy("fa", params), make_policy("fa", params)
    early.step(1, 3)
    # active group, capacity when next online per wallet, outage ends (-1 online)
    assert early.state(1) == (1, 3, 6, -1, -1)
    for slot in range(2, 6):  # fills both wallets, then flushes them at slot 5
        early.step(slot, 3)
    assert early.state(5) == (1, 6, 6, 2, 2)
    # read after the outage, with no step since, both wallets are back
    assert early.state(10) == (1, 6, 6, -1, -1)
    # the same offers two quiet slots later reach the same state
    for slot in range(1, 8):
        late.step(slot, 3 if slot > 2 else None)
    assert late.state(7) == early.state(5)
    fwf = make_policy("fwf", params)
    for slot in range(1, 4):  # wallet 1 fills, then flushes and wallet 2 is active
        fwf.step(slot, 3)
    assert fwf.state(3) == (2, 6, 6, 2, -1)


@st.composite
def group_policies(draw):
    """A wallet-group preset and params small enough for states to repeat."""
    kind = draw(st.sampled_from(["fa", "fwf", "ftwf"]))
    k = draw(st.sampled_from([2, 4] if kind == "ftwf" else [1, 2, 3]))
    T = draw(st.integers(min_value=1, max_value=3))
    size = draw(st.integers(min_value=T, max_value=2 * T + 1))
    F = draw(st.integers(min_value=1, max_value=3))
    return kind, ModelParams(C=k * size, T=T, F=F, k=k)


def step_once(policy, slot, value):
    """A stepped copy's settled delta, flush amounts and state after slot,
    for a ``ReferenceGroupPolicy``."""
    fork = policy.clone()
    fork.step(slot, value)
    amounts = [e.flush_amount for e in read_events(fork.machine.trace) if e.kind == FLUSH]
    return fork.machine.settled - policy.machine.settled, amounts, fork.state(slot)


def reachable_group_states(kind, params, values):
    """Each state that some history reaches, mapped to the (reference
    policy, slot) pairs in it after stepping its history.  The histories
    are every sequence of at most 4 slots over values and the quiet slot
    (None), so leading quiet slots shift them."""
    by_state = {}
    for length in range(5):
        for symbols in product((None, *values), repeat=length):
            policy = reference_group_policy(kind, params)
            for slot, value in enumerate(symbols, 1):
                policy.step(slot, value)
            by_state.setdefault(policy.state(length), []).append((policy, length))
    return by_state


@given(group_policies(), st.data())
@settings(max_examples=40, deadline=None)
def test_equal_group_states_step_alike(case, data):
    # exhaustive_verify steps each state once and reuses the result at every
    # node in that state, whatever its slot and history
    kind, params = case
    offers = (None, *range(1, params.T + 1))
    values = data.draw(st.lists(st.sampled_from(offers[1:]), min_size=1, unique=True))
    for (first, slot), *others in reachable_group_states(kind, params, values).values():
        for value in offers:
            want = step_once(first, slot + 1, value)
            for policy, at in others:
                assert step_once(policy, at + 1, value) == want


def next_states_as_steps(policy, slot, offers):
    """``GroupFlushPolicy.next_states`` on the state of ``policy`` after
    slot, one step_once triple per offer."""
    rule = make_policy(policy.name, policy.params)
    return [
        (delta, list(amounts), nxt)
        for nxt, delta, amounts in rule.next_states(policy.state(slot), offers)
    ]


@given(group_policies(), st.data())
@settings(max_examples=40, deadline=None)
def test_next_states_is_step_on_the_state_tuple(case, data):
    # exhaustive_verify reads every transition off the state tuple; from
    # every reachable state each offer must settle, flush and leave the
    # state as stepping the reference policy in that state does
    kind, params = case
    offers = (None, *range(1, params.T + 1))
    values = data.draw(st.lists(st.sampled_from(offers[1:]), min_size=1, unique=True))
    for (policy, slot), *_ in reachable_group_states(kind, params, values).values():
        want = [step_once(policy, slot + 1, value) for value in offers]
        assert next_states_as_steps(policy, slot, offers) == want


# (kind, C, k, F, history from slot 1, its state, an offer, the step's
# settled delta, flushed amounts and next state)
NEXT_STATES = [
    # at F = 10^8 a flushed group stays out for the rest of any run: the ends
    # age by one a slot and every offer is discarded
    ("fa", 6, 2, 10**8, [3, 3, 3], (1, 3, 3, 10**8, 10**8), 1,
     0, [], (1, 3, 3, 10**8 - 1, 10**8 - 1)),
    ("fa", 6, 2, 10**8, [3, 3, 3, None], (1, 3, 3, 10**8 - 1, 10**8 - 1), None,
     0, [], (1, 3, 3, 10**8 - 2, 10**8 - 2)),
    # fa at k = 4 first fits across all four wallets, then flushes the four
    # and stays on its one group
    ("fa", 12, 4, 2, [3, 3, 2], (1, 0, 0, 1, 3, -1, -1, -1, -1), 2,
     2, [], (1, 0, 0, 1, 1, -1, -1, -1, -1)),
    ("fa", 12, 4, 2, [3, 3, 2, 3], (1, 0, 0, 1, 0, -1, -1, -1, -1), 2,
     0, [3, 3, 2, 3], (1, 3, 3, 3, 3, 2, 2, 2, 2)),
    # ftwf at k = 4 wraps from the second pair back to the first, whose
    # outage ends this slot: an end of 0 comes back online
    ("ftwf", 12, 4, 2, [3, 3, 3, 2, 3], (2, 3, 3, 1, 0, 0, 0, -1, -1), 2,
     0, [2, 3], (1, 3, 3, 3, 3, -1, -1, 2, 2)),
    # fwf rotates from the last wallet back to the first
    ("fwf", 9, 3, 1, [3, 3, 3, 3, 2], (3, 3, 3, 1, -1, 0, -1), 2,
     0, [2], (1, 3, 3, 3, -1, -1, 1)),
]


@pytest.mark.parametrize(
    "kind, C, k, F, history, state, offer, delta, amounts, after", NEXT_STATES
)
def test_next_states_examples(kind, C, k, F, history, state, offer, delta, amounts, after):
    params = ModelParams(C=C, T=3, F=F, k=k)
    rule, policy = make_policy(kind, params), reference_group_policy(kind, params)
    for slot, value in enumerate(history, 1):
        assert rule.step(slot, value) == policy.step(slot, value)
    slot = len(history)
    assert rule.state(slot) == policy.state(slot) == state
    offers = (None, 1, 2, 3)
    assert next_states_as_steps(policy, slot, offers) == [
        step_once(policy, slot + 1, value) for value in offers
    ]
    assert next_states_as_steps(policy, slot, (offer,)) == [(delta, amounts, after)]


def test_threshold_trace_integral():
    # x10 units: C=200, T=60, tau=5 stands for C=20, T=6, tau=0.5
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=500000)
    seq = TransactionSequence.from_pairs([(t, 60) for t in range(1, 5)])
    policy = ThresholdPolicy(params)
    res = run_sequence(policy, seq)
    assert res.settled_value == 240
    assert flush_events(policy) == [(2, None, 100), (4, None, 100), (4, None, 40)]
    assert res.flush_count == 3
    assert res.utility == 9


def test_threshold_trace_fractional_quantum():
    # eta*C = 83.6 is not an integer; amounts stay exact rationals
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=418000)
    seq = TransactionSequence.from_pairs([(1, 60), (2, 60)])
    policy = ThresholdPolicy(params)
    res = run_sequence(policy, seq)
    assert res.settled_value == 120
    assert flush_events(policy) == [
        (2, None, Fraction(418, 5)),
        (2, None, Fraction(182, 5)),
    ]
    assert res.utility == 12 - 10


def test_threshold_discards_when_short():
    params = ModelParams(C=10, T=6, F=3, p_ppm=500000, tau=1, eta_ppm=600000)
    seq = TransactionSequence.from_pairs([(1, 6), (2, 6), (3, 5)])
    policy = ThresholdPolicy(params)
    res = run_sequence(policy, seq)
    # 6 settles and the threshold flushes it at once; with that 6 in flight
    # only 4 is available, so both later offers are turned away
    assert settle_slots(policy) == [1]
    assert flush_events(policy) == [(1, None, 6)]
    assert res.settled_value == 6


def test_threshold_requires_eta():
    with pytest.raises(CollateralError, match=r"^threshold policy needs eta_ppm$"):
        ThresholdPolicy(ModelParams(C=10, T=5, F=1))


def test_threshold_eta_one_flushes_only_when_saturated():
    # eta = 1 is legal: flush C exactly when the whole pool is committed
    params = ModelParams(C=6, T=3, F=1, eta_ppm=10**6)
    seq = TransactionSequence.from_pairs([(1, 3), (2, 3), (3, 3)])
    policy = ThresholdPolicy(params)
    run_sequence(policy, seq)
    assert flush_events(policy) == [(2, None, 6)]
    assert settle_slots(policy) == [1, 2]


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
    coins = CountingCoins(lambda: 0)
    pol = make_policy("rand2", params, coins=coins)
    run_sequence(pol, seq)
    assert flush_events(pol) == [(3, 1, 4)]
    assert settle_slots(pol) == [1]
    assert coins.drawn == 1  # second coin would come with the next online slot
    assert len(read_events(pol.trace)) == 9  # 4 arrive, 1 settle, 3 discard, 1 flush


def test_rand2_draws_one_coin_per_online_period():
    params = ModelParams(C=4, T=4, F=1)
    seq = TransactionSequence.from_pairs([(1, 4), (2, 4), (3, 4), (5, 4), (6, 4)])
    coins = CountingCoins(lambda: 1)
    run_sequence(make_policy("rand2", params, coins=coins), seq)
    assert coins.drawn == 2


def test_rand2_seeded_determinism():
    params = ModelParams(C=10, T=10, F=2)
    seq = TransactionSequence.from_pairs([(t, 3 + (t % 5)) for t in range(1, 15)])
    a, b = make_policy("rand2", params, seed=42), make_policy("rand2", params, seed=42)
    assert run_sequence(a, seq).settled_value == run_sequence(b, seq).settled_value
    assert a.trace.to_ndjson() == b.trace.to_ndjson()


def test_rand2_needs_single_wallet():
    with pytest.raises(CollateralError, match=r"^rand2 runs a single wallet, got k=2$"):
        RandTwoPolicy(ModelParams(C=10, T=5, F=1, k=2))
    # unseeded, random.Random(None) would draw from OS entropy: no run repeats
    with pytest.raises(CollateralError, match=r"^rand2 needs a seed or an explicit coin source$"):
        make_policy("rand2", ModelParams(C=10, T=5, F=1))


def test_rand2_takes_a_collateral_whose_double_is_past_the_float_range():
    # the shadow FlushAll's two wallets of C hold 2C, which ModelParams
    # would refuse here, so rand2 must build its shadow without one
    params = ModelParams(C=10**308, T=1, F=1, tau=1)
    seq = TransactionSequence.from_pairs([(1, 1), (2, 1), (4, 1)])
    coins = seeded_coins(0)
    res = run_sequence(make_policy("rand2", params, coins=coins), seq)
    assert (res.settled_value, res.flush_count, coins.drawn) == (0, 0, 1)
    policy = make_policy("rand2", params, coins=lambda: 0)
    res = run_sequence(policy, seq)
    assert (res.settled_value, res.flush_count) == (3, 1)
    assert flush_events(policy) == [(4, 1, 3)]


def test_make_policy_unknown_kind():
    message = f"unknown policy kind 'nope'; expected one of {POLICY_KINDS}"
    with pytest.raises(CollateralError, match=f"^{re.escape(message)}$"):
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
        whole = make_policy(kind, params)
        run_sequence(whole, full)
        if head:
            part = make_policy(kind, params)
            run_sequence(part, TransactionSequence.from_pairs(head))
            prefix_events = [e for e in read_events(whole.trace) if e.slot <= cut]
            assert prefix_events == [e for e in read_events(part.trace) if e.slot <= cut]


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=12),
    st.sampled_from(["fa", "fwf", "ftwf", "eta"]),
)
@settings(max_examples=80, deadline=None)
def test_settled_never_exceeds_offered(values, kind):
    params = ModelParams(C=12, T=6, F=1, k=2, tau=1, eta_ppm=500000)
    seq = TransactionSequence.from_pairs([(i + 1, v) for i, v in enumerate(values)])
    res = run_sequence(make_policy(kind, params), seq)
    assert 0 <= res.settled_value <= res.offered_value
    assert res.n_tx == len(values)


COUNTER_PARAMS = {
    "fa": ModelParams(C=12, T=3, F=2, k=4),
    "fwf": ModelParams(C=12, T=3, F=2, k=2),
    "ftwf": ModelParams(C=12, T=3, F=2, k=4),
    "rand2": ModelParams(C=6, T=3, F=2),
    # eta*C = 18/5, so tranches are not integral
    "eta": ModelParams(C=12, T=3, F=2, eta_ppm=300000),
}


def step_and_check(policy, slot, value):
    """Step ``policy``; its return must name the wallet of the settle it
    logged in that step (the pool counts as 1), or be 0 if it logged none."""
    chunks = policy.trace.chunks
    start = len(chunks)
    taken = policy.step(slot, value)
    logged = read_events("".join(chunks[start:]))
    settled = [e.wallet or 1 for e in logged if e.kind == SETTLE]
    assert settled == ([taken] if taken else [])


def window_outcome(trace, law):
    """The text validate_window_bound refuses the trace's settles with under
    the params ``law``, or None when they keep the window law."""
    try:
        validate_window_bound(trace, law)
    except CollateralError as err:
        return str(err)
    return None


@given(
    st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=3)), max_size=30),
    st.sampled_from(sorted(COUNTER_PARAMS)),
    st.sampled_from([0, 1]),
    st.integers(min_value=0, max_value=2**16),
    st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=6)),
)
@settings(max_examples=150, deadline=None)
def test_counters_match_trace(symbols, kind, tau, seed, law):
    params = replace(COUNTER_PARAMS[kind], tau=tau)
    pairs = [(i + 1, v) for i, v in enumerate(symbols) if v is not None]
    seq = TransactionSequence.from_pairs(pairs, horizon=len(symbols))
    whole = make_policy(kind, params, seed=seed)
    res = run_sequence(whole, seq)
    expected = trace_totals(whole.trace)
    assert {name: getattr(res, name) for name in expected} == expected
    # the same run on the untraced sink: the same totals and settle columns,
    # and the window check, under a C and F it may break, judges both alike
    bare = make_policy(kind, params, seed=seed, trace=SettleLog())
    assert run_sequence(bare, seq) == res
    kept, full = bare.trace, whole.trace
    assert type(kept) is SettleLog and type(full) is EventTrace
    assert (kept.settle_slots, kept.settle_values) == (full.settle_slots, full.settle_values)
    law = ModelParams(C=law[0], T=1, F=law[1])
    assert window_outcome(kept, law) == window_outcome(full, law)
    cut = len(symbols) // 2
    by_slot = dict(zip(seq.slots, seq.values))
    policy = make_policy(kind, params, seed=seed)
    for slot in range(1, cut + 1):
        step_and_check(policy, slot, by_slot.get(slot))
    if kind not in ("fa", "fwf", "ftwf"):
        return
    # stepping a clone of the reference wallet-group policy leaves the
    # original's counters and trace alone
    policy = reference_group_policy(kind, params)
    for slot in range(1, cut + 1):
        step_and_check(policy, slot, by_slot.get(slot))
    machine = policy.machine
    before = (machine.settled, machine.flushes, machine.trace.to_ndjson())
    fork = policy.clone()
    for slot in range(cut + 1, seq.horizon + 1):
        step_and_check(fork, slot, by_slot.get(slot))
    fork.finish(seq.horizon)
    assert (machine.settled, machine.flushes, machine.trace.to_ndjson()) == before
    # the fork carried the counters on and logged only its own slots
    assert (fork.machine.settled, fork.machine.flushes) == (
        res.settled_value, res.flush_count
    )
    assert read_events(fork.machine.trace) == [
        e for e in read_events(whole.trace) if e.slot > cut
    ]


@given(
    st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=3)), max_size=30),
    st.sampled_from(sorted(COUNTER_PARAMS)),
    st.sampled_from([0, 1]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=150, deadline=None)
def test_trace_records_match_its_lines(symbols, kind, tau, seed, C, F):
    # the text and the settle columns are both kept at log time; each must
    # agree with the events parsed back from the lines
    pairs = [(i + 1, v) for i, v in enumerate(symbols) if v is not None]
    seq = TransactionSequence.from_pairs(pairs, horizon=len(symbols))
    policy = make_policy(kind, replace(COUNTER_PARAMS[kind], tau=tau), seed=seed)
    run_sequence(policy, seq)
    trace = policy.trace
    events = read_events(trace)
    assert reference_ndjson(events) == trace.to_ndjson()
    settles = [(e.slot, e.value) for e in events if e.kind == SETTLE]
    assert list(zip(trace.settle_slots, trace.settle_values)) == settles
    # the settles are logged in strictly increasing slot order, so the window
    # check reads the columns unsorted and, under a C and F that it may
    # break, judges them as the reference does
    assert all(s < t for s, t in zip(trace.settle_slots, trace.settle_slots[1:]))
    law = ModelParams(C=C, T=1, F=F)
    bad = reference_first_overfull(settles, C, F)
    if bad is None:
        validate_window_bound(trace, law)
    else:
        s, total = bad
        with pytest.raises(CollateralError) as err:
            validate_window_bound(trace, law)
        assert str(err.value) == f"window bound violated: {total} > C={C} in slots [{s}, {s + F}]"


# fwf at k = 4 returns its wallets in rotation order, so a gap holding
# several returns restores them out of index order
OFFER_STEPPING_PARAMS = {
    "fa": dict(C=12, T=3, k=2),
    "fwf": dict(C=12, T=3, k=4),
    "ftwf": dict(C=12, T=3, k=4),
    "rand2": dict(C=6, T=3),
    "eta": dict(C=12, T=3, eta_ppm=300000),
}


def draw_gapped_sequence(draw, params, max_size):
    """Offers up to T whose gaps, and the horizon past the last, span several outages."""
    gap = st.integers(min_value=1, max_value=3 * (params.F + 1))
    pairs, slot = [], 0
    for step, value in draw(st.lists(st.tuples(gap, st.integers(1, params.T)), max_size=max_size)):
        slot += step
        pairs.append((slot, value))
    horizon = slot + draw(st.integers(min_value=0, max_value=3 * (params.F + 1)))
    return TransactionSequence.from_pairs(pairs, horizon)


@st.composite
def offer_stepping_runs(draw):
    """A policy kind, its params and a sequence whose gaps span several outages."""
    kind = draw(st.sampled_from(POLICY_KINDS))
    F = draw(st.integers(min_value=1, max_value=3))
    params = ModelParams(F=F, **OFFER_STEPPING_PARAMS[kind])
    return kind, params, draw_gapped_sequence(draw, params, 25)


# ten offers of 3 flush wallets 1-4 and then wallet 1 again at slot 10; the
# quiet slots after it return wallet 4 (slot 12) before wallet 1 (slot 14)
WRAPPED_RETURNS = (
    "fwf",
    ModelParams(C=12, T=3, F=3, k=4),
    TransactionSequence.from_pairs([(s, 3) for s in range(1, 11)], horizon=25),
)


@given(offer_stepping_runs(), st.sampled_from([0, 1]), st.integers(min_value=0, max_value=2**16))
@example(WRAPPED_RETURNS, 0, 0)
@settings(max_examples=300, deadline=None)
def test_stepping_the_offers_equals_stepping_every_slot(run, tau, seed):
    kind, params, seq = run
    params = replace(params, tau=tau)
    ours, theirs = seeded_coins(seed), seeded_coins(seed)  # only rand2 draws
    policy = make_policy(kind, params, coins=ours)
    res = run_sequence(policy, seq)
    reference = make_policy(kind, params, coins=theirs)
    run_every_slot(reference, seq)
    assert policy.trace.to_ndjson() == reference.trace.to_ndjson()
    assert (res.settled_value, res.flush_count) == (
        sum(reference.trace.settle_values), reference.trace.flushes
    )
    assert ours.drawn == theirs.drawn
    # a reader that never imports collatsim finds no fault in the NDJSON,
    # with the leftovers kept (tau = 0) or flushed
    k = None if kind == "eta" else params.k
    assert trace_problems(policy.trace, params.C, params.F, k) == []


def test_trace_checker_flags_machine_faults():
    # a bank whose outages last F+1 slots returns a wallet flushed at t at
    # t+F+2, and a pool whose outages last F-1 slots returns a tranche at t+F;
    # checked against the true F, each trace shows its fault
    params = ModelParams(C=12, T=3, F=2, k=2)
    policy = reference_group_policy("fwf", params)
    policy.machine.params = replace(params, F=3)
    for slot in range(1, 8):
        policy.step(slot, 3)
    assert trace_problems(policy.machine.trace, 12, 2, 2) == [
        "event 12 (arrive at slot 6): wallet 1 flushed at slot 3 is still offline",
        "event 15 (online at slot 7): wallet 1 flushed at slot 3 is back at slot 7, not 6",
    ]
    params = ModelParams(C=10, T=5, F=2, eta_ppm=500000)
    policy = ThresholdPolicy(params)
    policy.params = replace(params, F=1)
    for slot in range(1, 4):
        policy.step(slot, 5)
    assert trace_problems(policy.trace, 10, 2) == [
        "event 7 (online at slot 3): tranche flushed at slot 1 is back at slot 3, not 4",
        "event 9 (settle at slot 3): slots [1, 3] settle 15 > C=10",
    ]
    # a pool whose outages last F+1 slots returns a tranche flushed at 1 at
    # slot 5; the run ends at 4 with no later event, so only the end shows it
    policy = ThresholdPolicy(params)
    policy.params = replace(params, F=3)
    for slot, value in enumerate([5, None, None, None], 1):
        policy.step(slot, value)
    assert trace_problems(policy.trace, 10, 2) == []
    assert trace_problems(policy.trace, 10, 2, end=4) == [
        "by the last slot, 4: tranche flushed at slot 1 is still out",
    ]


@st.composite
def rand2_runs(draw):
    """rand2 params with T in [1, C], tau in {0, 1} and offers whose gaps span
    several outages."""
    C = draw(st.integers(min_value=2, max_value=12))  # p*C > tau = 1
    T = draw(st.integers(min_value=1, max_value=C))
    F = draw(st.integers(min_value=1, max_value=4))
    params = ModelParams(C=C, T=T, F=F, tau=draw(st.sampled_from([0, 1])))
    return params, draw_gapped_sequence(draw, params, 30)


@given(rand2_runs(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rand2_equals_its_shadow_flush_all_reference(run, seed):
    # the program's rule on a two-wallet state list makes the same
    # decisions, coins and bytes as following a whole two-wallet FlushAll
    # of the reference, which shares no rule with it
    params, seq = run
    coins = seeded_coins(seed)
    policy = make_policy("rand2", params, coins=coins)
    reference = ReferenceRandTwo(params, seed=seed)
    by_slot = dict(zip(seq.slots, seq.values))
    for slot in range(1, seq.horizon + 1):
        value = by_slot.get(slot)
        assert policy.step(slot, value) == reference.step(slot, value)
    policy.finish(seq.horizon)
    reference.finish(seq.horizon)
    ours, theirs = policy.trace, reference.machine
    assert ours.to_ndjson() == theirs.trace.to_ndjson()
    assert (sum(ours.settle_values), ours.flushes) == (theirs.settled, theirs.flushes)
    assert coins.drawn == reference.coins_drawn


@st.composite
def group_flush_runs(draw):
    """fa, fwf or ftwf at k in {1, 2, 4, 6} and tau in {0, 1}, with offers
    whose gaps span several outages."""
    k = draw(st.sampled_from([1, 2, 4, 6]))
    kind = draw(st.sampled_from(["fa", "fwf", "ftwf"] if k % 2 == 0 else ["fa", "fwf"]))
    size = draw(st.integers(min_value=2, max_value=6))  # p*C > tau = 1
    params = ModelParams(
        C=k * size, T=draw(st.integers(min_value=1, max_value=size)),
        F=draw(st.integers(min_value=1, max_value=3)), k=k,
        tau=draw(st.sampled_from([0, 1])),
    )
    return kind, params, draw_gapped_sequence(draw, params, 30)


@given(group_flush_runs())
@example(WRAPPED_RETURNS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_run_sequence_equals_the_reference_group_policy(run):
    # the one rule on the state list, stepped on the offers alone, decides,
    # logs and counts as the object route on a WalletBank stepped every slot
    kind, params, seq = run
    policy = make_policy(kind, params)
    res = run_sequence(policy, seq)
    reference = reference_group_policy(kind, params)
    run_every_slot(reference, seq)
    machine = reference.machine
    assert policy.trace.to_ndjson() == machine.trace.to_ndjson()
    assert (res.settled_value, res.flush_count) == (machine.settled, machine.flushes)
    assert policy.state(seq.horizon) == reference.state(seq.horizon)


@given(group_flush_runs(), st.integers(min_value=1, max_value=8))
@example(
    ("fa", ModelParams(C=12, T=3, F=2, k=2),
     TransactionSequence.from_pairs([(s, 3) for s in range(1, 6)])),
    5,
)
@settings(max_examples=100, deadline=None)
def test_group_state_past_the_last_step_is_the_state_a_quiet_step_leaves(run, later):
    # state(slot) may be read at any slot after the last step: an outage
    # that ended by then reads as online, as a quiet step there leaves it
    kind, params, seq = run
    read, stepped = make_policy(kind, params), make_policy(kind, params)
    for policy in (read, stepped):
        for slot, value in zip(seq.slots, seq.values):
            policy.step(slot, value)
    slot = (seq.slots[-1] if seq.slots else 0) + later
    stepped.step(slot, None)
    assert read.state(slot) == stepped.state(slot)


@given(group_flush_runs())
@settings(max_examples=100, deadline=None)
def test_group_state_lists_each_wallets_room_then_its_outage(run):
    # the reference's state(slot) is the active group, then per wallet its
    # room, the full C/k while offline, then per wallet its outage end less
    # slot, -1 while online
    kind, params, seq = run
    policy = reference_group_policy(kind, params)

    def from_bank(slot):
        bank = policy.machine
        rooms, ends = [], []
        for j in range(params.k):
            offline = bank.offline_until[j] != 0
            rooms.append(bank.size if offline else bank.remaining[j])
            ends.append(bank.offline_until[j] - slot if offline else -1)
        return (policy.active, *rooms, *ends)

    for slot, value in zip(seq.slots, seq.values):
        policy.step(slot, value)
        assert policy.state(slot) == from_bank(slot)
    back = seq.horizon + params.F + 1
    policy.step(back, None)
    assert policy.state(back) == from_bank(back)


@st.composite
def threshold_runs(draw):
    """Valid threshold-policy params and a slot-by-slot arrival list."""
    C = draw(st.integers(min_value=1, max_value=60))
    T = draw(st.integers(min_value=1, max_value=C))
    eta_ppm = draw(st.integers(min_value=-(-T * PPM // C), max_value=PPM))
    F = draw(st.integers(min_value=1, max_value=4))
    values = st.one_of(st.none(), st.integers(min_value=1, max_value=T))
    return ModelParams(C=C, T=T, F=F, eta_ppm=eta_ppm), draw(st.lists(values, max_size=30))


@given(threshold_runs())
@settings(max_examples=150, deadline=None)
def test_threshold_pool_ledger(run):
    params, symbols = run
    policy = ThresholdPolicy(params)
    for slot, v in enumerate(symbols, 1):
        policy.step(slot, v)
        assert policy.free + policy.committed + sum(a for a, _ in policy.inflight) == params.C * PPM
        assert policy.committed < params.eta_ppm * params.C
    policy.finish(len(symbols))
    # the NDJSON alone rebuilds the balances and the tranche queue, and
    # every tranche due by the last slot came back
    assert trace_problems(policy.trace, params.C, params.F, end=len(symbols)) == []
    # once every outage is over, each tranche, the finish flush's too, has
    # come back exactly F+1 slots after its flush, and the pool is whole
    back = len(symbols) + params.F + 2
    policy.begin_slot(back)
    assert trace_problems(policy.trace, params.C, params.F, end=back) == []
    assert not policy.inflight
    assert policy.free == params.C * PPM


@st.composite
def pool_runs(draw):
    """A threshold run with p and tau drawn too, and raw ledger operations
    to apply after it: ("settle", value) or ("flush", units), where None
    flushes the whole committed balance."""
    params, symbols = draw(threshold_runs())
    p_ppm = draw(st.integers(min_value=1, max_value=PPM))
    tau = draw(st.integers(min_value=0, max_value=(p_ppm * params.C - 1) // PPM))
    params = ModelParams(
        C=params.C, T=params.T, F=params.F, p_ppm=p_ppm, tau=tau, eta_ppm=params.eta_ppm
    )
    ops = st.one_of(
        st.tuples(st.just("settle"), st.integers(min_value=1, max_value=2 * params.C)),
        st.tuples(st.just("flush"), st.one_of(
            st.none(), st.integers(min_value=-PPM, max_value=(params.C + 1) * PPM)
        )),
    )
    return params, symbols, draw(st.lists(ops, max_size=6))


@given(pool_runs())
@example((
    ModelParams(C=200, T=60, F=2, p_ppm=100000, tau=5, eta_ppm=418000),
    [60, 60, None, 59, 60, 60, 10, None, 45],
    [("settle", 200), ("flush", 1), ("flush", None), ("flush", 0)],
))
@settings(max_examples=200, deadline=None)
def test_integer_pool_matches_reference_ledger(run):
    # the ledger in 1/PPM ints gives the Fraction ledger's lines, balances,
    # counters and error texts, eta*C whole or not
    params, symbols, ops = run
    policy, reference = ThresholdPolicy(params), ReferenceThreshold(params)
    ref = reference.machine

    def same_ledgers():
        assert policy.trace.to_ndjson() == reference_ndjson(ref.events)
        assert Fraction(policy.free, PPM) == ref.free
        assert Fraction(policy.committed, PPM) == ref.committed
        assert [(Fraction(a, PPM), back) for a, back in policy.inflight] == ref.inflight
        assert (sum(policy.trace.settle_values), policy.trace.flushes) == (
            ref.settled, ref.flushes
        )

    for slot, v in enumerate(symbols, 1):
        policy.step(slot, v)
        reference.step(slot, v)
        same_ledgers()
    policy.finish(len(symbols))
    reference.finish(len(symbols))
    same_ledgers()
    slot = len(symbols) + 1
    policy.begin_slot(slot)
    ref.begin_slot(slot)
    for op, x in ops:
        outcomes = []
        for ledger in (policy, ref):
            try:
                if op == "settle":
                    ledger.settle(x, slot)
                elif x is None:
                    ledger.flush(ledger.committed, slot)
                else:
                    ledger.flush(x if ledger is policy else Fraction(x, PPM), slot)
                outcomes.append(None)
            except CollateralError as err:
                outcomes.append((type(err), str(err)))
        assert outcomes[0] == outcomes[1]
        same_ledgers()


def test_pool_ledger_is_integral():
    # eta*C = 418/5 is not whole, yet every balance and tranche stays an int
    params = ModelParams(C=200, T=60, F=2, p_ppm=100000, tau=5, eta_ppm=418000)
    policy = ThresholdPolicy(params)
    assert policy.tranche == 83_600_000  # 418/5 = 83.6
    rng = random.Random(6)
    for slot in range(1, 301):
        policy.step(slot, rng.randint(10, 60) if rng.random() < 0.6 else None)
        assert type(policy.free) is int and type(policy.committed) is int
        assert all(type(amount) is int for amount, _ in policy.inflight)
    policy.finish(300)
    assert type(policy.committed) is int
    assert policy.trace.flushes > 10
    assert '"flushAmount":"418/5"' in policy.trace.to_ndjson()


# eta*C = 418/5 at C = 200, so the threshold policy's tranches are not integral
ETA_418 = ModelParams(C=200, T=60, F=2, p_ppm=100000, tau=5, eta_ppm=418000)


@pytest.mark.parametrize("case", grid.cases("traces"))
def test_golden_traces(tmp_path, case):
    # each policy's trace at tau 0 and at tau > 0, pinned by the identity grid
    kind, k = case.split("-")
    k = int(k)
    C = ETA_418.C if kind == "eta" else 6 * k
    for row_id in grid.cases("traces")[case]:
        directory = tmp_path / row_id.rpartition(" ")[2]
        directory.mkdir()
        grid.check(row_id, directory)
        ndjson = (directory / "trace.ndjson").read_text()
        assert trace_problems(ndjson, C, 2, None if kind == "eta" else k) == []
    if kind == "eta":
        assert '"flushAmount":"418/5"' in ndjson
        return
    # the rotation wraps: wallet 1 flushes again after wallet k has flushed
    flushed = [e.wallet for e in read_events(ndjson) if e.kind == FLUSH]
    assert 1 in flushed[flushed.index(k) + 1:]


NDJSON_PARAMS = {**COUNTER_PARAMS, "eta": ETA_418}


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_run_ndjson_matches_json_module(kind):
    # tau > 0, so the wallet policies flush their leftovers at the end
    params = replace(NDJSON_PARAMS[kind], tau=1)
    seq = TransactionSequence.from_pairs(grid.golden_pairs(7, params.T, slots=300))
    policy = make_policy(kind, params, seed=7)
    run_sequence(policy, seq)
    ndjson = policy.trace.to_ndjson()
    assert ndjson == reference_ndjson(read_events(policy.trace))
    if kind == "eta":
        assert '"flushAmount":"418/5"' in ndjson
