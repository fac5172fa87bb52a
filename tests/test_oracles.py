"""Offline optima and bounds, cross-checked against each other."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from collatsim import oracles
from collatsim.model import PPM, ModelParams, TransactionSequence, first_overfull_window
from collatsim.oracles import (
    BudgetExceeded,
    opt_general_utility,
    opt_general_value,
    opt_kwallet_value,
    opt_utility_upper_bound,
    opt_value_extend,
    opt_value_key_step,
    window_upper_bound,
)
from oracle_reference import (
    greedy_feasible_value,
    opt_general_value_sim,
    opt_value_key,
    subset_optima,
    utility_optimum_reference,
    window_law_holds,
    window_lp_reference,
    window_upper_bound_all_offsets,
)


def seq_of(pairs):
    return TransactionSequence.from_pairs(pairs)


FIVE_SIXES = [(t, 6) for t in range(1, 6)]
THREE_TENS = [(1, 10), (2, 10), (3, 10)]


def test_window_check():
    for pairs, C, F, holds in [
        (FIVE_SIXES, 20, 1, True),
        (THREE_TENS, 10, 2, False),
        ([(1, 10)], 10, 2, True),
        ([], 1, 1, True),
    ]:
        assert window_law_holds(pairs, C, F) is holds
        slots, values = [s for s, _ in pairs], [v for _, v in pairs]
        assert (first_overfull_window(slots, values, C, F) is None) is holds


def test_opt_value_examples():
    assert opt_general_value(seq_of(FIVE_SIXES), 20, 1) == 30
    assert opt_general_value(seq_of(THREE_TENS), 10, 2) == 10
    # adjacent pairs at exactly C are fine; one unit less forces a skip
    assert opt_general_value(seq_of([(1, 4), (2, 4), (3, 4)]), 8, 1) == 12
    assert opt_general_value(seq_of([(1, 4), (2, 4), (3, 4)]), 7, 1) == 8


def test_opt_value_witness():
    seq = seq_of(THREE_TENS)
    best, witness = opt_general_value(seq, 10, 2, return_witness=True)
    assert best == 10
    assert sum(t.value for t in witness) == best
    assert window_law_holds([(t.slot, t.value) for t in witness], 10, 2)


def test_opt_value_budget():
    # no length budget: one offer per slot, and a 3-slot window fits one of them
    seq = seq_of([(t, 10) for t in range(1, 2001)])
    assert opt_general_value(seq, 10, 2) == 10 * 667
    # 12 offers whose every subset is a state: 2^13 - 2 states listing
    # 11 * 2^12 + 1 settles, below 2^16 cells
    assert opt_general_value(seq_of([(t, 1) for t in range(1, 13)]), 12, 12) == 12
    # dense and wide: about 21,700 states per layer, refused at the cap
    dense = seq_of([(t, 1) for t in range(1, 301)])
    with pytest.raises(BudgetExceeded, match=r"exceeds 8388608 cells"):
        opt_general_value(dense, 5, 20)


def test_state_step_cap_is_exact(monkeypatch):
    # every subset of 5 offers is a state: layers of 2, 4, 8, 16, 32 states
    # listing 1, 4, 12, 32, 80 settles, 191 cells in all
    seq = seq_of([(t, 1) for t in range(1, 6)])
    monkeypatch.setattr(oracles, "MAX_DP_CELLS", 191)
    assert opt_general_value(seq, 5, 5) == 5
    assert opt_general_value(seq, 5, 5, return_witness=True)[0] == 5
    monkeypatch.setattr(oracles, "MAX_DP_CELLS", 190)
    with pytest.raises(BudgetExceeded, match="at transaction 5 of 5"):
        opt_general_value(seq, 5, 5)


def test_opt_value_sums_separated_segments():
    """Segments more than F slots apart share no window, so the optimum of
    the whole is the sum of the segments' subset optima."""
    rng = random.Random(5)
    for _ in range(40):
        C = rng.randint(1, 15)
        F = rng.randint(1, 4)
        pairs, expected, slot = [], 0, 0
        while len(pairs) < 20 or rng.random() < 0.8 and len(pairs) < 54:
            slot += F + 1 + rng.randint(0, 2)
            segment = []
            for _ in range(rng.randint(1, 8)):
                segment.append((slot, rng.randint(1, C + 2)))
                slot += rng.randint(1, 2)
            expected += subset_optima(segment, C, F)[-1]
            pairs += segment
        best, witness = opt_general_value(seq_of(pairs), C, F, return_witness=True)
        assert best == expected
        chosen = [(t.slot, t.value) for t in witness]
        assert sum(v for _, v in chosen) == best
        assert window_law_holds(chosen, C, F)


def fold_optima(pairs, C, F):
    """The DP's optimum after each transaction, checking its state bound."""
    states, optima = {(): 0}, []
    for slot, value in pairs:
        states = opt_value_extend(states, slot, value, C, F)
        assert len(states) <= 2**F
        optima.append(max(states.values()))
    return optima


def test_opt_value_extend_matches_full_recompute():
    rng = random.Random(11)
    for _ in range(30):
        C = rng.randint(3, 12)
        F = rng.randint(1, 3)
        pairs = []
        slot = 0
        for _ in range(rng.randint(1, 8)):
            slot += rng.randint(1, 3)
            pairs.append((slot, rng.randint(1, C)))
        optima = fold_optima(pairs, C, F)
        assert optima == subset_optima(pairs, C, F)
        assert optima[-1] == opt_general_value(seq_of(pairs), C, F)


def test_opt_value_key_drops_absolute_slots():
    C, F = 5, 2

    def layer(pairs):
        states = {(): 0}
        for slot, value in pairs:
            states = opt_value_extend(states, slot, value, C, F)
        return states

    pairs = [(1, 2), (2, 3), (4, 1), (5, 3)]
    key = opt_value_key(layer(pairs), 5, F)
    assert key == opt_value_key(layer([(s + 7, v) for s, v in pairs]), 12, F)
    # a row lists the (slots ago, value) settles of slots 4 and 5, and rows
    # sort by them; settling both reaches the best total, 9, and settling
    # neither falls 4 below it
    assert key[0] == ((), 4) and key[-1] == (((1, 1), (0, 3)), 0)
    # after F quiet slots no settle shares a window with a later offer, and
    # the states merge into one at the best total
    assert opt_value_key(layer(pairs), 5 + F, F) == (((), 0),)
    # a row lists only the settles, so its size does not grow with F
    settled = opt_value_extend({(): 0}, 1, 2, C, 10**8)
    assert opt_value_key(settled, 3, 10**8) == (((), 2), (((2, 2),), 0))


def value_layer(pairs, C, F):
    states = {(): 0}
    for slot, value in pairs:
        states = opt_value_extend(states, slot, value, C, F)
    return states


def all_rows(states, slot, F):
    """Every row of a layer with its smallest gap, dominated rows kept."""
    best = max(states.values())
    rows = {}
    for state, total in states.items():
        row = tuple((slot - s, v) for s, v in state if s >= slot - F + 1)
        rows[row] = min(rows.get(row, best - total), best - total)
    return rows


def test_opt_value_key_drops_a_dominated_row():
    # offers 1, 1, 2 at C = 3, F = 2: settling the 1 of slot 2 and the 2
    # reaches the best, 3, and so does settling the 2 alone in the window
    # (with the 1 of slot 1, now outside it), which leaves less load
    C, F = 3, 2
    states = value_layer([(1, 1), (2, 1), (3, 2)], C, F)
    rows = all_rows(states, 3, F)
    assert rows[((1, 1), (0, 2))] == 0 and rows[((0, 2),)] == 0
    assert opt_value_key(states, 3, F) == (((), 2), (((0, 2),), 0), (((1, 1),), 1))


def test_opt_value_key_merges_layers_that_differ_in_dominated_rows():
    # offers 2, 2, 1 and a lone 1 at slot 3, at C = 3, F = 2: the first
    # layer also lists the 2 of slot 2, alone at gap 1 and with the 1 at
    # gap 0, each no better than the same row without it, so both layers
    # have the lone 1's key and gain alike on every next offer
    C, F = 3, 2
    busy = value_layer([(1, 2), (2, 2), (3, 1)], C, F)
    lone = value_layer([(3, 1)], C, F)
    assert all_rows(busy, 3, F) != all_rows(lone, 3, F)
    assert opt_value_key(busy, 3, F) == opt_value_key(lone, 3, F) == (
        ((), 1), (((0, 1),), 0)
    )

    def step(layer, value):
        after = opt_value_extend(layer, 4, value, C, F)
        return max(after.values()) - max(layer.values()), opt_value_key(after, 4, F)

    for value in range(1, C + 2):
        assert step(busy, value) == step(lone, value)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_equal_value_keys_gain_alike(C, F, values):
    # exhaustive_verify steps one layer per key and reuses its gain and next
    # key at every node with that key, whatever its slots and history.  The
    # histories are every sequence of at most 4 slots, each slot offering
    # one of the values or nothing (None), so leading quiet slots shift
    # them and trailing ones merge states that differ only in older settles
    by_key = {}
    for length in range(5):
        for symbols in product((None, *values), repeat=length):
            layer = {(): 0}
            for slot, value in enumerate(symbols, 1):
                if value is not None:
                    layer = opt_value_extend(layer, slot, value, C, F)
            by_key.setdefault(opt_value_key(layer, length, F), []).append((layer, length))

    def step(layer, slot, value):
        after = layer
        if value is not None:
            after = opt_value_extend(layer, slot + 1, value, C, F)
        return max(after.values()) - max(layer.values()), opt_value_key(after, slot + 1, F)

    for (first, slot), *others in by_key.values():
        for value in (None, *range(1, C + 2)):
            want = step(first, slot, value)
            for layer, at in others:
                assert step(layer, at, value) == want


def layer_rows(states, slot, F):
    """A layer's rows as opt_value_key_step takes them, dominated rows kept."""
    return tuple(sorted(all_rows(states, slot, F).items()))


@st.composite
def keyed_layers(draw):
    """A layer of opt_value_extend, the slot it was met at, C, F and the
    next slot's offer (None for a quiet slot)."""
    C = draw(st.integers(min_value=1, max_value=12))
    F = draw(st.integers(min_value=0, max_value=9))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=9))
    layer, slot = {(): 0}, 0
    for gap in gaps:
        slot += gap
        layer = opt_value_extend(layer, slot, draw(st.integers(1, C + 2)), C, F)
    slot += draw(st.integers(min_value=0, max_value=F + 2))
    value = draw(st.none() | st.integers(min_value=1, max_value=C + 2))
    return layer, slot, C, F, value


# offers 2, 2, 1, 1, 2 at C = 4, F = 4: at slot 7 the row (3, 1), (2, 2), the
# 1 of slot 4 and the 2 of slot 5, is dominated by the row (2, 2), the 2 of
# slot 5 after the 2 of slot 1, which at slot 6 was dominated by the empty row
DOMINATED_DOMINATOR = value_layer([(1, 2), (2, 2), (3, 1), (4, 1), (5, 2)], 4, 4)


@given(keyed_layers())
# a quiet slot; a slot at most F; F past the layer's last slot, where no
# settle leaves the window; a row dominated by a row outside the key
@example(({(): 0, ((1, 2),): 2}, 1, 5, 2, None))
@example(({(): 0, ((1, 2),): 2, ((1, 2), (2, 3)): 5}, 2, 5, 3, 3))
@example(({(): 0, ((1, 2),): 2, ((1, 2), (2, 3)): 5}, 4, 5, 10**8, 1))
@example((DOMINATED_DOMINATOR, 6, 4, 4, None))
@settings(max_examples=400, deadline=None)
def test_opt_value_key_step_matches_the_layer_route(case):
    # one step of a layer's rows equals extending the layer, then taking
    # its rows and its key afresh
    layer, slot, C, F, value = case
    after = layer if value is None else opt_value_extend(layer, slot + 1, value, C, F)
    want = (
        layer_rows(after, slot + 1, F),
        opt_value_key(after, slot + 1, F),
        max(after.values()) - max(layer.values()),
    )
    assert opt_value_key_step(layer_rows(layer, slot, F), value, C, F) == want


def test_opt_value_key_step_keeps_a_dominated_dominator():
    # the key at slot 6 drops the row (1, 2), dominated by the empty row,
    # but at slot 7 that row, aged to (2, 2), still drops (3, 1), (2, 2)
    C = F = 4
    rows = layer_rows(DOMINATED_DOMINATOR, 6, F)
    key = opt_value_key(DOMINATED_DOMINATOR, 6, F)
    assert key == (((), 0), (((3, 1), (2, 1)), 0), (((3, 1), (2, 1), (1, 2)), 0))
    assert (((1, 2),), 0) in rows
    after, next_key, gain = opt_value_key_step(rows, None, C, F)
    assert gain == 0 and (((2, 2),), 0) in after
    assert next_key == opt_value_key(DOMINATED_DOMINATOR, 7, F) == (((), 0),)
    # stepped from the key alone, the row would stay
    assert (((3, 1), (2, 2)), 0) in opt_value_key_step(key, None, C, F)[1]


def test_opt_value_key_step_folds_like_the_layers():
    # from the root, rows stepped slot by slot stay the rows of the layers
    C, F = 5, 2
    rows, layer, best = (((), 0),), {(): 0}, 0
    for slot, value in enumerate([2, 3, None, 1, 3, None, None, 5, 1], 1):
        if value is not None:
            layer = opt_value_extend(layer, slot, value, C, F)
        rows, key, gain = opt_value_key_step(rows, value, C, F)
        best += gain
        assert rows == layer_rows(layer, slot, F)
        assert key == opt_value_key(layer, slot, F)
        assert best == max(layer.values())


@st.composite
def instances(draw):
    C = draw(st.integers(min_value=1, max_value=15))
    F = draw(st.integers(min_value=0, max_value=3))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=10))
    pairs, slot = [], 0
    for gap in gaps:
        slot += gap
        pairs.append((slot, draw(st.integers(min_value=1, max_value=C + 2))))
    return pairs, C, F


@given(instances())
@settings(max_examples=150, deadline=None)
def test_dp_matches_subset_reference(instance):
    pairs, C, F = instance
    optima = subset_optima(pairs, C, F)
    assert fold_optima(pairs, C, F) == optima
    seq = seq_of(pairs) if pairs else TransactionSequence([], [], horizon=1)
    best, witness = opt_general_value(seq, C, F, return_witness=True)
    assert best == (optima[-1] if optima else 0)
    assert sum(t.value for t in witness) == best
    chosen = [(t.slot, t.value) for t in witness]
    assert set(chosen) <= set(pairs) and chosen == sorted(chosen)
    assert window_law_holds(chosen, C, F)


def test_greedy_is_feasible_lower_bound():
    pairs = [(1, 8), (2, 8), (3, 8), (5, 8)]
    value, chosen = greedy_feasible_value(pairs, 12, 2)
    assert window_law_holds(chosen, 12, 2)
    assert value == sum(v for _, v in chosen)
    assert value <= opt_general_value(seq_of(pairs), 12, 2)


def test_sim_oracle_agrees():
    for pairs, C, F in [
        (FIVE_SIXES, 20, 1),
        (THREE_TENS, 10, 2),
        ([(1, 4), (2, 4), (3, 4)], 8, 1),
        ([(1, 3), (3, 3), (4, 2), (6, 3)], 5, 2),
    ]:
        assert opt_general_value_sim(seq_of(pairs), C, F) == opt_general_value(
            seq_of(pairs), C, F
        )


def test_opt_kwallet_examples():
    # wallets of size 1 can still take all three by flushing between uses
    seq = seq_of([(1, 1), (2, 1), (3, 1)])
    assert opt_kwallet_value(seq, ModelParams(C=2, T=1, F=1, k=2)) == 3
    # a single wallet of 10 cannot interleave: it must burn F slots to reset
    seq2 = seq_of(THREE_TENS)
    assert opt_kwallet_value(seq2, ModelParams(C=10, T=10, F=2, k=1)) == 10
    assert opt_kwallet_value(seq_of(FIVE_SIXES), ModelParams(C=20, T=6, F=1, k=2)) == 30


def test_opt_kwallet_never_beats_general():
    rng = random.Random(23)
    for _ in range(25):
        k = rng.choice([1, 2])
        size = rng.randint(2, 6)
        C = k * size
        T = rng.randint(1, size)
        F = rng.randint(1, 2)
        slot = 0
        pairs = []
        for _ in range(rng.randint(1, 7)):
            slot += rng.randint(1, 2)
            pairs.append((slot, rng.randint(1, T)))
        seq = seq_of(pairs)
        params = ModelParams(C=C, T=T, F=F, k=k)
        assert opt_kwallet_value(seq, params) <= opt_general_value(seq, C, F)


def test_opt_utility_example():
    # all four settle with one mid-run flush plus the terminal one
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5)
    seq = seq_of([(t, 60) for t in range(1, 5)])
    assert opt_general_utility(seq, params) == 14


def test_opt_utility_discards_unprofitable():
    # a lone small offer is worth less than the flush it would cost
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5)
    seq = seq_of([(1, 10)])
    assert opt_general_utility(seq, params) == 0


def test_opt_utility_free_flushes_degenerate_to_value():
    params = ModelParams(C=10, T=5, F=1, tau=0)
    seq = seq_of([(1, 5), (2, 5), (3, 5)])
    assert opt_general_utility(seq, params) == opt_general_value(seq, 10, 1)


def test_utility_upper_bound():
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5)
    assert opt_utility_upper_bound(240, params) == Fraction(3, 40) * 240
    seq = seq_of([(t, 60) for t in range(1, 5)])
    assert opt_general_utility(seq, params) <= opt_utility_upper_bound(
        opt_general_value(seq, 200, 1), params
    )


@st.composite
def utility_instances(draw):
    C = draw(st.integers(min_value=1, max_value=12))
    T = draw(st.integers(min_value=1, max_value=C))
    F = draw(st.integers(min_value=1, max_value=3))
    p_ppm = draw(st.sampled_from([PPM, 500000, 333333, 100000, 7]))
    tau = draw(st.integers(min_value=0, max_value=(p_ppm * C - 1) // PPM))
    gaps = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=5))
    pairs, slot = [], 0
    for gap in gaps:
        slot += gap
        pairs.append((slot, draw(st.integers(min_value=1, max_value=T))))
    seq = seq_of(pairs) if pairs else TransactionSequence([], [], horizon=1)
    return seq, ModelParams(C=C, T=T, F=F, p_ppm=p_ppm, tau=tau)


@given(utility_instances())
@settings(max_examples=100, deadline=None)
def test_utility_search_matches_every_schedule(instance):
    seq, params = instance
    best = opt_general_utility(seq, params)
    assert type(best) is Fraction
    assert best == utility_optimum_reference(seq, params)


def test_window_upper_bound_examples():
    assert window_upper_bound(seq_of(FIVE_SIXES), 20, 1) == 30
    assert window_upper_bound(seq_of(THREE_TENS), 10, 2) == 10
    assert window_upper_bound(TransactionSequence([], [], horizon=1), 20, 1) == 0


@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=0, max_size=8),
    st.integers(min_value=8, max_value=16),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_window_bound_dominates_opt(values, C, F):
    pairs = [(i + 1, v) for i, v in enumerate(values)]
    seq = seq_of(pairs) if pairs else TransactionSequence([], [], horizon=1)
    opt = opt_general_value(seq, C, F)
    assert opt <= window_upper_bound(seq, C, F)
    greedy, _ = greedy_feasible_value(pairs, C, F)
    assert greedy <= opt


def gapped(steps):
    """(gap, value) steps as pairs at the running slot, and their sequence."""
    pairs, slot = [], 0
    for gap, value in steps:
        slot += gap
        pairs.append((slot, value))
    seq = seq_of(pairs) if pairs else TransactionSequence([], [], horizon=1)
    return pairs, seq


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=50), st.integers(1, 15)),
        max_size=12,
    ),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_window_bound_lies_between_opt_and_the_partition_bound(steps, C, F):
    pairs, seq = gapped(steps)
    bound = window_upper_bound(seq, C, F)
    assert opt_general_value(seq, C, F) <= bound
    assert bound <= window_upper_bound_all_offsets(seq, C, F)


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=4), st.integers(1, 4)),
        max_size=5,
    ),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_window_bound_is_the_lp_optimum(steps, C, F):
    pairs, seq = gapped(steps)
    assert window_upper_bound(seq, C, F) == window_lp_reference(pairs, C, F)


def test_window_bound_is_tighter_than_every_partition():
    # both partitions into 2-slot blocks split the offers 2 + 1 + 1 and
    # allow 3; no two adjacent slots may both settle, so the greedy, like
    # the optimum, takes 2
    seq = seq_of([(1, 1), (2, 1), (4, 1), (5, 1)])
    assert window_upper_bound(seq, 1, 1) == 2 == opt_general_value(seq, 1, 1)
    assert window_upper_bound_all_offsets(seq, 1, 1) == 3


def test_window_bound_sweeps_many_offers_at_large_F():
    # 10^5 candidate offsets: one O(n) pass per offset, ~10^10 steps, hangs
    seq = TransactionSequence.from_pairs((s, 1) for s in range(1, 10**5 + 1))
    assert window_upper_bound(seq, 50, 10**5) == 50


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=7),
    st.integers(min_value=1, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_sim_oracle_property(values, F):
    pairs = [(i + 1, v) for i, v in enumerate(values)]
    seq = seq_of(pairs)
    assert opt_general_value_sim(seq, 8, F) == opt_general_value(seq, 8, F)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=7))
@settings(max_examples=40, deadline=None)
def test_opt_monotone_in_prefix(values):
    pairs = [(i + 1, v) for i, v in enumerate(values)]
    seq = seq_of(pairs)
    prev = 0
    for cut in range(1, len(values) + 1):
        cur = opt_general_value(seq_of(pairs[:cut]), 12, 2)
        assert cur >= prev
        prev = cur
