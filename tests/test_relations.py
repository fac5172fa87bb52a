"""Relations that need no oracle: what shifting the slots, scaling the money
and loosening the model do to every policy's totals and every optimum."""

from itertools import accumulate

from hypothesis import given, settings, strategies as st

from collatsim.harness import run_sequence
from collatsim.model import PPM, ModelParams, TransactionSequence
from collatsim.oracles import (
    opt_general_utility,
    opt_general_value,
    opt_kwallet_value,
    window_upper_bound,
)
from collatsim.policies import make_policy


@st.composite
def instances(draw):
    """Params for one or two wallets with a threshold and a fee, and a
    sequence of up to six offers with gaps of one to three slots."""
    k = draw(st.integers(1, 2))
    C = k * draw(st.integers(2, 6))
    T = draw(st.integers(1, C // k))
    p_ppm = draw(st.sampled_from([100000, 500000, PPM]))
    tau = draw(st.integers(0, (p_ppm * C - 1) // PPM))
    eta_ppm = draw(st.integers(-(-T * PPM // C), PPM))
    params = ModelParams(C=C, T=T, F=draw(st.integers(1, 3)), k=k, p_ppm=p_ppm, tau=tau,
                         eta_ppm=eta_ppm)
    n = draw(st.integers(0, 6))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    slots = list(accumulate(gaps))
    values = draw(st.lists(st.integers(1, T), min_size=n, max_size=n))
    horizon = (slots[-1] if slots else 0) + draw(st.integers(0, 3))
    return params, TransactionSequence(slots, values, horizon)


def totals(params: ModelParams, seq: TransactionSequence) -> list:
    """Each policy's settled value, flush count and utility, then the four
    optima: general value, k-wallet value, general utility, window bound."""
    kinds = ("fa", "fwf", "rand2", "eta") if params.k == 1 else ("fa", "fwf", "ftwf", "eta")
    runs = [run_sequence(make_policy(kind, params, seed=5), seq) for kind in kinds]
    return [
        *((run.settled_value, run.flush_count, run.utility) for run in runs),
        opt_general_value(seq, params.C, params.F),
        opt_kwallet_value(seq, params),
        opt_general_utility(seq, params),
        window_upper_bound(seq, params.C, params.F),
    ]


@given(instances(), st.integers(1, 50))
@settings(max_examples=100, deadline=None)
def test_shifting_every_slot_changes_no_total(instance, shift):
    params, seq = instance
    moved = TransactionSequence([s + shift for s in seq.slots], seq.values, seq.horizon + shift)
    assert totals(params, moved) == totals(params, seq)


@given(instances(), st.integers(2, 4))
@settings(max_examples=100, deadline=None)
def test_scaling_the_money_scales_every_value(instance, m):
    params, seq = instance
    scaled = ModelParams(C=m * params.C, T=m * params.T, F=params.F, k=params.k,
                         p_ppm=params.p_ppm, tau=m * params.tau, eta_ppm=params.eta_ppm)
    big = TransactionSequence(seq.slots, [m * v for v in seq.values], seq.horizon)
    *runs, general, kwallet, utility, window = totals(params, seq)
    want = [
        *((settled * m, flushes, u * m) for settled, flushes, u in runs),
        general * m, kwallet * m, utility * m, window * m,
    ]
    assert totals(scaled, big) == want


@given(instances(), st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_the_value_optimum_grows_with_C_and_falls_with_F(instance, more_C, more_F):
    params, seq = instance
    C, F = params.C, params.F
    opt = opt_general_value(seq, C, F)
    assert opt_general_value(seq, C + more_C, F) >= opt
    assert opt_general_value(seq, C, F + more_F) <= opt
