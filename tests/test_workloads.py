"""Workload generators, adversaries, and sequence files."""

import pytest

from collatsim.model import InvalidParams, ModelParams, TransactionSequence
from collatsim.workloads import (
    DONE,
    GAP,
    EpsilonDoesNotDivideC,
    InvalidSpec,
    NotSingleWallet,
    Thm3Adversary,
    WORKLOAD_KINDS,
    WorkloadSpec,
    epoch_burst_seq,
    fwf_killer_seq,
    gen_stochastic,
    read_sequence_csv,
    write_sequence_csv,
)


def test_spec_json_round_trip():
    spec = WorkloadSpec("poisson-uniform", 600, 40, 7, 60, {"min": 10, "max": 60})
    obj = spec.to_json_obj()
    assert obj["arrivalRatePerMille"] == 600
    assert obj["maxValue"] == 60
    assert obj["valueParams"] == {"min": 10, "max": 60}
    assert WorkloadSpec.from_json_obj(obj) == spec
    assert spec.with_seed(9).seed == 9


def test_spec_rejects_bad_rate():
    with pytest.raises(InvalidSpec):
        WorkloadSpec("constant", 1001, 10, 0, 5)
    with pytest.raises(InvalidSpec):
        WorkloadSpec("martian", 100, 10, 0, 5)


@pytest.mark.parametrize("kind", ["poisson-uniform", "bursty"])
@pytest.mark.parametrize("rate", [0, 600])
@pytest.mark.parametrize("bad", [{"min": 5, "max": 2}, {"min": 0}, {"max": 0}, {"min": "1"}])
def test_spec_rejects_bad_value_range(kind, rate, bad):
    # checked when the spec is made, not when an arrival first draws a value
    with pytest.raises(InvalidSpec, match="bad uniform range"):
        WorkloadSpec(kind, rate, 10, 0, 6, bad)


@pytest.mark.parametrize("bad", [{"burstLen": 0}, {"gapLen": -1}])
def test_spec_rejects_bad_burst_shape(bad):
    # like the value range, checked when the spec is made
    with pytest.raises(InvalidSpec, match="bursty needs burstLen >= 1"):
        WorkloadSpec("bursty", 0, 10, 0, 6, bad)


@pytest.mark.parametrize(
    "kind, knobs",
    [("poisson-pareto", {"tailIndex": 1e-300}), ("poisson-exponential", {"mean": 1.7e308})],
)
def test_draws_past_the_float_range_are_capped(kind, knobs):
    # such draws overflow a float; they are past any cap, so they take the cap
    seq = gen_stochastic(WorkloadSpec(kind, 1000, 50, 3, 4, knobs))
    assert [t.value for t in seq] == [4] * 50


def test_spec_rejects_non_object_value_params():
    with pytest.raises(InvalidSpec):
        WorkloadSpec.from_json_obj(
            {"kind": "constant", "arrivalRatePerMille": 500, "horizon": 5,
             "seed": 0, "maxValue": 3, "valueParams": [1, 3]}
        )


def test_gen_deterministic_per_seed():
    spec = WorkloadSpec("poisson-uniform", 500, 60, 3, 6)
    a = gen_stochastic(spec)
    b = gen_stochastic(spec)
    assert a == b
    c = gen_stochastic(spec.with_seed(4))
    assert a != c  # these two seeds happen to differ, checked once


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_gen_values_in_range(kind):
    params = {"min": 1, "max": 6, "mean": 2.5, "tailIndex": 1.5,
              "value": 4, "burstLen": 3, "gapLen": 2}
    spec = WorkloadSpec(kind, 800, 50, 11, 6, params)
    seq = gen_stochastic(spec)
    assert seq.horizon == 50
    last = 0
    for t in seq:
        assert 1 <= t.value <= 6
        assert t.slot > last
        last = t.slot


def test_gen_bursty_respects_gaps():
    spec = WorkloadSpec("bursty", 1000, 40, 5, 6, {"burstLen": 3, "gapLen": 2})
    seq = gen_stochastic(spec)
    assert len(seq.txs) > 0
    for t in seq:
        assert (t.slot - 1) % 5 < 3  # never inside a quiet stretch


def test_killer_shape():
    # rounds start every max(ceil(F/k)+1, 2) slots: probe then full-wallet offer
    params = ModelParams(C=20, T=10, F=1, k=2)
    seq = fwf_killer_seq(params, 1, 3)
    assert [(t.slot, t.value) for t in seq] == [
        (1, 1), (2, 10), (3, 1), (4, 10), (5, 1), (6, 10),
    ]
    wide = fwf_killer_seq(ModelParams(C=20, T=10, F=4, k=2), 2, 2)
    assert [(t.slot, t.value) for t in wide] == [(1, 2), (2, 10), (4, 2), (5, 10)]


def test_killer_guards():
    with pytest.raises(InvalidParams):
        fwf_killer_seq(ModelParams(C=20, T=6, F=1, k=2), 1, 3)  # r < 1
    with pytest.raises(InvalidParams):
        fwf_killer_seq(ModelParams(C=20, T=10, F=1, k=2), 10, 3)  # epsilon >= T


def test_epoch_burst_shape():
    params = ModelParams(C=12, T=3, F=2, k=2)
    seq = epoch_burst_seq(params, 2)
    values = [t.value for t in seq]
    assert all(v == 3 for v in values)
    # per epoch: 4 fills, 1 trigger, F=2 burst offers in the outage
    assert len(seq.txs) == 2 * (4 + 1 + 2)


def test_thm3_settling_probe_draws_the_big_one():
    adv = Thm3Adversary(ModelParams(C=4, T=4, F=2), epsilon=2, rounds=1)
    first = adv.next_emission(None)
    assert (first.slot, first.value) == (1, 2)
    big = adv.next_emission(True)
    assert (big.slot, big.value) == (2, 4)
    assert adv.next_emission(False) is GAP
    assert adv.next_emission(None) is DONE


def test_thm3_gives_up_after_budget():
    # C/epsilon failed probes end the round without the big transaction
    adv = Thm3Adversary(ModelParams(C=4, T=4, F=2), epsilon=2, rounds=1)
    assert adv.next_emission(None).value == 2
    assert adv.next_emission(False).value == 2
    assert adv.next_emission(False) is GAP
    assert adv.next_emission(None) is DONE


def test_thm3_rounds_are_separated_by_f_gaps():
    adv = Thm3Adversary(ModelParams(C=4, T=4, F=2), epsilon=4, rounds=2)
    kinds = []
    last = None
    while True:
        em = adv.next_emission(last)
        if em is DONE:
            break
        kinds.append("gap" if em is GAP else f"v{em.value}")
        last = None if em is GAP else True
    assert kinds == ["v4", "v4", "gap", "gap", "v4", "v4", "gap"]


def test_thm3_guards():
    with pytest.raises(NotSingleWallet):
        Thm3Adversary(ModelParams(C=4, T=2, F=1, k=2), epsilon=2, rounds=1)
    with pytest.raises(EpsilonDoesNotDivideC):
        Thm3Adversary(ModelParams(C=4, T=4, F=1), epsilon=3, rounds=1)


def test_sequence_csv_round_trip(tmp_path):
    seq = TransactionSequence.from_pairs([(1, 3), (4, 2), (9, 6)])
    path = tmp_path / "seq.csv"
    write_sequence_csv(seq, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "slot,value"
    back = read_sequence_csv(str(path))
    assert back.txs == seq.txs
    assert back.horizon == 9
