"""Experiment harness: runs, ratio reports, CSV/trace output, exhaustive search."""

import csv
import gc
import json
import re
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from collatsim import harness
from collatsim.harness import (
    MAX_REPETITIONS,
    ExhaustSpace,
    ExperimentConfig,
    default_exhaust_policies,
    exhaustive_verify,
    flush_faults,
    measure_ratio,
    ratio_of,
    run_adversary_demo,
    run_policy,
    run_sequence,
    sweep,
    utility_bound_fraction,
    value_bound_fraction,
    value_bound_holds,
)
from collatsim.model import CollateralError, ModelParams, TransactionSequence, load_json
from collatsim.oracles import opt_general_value, opt_value_extend
from collatsim.policies import GroupFlushPolicy, make_policy
from collatsim.workloads import WorkloadSpec, thm3_seq
from oracle_reference import (
    ReferenceGroupPolicy,
    exhaustive_verify_reference,
    opt_value_key,
    opt_value_pruned_step,
)

PARAMS = ModelParams(C=20, T=6, F=1, k=2)
SIXES = WorkloadSpec(
    "constant", 1000, 6, 0, 6, {"value": 6}
)


def config_with(**kwargs):
    base = dict(params=PARAMS, policy="fwf", workload=SIXES)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_run_sequence_rejects_oversized_values():
    seq = TransactionSequence.from_pairs([(1, 7)])
    with pytest.raises(CollateralError, match=r"^value 7 at slot 1 exceeds cap 6$"):
        run_sequence(make_policy("fa", PARAMS), seq)


def test_measure_ratio_within_bound():
    report = measure_ratio(config_with(repetitions=2, seed=3))
    assert report.all_bounds_ok()
    assert [r.seed for r in report.rows] == [3, 4]
    row = report.rows[0]
    assert row.result.settled_value == 18
    assert row.opt_value == 36
    assert row.ratio_value == 2
    assert row.bound == 3.75  # (k+1)/(k(1-r)) at k=2, r=0.6
    assert row.bound_kind == "value"


def test_measure_ratio_window_oracle_marks_upper_bound():
    report = measure_ratio(config_with(oracle="window-bound"))
    row = report.rows[0]
    assert row.opt_is_upper_bound
    assert row.opt_value >= 36


def test_measure_ratio_utility_oracle():
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=500000)
    seq = TransactionSequence.from_pairs([(t, 60) for t in range(1, 5)])
    config = ExperimentConfig(
        params=params, policy="eta", sequence=seq, oracle="brute-utility"
    )
    report = measure_ratio(config)
    row = report.rows[0]
    assert row.result.utility == 9
    assert row.opt_utility == 14
    assert row.ratio_utility == Fraction(14, 9)
    assert row.bound_kind == "utility"
    assert row.bound == 7.5
    assert row.slack == Fraction(25)  # pC + tau
    assert report.all_bounds_ok()


def test_config_needs_exactly_one_source(tmp_path):
    one_source = r"^exactly one of workload, seq_file, sequence is required$"
    with pytest.raises(CollateralError, match=one_source):
        config_with(seq_file="x.csv")  # workload also set
    with pytest.raises(CollateralError, match=one_source):
        ExperimentConfig(params=PARAMS, policy="fa")


def test_config_caps_the_repetitions():
    # a batch adds a row per repetition, so an unbounded count never ends
    assert config_with(repetitions=MAX_REPETITIONS).repetitions == MAX_REPETITIONS
    with pytest.raises(CollateralError, match=r"^repetitions must be at most 10000, got 10+$"):
        config_with(repetitions=10**12)


def test_config_json_round_trip(tmp_path):
    obj = {
        "params": {"C": 20, "k": 2, "T": 6, "F": 1},
        "policy": "fwf",
        "seed": 3,
        "workload": {"kind": "constant", "arrivalRatePerMille": 1000, "horizon": 6,
                     "seed": 0, "maxValue": 6, "valueParams": {"value": 6}},
        "oracle": "brute-general",
        "repetitions": 2,
        "outputs": {"csv": str(tmp_path / "out.csv")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    config = ExperimentConfig.from_json_obj(load_json(str(path), "config"))
    assert config.policy == "fwf"
    assert config.repetitions == 2
    assert config.csv_path == str(tmp_path / "out.csv")
    assert config.params == PARAMS
    assert (config.seed, config.workload, config.oracle) == (3, SIXES, "brute-general")


def test_csv_columns_and_cells(tmp_path):
    out = tmp_path / "rows.csv"
    report = measure_ratio(config_with(csv_path=str(out)))
    assert report.rows
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "run_id", "policy", "C", "k", "T", "F", "p_ppm", "tau", "eta_ppm", "seed", "n_tx",
        "offered_value", "settled_value", "flush_count", "utility_num", "utility_den",
        "opt_value", "opt_utility_num", "opt_utility_den", "ratio_value", "ratio_utility",
        "bound", "bound_ok",
    ]
    record = dict(zip(rows[0], rows[1]))
    assert record["policy"] == "fwf"
    assert record["settled_value"] == "18"
    assert record["opt_value"] == "36"
    assert record["ratio_value"] == "2"
    assert record["bound"] == "3.75"
    assert record["bound_ok"] == "true"
    assert record["eta_ppm"] == ""


def test_runs_are_reproducible(tmp_path):
    spec = WorkloadSpec("poisson-uniform", 700, 30, 5, 6)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        measure_ratio(
            config_with(
                workload=spec, seed=9, repetitions=3,
                csv_path=str(path), oracle="window-bound",
            )
        )
    assert a.read_bytes() == b.read_bytes()


def test_run_policy_writes_trace(tmp_path):
    trace_path = tmp_path / "trace.ndjson"
    result = run_policy(config_with(trace_path=str(trace_path)))
    assert result.settled_value == 18
    lines = [json.loads(s) for s in trace_path.read_text().splitlines()]
    assert sum(1 for rec in lines if rec["kind"] == "settle") == 3
    assert all(rec["slot"] >= 1 for rec in lines)


def test_value_bounds():
    assert value_bound_fraction("fa", ModelParams(C=6, T=3, F=1, k=2)) == 3
    assert value_bound_fraction("fa", PARAMS) == Fraction(7, 2)  # (2-r)/(1-r), r=0.6
    assert value_bound_fraction("fwf", PARAMS) == Fraction(15, 4)
    # single-wallet FlushAll at r=1 has no bound at all
    assert value_bound_fraction("fa", ModelParams(C=6, T=6, F=1)) is None
    assert value_bound_fraction("ftwf", ModelParams(C=6, T=3, F=1, k=2)) == 3
    assert value_bound_fraction("rand2", ModelParams(C=6, T=6, F=1)) is None


def test_utility_bound():
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=500000)
    assert utility_bound_fraction(params) == Fraction(15, 2)
    # eta too close to 1 - T/C: no finite guarantee
    none_params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=700000)
    assert utility_bound_fraction(none_params) is None


def test_ratio_of():
    assert ratio_of(0, 0) == 1
    assert ratio_of(5, 0) == float("inf")
    assert ratio_of(10, 4) == Fraction(5, 2)


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**9),
    st.fractions(min_value=1, max_value=100, max_denominator=10**4),
    st.booleans(),
)
@example(opt=3, settled=1, bound=Fraction(3), tie=False)
@settings(max_examples=300, deadline=None)
def test_value_bound_holds_is_the_exact_check(opt, settled, bound, tie):
    # a ratio row's value check in ints, den*opt <= num*settled, decides as
    # the exact comparison lhs <= exact * rhs + slack with no slack; half the
    # cases are ties, den*opt == num*settled, which a strict check gets wrong
    num, den = bound.numerator, bound.denominator
    if tie:
        opt, settled = num * (settled % 1000), den * (settled % 1000)
    assert value_bound_holds(opt, settled, num, den) == (opt <= bound * settled + Fraction(0))


def test_exhaustive_verify_smoke():
    space = ExhaustSpace(C=4, k=2, T=2, F=1, max_len=3, values=(1, 2))
    summary = exhaustive_verify(space)
    assert summary.ok()
    assert summary.sequences == 27  # (len(values)+1) ** max_len
    assert summary.prefixes_checked == 26
    assert summary.flush_events_checked > 0
    # r = 1 here, so FWF has no finite bound and is not checked
    assert set(summary.policies) == {"fa", "ftwf"}


def test_exhaustive_verify_explicit_bound_can_fail():
    # an absurd bound of 1 must produce counterexamples, proving the
    # checker actually compares something
    space = ExhaustSpace(C=4, k=2, T=2, F=2, max_len=3, values=(1, 2))
    summary = exhaustive_verify(space, policies={"fa": Fraction(1)})
    assert not summary.ok()
    assert summary.counterexamples
    ce = summary.counterexamples[0]
    assert ce.opt_value > ce.alg_value


# The four spaces of the exhaust benchmark at L = 5, values 1-3:
# (sequences, prefixes checked, flush events checked), as recorded with the
# subset-enumeration optimum.
EXHAUST_COUNTS_L5 = {
    (12, 1): (1024, 1023, 373),
    (12, 2): (1024, 1023, 373),
    (6, 1): (1024, 1023, 1264),
    (6, 2): (1024, 1023, 1264),
}


# The same spaces at L = 7, the length the exhaust benchmark runs.
EXHAUST_COUNTS_L7 = {
    (12, 1): (16384, 16383, 9815),
    (12, 2): (16384, 16383, 9815),
    (6, 1): (16384, 16383, 11748),
    (6, 2): (16384, 16383, 9812),
}


def exhaust_counts(C, F, max_len):
    summary = exhaustive_verify(
        ExhaustSpace(C=C, k=2, T=3, F=F, max_len=max_len, values=(1, 2, 3))
    )
    assert summary.ok()
    return summary.sequences, summary.prefixes_checked, summary.flush_events_checked


@pytest.mark.parametrize("C,F", sorted(EXHAUST_COUNTS_L5))
def test_exhaustive_verify_counts_pinned(C, F):
    assert exhaust_counts(C, F, 5) == EXHAUST_COUNTS_L5[(C, F)]


@pytest.mark.parametrize("C,F", sorted(EXHAUST_COUNTS_L7))
def test_exhaustive_verify_counts_pinned_at_the_bench_length(C, F):
    assert exhaust_counts(C, F, 7) == EXHAUST_COUNTS_L7[(C, F)]


def recorded_tables(monkeypatch) -> list:
    """The transition tables exhaustive_verify makes from now on, in order;
    each call makes its value-DP table last."""
    tables = []

    class Recorded(harness.StateTable):
        def __init__(self, root, step):
            super().__init__(root, step)
            tables.append(self)

    monkeypatch.setattr(harness, "StateTable", Recorded)
    return tables


def test_exhaustive_verify_keys_each_prefix_by_its_layer(monkeypatch):
    # the value-DP table holds the key of every prefix's layer, folded
    # without the states of the rows each slot's key drops, its rows
    # forgetting the settles no window can push past C with offers of at
    # most 2, and no other.  At C = 4, F = 4 a row dominated in one slot
    # would drop a row in the next, so the keys of the whole layers differ
    # from these.
    # At bound 1 every weight sum is V_opt - V_alg >= 0, above every floor,
    # so the forward pass drops no node and every key is built
    space = ExhaustSpace(C=4, k=1, T=2, F=4, max_len=7, values=(1, 2))
    C, F, top = space.C, space.F, max(space.values)
    tables = recorded_tables(monkeypatch)
    layered, explicit = verify_both_routes(space, {"fa": Fraction(1)})
    assert layered == explicit
    want, whole = set(), set()
    for length in range(space.max_len + 1):
        for symbols in product((None, *space.values), repeat=length):
            pruned, layer = {(): 0}, {(): 0}
            for slot, value in enumerate(symbols, 1):
                pruned = opt_value_pruned_step(pruned, slot, value, C, F, top)
                if value is not None:
                    layer = opt_value_extend(layer, slot, value, C, F)
            want.add(opt_value_key(pruned, length, C, F, top))
            whole.add(opt_value_key(layer, length, C, F, top))
    assert set(tables[-1].ids) == want != whole


def test_exhaustive_verify_makes_one_table_per_rule(monkeypatch):
    # kinds with one group size share a rule and its table, and the value DP
    # has one more: fa and ftwf at k = 2 (C = 6) are one rule, fa and fwf at
    # C = 12 two
    tables = recorded_tables(monkeypatch)
    for C, made in ((6, 2), (12, 3)):
        tables.clear()
        space = ExhaustSpace(C=C, k=2, T=3, F=1, max_len=3, values=(1, 2, 3))
        assert exhaustive_verify(space).ok()
        assert len(tables) == made


@pytest.mark.parametrize(
    "C,F,keys", [(12, 1, 1), (12, 2, 1), (6, 1, 1), (6, 2, 27), (12, 3, 1)]
)
def test_exhaustive_verify_forgets_settles_no_window_can_push_past_C(monkeypatch, C, F, keys):
    # at C = 12, T = 3 and F <= 3, any F+1 slots hold at most 12, so every
    # settle is forgotten and the optimum takes every offer; the value-DP
    # table holds one key where it held 4, 16 and 64 at F = 1, 2, 3.  At
    # C = 6, F = 1 a settle and one more offer of at most 3 fit as well
    # (4 keys before).  At F = 2 the last slot's settle is kept, and the
    # one before it is forgotten when the two come to at most 3; no more
    # than 27 keys are met (52 before)
    space = ExhaustSpace(C=C, k=2, T=3, F=F, max_len=7, values=(1, 2, 3))
    tables = recorded_tables(monkeypatch)
    assert exhaustive_verify(space).ok()
    assert len(tables[-1].ids) <= keys


def test_exhaustive_verify_drops_nodes_that_cannot_turn_positive(monkeypatch):
    # at F >= max_len every prefix has its own DP key, 16,384 of them here;
    # at the default bounds most nodes fall so far below 0 that the slots
    # left cannot lift them above it, and only the keys that a kept node
    # reaches are met
    space = ExhaustSpace(C=12, k=2, T=3, F=10**8, max_len=7, values=(1, 2, 3))
    tables = recorded_tables(monkeypatch)
    assert exhaustive_verify(space).ok()
    assert len(tables[-1].ids) <= 1_024


# Every counterexample to fa at bound 1 at L = 4 (k = 2, T = 3, values 1-3),
# in walk order, as recorded with the subset-enumeration optimum.  Each
# entry is the sequence, one character per slot ("." a gap), then
# opt_value/alg_value.  At C = 12 there are none.
FA_COUNTEREXAMPLES_L4 = {
    (12, 1): "",
    (12, 2): "",
    (6, 1): """
        1122:6/4 1123:7/4 1132:7/5 1133:8/5 1213:7/4 1222:7/5 1223:8/5
        1231:7/6 1232:8/6 1233:9/6 1312:7/5 1313:8/5 1321:7/6 1322:8/6
        1323:9/6 133:7/4 1331:8/4 1332:9/4 1333:10/4 13.3:7/4 1.33:7/4
        2113:7/4 2122:7/5 2123:8/5 2131:7/6 2132:8/6 2133:9/6 2212:7/5
        2213:8/5 222:6/4 2221:7/4 2222:8/4 2223:9/4 223:7/4 2231:8/4 2232:9/4
        2233:10/4 22.2:6/4 22.3:7/4 2311:7/6 2312:8/6 2313:9/6 232:7/5
        2321:8/5 2322:9/5 2323:10/5 233:8/5 2331:9/5 2332:10/5 2333:11/5
        23.2:7/5 23.3:8/5 2.22:6/4 2.23:7/4 2.32:7/5 2.33:8/5 3112:7/5
        3113:8/5 3121:7/6 3122:8/6 3123:9/6 313:7/4 3131:8/4 3132:9/4
        3133:10/4 31.3:7/4 3211:7/6 3212:8/6 3213:9/6 322:7/5 3221:8/5
        3222:9/5 3223:10/5 323:8/5 3231:9/5 3232:10/5 3233:11/5 32.2:7/5
        32.3:8/5 331:7/6 3311:8/6 3312:9/6 3313:10/6 332:8/6 3321:9/6
        3322:10/6 3323:11/6 333:9/6 3331:10/6 3332:11/6 3333:12/6 33.1:7/6
        33.2:8/6 33.3:9/6 3.13:7/4 3.22:7/5 3.23:8/5 3.31:7/6 3.32:8/6
        3.33:9/6 .133:7/4 .222:6/4 .223:7/4 .232:7/5 .233:8/5 .313:7/4
        .322:7/5 .323:8/5 .331:7/6 .332:8/6 .333:9/6
    """,
    (6, 2): """
        1122:6/4 1123:7/4 1132:7/5 1133:7/5 1213:7/4 1222:7/5 1223:6/5
        1231:7/6 1233:7/6 1312:7/5 1313:7/5 1321:7/6 1323:7/6 133:6/4 1331:6/4
        1332:6/4 1333:7/4 13.3:7/4 1.33:7/4 2113:7/4 2122:7/5 2123:8/5
        2131:7/6 2132:8/6 2133:8/6 2212:7/5 2213:8/5 222:6/4 2221:7/4 2222:8/4
        2223:7/4 223:5/4 2231:6/4 2232:7/4 2233:8/4 22.2:6/4 22.3:7/4 2311:7/6
        2312:8/6 2313:8/6 2321:6/5 2322:7/5 2323:8/5 233:6/5 2331:6/5 2332:7/5
        2333:8/5 23.2:7/5 23.3:8/5 2.22:6/4 2.23:7/4 2.32:7/5 2.33:8/5
        3112:7/5 3113:8/5 3121:7/6 3122:8/6 3123:9/6 313:6/4 3131:7/4 3132:8/4
        3133:9/4 31.3:7/4 3211:7/6 3212:8/6 3213:9/6 3221:6/5 3222:7/5
        3223:8/5 323:6/5 3231:7/5 3232:8/5 3233:9/5 32.2:7/5 32.3:8/5 3311:7/6
        3312:8/6 3313:9/6 3321:7/6 3322:8/6 3323:9/6 3331:7/6 3332:8/6
        3333:9/6 33.1:7/6 33.2:8/6 33.3:9/6 3.13:7/4 3.22:7/5 3.23:8/5
        3.31:7/6 3.32:8/6 3.33:9/6 .133:6/4 .222:6/4 .223:5/4 .233:6/5
        .313:6/4 .323:6/5
    """,
}


@pytest.mark.parametrize("C,F", sorted(FA_COUNTEREXAMPLES_L4))
def test_exhaustive_verify_counterexamples_pinned(C, F):
    space = ExhaustSpace(C=C, k=2, T=3, F=F, max_len=4, values=(1, 2, 3))
    summary = exhaustive_verify(space, policies={"fa": Fraction(1)})
    got = []
    for ce in summary.counterexamples:
        assert ce.policy == "fa" and ce.bound == 1
        by_slot = dict(ce.pairs)
        last = ce.pairs[-1][0]
        cells = "".join(str(by_slot.get(s, ".")) for s in range(1, last + 1))
        got.append(f"{cells}:{ce.opt_value}/{ce.alg_value}")
    assert got == FA_COUNTEREXAMPLES_L4[(C, F)].split()


def verify_both_routes(space, policies):
    """Both routes' summaries, or both routes' refusal texts."""
    out = []
    for verify in (exhaustive_verify, exhaustive_verify_reference):
        try:
            out.append(verify(space, policies))
        except CollateralError as err:
            out.append(str(err))
    return out


@pytest.mark.parametrize("k,F", list(product((1, 2, 3, 4), (1, 2, 3, 10**8))))
def test_exhaustive_verify_matches_the_explicit_walk(k, F):
    # every field agrees, counterexamples in walk order included; bounds 1
    # and 3/2 fail often and send most spaces to the listing walk.  At
    # F = 10^8 no settle leaves the window, so every prefix keeps its own DP key
    kinds = ("fa", "fwf", "ftwf") if k % 2 == 0 else ("fa", "fwf")
    bounds = [None] + [{kind: b for kind in kinds} for b in (Fraction(1), Fraction(3, 2))]
    for L, values, C, policies in product(
        (3, 4, 5), ((1,), (1, 2), (1, 2, 3)), (3 * k, 6 * k), bounds
    ):
        space = ExhaustSpace(C=C, k=k, T=3, F=F, max_len=L, values=values)
        layered, explicit = verify_both_routes(space, policies)
        assert layered == explicit, (space, policies)


def test_exhaustive_verify_matches_the_explicit_walk_with_a_bound_per_policy():
    # each policy is held to its own bound, so a walk that checks one policy
    # against another's bound disagrees with the explicit walk
    policies = {"fa": Fraction(3, 2), "fwf": Fraction(2), "ftwf": Fraction(5, 4)}
    found = 0
    for k, F, L in product((2, 4), (1, 2, 3), (4, 5)):
        for C in (3 * k, 6 * k):
            space = ExhaustSpace(C=C, k=k, T=3, F=F, max_len=L, values=(1, 2, 3))
            layered, explicit = verify_both_routes(space, policies)
            assert layered == explicit, space
            found += len(layered.counterexamples)
    assert found == 5_642


def test_exhaustive_verify_matches_the_explicit_walk_where_most_prefixes_fail():
    # at bound 1 for all three policies nearly every prefix fails, so the
    # walk lists most of the tree from the transition tables
    space = ExhaustSpace(C=6, k=2, T=3, F=2, max_len=6, values=(1, 2, 3))
    policies = {kind: Fraction(1) for kind in ("fa", "fwf", "ftwf")}
    layered, explicit = verify_both_routes(space, policies)
    assert len(layered.counterexamples) == 10_624
    assert layered == explicit


# a bound p/q with q <= 4 and 1 <= p/q <= 3
BOUNDS = st.integers(1, 4).flatmap(
    lambda q: st.integers(q, 3 * q).map(lambda p: Fraction(p, q))
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    k=st.sampled_from((1, 2, 4)),
    F=st.sampled_from((1, 2, 3, 4, 5, 6, 10**8)),
    c=st.integers(3, 8),
    L=st.integers(1, 5),
    values=st.sets(st.integers(1, 3), min_size=1).map(sorted),
    bounds=st.fixed_dictionaries({kind: BOUNDS for kind in ("fa", "fwf", "ftwf")}),
)
def test_exhaustive_verify_matches_the_explicit_walk_at_any_bounds(
    k, F, c, L, values, bounds
):
    # each policy is decided against its own bound, so a pass or walk that
    # reads another policy's bound disagrees with the explicit walk; ftwf
    # needs even k.  C = k*c with c in 3..8 lands on both sides of the
    # loads at which the value DP forgets a settle
    if k % 2:
        del bounds["ftwf"]
    space = ExhaustSpace(C=c * k, k=k, T=3, F=F, max_len=L, values=tuple(values))
    layered, explicit = verify_both_routes(space, bounds)
    assert layered == explicit, space


def flush_on_a_fitting_one(monkeypatch, g=None):
    """Patch a broken flush rule into ``GroupFlushPolicy.offer``, the one
    rule, which exhaustive_verify reads through ``next_states``, and into
    ``ReferenceGroupPolicy.step``, which the explicit walk steps: an offer
    of 1 that fits in the online active group flushes the group and
    rotates, as a misfit does, instead of settling, for group size g only
    if given."""
    offer, step = GroupFlushPolicy.offer, ReferenceGroupPolicy.step

    def broken_offer(self, st, slot, value):
        lo = (st[0] - 1) * self.g
        if (
            value == 1 and g in (None, self.g)
            and st[self.k + 1 + lo] < slot and max(st[lo + 1:lo + 1 + self.g]) >= 1
        ):
            value = self.size + 1  # no wallet has room for it: the rule's misfit
        return offer(self, st, slot, value)

    def broken_step(self, slot, value):
        bank = self.machine
        bank.begin_slot(slot)
        lo = (self.active - 1) * self.g
        if (
            value == 1 and g in (None, self.g)
            and bank.offline_until[lo] < slot and max(bank.remaining[lo:lo + self.g]) >= 1
        ):
            bank.trace.discard(slot, value)
            bank.flush(lo + 1, slot, lo + self.g)
            self.active = self.active % (self.params.k // self.g) + 1
            return 0
        return step(self, slot, value)

    monkeypatch.setattr(GroupFlushPolicy, "offer", broken_offer)
    monkeypatch.setattr(ReferenceGroupPolicy, "step", broken_step)


def test_exhaustive_verify_matches_the_explicit_walk_on_violations(monkeypatch):
    # the broken rule, shared by both routes, breaks the flush-shape
    # invariants on some subtrees and leaves others clean
    flush_on_a_fitting_one(monkeypatch)
    for C in (6, 12):
        space = ExhaustSpace(C=C, k=2, T=3, F=2, max_len=5, values=(1, 2, 3))
        layered, explicit = verify_both_routes(space, None)
        assert layered.invariant_violations
        assert len(layered.invariant_violations) < layered.flush_events_checked
        assert layered == explicit


def test_exhaustive_verify_matches_the_explicit_walk_when_one_policy_breaks(
    monkeypatch,
):
    # only fwf's g = 1 breaks the rule, so only fwf's pass finds a fault, and
    # the walk lists fwf's violations with fa clean beside it
    flush_on_a_fitting_one(monkeypatch, g=1)
    for F in (1, 2):
        space = ExhaustSpace(C=12, k=2, T=3, F=F, max_len=5, values=(1, 2, 3))
        layered, explicit = verify_both_routes(space, None)
        assert list(layered.policies) == ["fa", "fwf"]
        assert layered.invariant_violations
        assert all(v.startswith("fwf ") for v in layered.invariant_violations)
        assert layered == explicit


def test_exhaustive_verify_steps_one_rule_once(monkeypatch):
    # at C = 6, k = 2 fa and ftwf are both the group rule with g = 2: one
    # table serves both, so checking both steps no more (state, symbol)
    # pairs than fa alone
    steps = []
    next_states = GroupFlushPolicy.next_states
    monkeypatch.setattr(
        GroupFlushPolicy, "next_states",
        lambda self, state, symbols: steps.extend(symbols) or next_states(self, state, symbols),
    )
    space = ExhaustSpace(C=6, k=2, T=3, F=2, max_len=7, values=(1, 2, 3))
    assert list(exhaustive_verify(space).policies) == ["fa", "ftwf"]
    both = len(steps)
    steps.clear()
    exhaustive_verify(space, {"fa": Fraction(3)})
    assert both == len(steps) == 52


@pytest.mark.parametrize("bound", [None, Fraction(1)])
def test_exhaustive_verify_leaves_no_garbage_cycle(bound):
    # once the call returns, its graph and tables are freed by reference
    # counting, with or without counterexamples listed
    space = ExhaustSpace(C=6, k=2, T=3, F=2, max_len=5, values=(1, 2, 3))
    policies = None if bound is None else {"fa": bound, "ftwf": bound}
    gc.collect()
    gc.disable()
    try:
        summary = exhaustive_verify(space, policies)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert bool(summary.counterexamples) == (bound is not None)


def walk_slots(space, policies):
    """The summary, and the slot of each call of the listing walk, in order."""
    walks = []

    def count_walks(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "walk":
            walks.append(frame.f_locals["slot"])

    sys.setprofile(count_walks)
    try:
        summary = exhaustive_verify(space, policies)
    finally:
        sys.setprofile(None)
    return summary, walks


def test_exhaustive_verify_runs_no_walk_on_a_clean_space():
    # fa settles every 1 here, so at bound 1 every weight sum is 0: no edge
    # ends a counterexample or breaks an invariant, and no walk runs; at
    # bound 1/2 every offer is one, and the walk lists them from the root
    space = ExhaustSpace(C=12, k=2, T=3, F=1, max_len=5, values=(1,))
    summary, walks = walk_slots(space, {"fa": Fraction(1)})
    assert summary.ok()
    assert walks == []
    summary, walks = walk_slots(space, {"fa": Fraction(1, 2)})
    assert len(summary.counterexamples) == summary.prefixes_checked
    assert walks[0] == 0


# (kind, C, k, T, amounts flushed, faults) just inside and just past each
# flush-shape invariant's threshold, for a step at slot 5 after the pairs
# ((4, 2),); r = kT/C
FLUSH_FAULTS = [
    # fwf: the flushed wallet carries more than C/k - T = 6 - 3
    ("fwf", 12, 2, 3, [4], []),
    ("fwf", 12, 2, 3, [3], ["fwf flush at slot 5 carries 3 <= C/k-T on ((4, 2),)"]),
    # fa: any two wallets flushed together carry more than C/k = 4
    ("fa", 12, 3, 2, [2, 3, 3], []),
    ("fa", 12, 3, 2, [2, 3, 2], ["fa flush at slot 5: wallets 1,3 carry 2+2 <= C/k on ((4, 2),)"]),
    # fa at r = 1: a flush carries at least C/2, 9/2 or 6 here, at r = 1/2 not
    ("fa", 9, 1, 9, [5], []),
    ("fa", 9, 1, 9, [4], ["fa flush at slot 5 carries 4 < C/2 on ((4, 2),)"]),
    ("fa", 12, 2, 6, [6], []),
    ("fa", 12, 2, 3, [5], []),
    ("fa", 12, 2, 6, [2, 2], [
        "fa flush at slot 5: wallets 1,2 carry 2+2 <= C/k on ((4, 2),)",
        "fa flush at slot 5 carries 4 < C/2 on ((4, 2),)",
    ]),
    # ftwf at r = 1: a pair flush carries at least C/k = 3, at r = 2/3 not
    ("ftwf", 12, 4, 3, [1, 2], []),
    ("ftwf", 12, 4, 3, [1, 1], ["ftwf pair flush at slot 5 carries 2 < C/k on ((4, 2),)"]),
    ("ftwf", 12, 4, 2, [1, 1], []),
]


@pytest.mark.parametrize("kind, C, k, T, amounts, faults", FLUSH_FAULTS)
def test_flush_faults_at_each_threshold(kind, C, k, T, amounts, faults):
    params = ModelParams(C=C, T=T, F=1, k=k)
    assert flush_faults(kind, amounts, params, 5, ((4, 2),)) == faults


def test_exhaustive_verify_refuses_a_policy_without_a_state():
    space = ExhaustSpace(C=4, k=1, T=2, F=1, max_len=3, values=(1, 2))
    message = r"^exhaustive verification needs a wallet-group policy, got 'rand2'$"
    with pytest.raises(CollateralError, match=message):
        exhaustive_verify(space, policies={"rand2": Fraction(2)})


# MAX_EXHAUST_SEQUENCES is 5^7: (values, max_len, sequences) at or under it
@pytest.mark.parametrize(
    "values, max_len, sequences",
    [((1, 2, 3, 4), 7, 5**7), ((1,), 16, 2**16)],
)
def test_exhaustive_verify_runs_up_to_the_sequence_cap(values, max_len, sequences):
    space = ExhaustSpace(C=8, k=2, T=4, F=1, max_len=max_len, values=values)
    summary = exhaustive_verify(space)
    assert summary.ok()
    assert summary.sequences == sequences


@pytest.mark.parametrize(
    "values, max_len, count",
    [((1, 2, 3, 4), 8, "5^8"), ((1,), 17, "2^17"), ((1, 2), 10**6, "3^1000000")],
)
def test_exhaustive_verify_refuses_past_the_sequence_cap(values, max_len, count):
    space = ExhaustSpace(C=8, k=2, T=4, F=1, max_len=max_len, values=values)
    with pytest.raises(CollateralError) as err:
        exhaustive_verify(space)
    assert str(err.value) == f"{count} sequences exceed cap 78125"


def test_exhaust_space_rejects_no_values():
    with pytest.raises(CollateralError, match=r"^values must not be empty$"):
        ExhaustSpace(C=8, k=2, T=4, F=1, max_len=3, values=())


@pytest.mark.parametrize("values", [(0, 1), (-1, 2)])
def test_exhaust_space_rejects_values_below_1(values):
    message = f"values must lie in [1, T=4], got [{values[0]}]"
    with pytest.raises(CollateralError, match=f"^{re.escape(message)}$"):
        ExhaustSpace(C=8, k=2, T=4, F=1, max_len=3, values=values)


def test_default_exhaust_policies():
    got = default_exhaust_policies(ModelParams(C=12, T=3, F=1, k=2))
    assert got == {"fa": 3, "fwf": 3, "ftwf": None} or set(got) == {"fa", "fwf"}


def test_thm3_seq_through_run_sequence():
    params = ModelParams(C=4, T=4, F=1)
    seq = thm3_seq(params, epsilon=2, rounds=2, target=make_policy("fwf", params))
    result = run_sequence(make_policy("fwf", params), seq)
    assert result.settled_value == 4  # two settled probes
    assert len(seq) == 4  # probe and big offer per round
    assert opt_general_value(seq, 4, 1) == 8  # both big offers instead


def test_run_adversary_demo_kinds():
    params = ModelParams(C=4, T=4, F=1)
    row = run_adversary_demo("thm3", "fwf", params, epsilon=2, rounds=2)
    assert row.result.n_tx == 4
    assert row.ratio_value == 2
    assert row.bound_ok is None  # a single wallet at full load has no bound
    killer = run_adversary_demo(
        "fwfkiller", "fwf", ModelParams(C=8, T=4, F=1, k=2), epsilon=1, rounds=3
    )
    assert killer.ratio_value >= 3


def test_sweep_eta_marks_best():
    params = ModelParams(C=200, T=60, F=1, p_ppm=100000, tau=5, eta_ppm=500000)
    spec = WorkloadSpec("poisson-uniform", 600, 30, 1, 60, {"min": 10, "max": 60})
    config = ExperimentConfig(
        params=params, policy="eta", workload=spec, seed=2, repetitions=3
    )
    rows = sweep(config, "eta", [0.35, 0.418, 0.5, 0.9])
    assert [r.value for r in rows] == [0.35, 0.418, 0.5, 0.9]
    assert sum(1 for r in rows if r.empirical_best) == 1
    assert rows[0].formula_optimum == pytest.approx(0.41833, abs=1e-4)
    ok_rows = [r for r in rows if r.error is None]
    assert len(ok_rows) >= 3


def test_sweep_k():
    params = ModelParams(C=16, T=2, F=1, k=1)
    spec = WorkloadSpec("poisson-uniform", 800, 24, 1, 2)
    config = ExperimentConfig(
        params=params, policy="fwf", workload=spec, seed=4, repetitions=2
    )
    rows = sweep(config, "k", [1, 2, 3, 4])
    assert rows[0].formula_optimum == pytest.approx(2.0)
    assert sum(1 for r in rows if r.empirical_best) == 1


@pytest.mark.parametrize(
    "values, message",
    [
        ([0.01, 0.04],
         "no eta setting ran; the first: eta must satisfy T/C <= eta <= 1, got eta_ppm=10000$"),
        ([], "no eta setting ran$"),
    ],
)
def test_sweep_refuses_a_batch_where_no_setting_ran(tmp_path, values, message):
    params = ModelParams(C=200, T=60, F=1)
    spec = WorkloadSpec("poisson-uniform", 600, 30, 1, 60, {"min": 10, "max": 60})
    out = tmp_path / "sweep.csv"
    config = ExperimentConfig(params=params, policy="eta", workload=spec, csv_path=str(out))
    with pytest.raises(CollateralError, match=f"^{message}"):
        sweep(config, "eta", values)
    assert not out.exists()
