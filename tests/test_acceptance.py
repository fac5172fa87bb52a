"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-3 exhaust every short sequence against the exact offline
optimum with zero additive slack.  Criteria 4-5 drive the adversarial
constructions.  Criterion 6 checks the threshold policy's utility
guarantee over 3,000 seeded workloads.  Criterion 7 audits per-flush
invariants across all of the above.  Criterion 8 verifies the randomized
policy's expectation exactly and by Monte Carlo.  Criterion 9 checks the
closed-form optimizers against grids, and criterion 10 cross-validates
the oracles against an independent simulation.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from collatsim.formulas import (
    DomainError,
    eta_alpha,
    eta_star,
    eta_star_is_clamped,
    eta_star_ratio,
    fa_ratio,
    ftwf_ratio,
    fwf_ratio,
    k_star,
)
from collatsim.harness import (
    ExhaustSpace,
    exhaustive_verify,
    run_adversary_demo,
    run_sequence,
)
from collatsim.model import (
    PPM,
    ModelParams,
    TransactionSequence,
    validate_window_bound,
)
from collatsim.oracles import (
    MAX_SEARCH_TRANSACTIONS,
    opt_general_utility,
    opt_general_value,
    opt_utility_upper_bound,
    window_upper_bound,
)
from collatsim.policies import make_policy
from collatsim.workloads import WorkloadSpec, fwf_killer_seq, gen_stochastic, thm3_seq
from oracle_reference import opt_general_value_sim, opt_general_witness, window_law_holds
from trace_reader import FLUSH, read_events

EXACT = 1e-12


def report(n, detail):
    print(f"criterion {n}: PASS - {detail}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def exhaust_half_load():
    """C=12, k=2, T=3 (r=1/2), every sequence of length <= 7 over {1,2,3,gap}."""
    t0 = time.time()
    out = {}
    for F in (1, 2):
        space = ExhaustSpace(C=12, k=2, T=3, F=F, max_len=7, values=(1, 2, 3))
        out[F] = exhaustive_verify(
            space, policies={"fwf": Fraction(3), "fa": Fraction(7, 2)}
        )
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def exhaust_full_load():
    """C=6, k=2, T=3 (r=1), same enumeration."""
    out = {}
    for F in (1, 2):
        space = ExhaustSpace(C=6, k=2, T=3, F=F, max_len=7, values=(1, 2, 3))
        out[F] = exhaustive_verify(
            space, policies={"fa": Fraction(3), "ftwf": Fraction(3)}
        )
    return out


THM3_PARAMS = ModelParams(C=10, T=10, F=2)
KILLER_PARAMS = ModelParams(C=20, T=10, F=1, k=2)


@pytest.fixture(scope="module")
def thm3_demo():
    return run_adversary_demo("thm3", "fwf", THM3_PARAMS, epsilon=1, rounds=5)


@pytest.fixture(scope="module")
def killer_demos():
    return {
        eps: run_adversary_demo("fwfkiller", "fwf", KILLER_PARAMS, epsilon=eps, rounds=10)
        for eps in (4, 2, 1)
    }


@pytest.fixture(scope="module")
def adversary_traces(thm3_demo, killer_demos):
    """The fwf traces of the demos above.  A ratio row keeps totals only, so
    each run is repeated on its rebuilt sequence; fwf is deterministic, and
    the repeat must reproduce the row's totals."""
    runs = [(THM3_PARAMS, thm3_seq(THM3_PARAMS, 1, 5, make_policy("fwf", THM3_PARAMS)),
             thm3_demo)]
    runs += [(KILLER_PARAMS, fwf_killer_seq(KILLER_PARAMS, eps, 10), demo)
             for eps, demo in killer_demos.items()]
    traces = []
    for params, seq, demo in runs:
        policy = make_policy("fwf", params)
        assert run_sequence(policy, seq) == demo.result
        traces.append(policy.trace)
    return traces


ETA_PPMS = (350000, 418000, 500000)


@pytest.fixture(scope="module")
def eta_study():
    """1,000 seeded workloads per threshold, in x10 units (tau=5 is 0.5).

    The thresholds share each workload and F, so each instance's optimum,
    which does not depend on eta, is computed once.
    """
    instances = []
    for i in range(1000):
        F = 1 if i % 2 == 0 else 2
        spec = WorkloadSpec(
            kind="poisson-uniform",
            arrival_rate_per_mille=600,
            horizon=18 if i % 5 == 4 else 40,
            seed=9000 + i,
            max_value=60,
            value_params={"min": 10, "max": 60},
        )
        seq = gen_stochastic(spec)
        params = ModelParams(C=200, T=60, F=F, p_ppm=100000, tau=5)
        if len(seq) <= MAX_SEARCH_TRANSACTIONS:
            u_opt = opt_general_utility(seq, params)
            brute = True
        else:
            u_opt = opt_utility_upper_bound(
                window_upper_bound(seq, params.C, params.F), params
            )
            brute = False
        instances.append((F, seq, u_opt, brute))
    records = []
    for eta_ppm in ETA_PPMS:
        alpha = eta_alpha(
            Fraction(eta_ppm, PPM), Fraction(200), 60, Fraction(100000, PPM), 5
        )
        for F, seq, u_opt, brute in instances:
            params = ModelParams(
                C=200, T=60, F=F, p_ppm=100000, tau=5, eta_ppm=eta_ppm,
            )
            policy = make_policy("eta", params)
            res = run_sequence(policy, seq)
            records.append(
                {
                    "params": params, "seq": seq, "result": res,
                    "trace": policy.trace,
                    "u_opt": u_opt, "alpha": alpha, "brute": brute,
                }
            )
    return records


# ---------------------------------------------------------------- criteria

def test_c01_exhaustive_fwf_half_load(exhaust_half_load):
    elapsed = exhaust_half_load["elapsed"]
    assert elapsed < 300
    total = 0
    for F in (1, 2):
        summary = exhaust_half_load[F]
        fwf_ces = [c for c in summary.counterexamples if c.policy == "fwf"]
        assert fwf_ces == []
        assert summary.policies["fwf"] == 3
        assert summary.sequences == 4 ** 7
        total += summary.prefixes_checked
    report(1, f"{total} prefixes vs exact optimum at bound 3, {elapsed:.1f}s")


def test_c02_exhaustive_fa_both_loads(exhaust_half_load, exhaust_full_load):
    checked = 0
    for F in (1, 2):
        saturated = exhaust_full_load[F]
        assert [c for c in saturated.counterexamples if c.policy == "fa"] == []
        assert saturated.policies["fa"] == 3
        half = exhaust_half_load[F]
        assert [c for c in half.counterexamples if c.policy == "fa"] == []
        assert half.policies["fa"] == Fraction(7, 2)
        checked += saturated.prefixes_checked + half.prefixes_checked
    report(2, f"{checked} prefixes, bounds 3 (r=1) and 3.5 (r=1/2), no counterexamples")


def test_c03_exhaustive_ftwf_full_load(exhaust_full_load):
    for F in (1, 2):
        summary = exhaust_full_load[F]
        assert [c for c in summary.counterexamples if c.policy == "ftwf"] == []
        assert summary.policies["ftwf"] == 3
    report(3, "pair policy within bound 3 on every saturated prefix")


def test_c04_adaptive_adversary_starves_single_wallet(thm3_demo):
    assert thm3_demo.result.settled_value == 5  # one probe per round
    assert thm3_demo.opt_value == 50  # the five big offers instead
    assert thm3_demo.ratio_value == 10  # exactly 1/epsilon
    report(4, f"ratio {thm3_demo.ratio_value} = 1/epsilon, exact optimum")


def test_c05_fwf_unbounded_at_full_load(killer_demos):
    ratios = {eps: demo.ratio_value for eps, demo in killer_demos.items()}
    assert ratios[1] >= 5  # asserted floor (C/k)/(2 eps)
    assert ratios[1] > ratios[2] > ratios[4]  # grows as epsilon halves
    for demo in killer_demos.values():
        # the exact optimum clears every offer at this spacing
        assert demo.opt_value == demo.result.offered_value
    report(5, f"ratios {float(ratios[4])}, {float(ratios[2])}, {float(ratios[1])} for eps 4, 2, 1")


def test_c06_threshold_utility_guarantee(eta_study):
    slack = Fraction(200 * 100000, 10**6) + 5  # pC + tau in x10 units
    violations = 0
    brute_runs = 0
    for rec in eta_study:
        lhs = rec["u_opt"]
        rhs = rec["alpha"] * rec["result"].utility + slack
        if lhs > rhs:
            violations += 1
        brute_runs += rec["brute"]
    assert violations == 0
    assert brute_runs > 0 and brute_runs < len(eta_study)  # both oracle paths used
    report(6, f"{len(eta_study)} runs, {brute_runs} exact optima, 0 violations")


def test_c07_per_flush_invariants(
    exhaust_half_load, exhaust_full_load, adversary_traces, eta_study
):
    flushes_audited = 0
    # wallet policies, across every enumerated sequence
    for group in (exhaust_half_load, exhaust_full_load):
        for F in (1, 2):
            summary = group[F]
            assert summary.invariant_violations == []
            assert summary.flush_events_checked > 0
            flushes_audited += summary.flush_events_checked
    # the cyclic policy under both adversaries: a flush only happens when
    # the wallet cannot fit a full-size transaction
    for trace in adversary_traces:
        # both setups have wallet size == T, so the floor size - T is zero
        for e in read_events(trace):
            if e.kind == FLUSH:
                assert e.flush_amount > 0
                flushes_audited += 1
    # threshold runs: reserve below the quantum at every slot end, and the
    # flush count is exactly ceil(V / (eta C))
    for rec in eta_study:
        eta_c = Fraction(rec["params"].eta_ppm * rec["params"].C, PPM)
        last_committed = {}
        flushes = 0
        for e in read_events(rec["trace"]):
            if e.committed is not None:
                last_committed[e.slot] = e.committed
            if e.kind == FLUSH:
                flushes += 1
                flushes_audited += 1
        for slot_end in last_committed.values():
            assert slot_end < eta_c
        v = rec["result"].settled_value
        assert flushes == math.ceil(Fraction(v) / eta_c)
    report(7, f"{flushes_audited} flush events audited, all invariants hold")


RAND2_REAL = ModelParams(C=10, T=10, F=1)
RAND2_SHADOW = ModelParams(C=20, T=10, F=1, k=2)
RAND2_SEQS = [
    [(1, 5), (2, 7), (3, 3)],
    [(1, 10), (2, 10), (3, 10), (5, 6), (6, 4)],
    [(1, 4), (2, 9), (3, 6), (4, 8), (6, 2), (7, 7)],
]


def test_c08_randomized_two_wallet_expectation():
    details = []
    for pairs in RAND2_SEQS:
        seq = TransactionSequence.from_pairs(pairs)
        v_shadow = run_sequence(make_policy("fa", RAND2_SHADOW), seq).settled_value
        total = Fraction(0)
        for coins in product((0, 1), repeat=8):  # more than any path consumes
            feed = iter(coins)
            pol = make_policy("rand2", RAND2_REAL, coins=lambda: next(feed))
            total += run_sequence(pol, seq).settled_value
        exact_mean = total / 2**8
        assert exact_mean == Fraction(v_shadow, 2)
        mc = Fraction(0)
        for s in range(10000):
            mc += run_sequence(make_policy("rand2", RAND2_REAL, seed=s), seq).settled_value
        mc /= 10000
        assert abs(mc - exact_mean) <= Fraction(2, 100) * exact_mean
        details.append(f"{float(exact_mean)}")
    report(8, f"exact means {', '.join(details)} match half the shadow value; MC within 2%")


def test_c09_formula_minimizers():
    # spot values, exact to 1e-12
    for k in (1, 2, 5):
        assert abs(fa_ratio(k, 0.5) - 3.0) < EXACT
    assert abs(fwf_ratio(2, 0.5) - 3.0) < EXACT
    assert abs(ftwf_ratio(4) - 2.5) < EXACT
    real_k, int_k = k_star(16, 2)  # C/T = 8
    assert abs(real_k - 2.0) < EXACT and int_k == 2
    assert abs(eta_star(1, 0, 1.0, 0.25) - 0.5) < EXACT
    assert abs(eta_star_ratio(1, 0, 1.0, 0.25) - 3.0) < EXACT

    rng = random.Random(20260824)
    eta_tuples = 0
    while eta_tuples < 20:
        C = rng.randint(10, 300)
        T = rng.randint(1, C // 3)
        p = rng.uniform(0.05, 1.0)
        frac = T / C
        lo = (frac * frac / (1 - frac)) * 1.05  # keep the optimum unclamped
        hi = (1 - frac) * 0.9
        if lo >= hi:
            continue
        tau = rng.uniform(lo, hi) * p * C
        if eta_star_is_clamped(C, T, p, tau):
            continue
        star = eta_star(C, T, p, tau)
        at_star = eta_alpha(star, C, T, p, tau)
        assert abs(at_star - eta_star_ratio(C, T, p, tau)) <= 1e-9 * at_star
        eta = frac + 1e-4
        while eta < 1 - frac - 1e-4:
            try:
                assert eta_alpha(eta, C, T, p, tau) >= at_star * (1 - 1e-6)
            except DomainError:
                pass
            eta += 1e-4
        eta_tuples += 1

    k_tuples = 0
    while k_tuples < 20:
        T = rng.randint(1, 10)
        C = T * rng.randint(4, 60)
        real_k, _ = k_star(C, T)
        assert real_k > 1
        at_star = (real_k + 1) / (real_k * (1 - real_k * T / C))
        k = 1.0 + 1e-3
        while k * T < C * (1 - 1e-9):
            got = (k + 1) / (k * (1 - k * T / C))
            assert got >= at_star * (1 - 1e-6)
            k += 1e-3
        k_tuples += 1
    report(9, "20 threshold and 20 wallet-count tuples: grid minima at the closed forms")


def test_c10_oracle_self_consistency():
    rng = random.Random(77)
    for trial in range(200):
        n = rng.randint(1, 10)
        C = rng.randint(3, 15)
        F = rng.randint(1, 3)
        slot = 0
        pairs = []
        for _ in range(n):
            slot += rng.randint(1, 2)
            pairs.append((slot, rng.randint(1, C)))
        seq = TransactionSequence.from_pairs(pairs)
        best, witness = opt_general_witness(seq, C, F)
        assert best == opt_general_value(seq, C, F) == opt_general_value_sim(seq, C, F)
        assert window_law_holds([(t.slot, t.value) for t in witness], C, F)
        assert sum(t.value for t in witness) == best
        # every policy trace obeys the same window law the optimum does;
        # run_sequence checks it on every run, re-checked here explicitly
        if trial % 20 == 0:
            params = ModelParams(C=C, T=C, F=F, tau=1)  # tau > 0 adds the terminal flushes
            policy = make_policy("fa", params)
            run_sequence(policy, seq)
            validate_window_bound(policy.trace, params)
    report(10, "200 instances: subset optimum == simulation optimum, witnesses feasible")
