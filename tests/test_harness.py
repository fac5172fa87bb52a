"""Experiment harness: runs, ratio reports, CSV/trace output, exhaustive search."""

import csv
import json
from fractions import Fraction

import pytest

from collatsim.harness import (
    ConfigError,
    ExhaustSpace,
    ExperimentConfig,
    RESULT_COLUMNS,
    default_exhaust_policies,
    exhaustive_verify,
    measure_ratio,
    ratio_of,
    run_adversary,
    run_adversary_demo,
    run_policy,
    run_sequence,
    sweep,
    utility_bound_fraction,
    value_bound_fraction,
)
from collatsim.model import InvalidParams, ModelParams, TransactionSequence
from collatsim.oracles import opt_general_value
from collatsim.policies import make_policy
from collatsim.workloads import Thm3Adversary, WorkloadSpec

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
    with pytest.raises(InvalidParams):
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
    with pytest.raises(ConfigError):
        config_with(seq_file="x.csv")  # workload also set
    with pytest.raises(ConfigError):
        ExperimentConfig(params=PARAMS, policy="fa")


def test_config_json_round_trip(tmp_path):
    obj = {
        "params": {"C": 20, "k": 2, "T": 6, "F": 1},
        "policy": "fwf",
        "seed": 3,
        "workload": SIXES.to_json_obj(),
        "oracle": "brute-general",
        "repetitions": 2,
        "outputs": {"csv": str(tmp_path / "out.csv")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    config = ExperimentConfig.from_file(str(path))
    assert config.policy == "fwf"
    assert config.repetitions == 2
    assert config.csv_path == str(tmp_path / "out.csv")
    assert config.params == PARAMS
    # tau = 0, so utility reporting defaults off
    assert config.utility is None


def test_csv_columns_and_cells(tmp_path):
    out = tmp_path / "rows.csv"
    report = measure_ratio(config_with(csv_path=str(out)))
    assert report.rows
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RESULT_COLUMNS
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


def test_default_exhaust_policies():
    got = default_exhaust_policies(ModelParams(C=12, T=3, F=1, k=2))
    assert got == {"fa": 3, "fwf": 3, "ftwf": None} or set(got) == {"fa", "fwf"}


def test_run_adversary_lockstep():
    params = ModelParams(C=4, T=4, F=1)
    adv = Thm3Adversary(params, epsilon=2, rounds=2)
    seq, result = run_adversary(make_policy("fwf", params), adv)
    assert result.settled_value == 4  # two settled probes
    assert len(seq.txs) == 4  # probe and big offer per round
    assert opt_general_value(seq, 4, 1) == 8  # both big offers instead


def test_run_adversary_demo_kinds():
    params = ModelParams(C=4, T=4, F=1)
    report = run_adversary_demo("thm3", "fwf", params, epsilon=2, rounds=2)
    assert report.kind == "thm3"
    assert report.ratio == 2
    killer = run_adversary_demo(
        "fwfkiller", "fwf", ModelParams(C=8, T=4, F=1, k=2), epsilon=1, rounds=3
    )
    assert killer.ratio >= 3


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
