"""Command-line entry points, driven through main() directly."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import collatsim
from collatsim import harness, oracles
from collatsim.cli import build_parser, main
from collatsim.model import EventTrace, SettleLog, Transaction

import identity_grid as grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def answer(name):
    """The JSON report of the identity grid's row ``cli[name]``, which exits 0."""
    run = grid.digest(f"cli[{name}]")
    assert (run.code, run.err) == (0, "")
    return json.loads(run.out)


def refused(name, directory=None, section="cli"):
    """stderr of the identity grid's row ``section[name]``: one ``error: …`` line, exit 2."""
    run = grid.digest(f"{section}[{name}]", directory)
    assert (run.code, run.out) == (2, "") and run.err.startswith("error: ")
    return run.err


@pytest.fixture
def seq_csv(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("slot,value\n1,6\n2,6\n3,6\n4,6\n5,6\n")
    return str(path)


def test_simulate(capsys, seq_csv):
    code, out = run_cli(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1", "--seq", seq_csv,
    )
    assert code == 0
    assert out["settledValue"] == 18
    assert out["flushCount"] == 2
    assert out["offeredValue"] == 30


def test_simulate_with_config(capsys, tmp_path, seq_csv):
    config = {
        "params": {"C": 20, "k": 2, "T": 6, "F": 1},
        "policy": "fwf",
        "seqFile": seq_csv,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    assert out["settledValue"] == 18


def test_simulate_missing_flags():
    assert "missing required flags" in refused("simulate missing flags")


def test_ratio(capsys, seq_csv):
    code, out = run_cli(
        capsys, "ratio", "--policy", "fwf",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1",
        "--seq", seq_csv, "--oracle", "brute-general",
    )
    assert code == 0
    row = out["rows"][0]
    assert row["optValue"] == 30
    assert row["boundOk"] is True
    assert row["ratioValue"] == {"num": 5, "den": 3}


def test_ratio_with_inline_workload(capsys):
    workload = json.dumps(
        {"kind": "constant", "arrivalRatePerMille": 1000, "horizon": 6,
         "seed": 0, "maxValue": 6, "valueParams": {"value": 6}}
    )
    code, out = run_cli(
        capsys, "ratio", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1",
        "--workload", workload,
    )
    assert code == 0
    assert out["rows"][0]["boundOk"] is True


def test_adversary(capsys):
    code, out = run_cli(
        capsys, "adversary", "--type", "thm3", "--target", "fwf",
        "--C", "4", "--T", "4", "--F", "1", "--epsilon", "2", "--rounds", "2",
    )
    assert code == 0
    assert out["algValue"] == 4
    assert out["optValue"] == 8
    assert out["ratio"] == {"num": 2, "den": 1}


@pytest.mark.parametrize("case", grid.cases("adversary"))
def test_adversary_golden(case):
    grid.check_case("adversary", case)


def test_exhaust(capsys):
    code, out = run_cli(
        capsys, "exhaust", "--C", "4", "--k", "2", "--T", "2", "--F", "1",
        "--max-len", "3", "--values", "1,2",
    )
    assert code == 0
    assert out["sequences"] == 27
    assert out["counterexamples"] == []
    assert out["invariantViolations"] == []


def test_unbounded_ratio_prints_inf():
    # the grid row pins the bytes, the CSV's ratio_value cell "inf" too
    assert answer("ratio rand2 settles nothing")["rows"][0]["ratioValue"] == "inf"


def test_formulas_kwallet_profit_inflation():
    assert answer("formulas kwallet profit inflation")["kwalletProfitInflation"] == 1.6


def test_exhaust_lists_a_counterexample(capsys, monkeypatch):
    # fa held to bound 1 fails once: of three offers of 2 in a row its two
    # wallets of 3 settle one each and the third misfits, while every two
    # slots offer 4 <= C and the optimum settles all three
    monkeypatch.setattr(harness, "default_exhaust_policies", lambda params: {"fa": Fraction(1)})
    code, out = run_cli(
        capsys, "exhaust", "--C", "6", "--k", "2", "--T", "3", "--F", "1",
        "--max-len", "3", "--values", "1,2",
    )
    assert code == 1
    assert out["policies"] == {"fa": 1.0}
    assert out["counterexamples"] == [
        {"policy": "fa", "sequence": [[1, 2], [2, 2], [3, 2]], "optValue": 6, "algValue": 4,
         "bound": 1.0}
    ]


@pytest.mark.parametrize("flags", grid.cases("exhaust"))
def test_exhaust_cli_golden(flags):
    grid.check_case("exhaust", flags)


def test_formulas(capsys):
    code, out = run_cli(
        capsys, "formulas", "--C", "20", "--T", "6", "--k", "2", "--tau", "1",
    )
    assert code == 0
    assert out["fwfRatio"] == pytest.approx(3.75)
    assert out["kStar"]["integer"] >= 1


@pytest.mark.parametrize("flags", grid.cases("formulas"))
def test_formulas_golden(flags):
    grid.check_case("formulas", flags)


# a row of each subcommand and a refusal, run by a console process whose
# stdout and stderr are pipes, not the in-process recipe's buffers
DASH_M_ROWS = (
    "simulate[poisson-uniform eta]",
    "oracle[brute-utility eta tau1 r2]",
    "adversary[thm3 rand2 C10T10F2]",
    "exhaust[--C 12 --k 2 --T 3 --F 1 --max-len 5 --values 1,2,3]",
    "sweep[eta bursty] eta r3",
    "formulas[--k 2 --tau 5 --p-ppm 100000] C20 T6",
    "cli[ratio missing seq file]",
)


def test_python_dash_m(tmp_path):
    src = str(Path(collatsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    for n, row_id in enumerate(DASH_M_ROWS):
        row = grid.ROWS[row_id]
        directory = tmp_path / str(n)
        directory.mkdir()
        grid.lay_out(row, directory)
        done = subprocess.run(
            [sys.executable, "-m", "collatsim", *row.argv],
            capture_output=True, cwd=directory, env=env, timeout=60,
        )
        digest = grid.hash_run(done.returncode, done.stdout, done.stderr, directory)
        assert digest == grid.recorded()[row_id], (row_id, done.stderr)


def test_sweep(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out = run_cli(
        capsys, "sweep", "--param", "eta", "--from", "0.35", "--to", "0.5",
        "--step", "0.075", "--policy", "eta",
        "--C", "200", "--T", "60", "--F", "1",
        "--p-ppm", "100000", "--tau", "5", "--eta-ppm", "500000",
        "--workload", json.dumps(
            {"kind": "poisson-uniform", "arrivalRatePerMille": 600, "horizon": 20,
             "seed": 0, "maxValue": 60, "valueParams": {"min": 10, "max": 60}}
        ),
        "--csv", str(out_csv),
    )
    assert code == 0
    assert len(out["rows"]) == 3
    assert out_csv.read_text().splitlines()[0].startswith("param,value")


@pytest.mark.parametrize("case", grid.cases("sweep"))
def test_sweep_golden(case):
    grid.check_case("sweep", case)


@pytest.mark.parametrize("case", grid.cases("longrun"))
def test_ratio_cli_golden(case):
    grid.check_case("longrun", case)


@pytest.mark.parametrize("case", grid.cases("longrun-seq"))
def test_ratio_seq_golden(case):
    grid.check_case("longrun-seq", case)


def test_a_seq_run_builds_no_transaction(monkeypatch):
    # a sequence is two int columns from the generator to the policy, so no
    # Transaction is built while a run writes, reads, steps or measures one
    built = []
    build = Transaction.__new__

    def counted(cls, slot, value):
        built.append((slot, value))
        return build(cls, slot, value)

    monkeypatch.setattr(Transaction, "__new__", counted)
    assert Transaction(1, 2) == (1, 2) and built == [(1, 2)]  # the count sees a build
    built.clear()
    for policy in grid.LONGRUN_ITEMS:
        grid.check(f"longrun-seq[{policy} 1]")
    assert built == []


@pytest.mark.parametrize("case", grid.cases("seq-file"))
def test_seq_file_refusals_and_quirks(case):
    grid.check_case("seq-file", case)


@pytest.mark.parametrize("flags", grid.cases("batch"))
def test_a_batch_reads_its_sequence_file_once(monkeypatch, flags):
    # three repetitions, or two at each of four settings, share one read
    reads = []
    read = harness.read_sequence_csv
    monkeypatch.setattr(harness, "read_sequence_csv", lambda path: reads.append(path) or read(path))
    grid.check(f"batch[{flags}]")
    assert reads == ["seq.csv"]


def test_ratio_writes_the_last_repetitions_trace(capsys, monkeypatch, tmp_path):
    # repetition r runs the policy at seed+r on the workload at its seed+r, so
    # of three the trace written is repetition 2's: the bytes of a simulate
    # run at both seeds plus 2, and not those of repetition 0.  Only that
    # repetition logs text: the two before it log to the untraced sink
    stream, params = grid.LONGRUN_ITEMS["rand2"]
    sinks = []
    make_policy = harness.make_policy

    def recording(*args, trace=None, **kwargs):
        sinks.append(type(trace))
        return make_policy(*args, trace=trace, **kwargs)

    monkeypatch.setattr(harness, "make_policy", recording)

    def trace_of(command, workload_seed, seed, *flags):
        workload = grid.longrun_workload(stream, workload_seed)
        path = tmp_path / f"{command}-{seed}.ndjson"
        assert main([
            command, "--policy", "rand2", *params.split(), *flags,
            "--workload", json.dumps(workload), "--seed", str(seed), "--trace", str(path),
        ]) == 0
        return path.read_bytes()

    written = trace_of("ratio", 5, 11, "--oracle", "window-bound", "--repetitions", "3")
    assert sinks == [SettleLog, SettleLog, EventTrace]
    # choosing a sink per repetition leaves the written bytes as they were
    assert hashlib.sha256(written).hexdigest() == (
        "4c5593deb54c91536850a4bee46366543aa5899ec2eae3dc8ca19bce8742928f"
    )
    assert written == trace_of("simulate", 7, 13)
    assert written != trace_of("simulate", 5, 11)
    capsys.readouterr()


def run_cli_error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    return err


@pytest.mark.parametrize("step", ["0", "-0.05"])
def test_sweep_rejects_nonpositive_step(step):
    assert "--step must be positive" in refused(f"sweep step {step}")


def test_missing_seq_file():
    assert refused("ratio missing seq file") == "error: absent.csv: No such file or directory\n"


@pytest.mark.parametrize("flag", ["--seq", "--workload"])
def test_empty_source_path_is_named(flag):
    assert refused(f"simulate empty {flag}") == "error: '': No such file or directory\n"


def test_non_integer_csv_cell():
    assert "line 3" in refused("non-int row above slot 0", section="seq-file")


def test_csv_field_past_the_size_limit():
    err = refused("oversized field after a good row", section="seq-file")
    assert err.startswith("error: seq.csv line 3: field larger than field limit")
    assert err.count("\n") == 1


def test_too_deep_inline_workload(capsys):
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1",
        "--workload", '{"valueParams": ' + "[" * 100_000,
    )
    assert err.startswith("error: workload is not valid JSON: maximum recursion depth exceeded")


def test_malformed_inline_workload(capsys):
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1",
        "--workload", '{"kind": "constant",',
    )
    assert "not valid JSON" in err


def test_exhaust_rejects_non_integer_values():
    assert "--values" in refused("exhaust values not ints")


def test_non_utf8_seq_file(capsys, tmp_path):
    path = tmp_path / "seq.csv"
    path.write_bytes(b"\xff\xfeslot,value\n")
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1", "--seq", str(path),
    )
    assert "not UTF-8" in err


def test_exhaust_rejects_values_above_T():
    assert "[1, T=3]" in refused("exhaust value above T")


@pytest.mark.parametrize("values", grid.VALUES_BELOW_1)
def test_exhaust_rejects_values_below_1(values):
    err = refused(f"exhaust {' '.join(values)}")
    assert err.count("\n") == 1 and "values must lie in [1, T=3]" in err


def test_exhaust_rejects_nonpositive_max_len():
    assert "max_len" in refused("exhaust max-len below 1")


def test_exhaust_refuses_a_long_max_len():
    assert refused("exhaust a long max-len") == "error: 3^1000000 sequences exceed cap 78125\n"


def test_adversary_missing_flags():
    assert "missing required flags: --C, --F" in refused("adversary missing flags")


def test_exhaust_rejects_repeated_values():
    assert "distinct" in refused("exhaust values repeated")


@pytest.mark.parametrize("rounds", ["-3", "0"])
def test_thm3_adversary_rejects_nonpositive_rounds(rounds):
    assert f"rounds must be positive, got {rounds}" in refused(f"adversary thm3 rounds {rounds}")


@pytest.mark.parametrize("argv", grid.PAST_THE_OFFER_CAP)
def test_adversary_refuses_more_than_the_offer_cap(argv):
    err = refused(f"adversary {argv}")
    assert err == "error: adversary sequence exceeds 20000 offers at slot 20001\n"


def test_adversary_runs_up_to_the_offer_cap():
    assert answer("adversary at the offer cap")["nTx"] == 20000


# a workload draws once per slot up to its horizon, so a horizon past
# MAX_SLOTS = 10^5 is refused before any slot is drawn
@pytest.mark.parametrize(
    "argv, slot",
    [("simulate --policy fa --C 12 --T 3 --k 2 --F 1 --workload {workload}", 100001)],
)
def test_runs_refuse_more_than_the_slot_cap(capsys, argv, slot):
    workload = json.dumps({**WORKLOAD, "horizon": slot}).replace(" ", "")
    err = run_cli_error(capsys, *argv.format(workload=workload).split())
    assert err == f"error: sequence runs to slot {slot}, past 100000 slots\n"


FAR_RATIO = {"bound": 3.0, "boundKind": "value", "boundOk": True,
             "optIsUpperBound": False, "optValue": 5, "ratioUtility": None,
             "ratioValue": {"den": 1, "num": 1}, "runId": 0, "settledValue": 5}


def adversary_json(kind, n_tx, alg, opt, ratio):
    return {"adversary": kind, "target": "fwf", "nTx": n_tx, "algValue": alg,
            "optValue": opt, "ratio": {"den": 1, "num": ratio}}


# a run steps only its offers, so a sequence that reaches far slots costs no
# more than its offers: a sparse CSV, the killer's rounds ceil(F/k) + 1
# slots apart, and thm3's F quiet slots between and after rounds
@pytest.mark.parametrize(
    "name, expected",
    [
        pytest.param(
            "simulate far csv",
            {"flushCount": 0, "nTx": 2, "offeredValue": 5, "policy": "fa",
             "settledValue": 5, "utility": {"den": 1, "num": 5}},
            id="simulate-far-csv",
        ),
        pytest.param(
            "ratio far csv",
            {"oracle": "brute-general", "policy": "fwf", "rows": [FAR_RATIO]},
            id="ratio-far-csv",
        ),
        pytest.param(
            "fwfkiller at F 1e8", adversary_json("fwfkiller", 4, 2, 10, 5), id="fwfkiller-F1e8"
        ),
        pytest.param(
            "thm3 at F 1e8 rounds 1", adversary_json("thm3", 2, 1, 10, 10), id="thm3-F1e8-rounds1"
        ),
        pytest.param(
            "thm3 at F 1e8 rounds 2", adversary_json("thm3", 4, 2, 20, 10), id="thm3-F1e8-rounds2"
        ),
    ],
)
def test_runs_past_the_workload_slot_cap_answer(name, expected):
    assert answer(name) == expected


def test_window_bound_oracle_cost_does_not_grow_with_F():
    rows = answer("ratio window-bound at F 1e8")["rows"]
    assert [(r["settledValue"], r["optValue"]) for r in rows] == [(6, 6)]


def test_exhaust_past_the_sequence_length_equals_F_at_the_length(capsys):
    # for F >= L - 1 no window and no outage ends inside an L-slot sequence
    def exhaust(F):
        code = main(["exhaust", "--C", "12", "--k", "2", "--T", "3", "--F", F,
                     "--max-len", "4", "--values", "1,2,3"])
        return code, capsys.readouterr().out

    assert exhaust("100000000") == exhaust("4")


def test_simulate_runs_up_to_the_slot_cap():
    assert answer("simulate at the slot cap")["settledValue"] == 5


@pytest.mark.parametrize(
    "span, expected",
    [
        # 1e16 + 1.0 == 1e16: the loop would never advance
        (("1e16", "2e16", "1"), "too small to advance"),
        # 2**53 - 2 advances twice, then 2**53 + 1.0 rounds back to 2**53
        (("9007199254740990", "9007199254740994", "1"), "too small to advance"),
        (("1e300", "2e300", "1e280"), "too small to advance"),
        (("0", "1", "1e-9"), "exceed 10000 values"),
    ],
)
def test_sweep_rejects_endless_or_huge_ranges(capsys, span, expected):
    lo, hi, step = span
    err = run_cli_error(
        capsys, "sweep", "--param", "eta", f"--from={lo}", f"--to={hi}",
        f"--step={step}", "--policy", "eta",
        "--C", "200", "--T", "60", "--F", "1", "--p-ppm", "100000", "--tau", "5",
        "--workload", json.dumps(
            {"kind": "constant", "arrivalRatePerMille": 600, "horizon": 20,
             "seed": 0, "maxValue": 60}
        ),
    )
    assert expected in err


@pytest.mark.parametrize("flag, value", grid.NON_FINITE)
def test_sweep_rejects_non_finite_bounds(flag, value):
    err = refused(f"sweep {flag}={value}")
    assert err == f"error: {flag} must be finite, got {float(value)}\n"


WORKLOAD = {"kind": "constant", "arrivalRatePerMille": 500, "horizon": 10,
            "seed": 1, "maxValue": 3}
WORKLOAD_6 = {"kind": "constant", "arrivalRatePerMille": 1000, "horizon": 6,
              "seed": 0, "maxValue": 6, "valueParams": {"value": 6}}


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon", "10"),
        ("horizon", 10.5),
        ("seed", "x"),
        ("arrivalRatePerMille", 500.0),
        ("maxValue", True),
    ],
)
def test_wrong_typed_workload_field(capsys, field, value):
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1",
        "--workload", json.dumps(dict(WORKLOAD, **{field: value})),
    )
    assert "must be an integer" in err


def test_workload_file_not_an_object():
    assert "must be an object" in refused("simulate workload file not an object")


@pytest.mark.parametrize("case, shown", [("array", "[1]"), ("number", "0")])
def test_inline_workload_not_an_object(case, shown):
    # JSON that is not an object is refused as the same text in a file is,
    # not looked up as a file name
    err = refused(f"simulate inline workload {case}")
    assert err == f"error: workload spec must be an object, got {shown}\n"


# 40 offers of 6 where a 3-slot window fits 12
FORTY_SIXES = ("ratio", "--policy", "fa", "--oracle", "brute-general",
               "--C", "12", "--k", "2", "--T", "6", "--F", "2", "--workload",
               json.dumps({"kind": "constant", "arrivalRatePerMille": 1000,
                           "horizon": 40, "seed": 0, "maxValue": 6,
                           "valueParams": {"value": 6}}))


def test_ratio_brute_general_beyond_twelve_offers(capsys):
    code, out = run_cli(capsys, *FORTY_SIXES)
    assert code == 0
    # every third offer has to go
    assert out["rows"][0]["optValue"] == 6 * (40 - 40 // 3)


def test_oracle_state_step_cap(capsys, monkeypatch):
    monkeypatch.setattr(oracles, "MAX_DP_CELLS", 100)
    err = run_cli_error(capsys, *FORTY_SIXES)
    assert "exceeds 100 cells" in err


@pytest.mark.parametrize("fields, message", grid.CONFIG_REFUSALS)
def test_wrong_typed_config_field(fields, message):
    assert message in refused(f"simulate {message}", section="config")


@pytest.mark.parametrize("fields, where, name", grid.UNKNOWN_FIELDS)
def test_unknown_config_field(tmp_path, fields, where, name):
    message = f"unknown {where} field '{name}'"
    assert refused(f"ratio {message}", tmp_path, "config") == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_unknown_workload_field():
    err = refused("simulate unknown workload field")
    assert err == "error: unknown workload field 'valueParam'\n"


def test_ratio_config_oracle(capsys, tmp_path, seq_csv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {"C": 20, "k": 2, "T": 6, "F": 1},
                                "policy": "fwf", "seqFile": seq_csv,
                                "oracle": "window-bound"}))
    code, out = run_cli(capsys, "ratio", "--config", str(path))
    assert (code, out["oracle"], out["rows"][0]["optIsUpperBound"]) == (
        0, "window-bound", True
    )
    # the flag, when given, replaces the file's oracle
    code, out = run_cli(capsys, "ratio", "--config", str(path), "--oracle", "brute-general")
    assert (code, out["oracle"], out["rows"][0]["optIsUpperBound"]) == (
        0, "brute-general", False
    )


# each run flag and the config field it sets, "field" or "params.field"
FLAG_FIELD = {
    "--policy": "policy", "--seed": "seed", "--repetitions": "repetitions",
    "--oracle": "oracle", "--workload": "workload", "--seq": "seqFile",
    **{"--" + name.replace("_", "-"): "params." + name
       for name in ("C", "T", "F", "k", "p_ppm", "tau", "eta_ppm")},
}


def flags_for(config):
    """The run flags that set each field of ``config`` that has one."""
    argv = []
    for flag, field in FLAG_FIELD.items():
        section, _, key = field.rpartition(".")
        fields = config.get(section, {}) if section else config
        if key in fields:
            value = fields[key]
            argv += [flag, value if isinstance(value, str) else json.dumps(value)]
    return argv


def with_field(config, flag, value):
    """A copy of ``config`` with the field ``flag`` sets set to ``value``."""
    config = json.loads(json.dumps(config))
    if flag in ("--seq", "--workload"):  # a source flag replaces the file's source
        config.pop("seqFile", None)
        config.pop("workload", None)
    if flag not in ("--policy", "--oracle", "--seq"):
        value = json.loads(value)
    section, _, key = FLAG_FIELD[flag].rpartition(".")
    (config[section] if section else config)[key] = value
    return config


# per policy, the model params of the flags-vs-config grid; the fields left
# out take their defaults, and eta's row sets every param
EQUAL_GRID_PARAMS = {
    "fa": {"C": 12, "k": 2, "T": 3, "F": 2},
    "fwf": {"C": 12, "k": 3, "T": 3, "F": 1},
    "ftwf": {"C": 12, "k": 2, "T": 3, "F": 2, "tau": 1},
    "rand2": {"C": 6, "T": 3, "F": 2},
    "eta": {"C": 12, "k": 1, "T": 3, "F": 2, "p_ppm": 500000, "tau": 1,
            "eta_ppm": 500000},
}
EQUAL_GRID_WORKLOAD = {"kind": "poisson-uniform", "arrivalRatePerMille": 700,
                       "horizon": 14, "seed": 4, "maxValue": 3,
                       "valueParams": {"min": 1, "max": 3}}


@pytest.mark.parametrize("source", ["seq", "workload"])
@pytest.mark.parametrize("policy", EQUAL_GRID_PARAMS)
def test_flags_equal_config(capsys, tmp_path, policy, source):
    seq = tmp_path / "seq.csv"
    seq.write_text("slot,value\n1,3\n2,2\n3,3\n5,1\n6,3\n8,2\n9,3\n12,3\n")
    given = {"params": EQUAL_GRID_PARAMS[policy], "policy": policy}
    if source == "seq":
        given["seqFile"] = str(seq)
    else:
        given.update(workload=EQUAL_GRID_WORKLOAD, seed=5)
    commands = [("simulate", None), *(("ratio", oracle) for oracle in harness.ORACLE_KINDS)]
    for command, oracle in commands:
        for repetitions in (None, 2):
            config = dict(given, oracle=oracle, repetitions=repetitions)
            config = {name: v for name, v in config.items() if v is not None}
            runs = []
            for side in ("flags", "config"):
                out = tmp_path / side
                out.mkdir(exist_ok=True)
                outputs = {"csv": str(out / "run.csv"), "trace": str(out / "run.ndjson")}
                if side == "flags":
                    argv = [command, *flags_for(config),
                            "--csv", outputs["csv"], "--trace", outputs["trace"]]
                else:
                    path = out / "cfg.json"
                    path.write_text(json.dumps(dict(config, outputs=outputs)))
                    argv = [command, "--config", str(path)]
                code = main(argv)
                captured = capsys.readouterr()
                run = [code, captured.out, captured.err]
                for written in map(Path, outputs.values()):
                    run.append(written.read_bytes() if written.exists() else None)
                    written.unlink(missing_ok=True)
                runs.append(run)
            assert runs[0] == runs[1], (command, oracle, repetitions)


# each run flag, its value, and the subcommand it is given to next to
# --config; every subcommand that reads a config meets some of them
RUN_FLAG_CASES = [
    ("--policy", "fwf", "ratio"),
    ("--C", "40", "simulate"),
    ("--T", "3", "sweep"),
    ("--F", "2", "ratio"),
    ("--k", "4", "simulate"),
    ("--p-ppm", "500000", "sweep"),
    ("--tau", "1", "ratio"),
    ("--eta-ppm", "500000", "simulate"),
    ("--seed", "9", "sweep"),
    ("--repetitions", "3", "ratio"),
    ("--workload", json.dumps(WORKLOAD_6), "simulate"),
    ("--seq", "other.csv", "sweep"),
]


def run_config(capsys, tmp_path, command, config, *flags):
    """Code, stdout, stderr and results CSV of ``command --config`` on ``config``."""
    path, out_csv = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps(dict(config, outputs={"csv": str(out_csv)})))
    sweep = ["--param", "k", "--from", "1", "--to", "2", "--step", "1"]
    code = main([command, *(sweep if command == "sweep" else []), "--config", str(path), *flags])
    captured = capsys.readouterr()
    written = out_csv.read_bytes() if out_csv.exists() else None
    out_csv.unlink(missing_ok=True)
    return code, captured.out, captured.err, written


@pytest.mark.parametrize("flag, value, command", RUN_FLAG_CASES)
def test_run_flag_overrides_config(capsys, tmp_path, monkeypatch, flag, value, command):
    monkeypatch.chdir(tmp_path)
    # rand2's two-wallet FlushAll puts six offers in one wallet and four in the other
    (tmp_path / "seq.csv").write_text("slot,value\n" + "".join(f"{t},3\n" for t in range(1, 11)))
    (tmp_path / "other.csv").write_text("slot,value\n1,2\n3,2\n4,1\n")
    config = {"params": {"C": 20, "k": 1, "T": 6, "F": 1}, "policy": "rand2",
              "seqFile": "seq.csv"}
    flagged = run_config(capsys, tmp_path, command, config, flag, value)
    assert flagged == run_config(capsys, tmp_path, command, with_field(config, flag, value))
    # the flag changed the run, so the file's own field was not used
    assert flagged != run_config(capsys, tmp_path, command, config)


def test_run_flags_override_config_together(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seq.csv").write_text("slot,value\n1,6\n2,6\n3,6\n4,6\n5,6\n")
    config = {"params": {"C": 20, "k": 2, "T": 6, "F": 1, "tau": 1}, "policy": "fa",
              "seqFile": "seq.csv", "oracle": "brute-kwallet"}
    flags = {"--C": "40", "--seed": "3", "--policy": "fwf", "--workload": json.dumps(WORKLOAD_6),
             "--oracle": "window-bound"}
    expected = config
    for flag, value in flags.items():
        expected = with_field(expected, flag, value)
    assert expected == {"params": {"C": 40, "k": 2, "T": 6, "F": 1, "tau": 1},
                        "policy": "fwf", "seed": 3, "workload": WORKLOAD_6,
                        "oracle": "window-bound"}
    flagged = run_config(capsys, tmp_path, "ratio", config, *sum(flags.items(), ()))
    assert flagged[0] == 0
    assert flagged == run_config(capsys, tmp_path, "ratio", expected)


@pytest.mark.parametrize(
    "config, flags, message",
    [
        ([1], ["--C", "3"], "config must be an object, got [1]"),
        ([1], [], "config must be an object, got [1]"),
        ({"params": [1]}, ["--C", "3"], "params must be an object, got [1]"),
        ({"params": [1]}, [], "params must be an object, got [1]"),
        ({"params": {"C": 20, "T": 6, "F": 1}, "policy": "fa", "outputs": 5},
         ["--csv", "out.csv"], "outputs must be an object, got 5"),
    ],
)
def test_run_flag_over_a_non_object(capsys, tmp_path, config, flags, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    err = run_cli_error(capsys, "simulate", "--config", str(path), *flags)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "workload, message",
    [
        ({}, "workload spec missing field 'kind'"),
        (False, "workload spec must be an object, got False"),
        (0, "workload spec must be an object, got 0"),
        ("", "workload spec must be an object, got ''"),
        ([], "workload spec must be an object, got []"),
    ],
)
def test_falsy_config_workload_is_read(capsys, tmp_path, seq_csv, workload, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {"C": 20, "k": 2, "T": 6, "F": 1}, "policy": "fa",
                                "seqFile": seq_csv, "workload": workload}))
    err = run_cli_error(capsys, "simulate", "--config", str(path))
    assert err == f"error: {message}\n"
    # the same text as the flag gives
    if workload == {}:
        flags = ["--policy", "fa", "--C", "20", "--T", "6", "--F", "1", "--workload", "{}"]
        assert run_cli_error(capsys, "simulate", *flags) == err


def test_main_reuses_its_parser(capsys, seq_csv):
    argv = ["simulate", "--policy", "fa", "--C", "20", "--k", "2", "--T", "6",
            "--F", "1", "--seq", seq_csv]
    assert main(argv) == 0
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as refused:
        main(["simulate", "--policy", "nope"])
    assert refused.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr() == first
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["simulate", "--policy", "fa", "--C"], "argument --C: expected one argument"),
        (["simulate", "--C", "x"], "argument --C: invalid int value: 'x'"),
        (["ratio", "--oracle", "nope"], "argument --oracle: invalid choice: 'nope'"),
        # argparse reads -inf as a flag, not as a number
        (["sweep", "--param", "eta", "--from", "0.5", "--to", "1", "--step", "-inf"],
         "argument --step: expected one argument"),
        # and a comma list that starts with a minus sign
        (["exhaust", "--C", "12", "--k", "2", "--T", "3", "--F", "2", "--max-len", "3",
          "--values", "-1,2"],
         "argument --values: expected one argument"),
    ],
    ids=["missing-value", "bad-int", "bad-choice", "minus-inf", "minus-values"],
)
def test_argparse_refusals_are_one_error_line(capsys, argv, expected):
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {expected}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize(
    "kind, knob, value",
    [
        ("poisson-exponential", "mean", "x"),
        ("bursty", "burstLen", "x"),
        ("bursty", "gapLen", True),
        ("constant", "value", "x"),
        ("constant", "value", float("inf")),
        ("poisson-pareto", "tailIndex", None),
    ],
)
def test_wrong_typed_value_knob(capsys, kind, knob, value):
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1",
        "--workload", json.dumps(dict(WORKLOAD, kind=kind, valueParams={knob: value})),
    )
    assert f"{knob} must be a finite number" in err


@pytest.mark.parametrize(
    "kind, rate, knobs, message",
    [
        # past the float range, the draw would overflow
        ("poisson-exponential", 600, {"mean": 10**400}, "mean must be a finite number"),
        ("poisson-pareto", 600, {"tailIndex": 10**400}, "tailIndex must be a finite number"),
        # checked when the spec is made, even if no arrival ever draws a value
        ("poisson-exponential", 0, {"mean": -1}, "exponential mean must be positive"),
        ("poisson-pareto", 0, {"tailIndex": 0}, "pareto tail index must be positive"),
    ],
)
def test_out_of_range_value_knob(capsys, tmp_path, kind, rate, knobs, message):
    path = tmp_path / "W.json"
    path.write_text(json.dumps(
        dict(WORKLOAD, kind=kind, arrivalRatePerMille=rate, valueParams=knobs)
    ))
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "12", "--k", "4", "--T", "3", "--F", "2", "--workload", str(path),
    )
    assert message in err


@pytest.mark.parametrize("kind, knobs, message", grid.VALUE_PARAMS_REFUSALS)
def test_value_knob_the_kind_does_not_read(kind, knobs, message):
    assert refused(f"simulate {message}") == f"error: {message}\n"


@pytest.mark.parametrize("policy, params, message", grid.PARAM_TYPES)
def test_wrong_typed_model_param(policy, params, message):
    assert message in refused(f"simulate {message}", section="config")


HUGE_INT = "1" + "0" * 5000  # past the interpreter's 4300-digit limit
DEEP_ARRAY = "[" * 100_000  # past the decoder's recursion limit


@pytest.mark.parametrize("flag", ["--workload", "--config"])
@pytest.mark.parametrize(
    "content, message",
    [
        (HUGE_INT.encode(), "not valid JSON"),
        (b"\xff\xfe{}", "input is not UTF-8 text"),
        (DEEP_ARRAY.encode(), "not valid JSON: maximum recursion depth exceeded"),
    ],
    ids=["huge-int", "not-utf8", "too-deep"],
)
def test_unparsable_json_file(capsys, tmp_path, flag, content, message):
    path = tmp_path / "in.json"
    path.write_bytes(b'{"horizon": ' + content + b"}")
    flags = ["--config", str(path)] if flag == "--config" else [
        "--policy", "fa", "--C", "20", "--k", "2", "--T", "6", "--F", "1",
        "--workload", str(path),
    ]
    err = run_cli_error(capsys, "simulate", *flags)
    assert message in err
    assert err.count("\n") == 1


BIG = "1" + "0" * 400  # past the float range


def test_formulas_zero_p():
    assert "p_ppm must be in [1, 1000000], got 0" in refused("formulas p_ppm 0")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--p-ppm", "2000000", "--tau", "1"), "p_ppm must be in [1, 1000000], got 2000000"),
        (("--k", "0"), "k must be positive, got 0"),
        (("--k", "-2"), "k must be positive, got -2"),
        *(
            pytest.param(flags, f"{name} must be a finite number, got {BIG}", id=case)
            for case, flags, name in [
                ("C-big", ("--C", BIG, "--T", "1"), "C"),
                ("T-big", ("--T", BIG), "T"),
                ("k-big", ("--k", BIG), "k"),
                ("tau-big", ("--tau", BIG), "tau"),
                ("CT-big", ("--C", BIG, "--T", BIG, "--k", "1"), "C"),
            ]
        ),
        pytest.param(
            ("--p-ppm", "0"), "p_ppm must be in [1, 1000000], got 0", id="p-without-tau"
        ),
    ],
)
def test_formulas_rejects_out_of_range_inputs(capsys, flags, message):
    err = run_cli_error(capsys, "formulas", "--C", "10", "--T", "3", *flags)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "name",
    [
        pytest.param("ratio C past the float range", id="ratio-fwf"),
        pytest.param("sweep k C past the float range", id="sweep-k"),
        pytest.param("sweep eta C past the float range", id="sweep-eta"),
    ],
)
def test_runs_reject_collateral_past_the_float_range(name):
    assert refused(name).startswith("error: C must be a finite number, got ")


def test_workload_max_value_past_the_float_range_is_refused():
    err = refused("simulate exponential maxValue past the float range")
    assert err == f"error: max_value must be a finite number, got {10**400}\n"


def test_wallet_count_past_the_cap_is_refused():
    err = refused("exhaust k past the wallet cap")
    assert err == f"error: k must be at most 1000, got {10**30}\n"


def test_bound_past_the_float_range_is_refused():
    err = refused("ratio value bound past the float range")
    assert err == "error: value bound is past the float range\n"


def test_sweep_refuses_a_trace(tmp_path):
    err = refused("sweep a trace", tmp_path)
    assert err == "error: sweep writes no trace, got 'sweep.ndjson'\n"
    assert not (tmp_path / "sweep.ndjson").exists()


def test_sweep_config_writes_outputs_csv(capsys, tmp_path, seq_csv):
    span = ["sweep", "--param", "k", "--from", "1", "--to", "4", "--step", "1"]
    by_flag = tmp_path / "flag.csv"
    flagged = run_cli(
        capsys, *span, "--policy", "fwf", "--C", "20", "--T", "6", "--F", "1",
        "--seq", seq_csv, "--csv", str(by_flag),
    )
    by_config = tmp_path / "config.csv"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {"C": 20, "T": 6, "F": 1}, "policy": "fwf",
                                "seqFile": seq_csv, "outputs": {"csv": str(by_config)}}))
    assert run_cli(capsys, *span, "--config", str(path)) == flagged
    assert by_config.read_bytes() == by_flag.read_bytes()


def test_simulate_refuses_repetitions():
    for source, n in (("flag", 5), ("config", 3)):
        err = refused(f"simulate repetitions {source}")
        assert err == f"error: simulate runs one repetition, got {n}; ratio runs several\n"
