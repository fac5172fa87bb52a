"""Command-line entry points, driven through main() directly."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import collatsim
from collatsim import oracles
from collatsim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


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


def test_simulate_missing_flags(capsys):
    code = main(["simulate", "--policy", "fa", "--C", "20"])
    assert code == 2
    assert "missing required flags" in capsys.readouterr().err


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


def test_exhaust(capsys):
    code, out = run_cli(
        capsys, "exhaust", "--C", "4", "--k", "2", "--T", "2", "--F", "1",
        "--max-len", "3", "--values", "1,2",
    )
    assert code == 0
    assert out["sequences"] == 27
    assert out["counterexamples"] == []
    assert out["invariantViolations"] == []


def test_formulas(capsys):
    code, out = run_cli(
        capsys, "formulas", "--C", "20", "--T", "6", "--k", "2", "--tau", "1",
    )
    assert code == 0
    assert out["fwfRatio"] == pytest.approx(3.75)
    assert out["kStar"]["integer"] >= 1


def test_python_dash_m(capsys):
    argv = ["formulas", "--C", "200", "--T", "60", "--k", "2", "--p-ppm", "100000", "--tau", "5"]
    assert main(argv) == 0
    in_process = capsys.readouterr().out
    src = str(Path(collatsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, "-m", "collatsim", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == in_process


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


def run_cli_error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    return err


@pytest.mark.parametrize("step", ["0", "-0.05"])
def test_sweep_rejects_nonpositive_step(capsys, step):
    err = run_cli_error(
        capsys, "sweep", "--param", "eta", "--from", "0.35", "--to", "0.5",
        f"--step={step}", "--policy", "eta",
        "--C", "200", "--T", "60", "--F", "1", "--p-ppm", "100000", "--tau", "5",
        "--workload", json.dumps(
            {"kind": "constant", "arrivalRatePerMille": 600, "horizon": 20,
             "seed": 0, "maxValue": 60}
        ),
    )
    assert "--step must be positive" in err


def test_missing_seq_file(capsys, tmp_path):
    missing = str(tmp_path / "absent.csv")
    err = run_cli_error(
        capsys, "ratio", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1", "--seq", missing,
    )
    assert missing in err


def test_non_integer_csv_cell(capsys, tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("slot,value\n1,6\n2,six\n")
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1", "--seq", str(path),
    )
    assert "line 3" in err


def test_malformed_inline_workload(capsys):
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1",
        "--workload", '{"kind": "constant",',
    )
    assert "not valid JSON" in err


def test_exhaust_rejects_non_integer_values(capsys):
    err = run_cli_error(
        capsys, "exhaust", "--C", "4", "--k", "2", "--T", "2", "--F", "1",
        "--max-len", "3", "--values", "1,two",
    )
    assert "--values" in err


def test_non_utf8_seq_file(capsys, tmp_path):
    path = tmp_path / "seq.csv"
    path.write_bytes(b"\xff\xfeslot,value\n")
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1", "--seq", str(path),
    )
    assert "not UTF-8" in err


def test_exhaust_rejects_values_above_T(capsys):
    err = run_cli_error(
        capsys, "exhaust", "--C", "12", "--k", "2", "--T", "3", "--F", "2",
        "--max-len", "3", "--values", "5",
    )
    assert "[1, T=3]" in err


def test_exhaust_rejects_nonpositive_max_len(capsys):
    err = run_cli_error(
        capsys, "exhaust", "--C", "12", "--k", "2", "--T", "3", "--F", "2",
        "--max-len", "-1", "--values", "1,2",
    )
    assert "max_len" in err


def test_adversary_missing_flags(capsys):
    err = run_cli_error(capsys, "adversary", "--type", "thm3", "--target", "fa")
    assert "missing required flags: --C, --F" in err


def test_exhaust_rejects_repeated_values(capsys):
    err = run_cli_error(
        capsys, "exhaust", "--C", "4", "--k", "2", "--T", "2", "--F", "1",
        "--max-len", "2", "--values", "1,1",
    )
    assert "distinct" in err


@pytest.mark.parametrize("rounds", ["-3", "0"])
def test_thm3_adversary_rejects_nonpositive_rounds(capsys, rounds):
    err = run_cli_error(
        capsys, "adversary", "--type", "thm3", "--target", "fwf",
        "--C", "4", "--F", "1", f"--rounds={rounds}",
    )
    assert f"rounds must be positive, got {rounds}" in err


@pytest.mark.parametrize(
    "span, expected",
    [
        # 1e16 + 1.0 == 1e16: the loop would never advance
        (("1e16", "2e16", "1"), "too small to advance"),
        # 2**53 - 2 advances twice, then 2**53 + 1.0 rounds back to 2**53
        (("9007199254740990", "9007199254740994", "1"), "too small to advance"),
        (("0", "inf", "1"), "too small to advance"),
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


WORKLOAD = {"kind": "constant", "arrivalRatePerMille": 500, "horizon": 10,
            "seed": 1, "maxValue": 3}


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


def test_workload_file_not_an_object(capsys, tmp_path):
    path = tmp_path / "wl.json"
    path.write_text("[1]")
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1", "--workload", str(path),
    )
    assert "must be an object" in err


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
    monkeypatch.setattr(oracles, "MAX_DP_STATE_STEPS", 100)
    err = run_cli_error(capsys, *FORTY_SIXES)
    assert "exceeds 100 state-steps" in err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"seed": "x"}, "seed must be an integer"),
        ({"repetitions": 1.5}, "repetitions must be an integer"),
        ({"seqFile": 5}, "seqFile must be a string or null"),
        ({"outputs": {"csv": 1}}, "outputs.csv must be a string or null"),
        ({"outputs": {"trace": 1}}, "outputs.trace must be a string or null"),
        ({"outputs": [1]}, "outputs must be an object"),
        ({"policy": 3}, "policy must be a string"),
        ({"oracle": ["window-bound"]}, "oracle must be a string"),
        ({"flushCharge": None}, "flushCharge must be a string"),
        ({"utility": "no"}, "utility must be a boolean or null"),
    ],
)
def test_wrong_typed_config_field(capsys, tmp_path, seq_csv, fields, message):
    config = {"params": {"C": 20, "k": 2, "T": 6, "F": 1}, "policy": "fa",
              "seqFile": seq_csv}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, **fields)))
    err = run_cli_error(capsys, "simulate", "--config", str(path))
    assert message in err


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


@pytest.mark.parametrize(
    "policy, params, message",
    [
        ("fa", {"F": 1.5}, "F must be an integer"),
        ("fa", {"tau": 0.5}, "tau must be an integer"),
        ("fa", {"k": 2.0}, "k must be an integer"),
        ("fa", {"C": "20"}, "C must be an integer"),
        ("fa", {"p_ppm": True}, "p_ppm must be an integer"),
        ("eta", {"k": 1, "eta_ppm": 418000.5}, "eta_ppm must be an integer or null"),
    ],
)
def test_wrong_typed_model_param(capsys, tmp_path, seq_csv, policy, params, message):
    config = {"params": dict({"C": 20, "k": 2, "T": 6, "F": 1}, **params),
              "policy": policy, "seqFile": seq_csv}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    err = run_cli_error(capsys, "simulate", "--config", str(path))
    assert message in err


HUGE_INT = "1" + "0" * 5000  # past the interpreter's 4300-digit limit


@pytest.mark.parametrize("flag", ["--workload", "--config"])
@pytest.mark.parametrize(
    "content, message",
    [
        (HUGE_INT.encode(), "not valid JSON"),
        (b"\xff\xfe{}", "input is not UTF-8 text"),
    ],
    ids=["huge-int", "not-utf8"],
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


def test_formulas_zero_p(capsys):
    err = run_cli_error(capsys, "formulas", "--C", "10", "--T", "3", "--p-ppm", "0", "--tau", "1")
    assert "need p > 0" in err
