"""Command-line entry points, driven through main() directly."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import collatsim
from collatsim import harness, oracles
from collatsim.cli import build_parser, main
from collatsim.model import Transaction
from collatsim.workloads import WorkloadSpec, gen_stochastic, write_sequence_csv


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


# the adversary's parameter sets: rand2 at two seeds, eta with tau > 0,
# epsilon and rounds variants, wallet banks, and caps below C
ADVERSARY_PARAMS = {
    "C10T10F2": "--C 10 --T 10 --F 2",
    "C12T3k4F2": "--C 12 --T 3 --k 4 --F 2",
    "C8T4k2F1e2r3": "--C 8 --T 4 --k 2 --F 1 --epsilon 2 --rounds 3",
    "C6T6F1e2r4": "--C 6 --T 6 --F 1 --epsilon 2 --rounds 4",
    "C12T12F3e3r2": "--C 12 --T 12 --F 3 --epsilon 3 --rounds 2",
    "C8T8F2s2": "--C 8 --T 8 --F 2 --rounds 3 --seed 2",
    "C8T8F2s4": "--C 8 --T 8 --F 2 --rounds 3 --seed 4",
    "C10T10F2eta": "--C 10 --T 10 --F 2 --eta-ppm 1000000 --p-ppm 500000 --tau 2",
    "C20T5F2eta": "--C 20 --T 5 --F 2 --eta-ppm 500000 --p-ppm 500000 --tau 3 --rounds 2",
    "C10T5F2r2": "--C 10 --T 5 --F 2 --rounds 2",
}

# "type target params": (nTx, algValue, optValue, ratio), or the error text.
# thm3 offers value C, so below T = C it is refused rather than run with
# offers above the cap.
ADVERSARY_GOLDEN = {
    "thm3 fa C10T10F2": (10, 5, 50, "10"),
    "thm3 fwf C10T10F2": (10, 5, 50, "10"),
    "thm3 ftwf C10T10F2": "pair policy needs even k, got 1",
    "thm3 rand2 C10T10F2": (26, 3, 50, "50/3"),
    "thm3 eta C10T10F2": "threshold policy needs eta_ppm",
    "fwfkiller fa C10T10F2": (10, 22, 50, "25/11"),
    "fwfkiller fwf C10T10F2": (10, 22, 50, "25/11"),
    "fwfkiller ftwf C10T10F2": "pair policy needs even k, got 1",
    "fwfkiller rand2 C10T10F2": (10, 20, 50, "5/2"),
    "fwfkiller eta C10T10F2": "threshold policy needs eta_ppm",
    "burst fa C10T10F2": (20, 50, 70, "7/5"),
    "burst fwf C10T10F2": (20, 50, 70, "7/5"),
    "burst ftwf C10T10F2": "pair policy needs even k, got 1",
    "burst rand2 C10T10F2": (20, 40, 70, "7/4"),
    "burst eta C10T10F2": "threshold policy needs eta_ppm",
    "thm3 fa C12T3k4F2": "adversary targets one wallet, got k=4",
    "thm3 fwf C12T3k4F2": "adversary targets one wallet, got k=4",
    "thm3 ftwf C12T3k4F2": "adversary targets one wallet, got k=4",
    "thm3 rand2 C12T3k4F2": "rand2 runs a single wallet, got k=4",
    "thm3 eta C12T3k4F2": "threshold policy needs eta_ppm",
    "fwfkiller fa C12T3k4F2": (10, 15, 20, "4/3"),
    "fwfkiller fwf C12T3k4F2": (10, 5, 20, "4"),
    "fwfkiller ftwf C12T3k4F2": (10, 14, 20, "10/7"),
    "fwfkiller rand2 C12T3k4F2": "rand2 runs a single wallet, got k=4",
    "fwfkiller eta C12T3k4F2": "threshold policy needs eta_ppm",
    "burst fa C12T3k4F2": (35, 60, 105, "7/4"),
    "burst fwf C12T3k4F2": (35, 54, 105, "35/18"),
    "burst ftwf C12T3k4F2": (35, 72, 105, "35/24"),
    "burst rand2 C12T3k4F2": "rand2 runs a single wallet, got k=4",
    "burst eta C12T3k4F2": "threshold policy needs eta_ppm",
    "thm3 fa C8T4k2F1e2r3": "adversary targets one wallet, got k=2",
    "thm3 fwf C8T4k2F1e2r3": "adversary targets one wallet, got k=2",
    "thm3 ftwf C8T4k2F1e2r3": "adversary targets one wallet, got k=2",
    "thm3 rand2 C8T4k2F1e2r3": "rand2 runs a single wallet, got k=2",
    "thm3 eta C8T4k2F1e2r3": "threshold policy needs eta_ppm",
    "fwfkiller fa C8T4k2F1e2r3": (6, 12, 18, "3/2"),
    "fwfkiller fwf C8T4k2F1e2r3": (6, 6, 18, "3"),
    "fwfkiller ftwf C8T4k2F1e2r3": (6, 12, 18, "3/2"),
    "fwfkiller rand2 C8T4k2F1e2r3": "rand2 runs a single wallet, got k=2",
    "fwfkiller eta C8T4k2F1e2r3": "threshold policy needs eta_ppm",
    "burst fa C8T4k2F1e2r3": (12, 24, 48, "2"),
    "burst fwf C8T4k2F1e2r3": (12, 24, 48, "2"),
    "burst ftwf C8T4k2F1e2r3": (12, 24, 48, "2"),
    "burst rand2 C8T4k2F1e2r3": "rand2 runs a single wallet, got k=2",
    "burst eta C8T4k2F1e2r3": "threshold policy needs eta_ppm",
    "thm3 fa C6T6F1e2r4": (8, 8, 24, "3"),
    "thm3 fwf C6T6F1e2r4": (8, 8, 24, "3"),
    "thm3 ftwf C6T6F1e2r4": "pair policy needs even k, got 1",
    "thm3 rand2 C6T6F1e2r4": (9, 6, 24, "4"),
    "thm3 eta C6T6F1e2r4": "threshold policy needs eta_ppm",
    "fwfkiller fa C6T6F1e2r4": (8, 10, 24, "12/5"),
    "fwfkiller fwf C6T6F1e2r4": (8, 10, 24, "12/5"),
    "fwfkiller ftwf C6T6F1e2r4": "pair policy needs even k, got 1",
    "fwfkiller rand2 C6T6F1e2r4": (8, 12, 24, "2"),
    "fwfkiller eta C6T6F1e2r4": "threshold policy needs eta_ppm",
    "burst fa C6T6F1e2r4": (12, 24, 36, "3/2"),
    "burst fwf C6T6F1e2r4": (12, 24, 36, "3/2"),
    "burst ftwf C6T6F1e2r4": "pair policy needs even k, got 1",
    "burst rand2 C6T6F1e2r4": (12, 18, 36, "2"),
    "burst eta C6T6F1e2r4": "threshold policy needs eta_ppm",
    "thm3 fa C12T12F3e3r2": (4, 6, 24, "4"),
    "thm3 fwf C12T12F3e3r2": (4, 6, 24, "4"),
    "thm3 ftwf C12T12F3e3r2": "pair policy needs even k, got 1",
    "thm3 rand2 C12T12F3e3r2": (6, 3, 24, "8"),
    "thm3 eta C12T12F3e3r2": "threshold policy needs eta_ppm",
    "fwfkiller fa C12T12F3e3r2": (4, 15, 24, "8/5"),
    "fwfkiller fwf C12T12F3e3r2": (4, 15, 24, "8/5"),
    "fwfkiller ftwf C12T12F3e3r2": "pair policy needs even k, got 1",
    "fwfkiller rand2 C12T12F3e3r2": (4, 12, 24, "2"),
    "fwfkiller eta C12T12F3e3r2": "threshold policy needs eta_ppm",
    "burst fa C12T12F3e3r2": (10, 24, 36, "3/2"),
    "burst fwf C12T12F3e3r2": (10, 24, 36, "3/2"),
    "burst ftwf C12T12F3e3r2": "pair policy needs even k, got 1",
    "burst rand2 C12T12F3e3r2": (10, 24, 36, "3/2"),
    "burst eta C12T12F3e3r2": "threshold policy needs eta_ppm",
    "thm3 fa C8T8F2s2": (6, 3, 24, "8"),
    "thm3 fwf C8T8F2s2": (6, 3, 24, "8"),
    "thm3 ftwf C8T8F2s2": "pair policy needs even k, got 1",
    "thm3 rand2 C8T8F2s2": (18, 1, 24, "24"),
    "thm3 eta C8T8F2s2": "threshold policy needs eta_ppm",
    "fwfkiller fa C8T8F2s2": (6, 9, 24, "8/3"),
    "fwfkiller fwf C8T8F2s2": (6, 9, 24, "8/3"),
    "fwfkiller ftwf C8T8F2s2": "pair policy needs even k, got 1",
    "fwfkiller rand2 C8T8F2s2": (6, 8, 24, "3"),
    "fwfkiller eta C8T8F2s2": "threshold policy needs eta_ppm",
    "burst fa C8T8F2s2": (12, 24, 32, "4/3"),
    "burst fwf C8T8F2s2": (12, 24, 32, "4/3"),
    "burst ftwf C8T8F2s2": "pair policy needs even k, got 1",
    "burst rand2 C8T8F2s2": (12, 24, 32, "4/3"),
    "burst eta C8T8F2s2": "threshold policy needs eta_ppm",
    "thm3 fa C8T8F2s4": (6, 3, 24, "8"),
    "thm3 fwf C8T8F2s4": (6, 3, 24, "8"),
    "thm3 ftwf C8T8F2s4": "pair policy needs even k, got 1",
    "thm3 rand2 C8T8F2s4": (6, 3, 24, "8"),
    "thm3 eta C8T8F2s4": "threshold policy needs eta_ppm",
    "fwfkiller fa C8T8F2s4": (6, 9, 24, "8/3"),
    "fwfkiller fwf C8T8F2s4": (6, 9, 24, "8/3"),
    "fwfkiller ftwf C8T8F2s4": "pair policy needs even k, got 1",
    "fwfkiller rand2 C8T8F2s4": (6, 10, 24, "12/5"),
    "fwfkiller eta C8T8F2s4": "threshold policy needs eta_ppm",
    "burst fa C8T8F2s4": (12, 24, 32, "4/3"),
    "burst fwf C8T8F2s4": (12, 24, 32, "4/3"),
    "burst ftwf C8T8F2s4": "pair policy needs even k, got 1",
    "burst rand2 C8T8F2s4": (12, 24, 32, "4/3"),
    "burst eta C8T8F2s4": "threshold policy needs eta_ppm",
    "thm3 fa C10T10F2eta": (10, 5, 50, "10"),
    "thm3 fwf C10T10F2eta": (10, 5, 50, "10"),
    "thm3 ftwf C10T10F2eta": "pair policy needs even k, got 1",
    "thm3 rand2 C10T10F2eta": (26, 3, 50, "50/3"),
    "thm3 eta C10T10F2eta": (10, 5, 50, "10"),
    "fwfkiller fa C10T10F2eta": (10, 22, 50, "25/11"),
    "fwfkiller fwf C10T10F2eta": (10, 22, 50, "25/11"),
    "fwfkiller ftwf C10T10F2eta": "pair policy needs even k, got 1",
    "fwfkiller rand2 C10T10F2eta": (10, 20, 50, "5/2"),
    "fwfkiller eta C10T10F2eta": (10, 5, 50, "10"),
    "burst fa C10T10F2eta": (20, 50, 70, "7/5"),
    "burst fwf C10T10F2eta": (20, 50, 70, "7/5"),
    "burst ftwf C10T10F2eta": "pair policy needs even k, got 1",
    "burst rand2 C10T10F2eta": (20, 40, 70, "7/4"),
    "burst eta C10T10F2eta": (20, 70, 70, "1"),
    "thm3 fa C20T5F2eta": "thm3 needs T = C, got T=5 C=20",
    "thm3 fwf C20T5F2eta": "thm3 needs T = C, got T=5 C=20",
    "thm3 ftwf C20T5F2eta": "pair policy needs even k, got 1",
    "thm3 rand2 C20T5F2eta": "thm3 needs T = C, got T=5 C=20",
    "thm3 eta C20T5F2eta": "thm3 needs T = C, got T=5 C=20",
    "fwfkiller fa C20T5F2eta": "killer sequence needs T = C/k, got T=5 C=20 k=1",
    "fwfkiller fwf C20T5F2eta": "killer sequence needs T = C/k, got T=5 C=20 k=1",
    "fwfkiller ftwf C20T5F2eta": "pair policy needs even k, got 1",
    "fwfkiller rand2 C20T5F2eta": "killer sequence needs T = C/k, got T=5 C=20 k=1",
    "fwfkiller eta C20T5F2eta": "killer sequence needs T = C/k, got T=5 C=20 k=1",
    "burst fa C20T5F2eta": (14, 40, 70, "7/4"),
    "burst fwf C20T5F2eta": (14, 40, 70, "7/4"),
    "burst ftwf C20T5F2eta": "pair policy needs even k, got 1",
    "burst rand2 C20T5F2eta": (14, 35, 70, "2"),
    "burst eta C20T5F2eta": (14, 70, 70, "1"),
    "thm3 fa C10T5F2r2": "thm3 needs T = C, got T=5 C=10",
    "thm3 fwf C10T5F2r2": "thm3 needs T = C, got T=5 C=10",
    "thm3 ftwf C10T5F2r2": "pair policy needs even k, got 1",
    "thm3 rand2 C10T5F2r2": "thm3 needs T = C, got T=5 C=10",
    "thm3 eta C10T5F2r2": "threshold policy needs eta_ppm",
    "fwfkiller fa C10T5F2r2": "killer sequence needs T = C/k, got T=5 C=10 k=1",
    "fwfkiller fwf C10T5F2r2": "killer sequence needs T = C/k, got T=5 C=10 k=1",
    "fwfkiller ftwf C10T5F2r2": "pair policy needs even k, got 1",
    "fwfkiller rand2 C10T5F2r2": "killer sequence needs T = C/k, got T=5 C=10 k=1",
    "fwfkiller eta C10T5F2r2": "threshold policy needs eta_ppm",
    "burst fa C10T5F2r2": (10, 20, 35, "7/4"),
    "burst fwf C10T5F2r2": (10, 20, 35, "7/4"),
    "burst ftwf C10T5F2r2": "pair policy needs even k, got 1",
    "burst rand2 C10T5F2r2": (10, 20, 35, "7/4"),
    "burst eta C10T5F2r2": "threshold policy needs eta_ppm",
}


@pytest.mark.parametrize("case", ADVERSARY_GOLDEN)
def test_adversary_golden(capsys, case):
    kind, target, params = case.split()
    argv = ["adversary", "--type", kind, "--target", target,
            *ADVERSARY_PARAMS[params].split()]
    expected = ADVERSARY_GOLDEN[case]
    if isinstance(expected, str):
        assert run_cli_error(capsys, *argv) == f"error: {expected}\n"
        return
    n_tx, alg, opt, ratio = expected
    num, _, den = ratio.partition("/")
    assert run_cli(capsys, *argv) == (0, {
        "adversary": kind, "target": target, "nTx": n_tx, "algValue": alg,
        "optValue": opt, "ratio": {"num": int(num), "den": int(den or 1)},
    })


def test_exhaust(capsys):
    code, out = run_cli(
        capsys, "exhaust", "--C", "4", "--k", "2", "--T", "2", "--F", "1",
        "--max-len", "3", "--values", "1,2",
    )
    assert code == 0
    assert out["sequences"] == 27
    assert out["counterexamples"] == []
    assert out["invariantViolations"] == []


# flags after "exhaust": the sha256 of stdout and the exit code, for the four
# spaces of the exhaust benchmark at length 5 and one whose F exceeds the
# length, as recorded when the walk memoised the product of all policies'
# states
EXHAUST_GOLDEN = {
    "--C 12 --k 2 --T 3 --F 1 --max-len 5 --values 1,2,3":
        ("fd23b3759272bcc76e8101860dcea8d4f346420aa93d07bedc9a1e147b59e913", 0),
    "--C 12 --k 2 --T 3 --F 2 --max-len 5 --values 1,2,3":
        ("fd23b3759272bcc76e8101860dcea8d4f346420aa93d07bedc9a1e147b59e913", 0),
    "--C 6 --k 2 --T 3 --F 1 --max-len 5 --values 1,2,3":
        ("e88d634e08010000e01f6895d8d4da6cdf54b8d42a14897f2be1e74463d98800", 0),
    "--C 6 --k 2 --T 3 --F 2 --max-len 5 --values 1,2,3":
        ("e88d634e08010000e01f6895d8d4da6cdf54b8d42a14897f2be1e74463d98800", 0),
    "--C 12 --k 2 --T 3 --F 100000000 --max-len 4 --values 1,2,3":
        ("25e2ac11757878dab6bde08e3dff9c9ac4d006f4dc986170c1e8f6294e1c276e", 0),
}


@pytest.mark.parametrize("flags", EXHAUST_GOLDEN)
def test_exhaust_cli_golden(capsys, flags):
    code = main(["exhaust", *flags.split()])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, code) == EXHAUST_GOLDEN[flags]


def test_formulas(capsys):
    code, out = run_cli(
        capsys, "formulas", "--C", "20", "--T", "6", "--k", "2", "--tau", "1",
    )
    assert code == 0
    assert out["fwfRatio"] == pytest.approx(3.75)
    assert out["kStar"]["integer"] >= 1


# flags after "formulas --C C --T T": the sha256 of stdout, stderr and exit
# code of every run over C in FORMULAS_GRID_C and T from 1 to C + 1, as
# recorded when the closed forms took floats only.  The grid meets refused
# inputs, out-of-domain bounds and the saturated cases (fa's 3 at r = 1).
FORMULAS_GRID_C = (1, 2, 3, 6, 8, 12, 20)
FORMULAS_GOLDEN = {
    "": "6eac63bcc96bf0cae5f10c62ac2b5867ae2a8236dc0a5414b78f052d3b38975b",
    "--k 0": "17614f718f7ca2abc3d3766c4a8a58fa6162cb21d2a93e95406b2e01380fc467",
    "--k 1": "f274345efb090cb30da642d362b337621d88dfff457be36161c33b1510e50701",
    "--k 2": "7f0dbb331368c66625a7bd13ef4c560e159ff6974505e84870211a9af664d2f7",
    "--k 3 --tau 0": "6ab534daaf90f705913999107d095187894189b7a88bbacf7abf0529107f969e",
    "--k 4 --tau 1 --p-ppm 100000": "72c3167486f034829e2a4c1036ba01d6e149f53d446d0848c90e05a28c0421e2",
    "--k 6 --tau 5": "3fa9d9b1ee87f453455fbe005d351de69e193025085924b972e8bdf3bc21a09f",
    "--tau 40 --p-ppm 1": "876e675a020e87fbf620bfbf9e21a4d62a88f418d6db53e9d0625328c41d3abe",
    "--k 2 --tau 5 --p-ppm 100000": "194b6771758a7395155d03a809e4ca2b9257d9afb6e4a6cb1cb5cba4ddce1aec",
    "--k 12 --tau 1 --p-ppm 1": "8e97a584025f8de7a2cba116a2bad477dcd943db9e66c376d7666c7d00f2891f",
}


@pytest.mark.parametrize("flags", FORMULAS_GOLDEN)
def test_formulas_golden(capsys, flags):
    digest = hashlib.sha256()
    for C in FORMULAS_GRID_C:
        for T in range(1, C + 2):
            code = main(["formulas", "--C", str(C), "--T", str(T), *flags.split()])
            captured = capsys.readouterr()
            digest.update(f"{captured.out}\0{captured.err}\0{code}\0".encode())
    assert digest.hexdigest() == FORMULAS_GOLDEN[flags]


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


SWEEP_SPANS = {"eta": ("0.2", "1.1", "0.15"), "k": ("1", "6", "0.5")}
SWEEP_WORKLOADS = {
    "poisson-uniform": {"kind": "poisson-uniform", "arrivalRatePerMille": 900,
                        "horizon": 40, "seed": 11, "maxValue": 4,
                        "valueParams": {"min": 1, "max": 4}},
    "bursty": {"kind": "bursty", "arrivalRatePerMille": 900, "horizon": 40,
               "seed": 11, "maxValue": 4,
               "valueParams": {"min": 2, "max": 4, "burstLen": 5, "gapLen": 3}},
}
# sweep and workload: the sha256 of stdout, stderr, exit code and CSV of the
# sweep at repetitions 1 and 3 for each of eta, fwf, ftwf and rand2, as
# recorded when sweep ran its own repetition loop.  The spans meet rows that
# end in an error: eta below T/C or above 1, k not integral, k not dividing
# C, k*T > C, odd k for ftwf and k > 1 for rand2.  Windows of F+1 slots can
# offer more than C, so the window bound sits above the exact optimum and
# the rows show which oracle sweep used.  The two poisson-uniform digests
# were recorded again when the window bound became the LP relaxation's
# greedy: on the third repetition's sequence it fell from 91 to 90 (the
# optimum is 88), and so did the worst ratio of each row that sequence sets.
SWEEP_GOLDEN = {
    "eta poisson-uniform": "53a3a5eb2edfaf3a2fa4a8d07750f83ebc4429f013853241b27cc67499c79df2",
    "eta bursty": "2e6e682077991610dae113730f104ba663f53f06b0b6014857c3197f722a7c79",
    "k poisson-uniform": "f51b7dc03ced0c492d8fe42cc49ace406acec14e02690c1325ebf6bc3aa51570",
    "k bursty": "47c5ace5a297658a5b303a3b1cbe88727146f928ae8a61fc4d6c1fd0b72019cd",
}


@pytest.mark.parametrize("case", SWEEP_GOLDEN)
def test_sweep_golden(capsys, tmp_path, case):
    param, workload = case.split()
    lo, hi, step = SWEEP_SPANS[param]
    out_csv = tmp_path / "sweep.csv"
    digest = hashlib.sha256()
    for repetitions in ("1", "3"):
        for policy in ("eta", "fwf", "ftwf", "rand2"):
            code = main([
                "sweep", "--param", param, "--from", lo, "--to", hi, "--step", step,
                "--policy", policy, "--C", "12", "--T", "4", "--F", "3",
                "--p-ppm", "100000", "--tau", "1", "--eta-ppm", "500000",
                "--seed", "3", "--repetitions", repetitions,
                "--workload", json.dumps(SWEEP_WORKLOADS[workload]),
                "--csv", str(out_csv),
            ])
            captured = capsys.readouterr()
            digest.update(f"{captured.out}\0{captured.err}\0{code}\0".encode())
            digest.update(out_csv.read_bytes())
            out_csv.unlink()
    assert digest.hexdigest() == SWEEP_GOLDEN[case]


# the benchmark's five long-run configurations (policy, params, stream), at
# horizon 600: the sha256 of stdout, stderr, exit code, NDJSON trace and
# results CSV of `ratio --oracle window-bound --trace --csv`, recorded before
# the trace was formatted at log time
LONGRUN_STREAMS = {
    "uniform": {"kind": "poisson-uniform", "arrivalRatePerMille": 600, "maxValue": 3,
                "valueParams": {"min": 1, "max": 3}},
    "bursty": {"kind": "bursty", "arrivalRatePerMille": 600, "maxValue": 60,
               "valueParams": {"min": 10, "max": 60, "burstLen": 20, "gapLen": 10}},
}
LONGRUN_ITEMS = {
    "fa": ("uniform", "--C 12 --k 4 --T 3 --F 2"),
    "ftwf": ("uniform", "--C 12 --k 4 --T 3 --F 2"),
    "fwf": ("uniform", "--C 12 --k 2 --T 3 --F 2"),
    "rand2": ("uniform", "--C 12 --k 1 --T 3 --F 2"),
    "eta": ("bursty", "--C 200 --k 1 --T 60 --F 2 --p-ppm 100000 --tau 5 --eta-ppm 418000"),
}
RATIO_GOLDEN = {
    "fa 1": "78cd64517501846056dda05cf6b151fbbad43cbb33b7fe5b1f389f64a0d5cf04",
    "fa 97": "9567c259d7be1fd106d5baeb8ee11e8a8aae1898417d48a6f18bfcaa32c0369a",
    "ftwf 1": "222b927d368080a359f033e7f5b37d635f873f799ea6603317a2160058ff7f7f",
    "ftwf 97": "7af588ac3f0cbc7efc0771f4132440bcc8efb547780639ca11e86128a31736ee",
    "fwf 1": "19d6d3e140d00a212e0531ecb8b87d2d915b723485a9424eeecffe5c94027867",
    "fwf 97": "e8d14e5cce7bc15948236f122d0ef068c20d80070455aae7b34ed43bd5be97c1",
    "rand2 1": "b2837968fb59010215cc8f7e9e2741089b84a2f83da9d1dc9c04d799f0830171",
    "rand2 97": "c28800e9f52799172121db0a97d9eb9cb2dd188c6f321938327c6c3f094933c4",
    "eta 1": "3a6645d37bccf69a8a6dfabb56d465a9ab84932bf57c9a41791b705412b46fab",
    "eta 97": "c2caa713003ac2b760915f962973a7d65141a7a41bad3d6c7466e6f98773403e",
}


@pytest.mark.parametrize("case", RATIO_GOLDEN)
def test_ratio_cli_golden(capsys, tmp_path, case):
    policy, seed = case.split()
    stream, params = LONGRUN_ITEMS[policy]
    workload = dict(LONGRUN_STREAMS[stream], horizon=600, seed=int(seed))
    trace, results = tmp_path / "run.ndjson", tmp_path / "run.csv"
    code = main([
        "ratio", "--policy", policy, "--oracle", "window-bound", *params.split(),
        "--workload", json.dumps(workload), "--seed", seed,
        "--trace", str(trace), "--csv", str(results),
    ])
    captured = capsys.readouterr()
    digest = hashlib.sha256(f"{captured.out}\0{captured.err}\0{code}\0".encode())
    digest.update(trace.read_bytes())
    digest.update(b"\0" + results.read_bytes())
    assert digest.hexdigest() == RATIO_GOLDEN[case]


# the same runs from a sequence file, as the benchmark runs them: each
# horizon-600 stream written by write_sequence_csv, then `ratio --seq --trace
# --csv`; the sha256 of the sequence file, stdout, stderr, exit code, NDJSON
# trace and results CSV, recorded while a sequence held one Transaction per
# offer
SEQ_RATIO_GOLDEN = {
    "fa 1": "9be4731a74ed83b85df06d344399f7e3ba59269fe104fbbf209353e1eb994849",
    "fa 97": "9fd0b4fea0ecd2fc517e3b85132fc0089985847228eb3efa43cd2b7d1e3c5869",
    "ftwf 1": "dd40dab2c8a634ba3b31a78cb76ef6a5144dced3db4ebe27090e059e14c58906",
    "ftwf 97": "7d08e8b687fb72ed75aebe237b4d57cf14076cbc3470339be526111826118a21",
    "fwf 1": "2cb512f8c43a27439059840906a6d1901313881b5bceada95d428a7f26290211",
    "fwf 97": "0b2a49ffc8c6a6cf946f82b08adb123ef32fb8f778769e5e49179e793373242e",
    "rand2 1": "fa4fb58d9c4dd3331ca2337b9949de8014ff5206d07ac3ff467020cc98abb9b7",
    "rand2 97": "1603864e5a68f6a26bff767c0df04447ffc0c318ace5aa59a34fe0b9bdc67c33",
    "eta 1": "facbfdf9d4c9d9958335705bfbf8a675d191996d53692de3457f5bd5f8e2c06d",
    "eta 97": "e2d027bb09fcb1ed4996ec364c33f134efd8ebc1954a3e620e21fe811a3f027a",
}


def write_longrun_csv(path, stream, seed):
    spec = WorkloadSpec.from_json_obj(dict(LONGRUN_STREAMS[stream], horizon=600, seed=seed))
    write_sequence_csv(gen_stochastic(spec), str(path))


def ratio_from_csv(capsys, tmp_path, case):
    """The digest of one SEQ_RATIO_GOLDEN case, its sequence file written first."""
    policy, seed = case.split()
    stream, params = LONGRUN_ITEMS[policy]
    seq, trace, results = (tmp_path / f"{policy}.{ext}" for ext in ("csv", "ndjson", "out.csv"))
    write_longrun_csv(seq, stream, int(seed))
    code = main([
        "ratio", "--policy", policy, "--oracle", "window-bound", *params.split(),
        "--seq", str(seq), "--seed", seed, "--trace", str(trace), "--csv", str(results),
    ])
    captured = capsys.readouterr()
    digest = hashlib.sha256(seq.read_bytes())
    digest.update(f"\0{captured.out}\0{captured.err}\0{code}\0".encode())
    digest.update(trace.read_bytes())
    digest.update(b"\0" + results.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", SEQ_RATIO_GOLDEN)
def test_ratio_seq_golden(capsys, tmp_path, case):
    assert ratio_from_csv(capsys, tmp_path, case) == SEQ_RATIO_GOLDEN[case]


def test_a_seq_run_builds_no_transaction(capsys, tmp_path, monkeypatch):
    # a sequence is two int columns from the generator to the policy, so no
    # Transaction is built while a run writes, reads, steps or measures one
    cases = [f"{policy} 1" for policy in LONGRUN_ITEMS]
    built = []
    build = Transaction.__new__

    def counted(cls, slot, value):
        built.append((slot, value))
        return build(cls, slot, value)

    monkeypatch.setattr(Transaction, "__new__", counted)
    assert Transaction(1, 2) == (1, 2) and built == [(1, 2)]  # the count sees a build
    built.clear()
    digests = [ratio_from_csv(capsys, tmp_path, case) for case in cases]
    assert built == []
    assert digests == [SEQ_RATIO_GOLDEN[case] for case in cases]


# --seq files and the exact answer of `simulate --policy fa --C 12 --k 2 --T 3
# --F 1` to each, recorded while the reader built one Transaction per row:
# the exit code, stderr with the file's path as {path}, and the sha256 of
# stdout.  A bad int or a slot or value below 1 is named at its first row in
# file order, whatever comes later; slot order is checked once every row is
# read, and the cap T when the run starts.  The last five are accepted: a
# header alone, a blank line, an extra field, and int()'s space and _.
NO_OUTPUT = hashlib.sha256(b"").hexdigest()
SEQ_FILE_CASES = {
    'slot 0': ('slot,value\n1,1\n0,1\n',
        (2, 'error: slot must be >= 1, got 0\n', NO_OUTPUT)),
    'value 0': ('slot,value\n1,1\n2,0\n',
        (2, 'error: value must be >= 1, got 0\n', NO_OUTPUT)),
    'slot 0 and value 0': ('slot,value\n0,0\n',
        (2, 'error: slot must be >= 1, got 0\n', NO_OUTPUT)),
    'negative slot': ('slot,value\n-3,1\n',
        (2, 'error: slot must be >= 1, got -3\n', NO_OUTPUT)),
    'value 0 then slot 0': ('slot,value\n1,0\n0,1\n',
        (2, 'error: value must be >= 1, got 0\n', NO_OUTPUT)),
    'equal slots': ('slot,value\n1,1\n2,1\n2,1\n',
        (2, 'error: slots must be strictly increasing: 2 then 2\n', NO_OUTPUT)),
    'decreasing slots': ('slot,value\n1,1\n3,1\n2,1\n',
        (2, 'error: slots must be strictly increasing: 3 then 2\n', NO_OUTPUT)),
    'decreasing slots above value 0': ('slot,value\n3,1\n2,1\n4,0\n',
        (2, 'error: value must be >= 1, got 0\n', NO_OUTPUT)),
    'values above T': ('slot,value\n1,3\n2,5\n3,7\n',
        (2, 'error: value 5 at slot 2 exceeds cap 3\n', NO_OUTPUT)),
    'decreasing slots above a value above T': ('slot,value\n2,1\n1,5\n',
        (2, 'error: slots must be strictly increasing: 2 then 1\n', NO_OUTPUT)),
    'slot 0 above a non-int row': ('slot,value\n1,1\n0,1\n3,x\n',
        (2, 'error: slot must be >= 1, got 0\n', NO_OUTPUT)),
    'non-int row above slot 0': ('slot,value\n1,1\n2,x\n0,1\n',
        (2, "error: {path} line 3: expected slot,value integers, got ['2', 'x']\n", NO_OUTPUT)),
    'float cell': ('slot,value\n1,1.0\n',
        (2, "error: {path} line 2: expected slot,value integers, got ['1', '1.0']\n", NO_OUTPUT)),
    'one-field row': ('slot,value\n1,1\n2\n',
        (2, "error: {path} line 3: expected slot,value integers, got ['2']\n", NO_OUTPUT)),
    'wrong header': ('slot,val\n1,1\n',
        (2, "error: expected header slot,value, got ['slot', 'val']\n", NO_OUTPUT)),
    'byte-order mark': ('\ufeffslot,value\n1,1\n',
        (2, "error: expected header slot,value, got ['\\ufeffslot', 'value']\n", NO_OUTPUT)),
    'empty file': ('',
        (2, 'error: expected header slot,value, got None\n', NO_OUTPUT)),
    'header only': ('slot,value\n',
        (0, '', '7d8a77a2a79d40d5edffc35c157db101280efbec8e4ae36c5c8dc5ba76ff3f4d')),
    "non-int row above an oversized field": (
        "slot,value\n1,x\n2," + "1" * 131_073 + "\n",
        (2, "error: {path} line 2: expected slot,value integers, got ['1', 'x']\n", NO_OUTPUT)),
    "oversized field above a non-int row": (
        "slot,value\n1," + "1" * 131_073 + "\n2,x\n",
        (2, 'error: {path} line 2: field larger than field limit (131072)\n', NO_OUTPUT)),
    'blank line': ('slot,value\n1,1\n\n2,2\n',
        (0, '', '40def06cd54c3f00cbd28a6aeb10265e063612b8510146e69adafeac5e63fdb4')),
    'extra field': ('slot,value\n1,1,9\n2,2\n',
        (0, '', '40def06cd54c3f00cbd28a6aeb10265e063612b8510146e69adafeac5e63fdb4')),
    'space before an int': ('slot,value\n 1,1\n2, 2\n',
        (0, '', '40def06cd54c3f00cbd28a6aeb10265e063612b8510146e69adafeac5e63fdb4')),
    'underscore in an int': ('slot,value\n1_0,1\n1_1,3\n',
        (0, '', '127b03770e26e1feb44899747303bb5f9dcd97114ffdc5ba782e3d4c78063766')),
}


@pytest.mark.parametrize("case", SEQ_FILE_CASES)
def test_seq_file_refusals_and_quirks(capsys, tmp_path, case):
    text, expected = SEQ_FILE_CASES[case]
    path = tmp_path / "seq.csv"
    path.write_text(text)
    code = main([
        "simulate", "--policy", "fa", "--C", "12", "--k", "2", "--T", "3", "--F", "1",
        "--seq", str(path),
    ])
    captured = capsys.readouterr()
    out = hashlib.sha256(captured.out.encode()).hexdigest()
    assert (code, captured.err.replace(str(path), "{path}"), out) == expected


# a batch on a sequence file: its flags, and the sha256 of stdout, stderr,
# exit code and results CSV, recorded while every repetition and every sweep
# setting read the file again
BATCH_GOLDEN = {
    "ratio --policy rand2 --C 12 --k 1 --T 3 --F 2 --oracle window-bound --repetitions 3":
        "ecd0110e757e0c8c33840252d73214f2a901c3085ec96d9fb6c18c5c80c68092",
    "sweep --param k --from 1 --to 4 --step 1 --policy fwf --C 12 --T 3 --F 2 --repetitions 2":
        "75b5f34fafdb94896d52a81ad8910b3c39f574b1379e8b701c0add334d942a3a",
}


@pytest.mark.parametrize("flags", BATCH_GOLDEN)
def test_a_batch_reads_its_sequence_file_once(capsys, tmp_path, monkeypatch, flags):
    # three repetitions, or two at each of four settings, share one read
    seq, results = tmp_path / "seq.csv", tmp_path / "results.csv"
    write_longrun_csv(seq, "uniform", 5)
    reads = []
    read = harness.read_sequence_csv
    monkeypatch.setattr(harness, "read_sequence_csv", lambda path: reads.append(path) or read(path))
    code = main([*flags.split(), "--seq", str(seq), "--seed", "4", "--csv", str(results)])
    captured = capsys.readouterr()
    digest = hashlib.sha256(f"{captured.out}\0{captured.err}\0{code}\0".encode())
    digest.update(results.read_bytes())
    assert (digest.hexdigest(), reads) == (BATCH_GOLDEN[flags], [str(seq)])


def test_ratio_writes_the_last_repetitions_trace(capsys, tmp_path):
    # repetition r runs the policy at seed+r on the workload at its seed+r, so
    # of three the trace written is repetition 2's: the bytes of a simulate
    # run at both seeds plus 2, and not those of repetition 0
    stream, params = LONGRUN_ITEMS["rand2"]

    def trace_of(command, workload_seed, seed, *flags):
        workload = dict(LONGRUN_STREAMS[stream], horizon=600, seed=workload_seed)
        path = tmp_path / f"{command}-{seed}.ndjson"
        assert main([
            command, "--policy", "rand2", *params.split(), *flags,
            "--workload", json.dumps(workload), "--seed", str(seed), "--trace", str(path),
        ]) == 0
        return path.read_bytes()

    written = trace_of("ratio", 5, 11, "--oracle", "window-bound", "--repetitions", "3")
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
    assert err == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize("flag", ["--seq", "--workload"])
def test_empty_source_path_is_named(capsys, flag):
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1", flag, "",
    )
    assert err == "error: '': No such file or directory\n"


def test_non_integer_csv_cell(capsys, tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("slot,value\n1,6\n2,six\n")
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1", "--seq", str(path),
    )
    assert "line 3" in err


def test_csv_field_past_the_size_limit(capsys, tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("slot,value\n1,2\n2," + "1" * 131_073 + "\n")
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa",
        "--C", "20", "--k", "2", "--T", "6", "--F", "1", "--seq", str(path),
    )
    assert err.startswith(f"error: {path} line 3: field larger than field limit")
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


# argparse reads "-1,2" after a space as a flag (see
# test_argparse_refusals_are_one_error_line), so that value goes with "=";
# "1,-2" does not start with "-" and needs no "="
@pytest.mark.parametrize(
    "values", [["--values", "0,1,2"], ["--values=-1,2"], ["--values", "1,-2"]]
)
def test_exhaust_rejects_values_below_1(capsys, values):
    err = run_cli_error(
        capsys, "exhaust", "--C", "12", "--k", "2", "--T", "3", "--F", "2",
        "--max-len", "3", *values,
    )
    assert err.count("\n") == 1 and "values must lie in [1, T=3]" in err


def test_exhaust_rejects_nonpositive_max_len(capsys):
    err = run_cli_error(
        capsys, "exhaust", "--C", "12", "--k", "2", "--T", "3", "--F", "2",
        "--max-len", "-1", "--values", "1,2",
    )
    assert "max_len" in err


def test_exhaust_refuses_a_long_max_len(capsys):
    err = run_cli_error(
        capsys, "exhaust", "--C", "12", "--k", "2", "--T", "3", "--F", "2",
        "--max-len", "1000000", "--values", "1,2",
    )
    assert err == "error: 3^1000000 sequences exceed cap 78125\n"


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


# each adversary one offer past MAX_ADVERSARY_OFFERS = 20,000: 7 offers an
# epoch for burst, 2 a round for the killer, and against rand2 at seed 0 the
# real wallet discards every probe of a round of C/epsilon = 10^6 probes
@pytest.mark.parametrize(
    "argv",
    [
        "--type burst --target fa --C 12 --T 3 --k 4 --F 2 --rounds 2858",
        "--type burst --target fa --C 12 --T 3 --k 4 --F 2 --rounds 20000",
        "--type fwfkiller --target fwf --C 10 --T 5 --k 2 --F 1 --rounds 10001",
        "--type thm3 --target rand2 --C 1000000 --F 2 --rounds 1 --seed 0",
    ],
)
def test_adversary_refuses_more_than_the_offer_cap(capsys, argv):
    err = run_cli_error(capsys, "adversary", *argv.split())
    assert err == "error: adversary sequence exceeds 20000 offers at slot 20001\n"


def test_adversary_runs_up_to_the_offer_cap(capsys):
    code, out = run_cli(
        capsys, "adversary", "--type", "fwfkiller", "--target", "fwf",
        "--C", "10", "--T", "5", "--k", "2", "--F", "1", "--rounds", "10000",
    )
    assert code == 0
    assert out["nTx"] == 20000


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


FAR = "slot,value\n1,2\n100000000,3\n"
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
    "argv, expected",
    [
        pytest.param(
            "simulate --policy fa --C 12 --T 3 --k 2 --F 1 --seq {far}",
            {"flushCount": 0, "nTx": 2, "offeredValue": 5, "policy": "fa",
             "settledValue": 5, "utility": {"den": 1, "num": 5}},
            id="simulate-far-csv",
        ),
        pytest.param(
            "ratio --policy fwf --C 12 --T 3 --k 2 --F 1 --seq {far}",
            {"oracle": "brute-general", "policy": "fwf", "rows": [FAR_RATIO]},
            id="ratio-far-csv",
        ),
        pytest.param(
            "adversary --type fwfkiller --target fwf --C 10 --T 5 --k 2 --F 100000000 "
            "--rounds 2",
            adversary_json("fwfkiller", 4, 2, 10, 5),
            id="fwfkiller-F1e8",
        ),
        pytest.param(
            "adversary --type thm3 --target fwf --C 10 --T 10 --F 100000000 --rounds 1",
            adversary_json("thm3", 2, 1, 10, 10),
            id="thm3-F1e8-rounds1",
        ),
        pytest.param(
            "adversary --type thm3 --target fwf --C 10 --T 10 --F 100000000 --rounds 2",
            adversary_json("thm3", 4, 2, 20, 10),
            id="thm3-F1e8-rounds2",
        ),
    ],
)
def test_runs_past_the_workload_slot_cap_answer(capsys, tmp_path, argv, expected):
    far = tmp_path / "far.csv"
    far.write_text(FAR)
    code, out = run_cli(capsys, *argv.format(far=far).split())
    assert (code, out) == (0, expected)


def test_window_bound_oracle_cost_does_not_grow_with_F(capsys, tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("slot,value\n1,2\n2,3\n4,1\n")
    code, out = run_cli(
        capsys, "ratio", "--policy", "fwf", "--C", "12", "--T", "3", "--k", "2",
        "--F", "100000000", "--oracle", "window-bound", "--seq", str(path),
    )
    assert code == 0
    assert [(r["settledValue"], r["optValue"]) for r in out["rows"]] == [(6, 6)]


def test_exhaust_past_the_sequence_length_equals_F_at_the_length(capsys):
    # for F >= L - 1 no window and no outage ends inside an L-slot sequence
    def exhaust(F):
        code = main(["exhaust", "--C", "12", "--k", "2", "--T", "3", "--F", F,
                     "--max-len", "4", "--values", "1,2,3"])
        return code, capsys.readouterr().out

    assert exhaust("100000000") == exhaust("4")


def test_simulate_runs_up_to_the_slot_cap(capsys, tmp_path):
    path = tmp_path / "far.csv"
    path.write_text("slot,value\n1,2\n100000,3\n")
    code, out = run_cli(
        capsys, "simulate", "--policy", "fa", "--C", "12", "--T", "3", "--k", "2",
        "--F", "1", "--seq", str(path),
    )
    assert code == 0
    assert out["settledValue"] == 5


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


@pytest.mark.parametrize(
    "flag, value", [("--from", "nan"), ("--to", "inf"), ("--step", "nan"), ("--from", "-inf")]
)
def test_sweep_rejects_non_finite_bounds(capsys, flag, value):
    # a nan span sweeps no value and exits 0; an infinite one never ends
    span = {"--from": "0.35", "--to": "0.5", "--step": "0.05", flag: value}
    err = run_cli_error(
        capsys, "sweep", "--param", "eta", *(f"{k}={v}" for k, v in span.items()),
        "--policy", "eta", "--C", "200", "--T", "60", "--F", "1",
        "--workload", json.dumps(
            {"kind": "constant", "arrivalRatePerMille": 600, "horizon": 20,
             "seed": 0, "maxValue": 60}
        ),
    )
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
    monkeypatch.setattr(oracles, "MAX_DP_CELLS", 100)
    err = run_cli_error(capsys, *FORTY_SIXES)
    assert "exceeds 100 cells" in err


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
        # removed fields are refused, not read as another charge or accounting
        ({"flushCharge": "per-action"}, "unknown config field 'flushCharge'"),
        ({"utility": False}, "unknown config field 'utility'"),
        ({"repetitions": 10**12}, "repetitions must be at most 10000, got 1000000000000"),
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
    "fields, where, name",
    [
        ({"repetitons": 3}, "config", "repetitons"),
        ({"params": {"C": 20, "k": 2, "T": 6, "F": 1, "tua": 3}}, "params", "tua"),
        ({"outputs": {"CSV": "out.csv"}}, "outputs", "CSV"),
        ({"seqFile": None, "workload": dict(WORKLOAD_6, horizn=8)}, "workload", "horizn"),
    ],
)
def test_unknown_config_field(capsys, tmp_path, seq_csv, fields, where, name):
    config = {"params": {"C": 20, "k": 2, "T": 6, "F": 1}, "policy": "fa",
              "seqFile": seq_csv}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, **fields)))
    err = run_cli_error(capsys, "ratio", "--config", str(path))
    assert err == f"error: unknown {where} field '{name}'\n"
    assert not (tmp_path / "out.csv").exists()


def test_unknown_workload_field(capsys):
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa", "--C", "20", "--k", "2", "--T", "6",
        "--F", "1", "--workload", json.dumps(dict(WORKLOAD_6, valueParam={"value": 6})),
    )
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


def test_formulas_zero_p(capsys):
    err = run_cli_error(capsys, "formulas", "--C", "10", "--T", "3", "--p-ppm", "0", "--tau", "1")
    assert "p_ppm must be in [1, 1000000], got 0" in err


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
    "argv",
    [
        pytest.param(
            ["ratio", "--policy", "fwf", "--C", str(4 * 10**400), "--k", "2",
             "--T", str(2 * 10**400 - 1), "--F", "1", "--oracle", "window-bound"],
            id="ratio-fwf",
        ),
        pytest.param(
            ["sweep", "--param", "k", "--from", "1", "--to", "2", "--step", "1",
             "--policy", "fwf", "--C", BIG, "--T", "1", "--F", "1"],
            id="sweep-k",
        ),
        pytest.param(
            ["sweep", "--param", "eta", "--from", "0.5", "--to", "0.6", "--step", "0.1",
             "--policy", "eta", "--C", BIG, "--T", "1", "--F", "1"],
            id="sweep-eta",
        ),
    ],
)
def test_runs_reject_collateral_past_the_float_range(capsys, seq_csv, argv):
    err = run_cli_error(capsys, *argv, "--seq", seq_csv)
    assert err.startswith("error: C must be a finite number, got ")


def test_bound_past_the_float_range_is_refused(capsys, seq_csv):
    # eta's value bound 1/(1 - eta - T/C) reaches PPM*C: here C - PPM*T = 1
    C = sys.float_info.max
    C = int(C) - (int(C) - 1) % 10**6
    err = run_cli_error(
        capsys, "ratio", "--policy", "eta", "--C", str(C), "--T", str(C // 10**6),
        "--F", "1", "--eta-ppm", "999999", "--seq", seq_csv,
    )
    assert err == "error: value bound is past the float range\n"


def test_sweep_refuses_a_trace(capsys, tmp_path, seq_csv):
    trace = tmp_path / "sweep.ndjson"
    err = run_cli_error(
        capsys, "sweep", "--param", "k", "--from", "1", "--to", "2", "--step", "1",
        "--policy", "fwf", "--C", "12", "--T", "3", "--F", "1", "--seq", seq_csv,
        "--trace", str(trace),
    )
    assert err == f"error: sweep writes no trace, got {str(trace)!r}\n"
    assert not trace.exists()


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


def test_simulate_refuses_repetitions(capsys, tmp_path, seq_csv):
    err = run_cli_error(
        capsys, "simulate", "--policy", "fa", "--C", "20", "--k", "2", "--T", "6",
        "--F", "1", "--seq", seq_csv, "--repetitions", "5",
    )
    assert err == "error: simulate runs one repetition, got 5; ratio runs several\n"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {"C": 20, "k": 2, "T": 6, "F": 1},
                                "policy": "fa", "seqFile": seq_csv, "repetitions": 3}))
    err = run_cli_error(capsys, "simulate", "--config", str(path))
    assert err == "error: simulate runs one repetition, got 3; ratio runs several\n"
