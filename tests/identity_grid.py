"""The identity grid: CLI invocations whose every output byte is pinned.

A row is ``(id, argv, files)``: the argv after the program name and the
input files, by relative name, that it reads.  ``digest`` runs a row by one
recipe: ``cli.main(argv)`` in-process, in a fresh directory that holds only
the row's files, so no absolute path reaches an output; then sha256 of the
exit code (an argparse refusal's too), stdout, stderr and each file left in
the directory, name and bytes, by name.  A row id reads ``section[case]``,
or ``section[case] run`` when a case is several runs.

``identity_grid.sha256`` holds the recorded digests.  A change that alters
output on purpose records them again and names the rows that changed:

    PYTHONPATH=src python3 tests/identity_grid.py > tests/identity_grid.sha256
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, partial
from itertools import product
from pathlib import Path

from collatsim.cli import main
from collatsim.workloads import WorkloadSpec, gen_stochastic, write_sequence_csv

Row = namedtuple("Row", "id argv files", defaults=({},))

POLICIES = ("fa", "fwf", "ftwf", "rand2", "eta")
RECORD = Path(__file__).with_name("identity_grid.sha256")


def csv_file(pairs, end="\n") -> bytes:
    """A ``--seq`` file of ``(slot, value)`` pairs, lines ended by ``end``."""
    return "".join(f"{s},{v}{end}" for s, v in [("slot", "value"), *pairs]).encode()


# ---------------------------------------------------------------------------
# the sections that golden tables held


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


def adversary_rows():
    for name, flags in ADVERSARY_PARAMS.items():
        for kind, target in product(("thm3", "fwfkiller", "burst"), POLICIES):
            argv = ["adversary", "--type", kind, "--target", target, *flags.split()]
            yield Row(f"adversary[{kind} {target} {name}]", argv)


# the four spaces of the exhaust benchmark at lengths 5 and 7, a wallet
# bank of four, two spaces of 5^7 sequences, the walk's cap, and F past
# the length
EXHAUST_SPACES = [
    *(f"--C {C} --k 2 --T 3 --F {F} --max-len {L} --values 1,2,3"
      for L, C, F in product((5, 7), (12, 6), (1, 2))),
    "--C 12 --k 4 --T 3 --F 2 --max-len 7 --values 1,2,3",
    "--C 12 --k 2 --T 4 --F 1 --max-len 7 --values 1,2,3,4",
    "--C 8 --k 2 --T 4 --F 2 --max-len 7 --values 1,2,3,4",
    *(f"--C {C} --k 2 --T 3 --F 100000000 --max-len 4 --values 1,2,3" for C in (12, 6)),
]


def exhaust_rows():
    for flags in EXHAUST_SPACES:
        yield Row(f"exhaust[{flags}]", ["exhaust", *flags.split()])


# formulas over C in FORMULAS_C and T from 1 to C + 1, which meets refused
# inputs, out-of-domain bounds and the saturated cases (fa's 3 at r = 1)
FORMULAS_C = (1, 2, 3, 6, 8, 12, 20)
FORMULAS_FLAGS = (
    "", "--k 0", "--k 1", "--k 2", "--k 3 --tau 0", "--k 4 --tau 1 --p-ppm 100000",
    "--k 6 --tau 5", "--tau 40 --p-ppm 1", "--k 2 --tau 5 --p-ppm 100000",
    "--k 12 --tau 1 --p-ppm 1",
)


def formulas_rows():
    for flags in FORMULAS_FLAGS:
        for C in FORMULAS_C:
            for T in range(1, C + 2):
                argv = ["formulas", "--C", str(C), "--T", str(T), *flags.split()]
                yield Row(f"formulas[{flags}] C{C} T{T}", argv)


# The spans meet rows that end in an error: eta below T/C or above 1, k
# not integral, k not dividing C, k*T > C, odd k for ftwf and k > 1 for
# rand2.  Windows of F+1 slots can offer more than C, so the window bound
# sits above the exact optimum and the rows show which oracle sweep used.
SWEEP_SPANS = {"eta": ("0.2", "1.1", "0.15"), "k": ("1", "6", "0.5")}
SWEEP_WORKLOADS = {
    "poisson-uniform": {"kind": "poisson-uniform", "arrivalRatePerMille": 900,
                        "horizon": 40, "seed": 11, "maxValue": 4,
                        "valueParams": {"min": 1, "max": 4}},
    "bursty": {"kind": "bursty", "arrivalRatePerMille": 900, "horizon": 40,
               "seed": 11, "maxValue": 4,
               "valueParams": {"min": 2, "max": 4, "burstLen": 5, "gapLen": 3}},
}


def sweep_rows():
    for param, workload in product(SWEEP_SPANS, SWEEP_WORKLOADS):
        lo, hi, step = SWEEP_SPANS[param]
        for repetitions, policy in product(("1", "3"), ("eta", "fwf", "ftwf", "rand2")):
            argv = [
                "sweep", "--param", param, "--from", lo, "--to", hi, "--step", step,
                "--policy", policy, "--C", "12", "--T", "4", "--F", "3",
                "--p-ppm", "100000", "--tau", "1", "--eta-ppm", "500000",
                "--seed", "3", "--repetitions", repetitions,
                "--workload", json.dumps(SWEEP_WORKLOADS[workload]), "--csv", "sweep.csv",
            ]
            yield Row(f"sweep[{param} {workload}] {policy} r{repetitions}", argv)


# the benchmark's five long-run configurations (policy, params, stream), at
# horizon 600, run by `ratio --oracle window-bound --trace --csv`
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


def longrun_workload(stream, seed):
    return dict(LONGRUN_STREAMS[stream], horizon=600, seed=seed)


def write_longrun_csv(stream, seed, path):
    spec = WorkloadSpec.from_json_obj(longrun_workload(stream, seed))
    write_sequence_csv(gen_stochastic(spec), path)


def longrun_rows():
    for policy, seed in product(LONGRUN_ITEMS, ("1", "97")):
        stream, params = LONGRUN_ITEMS[policy]
        argv = ["ratio", "--policy", policy, "--oracle", "window-bound", *params.split(),
                "--workload", json.dumps(longrun_workload(stream, int(seed))), "--seed", seed,
                "--trace", "run.ndjson", "--csv", "run.csv"]
        yield Row(f"longrun[{policy} {seed}]", argv)


def longrun_seq_rows():
    """The long runs from a sequence file, as the benchmark runs them: the
    stream written by ``write_sequence_csv`` when the row is laid out."""
    for policy, seed in product(LONGRUN_ITEMS, ("1", "97")):
        stream, params = LONGRUN_ITEMS[policy]
        argv = ["ratio", "--policy", policy, "--oracle", "window-bound", *params.split(),
                "--seq", "seq.csv", "--seed", seed, "--trace", "run.ndjson", "--csv", "run.csv"]
        files = {"seq.csv": partial(write_longrun_csv, stream, int(seed))}
        yield Row(f"longrun-seq[{policy} {seed}]", argv, files)


# --seq files for `simulate --policy fa --C 12 --k 2 --T 3 --F 1`.  A bad
# int or a slot or value below 1 is named at its first row in file order,
# whatever comes later; slot order is checked once every row is read, and
# the cap T when the run starts.  The last five are accepted: a header
# alone, a blank line, an extra field, and int()'s space and _.
SEQ_FILES = {
    "slot 0": "slot,value\n1,1\n0,1\n",
    "value 0": "slot,value\n1,1\n2,0\n",
    "slot 0 and value 0": "slot,value\n0,0\n",
    "negative slot": "slot,value\n-3,1\n",
    "value 0 then slot 0": "slot,value\n1,0\n0,1\n",
    "equal slots": "slot,value\n1,1\n2,1\n2,1\n",
    "decreasing slots": "slot,value\n1,1\n3,1\n2,1\n",
    "decreasing slots above value 0": "slot,value\n3,1\n2,1\n4,0\n",
    "values above T": "slot,value\n1,3\n2,5\n3,7\n",
    "decreasing slots above a value above T": "slot,value\n2,1\n1,5\n",
    "slot 0 above a non-int row": "slot,value\n1,1\n0,1\n3,x\n",
    "non-int row above slot 0": "slot,value\n1,1\n2,x\n0,1\n",
    "float cell": "slot,value\n1,1.0\n",
    "one-field row": "slot,value\n1,1\n2\n",
    "wrong header": "slot,val\n1,1\n",
    "byte-order mark": "\ufeffslot,value\n1,1\n",
    "empty file": "",
    "non-int row above an oversized field": "slot,value\n1,x\n2," + "1" * 131_073 + "\n",
    "oversized field above a non-int row": "slot,value\n1," + "1" * 131_073 + "\n2,x\n",
    "oversized field after a good row": "slot,value\n1,2\n2," + "1" * 131_073 + "\n",
    "header only": "slot,value\n",
    "blank line": "slot,value\n1,1\n\n2,2\n",
    "extra field": "slot,value\n1,1,9\n2,2\n",
    "space before an int": "slot,value\n 1,1\n2, 2\n",
    "underscore in an int": "slot,value\n1_0,1\n1_1,3\n",
}


def seq_file_rows():
    argv = "simulate --policy fa --C 12 --k 2 --T 3 --F 1 --seq seq.csv".split()
    for name, text in SEQ_FILES.items():
        yield Row(f"seq-file[{name}]", argv, {"seq.csv": text.encode()})


# a batch on one sequence file: three repetitions, or two at each of four
# settings, which share one read of the file
BATCH_FLAGS = (
    "ratio --policy rand2 --C 12 --k 1 --T 3 --F 2 --oracle window-bound --repetitions 3",
    "sweep --param k --from 1 --to 4 --step 1 --policy fwf --C 12 --T 3 --F 2 --repetitions 2",
)


def batch_rows():
    files = {"seq.csv": partial(write_longrun_csv, "uniform", 5)}
    for flags in BATCH_FLAGS:
        argv = [*flags.split(), "--seq", "seq.csv", "--seed", "4", "--csv", "results.csv"]
        yield Row(f"batch[{flags}]", argv, files)


def golden_pairs(seed, T, slots=80):
    """Offers at about 80% of ``slots`` slots, values uniform in [1, T]."""
    rng = random.Random(seed)
    return [(s, 1 + int(rng.random() * T)) for s in range(1, slots + 1) if rng.random() < 0.8]


# each policy's NDJSON trace with terminal flushes off and on, tau 0 and
# tau > 0, at k wallets of 6 each; eta at C = 200, where eta*C = 418/5
TRACE_CASES = (
    ("fa", 1), ("fa", 2), ("fa", 3), ("fa", 4), ("fwf", 2), ("fwf", 3), ("fwf", 4),
    ("ftwf", 2), ("ftwf", 4), ("ftwf", 6), ("eta", 1), ("rand2", 1),
)


def trace_rows():
    for kind, k in TRACE_CASES:
        if kind == "eta":
            T, tau, flags = 60, 5, "--C 200 --T 60 --F 2 --p-ppm 100000 --eta-ppm 418000"
        else:
            T, tau, flags = 4, 1, f"--C {6 * k} --k {k} --T 4 --F 2 --p-ppm 500000"
        files = {"seq.csv": csv_file(golden_pairs(1000 + k, T))}
        for t in (0, tau):
            argv = ["simulate", "--policy", kind, *flags.split(), "--tau", str(t),
                    "--seq", "seq.csv", "--seed", str(1000 + k), "--trace", "trace.ndjson"]
            yield Row(f"traces[{kind}-{k}] tau{t}", argv, files)


# ---------------------------------------------------------------------------
# the sections added with the grid


# per policy, model params that every stream below fits
RUN_PARAMS = {
    "fa": "--C 12 --k 4 --T 3 --F 2",
    "fwf": "--C 12 --k 2 --T 3 --F 2",
    "ftwf": "--C 12 --k 4 --T 3 --F 2",
    "rand2": "--C 12 --T 3 --F 2",
    "eta": "--C 12 --T 3 --F 2 --p-ppm 500000 --eta-ppm 418000",
}
# the value knobs of each workload kind
STREAMS = {
    "poisson-uniform": {"min": 1, "max": 3},
    "poisson-exponential": {"mean": 1.5},
    "poisson-pareto": {"tailIndex": 1.5},
    "constant": {"value": 2},
    "bursty": {"min": 1, "max": 3, "burstLen": 5, "gapLen": 3},
}


def stream(kind):
    return json.dumps({"kind": kind, "arrivalRatePerMille": 700, "horizon": 150, "seed": 3,
                       "maxValue": 3, "valueParams": STREAMS[kind]}, separators=(",", ":"))


def simulate_rows():
    for kind, policy in product(STREAMS, POLICIES):
        # tau > 0, so the wallet policies flush their leftovers at the end
        argv = ["simulate", "--policy", policy, *RUN_PARAMS[policy].split(), "--tau", "1",
                "--workload", stream(kind), "--seed", "2", "--trace", "run.ndjson",
                "--csv", "run.csv"]
        yield Row(f"simulate[{kind} {policy}]", argv)


def oracle_rows():
    files = {"seq.csv": csv_file([(1, 3), (2, 2), (3, 3), (5, 1), (6, 3), (8, 2), (9, 3),
                                  (12, 3), (13, 1), (14, 2), (17, 3), (18, 3)])}
    oracles = ("brute-general", "brute-kwallet", "brute-utility", "window-bound")
    for oracle, policy, tau, repetitions in product(oracles, POLICIES, "01", "12"):
        argv = ["ratio", "--policy", policy, *RUN_PARAMS[policy].split(), "--tau", tau,
                "--oracle", oracle, "--seq", "seq.csv", "--repetitions", repetitions,
                "--trace", "run.ndjson", "--csv", "run.csv"]
        yield Row(f"oracle[{oracle} {policy} tau{tau} r{repetitions}]", argv, files)


def block_rows():
    """A plain --seq file past several 64 KiB blocks, so that rows and CRLF
    line ends straddle the blocks' ends."""
    pairs = [(s, 1 + s * 7 % 3) for s in range(1, 30_000) if s % 5]
    lf, crlf = csv_file(pairs), csv_file(pairs, "\r\n")
    run = "--policy fa --C 12 --k 4 --T 3 --F 2 --seq big.csv --csv run.csv".split()
    cases = {
        "lf simulate": (["simulate", *run, "--trace", "run.ndjson"], lf),
        "crlf simulate": (["simulate", *run, "--trace", "run.ndjson"], crlf),
        "lf ratio": (["ratio", *run, "--oracle", "window-bound"], lf),
        "crlf unended ratio": (["ratio", *run, "--oracle", "window-bound"], crlf[:-2]),
        "lf bad row past a block": (["simulate", *run], lf + b"30001,x\n"),
        "crlf slot 0 past a block": (["simulate", *run], crlf + b"0,1\r\n"),
    }
    for name, (argv, text) in cases.items():
        yield Row(f"blocks[{name}]", argv, {"big.csv": text})


SEQ = csv_file([(s, 1 + s % 3) for s in range(1, 30) if s % 4])
CONFIG = {"params": {"C": 12, "k": 2, "T": 3, "F": 2}, "policy": "fwf", "seqFile": "seq.csv"}
CONSTANT = {"kind": "constant", "arrivalRatePerMille": 500, "horizon": 10, "seed": 1,
            "maxValue": 3}
# config fields, each laid over CONFIG, and the text each is refused with;
# None drops a field
CONFIG_REFUSALS = [
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
    ({"repetitions": 0}, "repetitions must be positive, got 0"),
    ({"oracle": "nope"}, "unknown oracle 'nope'"),
    ({"params": [1]}, "params must be an object, got [1]"),
    ({"params": {"T": 3, "F": 2}}, "config missing field 'C'"),
    ({"policy": None}, "config missing field 'policy'"),
    ({"workload": CONSTANT}, "exactly one of workload, seq_file, sequence is required"),
    ({"seqFile": None, "workload": False}, "workload spec must be an object, got False"),
]
# a field no reader knows, where it sits and its name
UNKNOWN_FIELDS = [
    ({"repetitons": 3}, "config", "repetitons"),
    ({"params": {"C": 12, "k": 2, "T": 3, "F": 2, "tua": 3}}, "params", "tua"),
    ({"outputs": {"CSV": "out.csv"}}, "outputs", "CSV"),
    ({"seqFile": None, "workload": dict(CONSTANT, horizn=8)}, "workload", "horizn"),
]
# model params of the wrong type, laid over CONFIG's, for a policy
PARAM_TYPES = [
    ("fa", {"F": 1.5}, "F must be an integer"),
    ("fa", {"tau": 0.5}, "tau must be an integer"),
    ("fa", {"k": 2.0}, "k must be an integer"),
    ("fa", {"C": "20"}, "C must be an integer"),
    ("fa", {"p_ppm": True}, "p_ppm must be an integer"),
    ("eta", {"k": 1, "eta_ppm": 418000.5}, "eta_ppm must be an integer or null"),
]
SWEEP_K = "sweep --param k --from 1 --to 4 --step 1"


def config_rows():
    """Each refused config, read by every subcommand that reads one."""
    unknown = [(fields, f"unknown {where} field {name!r}")
               for fields, where, name in UNKNOWN_FIELDS]
    typed = [({"policy": policy, "params": dict(CONFIG["params"], **params)}, message)
             for policy, params, message in PARAM_TYPES]
    for fields, message in [*CONFIG_REFUSALS, *unknown, *typed]:
        config = {key: value for key, value in dict(CONFIG, **fields).items() if value is not None}
        files = {"seq.csv": SEQ, "config.json": json.dumps(config).encode()}
        for command in ("simulate", "ratio", SWEEP_K):
            argv = [*command.split(), "--config", "config.json"]
            yield Row(f"config[{command.split()[0]} {message}]", argv, files)


# every other row: its argv, run over all of these files
CLI_FILES = {
    "seq.csv": SEQ,
    "far.csv": csv_file([(1, 2), (100_000_000, 3)]),
    "cap.csv": csv_file([(1, 2), (100_000, 3)]),
    "three.csv": csv_file([(1, 2), (2, 3), (4, 1)]),
    "array.json": b"[1]",
    "workload.json": stream("poisson-uniform").encode(),
    "config.json": json.dumps(CONFIG).encode(),
    "outputs.json": json.dumps(dict(CONFIG, outputs={"csv": "run.csv"})).encode(),
    "repeat.json": json.dumps(dict(CONFIG, repetitions=3)).encode(),
    "nope.json": json.dumps(dict(CONFIG, policy="nope")).encode(),
}
BIG = "1" + "0" * 400  # past the float range
# eta's value bound 1/(1 - eta - T/C) reaches PPM*C when C - PPM*T = 1
FLOAT_MAX_C = int(sys.float_info.max) - (int(sys.float_info.max) - 1) % 10**6
RUN = "--policy fa --C 20 --k 2 --T 6 --F 1"
SWEEP_ETA = "sweep --param eta --policy eta --C 200 --T 60 --F 1 --seq seq.csv"
NON_FINITE = [("--from", "nan"), ("--to", "inf"), ("--step", "nan"), ("--from", "-inf")]
# each adversary one offer past MAX_ADVERSARY_OFFERS = 20,000: 7 offers an
# epoch for burst, 2 a round for the killer, and against rand2 at seed 0 the
# real wallet discards every probe of a round of C/epsilon = 10^6 probes
PAST_THE_OFFER_CAP = [
    "--type burst --target fa --C 12 --T 3 --k 4 --F 2 --rounds 2858",
    "--type burst --target fa --C 12 --T 3 --k 4 --F 2 --rounds 20000",
    "--type fwfkiller --target fwf --C 10 --T 5 --k 2 --F 1 --rounds 10001",
    "--type thm3 --target rand2 --C 1000000 --F 2 --rounds 1 --seed 0",
]
# argparse reads "-1,2" after a space as a flag (see
# test_argparse_refusals_are_one_error_line), so that value goes with "=";
# "1,-2" does not start with "-" and needs no "="
VALUES_BELOW_1 = [["--values", "0,1,2"], ["--values=-1,2"], ["--values", "1,-2"]]
CLI = {
    # config files, alone and under run flags
    "simulate config outputs": "simulate --config outputs.json --trace run.ndjson",
    "ratio config outputs": "ratio --config outputs.json --oracle window-bound --repetitions 2",
    "sweep config outputs": f"{SWEEP_K} --config outputs.json",
    "ratio config under flags": "ratio --config config.json --C 24 --policy ftwf --k 4 "
                                "--tau 1 --oracle window-bound",
    "ratio brute-kwallet past its budget": "ratio --config config.json --oracle brute-kwallet",
    "ratio workload file over the config's seqFile": "ratio --config config.json --workload "
                                                     "workload.json --policy rand2 --k 1 "
                                                     "--seed 5 --repetitions 3 --csv run.csv",
    "simulate workload file": "simulate --policy fa --C 12 --k 4 --T 3 --F 2 "
                              "--workload workload.json --csv run.csv",
    "sweep eta workload file": "sweep --param eta --from 0.3 --to 0.6 --step 0.1 --policy eta "
                               "--C 12 --T 3 --F 2 --p-ppm 500000 --tau 1 "
                               "--workload workload.json --repetitions 2",
    # an unknown policy in a config is refused whichever subcommand reads it
    "simulate unknown policy": "simulate --config nope.json",
    "ratio unknown policy": "ratio --config nope.json",
    "sweep k unknown policy": f"{SWEEP_K} --config nope.json",
    "sweep eta unknown policy": "sweep --param eta --from 0.3 --to 0.6 --step 0.1 "
                                "--config nope.json",
    # a run steps only its offers, so far slots cost no more than their offers
    "simulate far csv": "simulate --policy fa --C 12 --T 3 --k 2 --F 1 --seq far.csv",
    "ratio far csv": "ratio --policy fwf --C 12 --T 3 --k 2 --F 1 --seq far.csv",
    "ratio window-bound at F 1e8": "ratio --policy fwf --C 12 --T 3 --k 2 --F 100000000 "
                                   "--oracle window-bound --seq three.csv",
    "simulate at the slot cap": "simulate --policy fa --C 12 --T 3 --k 2 --F 1 --seq cap.csv",
    "fwfkiller at F 1e8": "adversary --type fwfkiller --target fwf --C 10 --T 5 --k 2 "
                          "--F 100000000 --rounds 2",
    "thm3 at F 1e8 rounds 1": "adversary --type thm3 --target fwf --C 10 --T 10 "
                              "--F 100000000 --rounds 1",
    "thm3 at F 1e8 rounds 2": "adversary --type thm3 --target fwf --C 10 --T 10 "
                              "--F 100000000 --rounds 2",
    "adversary at the offer cap": "adversary --type fwfkiller --target fwf --C 10 --T 5 "
                                  "--k 2 --F 1 --rounds 10000",
    # refusals, from every subcommand
    "simulate missing flags": "simulate --policy fa --C 20",
    "simulate repetitions flag": "simulate --config config.json --repetitions 5",
    "simulate repetitions config": "simulate --config repeat.json",
    "simulate empty --seq": f"simulate {RUN} --seq=",
    "simulate empty --workload": f"simulate {RUN} --workload=",
    "simulate value above T": "simulate --policy fa --C 12 --T 2 --F 1 --seq seq.csv",
    "simulate workload file not an object": f"simulate {RUN} --workload array.json",
    # an inline value that is JSON but not an object gets the file's refusal
    "simulate inline workload array": f"simulate {RUN} --workload [1]",
    "simulate inline workload number": f"simulate {RUN} --workload 0",
    "simulate unknown workload field": f"simulate {RUN} --workload "
                                       '{"kind":"constant","arrivalRatePerMille":1000,'
                                       '"horizon":6,"seed":0,"maxValue":6,'
                                       '"valueParam":{"value":6}}',
    "ratio missing seq file": f"ratio {RUN} --seq absent.csv",
    "ratio value bound past the float range": f"ratio --policy eta --C {FLOAT_MAX_C} "
                                              f"--T {FLOAT_MAX_C // 10**6} --F 1 "
                                              "--eta-ppm 999999 --seq seq.csv",
    "sweep a trace": f"{SWEEP_K} --config config.json --trace sweep.ndjson",
    "sweep step 0": f"{SWEEP_ETA} --from 0.35 --to 0.5 --step=0",
    "sweep step -0.05": f"{SWEEP_ETA} --from 0.35 --to 0.5 --step=-0.05",
    # a batch where no setting runs is refused, and leaves no sweep.csv
    "sweep every setting refused": f"{SWEEP_ETA} --from 0.01 --to 0.1 --step 0.03 "
                                   "--csv sweep.csv",
    "sweep empty range": f"{SWEEP_ETA} --from 3 --to 1 --step 1 --csv sweep.csv",
    # a nan span would sweep no value; an infinite one would never end
    **{f"sweep {flag}={value}": f"{SWEEP_ETA} --from=0.35 --to=0.5 --step=0.05 {flag}={value}"
       for flag, value in NON_FINITE},
    # 1e16 + 1.0 == 1e16: the loop would never advance
    "sweep step too small": f"{SWEEP_ETA} --from 1e16 --to 2e16 --step 1",
    "sweep past 10000 values": f"{SWEEP_ETA} --from 0 --to 1 --step 1e-9",
    "ratio C past the float range": f"ratio --policy fwf --C {4 * 10**400} --k 2 "
                                    f"--T {2 * 10**400 - 1} --F 1 --oracle window-bound "
                                    "--seq seq.csv",
    "sweep k C past the float range": f"{SWEEP_K} --policy fwf --C {BIG} --T 1 --F 1 "
                                      "--seq seq.csv",
    "sweep eta C past the float range": "sweep --param eta --from 0.5 --to 0.6 --step 0.1 "
                                        f"--policy eta --C {BIG} --T 1 --F 1 --seq seq.csv",
    "adversary missing flags": "adversary --type thm3 --target fa",
    "adversary thm3 rounds -3": "adversary --type thm3 --target fwf --C 4 --F 1 --rounds=-3",
    "adversary thm3 rounds 0": "adversary --type thm3 --target fwf --C 4 --F 1 --rounds=0",
    "adversary burst epochs 0": "adversary --type burst --target fa --C 4 --F 1 --rounds=0",
    **{f"adversary {argv}": f"adversary {argv}" for argv in PAST_THE_OFFER_CAP},
    "adversary C 0": "adversary --type burst --target fa --C 0 --F 1",
    "exhaust values not ints": "exhaust --C 4 --k 2 --T 2 --F 1 --max-len 3 --values 1,two",
    "exhaust value above T": "exhaust --C 12 --k 2 --T 3 --F 2 --max-len 3 --values 5",
    **{f"exhaust {' '.join(values)}": "exhaust --C 12 --k 2 --T 3 --F 2 --max-len 3 "
       + " ".join(values) for values in VALUES_BELOW_1},
    "exhaust values repeated": "exhaust --C 4 --k 2 --T 2 --F 1 --max-len 2 --values 1,1",
    "exhaust max-len below 1": "exhaust --C 12 --k 2 --T 3 --F 2 --max-len -1 --values 1,2",
    "exhaust past the cap": "exhaust --C 12 --k 2 --T 4 --F 1 --max-len 8 --values 1,2,3,4",
    "exhaust a long max-len": "exhaust --C 12 --k 2 --T 3 --F 2 --max-len 1000000 "
                              "--values 1,2",
    "exhaust k not dividing C": "exhaust --C 12 --k 5 --T 2 --F 1 --max-len 3 --values 1,2",
    "formulas p_ppm 0": "formulas --C 10 --T 3 --p-ppm 0 --tau 1",
    "formulas p_ppm above 1": "formulas --C 10 --T 3 --p-ppm 2000000 --tau 1",
    "formulas k below 0": "formulas --C 10 --T 3 --k -2",
    "formulas C past the float range": f"formulas --C {BIG} --T 1",
    "formulas tau past the float range": f"formulas --C 10 --T 3 --tau {BIG}",
}


def cli_rows():
    for name, argv in CLI.items():
        yield Row(f"cli[{name}]", argv.split(), CLI_FILES)


SECTIONS = (
    adversary_rows, exhaust_rows, formulas_rows, sweep_rows, longrun_rows,
    longrun_seq_rows, seq_file_rows, batch_rows, trace_rows, simulate_rows, oracle_rows,
    block_rows, config_rows, cli_rows,
)
ROWS = {row.id: row for section in SECTIONS for row in section()}


# ---------------------------------------------------------------------------
# the recipe

Run = namedtuple("Run", "sha256 code out err")


def lay_out(row: Row, directory) -> None:
    """Write the row's input files into ``directory``: bytes, or a writer
    called with the file's path."""
    for name, content in row.files.items():
        path = os.path.join(directory, name)
        if callable(content):
            content(path)
        else:
            Path(path).write_bytes(content)


def hash_run(code: int, out: bytes, err: bytes, directory) -> str:
    """sha256 of the exit code, stdout, stderr and then each file in
    ``directory``, name and bytes, sorted by name; each part length-prefixed."""
    parts = [str(code).encode(), out, err]
    for name in sorted(os.listdir(directory)):
        parts += [name.encode(), Path(directory, name).read_bytes()]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(b"%d:" % len(part))
        digest.update(part)
    return digest.hexdigest()


def digest(row_id: str, directory=None) -> Run:
    """Run the row by the recipe: in ``directory``, which must be empty and
    keeps the files, or else in a temporary one."""
    if directory is None:
        with tempfile.TemporaryDirectory() as scratch:
            return digest(row_id, scratch)
    row = ROWS[row_id]
    lay_out(row, directory)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(row.argv))
            except SystemExit as refused:  # argparse's refusals
                code = refused.code
    finally:
        os.chdir(cwd)
    out, err = out.getvalue(), err.getvalue()
    return Run(hash_run(code, out.encode(), err.encode(), directory), code, out, err)


@cache
def recorded() -> dict[str, str]:
    """The checked-in digests, by row id."""
    return dict(line.rsplit(" ", 1) for line in RECORD.read_text().splitlines())


def check(row_id: str, directory=None) -> Run:
    """The row's run, whose digest must be the recorded one; a mismatch
    names the row and shows the first lines of its stdout and stderr."""
    run = digest(row_id, directory)
    want = recorded().get(row_id)
    out, err = ("\n".join(text.splitlines()[:8]) for text in (run.out, run.err))
    assert run.sha256 == want, (
        f"row {row_id!r}: digest {run.sha256}, recorded {want}\n"
        f"--- stdout\n{out}\n--- stderr\n{err}"
    )
    return run


def cases(section: str) -> dict[str, list[str]]:
    """The ids of a section's rows by case, ``section[case]`` or
    ``section[case] run``, in grid order."""
    found = {}
    for row_id in ROWS:
        name, _, rest = row_id.partition("[")
        if name == section:
            found.setdefault(rest.partition("]")[0], []).append(row_id)
    return found


def check_case(section: str, case: str) -> None:
    for row_id in cases(section)[case]:
        check(row_id)


if __name__ == "__main__":
    for row_id in ROWS:
        print(row_id, digest(row_id).sha256)
