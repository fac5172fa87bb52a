"""The exit contract, fuzzed: argv drawn for every subcommand, run in-process.

Every run of ``cli.main`` exits 0, 1 (a failed bound or a counterexample)
or 2, and no exception escapes it.  An exit of 2, argparse's refusals
included, prints exactly one stderr line, starting ``error:``; any other
exit prints nothing there.

An argv is a subcommand, then maybe a small run that works, then flags
that override it, each with a value from a pool of edge values or one of
the flag's own names.  A ``--workload`` value is JSON whose fields take the
same kind of values.  Every file flag may also name a directory or a file
that is not there.  No k or horizon is drawn between 10^5 and 10^18:
without a refusal there, a run would allocate memory rather than fail
fast, while 10^30 is past any index at once.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from collatsim.harness import ADVERSARY_KINDS, ORACLE_KINDS
from collatsim.policies import POLICY_KINDS
from collatsim.workloads import VALUE_KNOBS, WORKLOAD_KINDS

import identity_grid as grid

HUGE = 10**30
PAST_FLOAT = 10**400
POOL = ("0", "-1", "1", "2", "3", "4", "12", str(HUGE), str(PAST_FLOAT),
        "x", "", "nan", "inf", "-inf", "-1,2", "1,,2", "0.0000005", "1e-999999999")

PARAM_FLAGS = ("--C", "--k", "--T", "--F", "--eta-ppm", "--p-ppm", "--tau")
RUN_FLAGS = ("--config", "--policy", *PARAM_FLAGS, "--workload", "--seq", "--seed",
             "--repetitions", "--trace", "--csv")
FLAGS = {
    "simulate": RUN_FLAGS,
    "ratio": (*RUN_FLAGS, "--oracle"),
    "adversary": ("--type", "--target", "--epsilon", "--rounds", *PARAM_FLAGS, "--seed"),
    "exhaust": ("--C", "--k", "--T", "--F", "--max-len", "--values"),
    "sweep": ("--param", "--from", "--to", "--step", *RUN_FLAGS),
    "formulas": ("--C", "--T", "--k", "--p-ppm", "--tau"),
}
# a small run of each subcommand that exits 0 or 1, for drawn flags to override
BASE = {
    "simulate": "--policy fa --C 12 --k 2 --T 3 --F 1 --seq seq.csv",
    "ratio": "--policy fwf --C 12 --k 2 --T 3 --F 1 --seq seq.csv",
    "adversary": "--type thm3 --target fwf --C 4 --F 1",
    "exhaust": "--C 12 --k 2 --T 3 --F 1 --max-len 3 --values 1,2",
    "sweep": "--param k --from 1 --to 4 --step 1 --policy fwf --C 12 --T 3 --F 1 --seq seq.csv",
    "formulas": "--C 10 --T 3 --k 2",
}
FILES = {
    "seq.csv": "slot,value\n1,1\n2,3\n4,2\n5,3\n",
    "config.json": json.dumps({"params": {"C": 12, "k": 2, "T": 3, "F": 1}, "policy": "fa",
                               "seqFile": "seq.csv"}),
}
# for any flag that names a file: an empty directory, and a name in a
# directory that is not there, so no run can write the file and a later
# run read it
NOT_FILES = ("adir", "gone/missing.csv")

# the pool's kinds of value as JSON: numbers, strings and the non-finite
# floats, and the top arrival rate, 1000 per mille, so that every slot offers
FIELDS = st.sampled_from((0, -1, 1, 2, 3, 4, 12, 1000, HUGE, PAST_FLOAT, "x", "",
                          float("nan"), float("inf"), float("-inf")))
KNOBS = sorted({"maen", *(knob for knobs in VALUE_KNOBS.values() for knob in knobs)})
WORKLOADS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from((*WORKLOAD_KINDS, "x")),
        **{name: FIELDS for name in ("arrivalRatePerMille", "horizon", "seed", "maxValue")},
    },
    optional={"valueParams": st.dictionaries(st.sampled_from(KNOBS), FIELDS, max_size=2)},
).map(json.dumps)


def values(*names):
    return st.sampled_from((*names, *POOL))


VALUES = {
    "--policy": values(*POLICY_KINDS),
    "--target": values(*POLICY_KINDS),
    "--oracle": values(*ORACLE_KINDS),
    "--type": values(*ADVERSARY_KINDS),
    "--param": values("eta", "k"),
    "--config": values("config.json", *NOT_FILES),
    "--seq": values("seq.csv", *NOT_FILES),
    "--csv": values("out.csv", *NOT_FILES),
    "--trace": values("out.ndjson", *NOT_FILES),
    "--workload": st.one_of(WORKLOADS, values(*NOT_FILES)),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(tuple(FLAGS)))
    argv = [command]
    if draw(st.integers(0, 3)):  # three times in four
        argv += BASE[command].split()
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=3)):
        value = draw(VALUES.get(flag, values()))
        # "--flag=value" reaches the program with a value argparse reads as a flag
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the sequence and config files the runs read,
    and the empty directory ``adir``."""
    directory = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (directory / name).write_text(text)
    (directory / NOT_FILES[0]).mkdir()
    return directory


# a bank of 10^30 wallets, and an exponential draw whose default mean,
# maxValue / 2, is past the float range
WALLETS_PAST_ANY_INDEX = ["exhaust", *f"--C {HUGE} --k {HUGE} --T 1 --F 1 --max-len 3".split(),
                          "--values", "1"]
MEAN_PAST_THE_FLOAT_RANGE = [
    "simulate", *"--policy fa --C 12 --k 2 --T 3 --F 1 --workload".split(),
    json.dumps({"kind": "poisson-exponential", "arrivalRatePerMille": 1000, "horizon": 3,
                "seed": 0, "maxValue": PAST_FLOAT}),
]


@settings(max_examples=500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=WALLETS_PAST_ANY_INDEX)
@example(argv=MEAN_PAST_THE_FLOAT_RANGE)
def test_every_exit_is_0_1_or_one_error_line(workdir, argv):
    code, _, err = grid.run(argv, workdir)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), argv
    else:
        assert err == "", argv
