"""Workload generators, adversaries, and sequence files."""

import csv
import re
import sys

import pytest

from collatsim import workloads
from collatsim.cli import main
from collatsim.model import CollateralError, ModelParams, TransactionSequence
from collatsim.workloads import (
    WORKLOAD_KINDS,
    WorkloadSpec,
    epoch_burst_seq,
    fwf_killer_seq,
    gen_stochastic,
    read_sequence_csv,
    thm3_seq,
    write_sequence_csv,
)


# each kind's own valueParams knobs
KIND_KNOBS = {
    "poisson-uniform": {"min": 1, "max": 6},
    "poisson-exponential": {"mean": 2.5},
    "poisson-pareto": {"tailIndex": 1.5},
    "constant": {"value": 4},
    "bursty": {"min": 1, "max": 6, "burstLen": 3, "gapLen": 2},
}


def test_spec_json_round_trip():
    spec = WorkloadSpec("poisson-uniform", 600, 40, 7, 60, {"min": 10, "max": 60})
    obj = {
        "kind": "poisson-uniform",
        "arrivalRatePerMille": 600,
        "valueParams": {"min": 10, "max": 60},
        "horizon": 40,
        "seed": 7,
        "maxValue": 60,
    }
    assert WorkloadSpec.from_json_obj(obj) == spec
    assert spec.with_seed(9).seed == 9


def test_spec_rejects_bad_rate():
    with pytest.raises(CollateralError, match=r"^arrival rate must be in \[0, 1000\], got 1001$"):
        WorkloadSpec("constant", 1001, 10, 0, 5)
    with pytest.raises(CollateralError, match=r"^unknown workload kind 'martian'$"):
        WorkloadSpec("martian", 100, 10, 0, 5)


@pytest.mark.parametrize("kind", ["poisson-uniform", "bursty"])
@pytest.mark.parametrize("rate", [0, 600])
@pytest.mark.parametrize(
    "bad", [{"min": 5, "max": 2}, {"min": 0}, {"max": 0}, {"min": "1"}, {"min": True, "max": 3}]
)
def test_spec_rejects_bad_value_range(kind, rate, bad):
    # checked when the spec is made, not when an arrival first draws a value
    message = f"bad uniform range [{bad.get('min', 1)}, {bad.get('max', 6)}]"
    with pytest.raises(CollateralError, match=f"^{re.escape(message)}$"):
        WorkloadSpec(kind, rate, 10, 0, 6, bad)


# every kind refuses each other kind's knobs, and a misspelled one
@pytest.mark.parametrize(
    "kind, knob",
    [(kind, knob) for kind in KIND_KNOBS
     for knob in ["maen", *dict.fromkeys(k for knobs in KIND_KNOBS.values() for k in knobs)]
     if knob not in KIND_KNOBS[kind]],
)
def test_spec_rejects_knobs_the_kind_does_not_read(kind, knob):
    with pytest.raises(CollateralError, match=f"^unknown {kind} valueParams field '{knob}'$"):
        WorkloadSpec(kind, 500, 10, 0, 6, {knob: 2})


@pytest.mark.parametrize("bad", [{"burstLen": 0}, {"gapLen": -1}])
def test_spec_rejects_bad_burst_shape(bad):
    # like the value range, checked when the spec is made
    message = f"bursty needs burstLen >= 1, gapLen >= 0, got {bad}"
    with pytest.raises(CollateralError, match=f"^{re.escape(message)}$"):
        WorkloadSpec("bursty", 0, 10, 0, 6, bad)


@pytest.mark.parametrize(
    "kind, knobs",
    [("poisson-pareto", {"tailIndex": 1e-300}), ("poisson-exponential", {"mean": 1.7e308})],
)
def test_draws_past_the_float_range_are_capped(kind, knobs):
    # such draws overflow a float; they are past any cap, so they take the cap
    seq = gen_stochastic(WorkloadSpec(kind, 1000, 50, 3, 4, knobs))
    assert [t.value for t in seq] == [4] * 50


@pytest.mark.parametrize("kind", WORKLOAD_KINDS)
def test_spec_rejects_a_max_value_past_the_float_range(kind):
    # poisson-exponential's default mean is max_value / 2, a float
    big = 10**400
    with pytest.raises(CollateralError, match=f"^max_value must be a finite number, got {big}$"):
        WorkloadSpec(kind, 500, 10, 0, big)
    assert WorkloadSpec(kind, 500, 10, 0, int(sys.float_info.max)).max_value > 10**308


def test_spec_rejects_non_object_value_params():
    with pytest.raises(CollateralError, match=r"^valueParams must be an object, got \[1, 3\]$"):
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
    spec = WorkloadSpec(kind, 800, 50, 11, 6, KIND_KNOBS[kind])
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
    assert len(seq) > 0
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
    message = r"^killer sequence needs T = C/k, got T=6 C=20 k=2$"  # r < 1
    with pytest.raises(CollateralError, match=message):
        fwf_killer_seq(ModelParams(C=20, T=6, F=1, k=2), 1, 3)
    with pytest.raises(CollateralError, match=r"^need 1 <= epsilon < C/k, got 10$"):
        fwf_killer_seq(ModelParams(C=20, T=10, F=1, k=2), 10, 3)


def test_epoch_burst_shape():
    params = ModelParams(C=12, T=3, F=2, k=2)
    seq = epoch_burst_seq(params, 2)
    values = [t.value for t in seq]
    assert all(v == 3 for v in values)
    # per epoch: 4 fills, 1 trigger, F=2 burst offers in the outage
    assert len(seq) == 2 * (4 + 1 + 2)


class ScriptedTarget:
    """Settles the offers whose 1-based numbers are listed, in wallet 1;
    logs every step."""

    def __init__(self, settles=()):
        self.settles = set(settles)
        self.steps = []

    def step(self, slot, value):
        self.steps.append((slot, value))
        if value is None:
            return 0
        offers = sum(v is not None for _, v in self.steps)
        return 1 if offers in self.settles else 0


THM3_PARAMS = ModelParams(C=4, T=4, F=2)


def test_thm3_settling_probe_draws_the_big_one():
    target = ScriptedTarget(settles={1})
    seq = thm3_seq(THM3_PARAMS, epsilon=2, rounds=1, target=target)
    # the big offer takes the next slot; F - 1 quiet slots trail
    assert seq == TransactionSequence.from_pairs([(1, 2), (2, 4)], horizon=3)
    assert target.steps == [(1, 2), (2, 4)]
    # a later settled probe draws it just the same
    seq = thm3_seq(THM3_PARAMS, epsilon=2, rounds=1, target=ScriptedTarget({2}))
    assert seq == TransactionSequence.from_pairs([(1, 2), (2, 2), (3, 4)], horizon=4)


def test_thm3_gives_up_after_budget():
    # C/epsilon discarded probes end the round without the big offer
    target = ScriptedTarget()
    seq = thm3_seq(THM3_PARAMS, epsilon=2, rounds=2, target=target)
    assert seq == TransactionSequence.from_pairs(
        [(1, 2), (2, 2), (5, 2), (6, 2)], horizon=7
    )
    # the F quiet slots between rounds are not stepped
    assert target.steps == [(1, 2), (2, 2), (5, 2), (6, 2)]


def test_thm3_rounds_are_separated_by_f_gaps():
    target = ScriptedTarget(settles=range(1, 100))
    seq = thm3_seq(THM3_PARAMS, epsilon=4, rounds=2, target=target)
    by_slot = {t.slot: t.value for t in seq}
    cells = [f"v{by_slot[s]}" if s in by_slot else "gap"
             for s in range(1, seq.horizon + 1)]
    # F = 2 quiet slots between rounds, F - 1 = 1 after the last
    assert cells == ["v4", "v4", "gap", "gap", "v4", "v4", "gap"]
    assert target.steps == [(1, 4), (2, 4), (5, 4), (6, 4)]


def test_thm3_guards():
    with pytest.raises(CollateralError, match=r"^adversary targets one wallet, got k=2$"):
        thm3_seq(ModelParams(C=4, T=2, F=1, k=2), 2, 1, ScriptedTarget())
    with pytest.raises(CollateralError, match=r"^epsilon must divide C, got epsilon=3 C=4$"):
        thm3_seq(ModelParams(C=4, T=4, F=1), 3, 1, ScriptedTarget())
    with pytest.raises(CollateralError, match=r"^rounds must be positive, got 0$"):
        thm3_seq(ModelParams(C=4, T=4, F=1), 2, 0, ScriptedTarget())
    with pytest.raises(CollateralError, match=r"^thm3 needs T = C, got T=3 C=4$"):
        thm3_seq(ModelParams(C=4, T=3, F=1), 2, 1, ScriptedTarget())


@pytest.mark.parametrize(
    "rows, message",
    [
        (["5,x"], "line 7: expected slot,value integers, got ['5', 'x']"),
        (["5"], "line 7: expected slot,value integers, got ['5']"),
        (["0,1", "6,x"], "slot must be >= 1, got 0"),
        (["5,0"], "value must be >= 1, got 0"),
        (["3,1"], "slots must be strictly increasing: 4 then 3"),
    ],
)
def test_csv_reader_names_the_first_bad_row_past_a_block(tmp_path, monkeypatch, rows, message):
    # blocks of eight bytes: the first ones split plain rows, the blank line
    # sends the file to the csv module's rows, and the error still names the
    # fault past it
    monkeypatch.setattr(workloads, "CSV_BLOCK_BYTES", 8)
    path = tmp_path / "seq.csv"
    path.write_text("slot,value\n1,1\n2,2\n\n3,3\n4,1\n" + "".join(r + "\n" for r in rows))
    with pytest.raises(CollateralError) as err:
        read_sequence_csv(str(path))
    assert str(err.value).removeprefix(f"{path} ") == message


def test_csv_reader_joins_its_blocks(tmp_path, monkeypatch):
    # a plain file, LF and CRLF line ends mixed and the last line unended,
    # is split in blocks that end inside rows and inside a CRLF, and is
    # never read row by row
    seq = gen_stochastic(WorkloadSpec("poisson-uniform", 600, 40, 3, 6))
    path = tmp_path / "seq.csv"
    rows = (f"{s},{v}{chr(13) if s % 2 else ''}\n" for s, v in zip(seq.slots, seq.values))
    path.write_bytes(("slot,value\r\n" + "".join(rows)).rstrip().encode())
    monkeypatch.setattr(workloads, "CSV_BLOCK_BYTES", 5)
    monkeypatch.setattr(workloads, "_checked_columns", None)
    back = read_sequence_csv(str(path))
    assert (back.slots, back.values) == (seq.slots, seq.values)


def int_reads(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# whether int() reads 5,000 digits, which sys.get_int_max_str_digits() caps
# on the Pythons that have it
INT_READS_PAST_DIGITS = int_reads("1" * 5_000)
# rows past the first 64 KiB block: the UTF-8 error's position is counted
# from the start of the csv module's 8 KiB read that holds the bad byte
ROWS_PAST_A_BLOCK = b"".join(b"%d,%d\n" % (s, 1 + s % 3) for s in range(1, 12001))
# file bytes, and what reading them gives: the columns, or the CLI's one
# error line (the file's path read as PATH); only a plain file (LF or CRLF
# line ends, two fields of digits, no blank line) is split without the csv
# module, and every other file gives what the csv module's rows give
CSV_QUIRKS = {
    "lf": (b"slot,value\n1,3\n2,2\n4,1\n", "[1, 2, 4] [3, 2, 1]"),
    "crlf": (b"slot,value\r\n1,3\r\n2,2\r\n4,1\r\n", "[1, 2, 4] [3, 2, 1]"),
    "no-final-newline": (b"slot,value\n1,3\n2,2\n4,1", "[1, 2, 4] [3, 2, 1]"),
    "header-only": (b"slot,value\n", "[] []"),
    "header-unended": (b"slot,value", "[] []"),
    "header-then-cr": (b"slot,value\r", "[] []"),
    "empty": (b"", "error: expected header slot,value, got None"),
    "blank-line": (b"slot,value\n1,3\n\n2,2\n", "[1, 2] [3, 2]"),
    "third-field": (b"slot,value\n1,3,x\n2,2,\n", "[1, 2] [3, 2]"),
    "one-field": (
        b"slot,value\n1\n2\n", "error: PATH line 2: expected slot,value integers, got ['1']"
    ),
    # as many commas as rows, but not one a row
    "fields-misaligned": (
        b"slot,value\n1,3,3\n4\n", "error: PATH line 3: expected slot,value integers, got ['4']"
    ),
    "quoted": (b'"slot","value"\n"1","3"\n"2",2\n', "[1, 2] [3, 2]"),
    "bom": (
        b"\xef\xbb\xbfslot,value\n1,3\n",
        "error: expected header slot,value, got ['\\ufeffslot', 'value']",
    ),
    "lone-cr": (b"slot,value\r1,3\r2,2\r", "[1, 2] [3, 2]"),
    # the csv module reads a NUL from Python 3.11 on, and refuses it before
    "nul": (
        b"slot,value\n1,3\x00\n",
        "error: PATH line 2: line contains NUL" if sys.version_info < (3, 11)
        else "error: PATH line 2: expected slot,value integers, got ['1', '3\\x00']",
    ),
    "long-digits": (
        b"slot,value\n1," + b"1" * 131073 + b"\n",
        "error: PATH line 2: field larger than field limit (131072)",
    ),
    "long-padded": (
        b"slot,value\n1, " + b"1" * 131071 + b" \n",
        "error: PATH line 2: field larger than field limit (131072)",
    ),
    "non-int": (
        b"slot,value\n1,3\n2,x\n",
        "error: PATH line 3: expected slot,value integers, got ['2', 'x']",
    ),
    "slot-0": (b"slot,value\n0,3\n", "error: slot must be >= 1, got 0"),
    "repeated-slot": (
        b"slot,value\n1,3\n2,2\n2,1\n", "error: slots must be strictly increasing: 2 then 2"
    ),
    "above-t": (b"slot,value\n1,3\n2,9\n", "error: value 9 at slot 2 exceeds cap 3"),
    "bad-utf8-past-a-block": (
        b"slot,value\n" + ROWS_PAST_A_BLOCK + b"12001,\xff\n",
        "error: input is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
        "in position 2991: invalid start byte",
    ),
    # lines past the field size limit that no block's end splits: the split
    # gives up on the line it carries before it reads the line's end
    "long-line-of-short-fields": (b"slot,value\n1,3," + b"x," * 110_000 + b"\n", "[1] [3]"),
    "long-digits-past-a-block": (
        b"slot,value\n1," + b"1" * 200_000 + b"\n",
        "error: PATH line 2: field larger than field limit (131072)",
    ),
    # fields of digits that int() does not read
    "empty-field": (
        b"slot,value\n1,\n", "error: PATH line 2: expected slot,value integers, got ['1', '']"
    ),
    # int() reads any number of digits on some Pythons and refuses more than
    # sys.get_int_max_str_digits() on others, so only the two routes' agreement
    # is pinned: None stands for the rows' outcome
    "past-int-digits": (b"slot,value\n1," + b"1" * 5_000 + b"\n", None),
}
PLAIN_QUIRKS = (
    "lf", "crlf", "no-final-newline", "header-only", "header-unended", "slot-0", "repeated-slot",
    "above-t", *(["past-int-digits"] if INT_READS_PAST_DIGITS else []),
)


def test_csv_reader_keeps_the_csv_field_limit(tmp_path):
    # int() reads a field of digits of any length up to its own cap, so the
    # split must refuse a field the csv module's size limit refuses
    path = tmp_path / "seq.csv"
    limit = csv.field_size_limit(8)
    try:
        path.write_bytes(b"slot,value\n1,12345678\n")
        assert read_sequence_csv(str(path)).values == (12345678,)
        path.write_bytes(b"slot,value\n1,123456789\n")
        message = f"^{re.escape(str(path))} line 2: field larger than field limit \\(8\\)$"
        with pytest.raises(CollateralError, match=message):
            read_sequence_csv(str(path))
    finally:
        csv.field_size_limit(limit)


def read_outcome(capsys, path):
    """The columns a run reads from ``path``, or its one error line."""
    code = main(["simulate", "--policy", "fa", "--C", "12", "--k", "3", "--T", "3",
                 "--F", "1", "--seq", str(path)])
    err = capsys.readouterr().err
    if code == 0:
        seq = read_sequence_csv(str(path))
        return f"{list(seq.slots)} {list(seq.values)}"
    assert (code, err.count("\n")) == (2, 1)
    return err.removesuffix("\n").replace(str(path), "PATH")


@pytest.mark.parametrize("case", sorted(CSV_QUIRKS))
def test_csv_reader_quirks(capsys, tmp_path, monkeypatch, case):
    data, expected = CSV_QUIRKS[case]
    path = tmp_path / "seq.csv"
    path.write_bytes(data)
    splits = []
    plain_columns = workloads._plain_columns

    def recorded(p):
        splits.append(plain_columns(p))
        return splits[-1]

    monkeypatch.setattr(workloads, "_plain_columns", recorded)
    outcome = read_outcome(capsys, path)
    assert outcome == expected or expected is None
    assert (splits[0] is not None) is (case in PLAIN_QUIRKS)
    # the csv module's rows alone give the same
    monkeypatch.setattr(workloads, "_plain_columns", lambda p: None)
    assert read_outcome(capsys, path) == outcome


def test_sequence_csv_round_trip(tmp_path):
    seq = TransactionSequence.from_pairs([(1, 3), (4, 2), (9, 6)])
    path = tmp_path / "seq.csv"
    write_sequence_csv(seq, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "slot,value"
    back = read_sequence_csv(str(path))
    assert back == seq
    assert back.horizon == 9
