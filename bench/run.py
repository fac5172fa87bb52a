#!/usr/bin/env python3
"""collatsim benchmark: three workloads, timed end to end and module by module.

Run from the repository root (stdlib only, one process, no threads):

    python3 bench/run.py --workload longrun --seed 1 --seconds 15 --trace 0

Workloads, with their parameters in bench/design.json:

  longrun       in-process ``collatsim ratio --oracle window-bound`` with
                --trace/--csv on 4000-slot stochastic sequences
  oracle-batch  ``collatsim.harness.measure_ratio`` against the exact brute
                oracles on short instances, n in {8, 10, 12}
  exhaust       in-process ``collatsim exhaust`` over the criteria 1-3
                spaces at length 7

The program is imported from the ``src`` directory next to this one.  A
run first times ``setup_repeats`` set-ups, each in a fresh process started
with ``--setup-only``, from process start until the inputs are ready.  It
then sets up once itself and runs whole rounds of items until
``--seconds`` have passed, checking every item's output against
bench/expected/ and against checks that hold for any seed.  A timed
batch also runs at least ``min_timed_items`` items, which lengthens the
exhaust runs so that item_ms_p90 rests on more than a few items.

With ``--trace 1`` a fixed number of rounds runs untraced and then traced
(see bench/tracer.py), and the per-layer metrics are reported instead.

The second-to-last line of stdout holds the run's details (run context,
item counts, failures); the last line is the result object.  Both, with
the traced run's spans, are also written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import checks
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DESIGN = json.loads((BENCH / "design.json").read_text())
MODULES = ("model", "policies", "oracles", "workloads", "formulas", "harness", "cli")
EXACT_ORACLES = (
    "oracles.opt_general_value", "oracles.opt_kwallet_value", "oracles.opt_general_utility",
)

END_TO_END_UNITS = {"setup_s": "s", "units_per_s": "1/s", "item_ms_p50": "ms",
                    "item_ms_p90": "ms", "peak_rss_mb": "MB"}


def import_collatsim() -> SimpleNamespace:
    """Import collatsim afresh from SRC; returns its modules by short name."""
    for name in [m for m in sys.modules if m == "collatsim" or m.startswith("collatsim.")]:
        del sys.modules[name]
    package = importlib.import_module("collatsim")
    if Path(package.__file__).resolve().parent != SRC / "collatsim":
        raise RuntimeError(f"collatsim imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"collatsim.{m}") for m in MODULES})


@contextlib.contextmanager
def work_dir():
    """A scratch directory under bench/out for one run's files."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_cli(cs, argv: list[str]) -> tuple[int, str]:
    """``collatsim ARGV`` in-process; returns the exit status and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cs.cli.main(argv)
    return status, buf.getvalue()


def param_flags(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


@dataclass
class Item:
    id: str
    kind: str  # items of one kind repeat across rounds
    units: int
    data: dict


class Workload:
    """One workload: its inputs from a seed, its items and their checks."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.spec = DESIGN["workloads"][self.name]
        self.size = self.spec["sizes"][size]
        self.seed = seed
        self.workdir = workdir

    def generate(self, cs) -> list[Item]:
        raise NotImplementedError

    def round_items(self, cs, inputs, r: int) -> list[Item]:
        return inputs

    def run_item(self, cs, item: Item):
        raise NotImplementedError

    def check(self, item: Item, output) -> tuple[list[str], dict, dict]:
        """Problems found, counts to sum over items, and the value projection."""
        raise NotImplementedError


class LongRun(Workload):
    name = "longrun"

    def generate(self, cs) -> list[Item]:
        rng = random.Random(self.seed)
        horizon = self.size["horizon"]
        items = []
        for entry in self.spec["items"]:
            stream = dict(self.spec["streams"][entry["stream"]],
                          horizon=horizon, seed=rng.randrange(2**31))
            seq = cs.workloads.gen_stochastic(cs.workloads.WorkloadSpec.from_json_obj(stream))
            base = self.workdir / entry["id"]
            cs.workloads.write_sequence_csv(seq, f"{base}.csv")
            argv = (["ratio", "--policy", entry["policy"], "--oracle", "window-bound",
                     "--seq", f"{base}.csv", "--trace", f"{base}.ndjson",
                     "--csv", f"{base}.results.csv", "--seed", str(self.seed)]
                    + param_flags(entry["params"]))
            items.append(Item(entry["id"], entry["id"], horizon, {
                "argv": argv, "base": base, "params": entry["params"],
                "pairs": [(t.slot, t.value) for t in seq],
            }))
        return items

    def run_item(self, cs, item: Item):
        return run_cli(cs, item.data["argv"])

    def check(self, item: Item, output):
        status, text = output
        base, params, pairs = item.data["base"], item.data["params"], item.data["pairs"]
        report = json.loads(text)
        with open(f"{base}.results.csv", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        with open(f"{base}.ndjson") as fh:
            events = [json.loads(line) for line in fh if line.strip()]
        projection = {"report": report, "csv": csv_rows,
                      "events": checks.events_summary(events)}
        problems = [] if status == 0 else [f"exit status {status}"]
        rows = report.get("rows", [])
        if len(rows) != 1 or len(csv_rows) != 1:
            return problems + ["expected one report row and one CSV row"], {}, projection
        row, crow = rows[0], csv_rows[0]
        if row.get("boundOk") not in (True, None):
            problems.append(f"boundOk is {row.get('boundOk')!r}")
        settled, opt = row.get("settledValue"), row.get("optValue")
        offered = sum(v for _, v in pairs)
        if not settled <= opt <= checks.window_bound(pairs, params["C"], params["F"]):
            problems.append(f"optValue {opt} outside [settled {settled}, window bound]")
        flushes = sum(1 for e in events if e.get("kind") == "flush")
        for column, value in (("n_tx", len(pairs)), ("offered_value", offered),
                              ("settled_value", settled), ("opt_value", opt),
                              ("flush_count", flushes)):
            if checks.as_number(crow.get(column)) != value:
                problems.append(f"CSV {column} is {crow.get(column)!r}, expected {value}")
        problems += checks.trace_problems(events, pairs, params, row)
        return problems, {"trace_events": len(events)}, projection


class OracleBatch(Workload):
    name = "oracle-batch"

    def generate(self, cs) -> list:
        """The cases; round_items makes each round's instances."""
        return [(case, cs.model.ModelParams(**case["params"])) for case in self.spec["cases"]]

    def round_items(self, cs, cases, r: int) -> list[Item]:
        """Round r's instances, from their own seed, so that memory does not
        grow with the number of rounds."""
        rng = random.Random(f"{self.seed}-{r}")
        lo_gap, hi_gap = self.spec["slot_gap"]
        items = []
        for n in self.size["n"]:
            for case, params in cases:
                slot, pairs = 0, []
                for _ in range(n):
                    slot += rng.randint(lo_gap, hi_gap)
                    pairs.append((slot, rng.randint(*case["values"])))
                config = cs.harness.ExperimentConfig(
                    params=params, policy=case["policy"], oracle=case["oracle"],
                    sequence=cs.model.TransactionSequence.from_pairs(pairs),
                    seed=self.seed,
                )
                kind = f"{case['oracle']}-n{n}"
                items.append(Item(f"r{r}-{kind}", kind, 1, {
                    "config": config, "case": case, "pairs": pairs,
                }))
        return items

    def run_item(self, cs, item: Item):
        return cs.harness.measure_ratio(item.data["config"])

    def check(self, item: Item, report):
        case, pairs = item.data["case"], item.data["pairs"]
        params = case["params"]
        if len(report.rows) != 1:
            return ["expected one report row"], {}, {}
        row = report.rows[0]
        res = row.result
        projection = {
            "n_tx": res.n_tx, "offered_value": res.offered_value,
            "settled_value": res.settled_value, "flush_count": res.flush_count,
            "utility": checks.canon(res.utility), "opt_value": row.opt_value,
            "opt_utility": checks.canon(row.opt_utility),
            "ratio_value": checks.canon(row.ratio_value),
            "ratio_utility": checks.canon(row.ratio_utility),
            "bound": row.bound, "bound_kind": row.bound_kind, "bound_ok": row.bound_ok,
        }
        problems = []
        if row.bound_ok is False:
            problems.append("bound_ok is False")
        if res.n_tx != len(pairs) or res.offered_value != sum(v for _, v in pairs):
            problems.append("run does not see the input sequence")
        upper = checks.window_bound(pairs, params["C"], params["F"])
        if not res.settled_value <= row.opt_value <= upper:
            problems.append(f"opt_value {row.opt_value} outside [settled, window bound {upper}]")
        if case["oracle"] == "brute-utility":
            p = Fraction(params["p_ppm"], 10**6)
            cap = row.opt_value * (p - Fraction(params["tau"], params["C"]))
            if not res.utility <= row.opt_utility <= cap:
                problems.append(f"opt_utility {row.opt_utility} outside [utility, {cap}]")
        return problems, {}, projection


class Exhaust(Workload):
    name = "exhaust"

    def generate(self, cs) -> list[Item]:
        length = self.size["max_len"]
        values = self.spec["values"]
        prefixes = (len(values) + 1) ** length - 1
        items = []
        for space in self.spec["spaces"]:
            argv = (["exhaust"] + param_flags(space)
                    + ["--max-len", str(length), "--values", ",".join(map(str, values))])
            name = f"C{space['C']}-F{space['F']}"
            items.append(Item(name, name, prefixes, {"argv": argv}))
        return items

    def run_item(self, cs, item: Item):
        return run_cli(cs, item.data["argv"])

    def check(self, item: Item, output):
        status, text = output
        report = json.loads(text)
        sequences = item.units + 1
        problems = [] if status == 0 else [f"exit status {status}"]
        for key, want in (("sequences", sequences), ("prefixesChecked", item.units),
                          ("counterexamples", []), ("invariantViolations", [])):
            if report.get(key) != want:
                problems.append(f"{key} is {report.get(key)!r:.200}, expected {want!r}")
        counts = {"sequences": report.get("sequences", 0),
                  "prefixes_checked": report.get("prefixesChecked", 0),
                  "flush_events_checked": report.get("flushEventsChecked", 0)}
        return problems, counts, report


WORKLOADS = {w.name: w for w in (LongRun, OracleBatch, Exhaust)}


def calibration_loop() -> int:
    """Fixed pure-Python work mixing what the program does most: small
    objects, dict and list traffic, integer and Fraction arithmetic."""
    table: dict[int, int] = {}
    rows = []
    acc = Fraction(0)
    for i in range(4000):
        key = i % 251
        table[key] = table.get(key, 0) + i
        rows.append((key, i & 7, i))
        if i % 8 == 0:
            acc += Fraction(i % 7 + 1, key + 1)
    rows.sort()
    return len(rows) + acc.numerator % 1000 + max(table.values())


class SpeedClock:
    """Scales wall time to a reference machine speed.

    Shared hosts change speed for seconds to minutes at a time, by more
    than the bounds this benchmark sets.  The calibration loop is timed
    between items, at most every ``every_s`` seconds, as the median of
    ``loops`` runs, and each item's wall time is multiplied by
    ref_s / (mean loop time just before and just after the item): it is
    reported in seconds of a machine that runs the loop in ``ref_s``.
    The loop runs none of the program's code.
    """

    def __init__(self, ref_s: float, every_s: float, loops: int):
        self.ref_s = ref_s
        self.every_s = every_s
        self.loops = loops
        self.samples: list[float] = []
        self._last = -float("inf")

    def calibrate(self, force: bool = False) -> int:
        """Time the loop if due (median of ``loops`` runs); returns the latest sample's index."""
        if force or time.perf_counter() - self._last >= self.every_s:
            runs = []
            for _ in range(self.loops):
                t0 = time.perf_counter()
                calibration_loop()
                runs.append(time.perf_counter() - t0)
            self.samples.append(statistics.median(runs))
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Factor for wall time measured between samples before and before+1."""
        after = min(before + 1, len(self.samples) - 1)
        return 2 * self.ref_s / (self.samples[before] + self.samples[after])


@dataclass
class Batch:
    times: list[float] = field(default_factory=list)  # wall seconds per item
    kinds: list[str] = field(default_factory=list)
    cal_before: list[int] = field(default_factory=list)  # calibration sample before each item
    units: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    projections: dict = field(default_factory=dict)  # filled only when recording
    rounds: int = 0

    def ref_times(self, clock: SpeedClock) -> list[float]:
        return [t * clock.scale(i) for t, i in zip(self.times, self.cal_before)]


def run_batch(wl: Workload, cs, inputs, expected: dict, clock: SpeedClock,
              rounds: int | None = None, seconds: float | None = None,
              tracer: Tracer | None = None, record: bool = False) -> Batch:
    """Whole rounds of items, until ``rounds`` are done, or until ``seconds``
    have passed and at least min_timed_items items have run.  With
    ``record`` the batch keeps each item's value projection."""
    batch = Batch()
    start = time.perf_counter()
    while True:
        for item in wl.round_items(cs, inputs, batch.rounds):
            batch.cal_before.append(clock.calibrate())
            batch.kinds.append(item.kind)
            if tracer is not None:
                tracer.item = item.id
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = wl.run_item(cs, item)
                else:
                    output = tracer.region("bench.item", wl.run_item, cs, item)
            except Exception as exc:  # one failing item must not stop the run
                batch.times.append(time.perf_counter() - t0)
                batch.failures.append(f"{item.id}: {type(exc).__name__}: {exc}")
                continue
            batch.times.append(time.perf_counter() - t0)
            try:
                problems, counts, projection = wl.check(item, output)
            except Exception as exc:  # an unreadable output is a failed item
                problems, counts, projection = [f"{type(exc).__name__}: {exc}"], {}, {}
            want = expected.get(item.id)
            if want is not None:
                problems += checks.diff(want, projection)
            if problems:
                batch.failures.append(f"{item.id}: {'; '.join(problems[:3])}")
                continue
            batch.units += item.units
            if record:
                batch.projections.setdefault(item.id, projection)
            for key, value in counts.items():
                batch.counts[key] = batch.counts.get(key, 0) + value
        batch.rounds += 1
        if (rounds is not None and batch.rounds >= rounds) or (
                seconds is not None and time.perf_counter() - start >= seconds
                and len(batch.times) >= DESIGN["min_timed_items"]):
            clock.calibrate(force=True)
            return batch


def load_expected(workload: str, size: str, seed: int) -> dict:
    path = BENCH / "expected" / f"{workload}.json"
    if not path.exists():
        return {}
    by_seed = json.loads(path.read_text()).get(size, {})
    return by_seed.get(str(seed), by_seed.get("*", {}))


def end_to_end(setup_times: list[float], item_times: list[float], units: int) -> dict:
    ms = [t * 1e3 for t in item_times]
    return {
        "setup_s": statistics.median(setup_times),
        "units_per_s": units / sum(item_times),
        "item_ms_p50": statistics.median(ms),
        "item_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[-1]
                        if len(ms) > 1 else ms[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, traced: Batch, scale: float, overhead: float,
              failed_frac: float) -> dict:
    """Layer metrics of the traced pass; times scaled like the item times."""
    calls = {g: s[0] for g, s in tracer.stats.items()}
    busy = {g: s[1] * scale for g, s in tracer.stats.items()}
    own = {g: s[2] * scale for g, s in tracer.stats.items()}
    wall = sum(traced.times) * scale
    out = {}
    for group in ("model.validate_window_bound", "model.bank", "model.pool", "model.clone",
                  "oracles.opt_general_value", "oracles.opt_kwallet_value",
                  "oracles.opt_general_utility", "oracles.opt_value_extend"):
        out[f"{group}.busy_s"] = busy.get(group, 0.0)
        out[f"{group}.calls"] = calls.get(group, 0)
    for group in ("model.to_ndjson", "oracles.window_upper_bound",
                  "workloads.gen_stochastic", "workloads.read_sequence_csv",
                  "formulas", "harness.write"):
        out[f"{group}.busy_s"] = busy.get(group, 0.0)
    out["policies.step.self_s"] = own.get("policies.step", 0.0)
    out["policies.step.calls"] = calls.get("policies.step", 0)
    for kind in ("fa", "fwf", "ftwf", "rand2", "eta"):
        out[f"policies.step.{kind}.self_s"] = own.get(f"policies.step.{kind}", 0.0)
    out["policies.clone.self_s"] = own.get("policies.clone", 0.0)
    out["policies.clone.calls"] = calls.get("policies.clone", 0)
    for group in ("harness.run_sequence", "harness.measure_ratio",
                  "harness.exhaustive_verify", "cli.main"):
        out[f"{group}.self_s"] = own.get(group, 0.0)
    out["exhaust.sequences"] = traced.counts.get("sequences", 0)
    out["exhaust.prefixes_checked"] = traced.counts.get("prefixes_checked", 0)
    out["exhaust.flush_events_checked"] = traced.counts.get("flush_events_checked", 0)
    out["longrun.trace_events"] = traced.counts.get("trace_events", 0)
    out["oracle-batch.oracle_calls"] = sum(calls.get(g, 0) for g in EXACT_ORACLES)
    out["model.validate_window_bound.share"] = busy.get("model.validate_window_bound", 0.0) / wall
    out["oracles.exact.share"] = sum(busy.get(g, 0.0) for g in EXACT_ORACLES) / wall
    out["clone.share"] = (busy.get("model.clone", 0.0) + own.get("policies.clone", 0.0)) / wall
    out["trace_overhead_frac"] = overhead
    out["failed_frac"] = failed_frac
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_frac")):
        return "frac"
    return "count"


def run_context() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def setup_only(workload: str, seed: int, size: str) -> float:
    """Set up as a run does; returns the monotonic clock when the inputs are ready."""
    with work_dir() as workdir:
        wl = WORKLOADS[workload](seed, size, workdir)
        wl.generate(import_collatsim())
        return time.monotonic()


def timed_setups(workload: str, seed: int, size: str, clock: SpeedClock) -> tuple[list, list]:
    """Wall and reference-speed seconds of setup_repeats set-ups, each in a
    fresh process and timed from its start until its inputs are ready.
    time.monotonic reads one clock for the whole machine on Linux and macOS."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload,
            "--seed", str(seed), "--size", size]
    wall, ref = [], []
    for _ in range(DESIGN["setup_repeats"]):
        before = clock.calibrate(force=True)
        t0 = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        wall.append(float(proc.stdout.split()[-1]) - t0)
        clock.calibrate(force=True)
        ref.append(wall[-1] * clock.scale(before))
    return wall, ref


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        expected: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (details, result)."""
    load_start = os.getloadavg()[0]
    if expected is None:
        expected = load_expected(workload, size, seed)
    clock = SpeedClock(**DESIGN["calibration"])
    setup_wall, setup_ref = ([], []) if trace else timed_setups(workload, seed, size, clock)
    with work_dir() as workdir:
        cs = import_collatsim()
        wl = WORKLOADS[workload](seed, size, workdir)
        inputs = wl.generate(cs)
        # one untimed round first, so lazy set-up inside the program is not timed
        warm = run_batch(wl, cs, inputs, expected, clock, rounds=1)
        if not trace:
            plain = run_batch(wl, cs, inputs, expected, clock, seconds=seconds)
            batches = [warm, plain]
        else:
            trace_rounds = wl.size["trace_rounds"]
            plain = run_batch(wl, cs, inputs, expected, clock, rounds=trace_rounds)
            tracer = Tracer()
            tracer.install(cs)
            try:
                inputs = tracer.region("setup.generate", wl.generate, cs)
                traced = run_batch(wl, cs, inputs, expected, clock, rounds=trace_rounds,
                                   tracer=tracer)
            finally:
                tracer.uninstall()
            batches = [warm, plain, traced]
    attempted = sum(len(b.times) for b in batches)
    failed = sum(len(b.failures) for b in batches)
    plain_ref = plain.ref_times(clock)
    wall_metrics = None if trace else end_to_end(setup_wall, plain.times, plain.units)
    if trace:
        traced_ref = traced.ref_times(clock)
        metrics = per_layer(tracer, traced, sum(traced_ref) / sum(traced.times),
                            sum(traced_ref) / sum(plain_ref) - 1, failed / attempted)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(setup_ref, plain_ref, plain.units)
        units = END_TO_END_UNITS
    by_kind: dict[str, list[float]] = {}
    for kind, t in zip(plain.kinds, plain_ref):
        by_kind.setdefault(kind, []).append(t * 1e3)
    details = {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds,
        "trace": int(trace), "unit": wl.spec["unit"],
        "context": dict(run_context(), loadavg_1m_start=load_start,
                        loadavg_1m_end=os.getloadavg()[0]),
        "rounds": [b.rounds for b in batches], "items": [len(b.times) for b in batches],
        "units": [b.units for b in batches],
        "calibration_s": {"ref": clock.ref_s, "samples": len(clock.samples),
                          "median": statistics.median(clock.samples),
                          "min": min(clock.samples), "max": max(clock.samples)},
        "wall_metrics": wall_metrics, "setup_s_all": setup_ref,
        "item_ms_p50_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "expected_items": len(expected), "failed_frac": failed / attempted,
        "failures": [f for b in batches for f in b.failures][:10],
    }
    if trace:
        details["missing_hooks"] = tracer.missing
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = dict(details=details, result=result, item_s=plain.times, item_ref_s=plain_ref)
    if trace:
        record["groups"] = {g: dict(zip(("calls", "busy_s", "self_s"), s))
                            for g, s in sorted(tracer.stats.items())}
        record["spans"] = tracer.spans_json()
    out_file = OUT / f"{workload}-{size}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1))
    return details, result


def collect_projections(workload: str, seed: int, size: str) -> dict:
    """Value projections of the first expected_rounds rounds, keyed by item id."""
    with work_dir() as workdir:
        cs = import_collatsim()
        wl = WORKLOADS[workload](seed, size, workdir)
        batch = run_batch(wl, cs, wl.generate(cs), {}, SpeedClock(**DESIGN["calibration"]),
                          rounds=wl.size["expected_rounds"], record=True)
    if batch.failures:
        raise RuntimeError(f"cannot record from a failing run: {batch.failures[:3]}")
    return batch.projections


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DESIGN["default_seed"])
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs small inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the monotonic clock and exit (one timed set-up)")
    args = parser.parse_args(argv)
    if not (SRC / "collatsim" / "__init__.py").is_file():
        print(f"error: no collatsim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(setup_only(args.workload, args.seed, args.size))
        return 0
    details, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
