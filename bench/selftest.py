#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny inputs (about ten seconds).

    python3 bench/selftest.py

Not named test_*.py on purpose: the repository's pytest suite does not
collect it.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracer

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench_cli(*args, cwd=run.ROOT, script=run.BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def generated_pairs(workload: str, seed: int) -> list:
    with run.work_dir() as workdir:
        cs = run.import_collatsim()
        wl = run.WORKLOADS[workload](seed, "tiny", workdir)
        items = wl.round_items(cs, wl.generate(cs), 0)
        return [item.data.get("pairs", item.data.get("argv")) for item in items]


def corrupt(projection):
    """The projection with its first number changed."""
    if isinstance(projection, dict):
        for key, value in projection.items():
            changed = corrupt(value)
            if changed is not None:
                return dict(projection, **{key: changed})
    if isinstance(projection, list):
        for i, value in enumerate(projection):
            changed = corrupt(value)
            if changed is not None:
                return projection[:i] + [changed] + projection[i + 1:]
    if isinstance(projection, int) and not isinstance(projection, bool):
        return projection + 1
    return None


class BenchmarkTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(parents=True, exist_ok=True)

    def test_benchmark_json_matches_design(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        self.assertEqual(set(run.DESIGN["workloads"]), set(run.WORKLOADS))
        self.assertEqual([m["name"] for m in BENCHMARK["end_to_end"]], list(run.END_TO_END_UNITS))

    def test_smoke_prints_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench_cli("--workload", workload, "--seed", "1", "--seconds", "0.2",
                                     "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCHMARK[listed]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))

    def test_same_seed_gives_same_inputs_and_outputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(generated_pairs(workload, 5), generated_pairs(workload, 5))
                self.assertEqual(run.collect_projections(workload, 5, "tiny"),
                                 run.collect_projections(workload, 5, "tiny"))

    def test_different_seed_changes_stochastic_inputs(self):
        for workload in ("longrun", "oracle-batch"):
            with self.subTest(workload=workload):
                self.assertNotEqual(generated_pairs(workload, 5), generated_pairs(workload, 6))

    def test_corrupted_expectation_is_a_failed_item(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                expected = run.collect_projections(workload, 3, "tiny")
                item_id = sorted(expected)[0]
                bad = copy.deepcopy(expected)
                bad[item_id] = corrupt(bad[item_id])
                self.assertIsNotNone(bad[item_id])
                details, result = run.run(workload, 3, 0.1, False, "tiny", expected=bad)
                self.assertGreater(result["failed"], 0)
                self.assertGreater(details["failed_frac"], 0)
                self.assertFalse(result["correct"])

    def test_traced_outputs_pass_the_untraced_expectations(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                expected = run.collect_projections(workload, 3, "tiny")
                details, result = run.run(workload, 3, 0.1, True, "tiny", expected=expected)
                self.assertEqual(result["failed"], 0, details["failures"])
                self.assertEqual(details["missing_hooks"], [])
                self.assertGreater(result["metrics"]["policies.step.calls"]["value"], 0)

    def test_tracer_restores_every_hook(self):
        cs = run.import_collatsim()
        before = {(m, a): getattr(getattr(cs, m), a) for m, a, _, _ in tracer.MODULE_HOOKS}
        step = cs.policies.FlushAllPolicy.step
        tr = tracer.Tracer()
        tr.install(cs)
        self.assertIsNot(cs.policies.FlushAllPolicy.step, step)
        tr.uninstall()
        self.assertIs(cs.policies.FlushAllPolicy.step, step)
        for (m, a), fn in before.items():
            self.assertIs(getattr(getattr(cs, m), a), fn)

    def test_without_program_sources_exits_nonzero_without_result(self):
        bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out"))
            proc = bench_cli("--workload", "longrun", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare, script=bare / "bench" / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
