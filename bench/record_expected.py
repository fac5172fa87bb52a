#!/usr/bin/env python3
"""Record the expected output values of the current program.

    python3 bench/record_expected.py

Writes bench/expected/<workload>.json for the default and the held-out
seed of bench/design.json, keyed by size ("full"), then seed, then item
id.  exhaust does not depend on the seed and is stored under "*".
Record only from a commit whose outputs are known to be right: run.py
counts every later difference as a failed item.
"""

import json
import sys

import run


def main() -> int:
    seeds = [run.DESIGN["default_seed"], run.DESIGN["held_out_seed"]]
    sys.path.insert(0, str(run.SRC))
    (run.BENCH / "expected").mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        by_seed = {}
        for seed in seeds if workload != "exhaust" else ["*"]:
            projections = run.collect_projections(
                workload, run.DESIGN["default_seed"] if seed == "*" else seed, "full")
            by_seed[str(seed)] = projections
            print(f"{workload} seed {seed}: {len(projections)} items")
        path = run.BENCH / "expected" / f"{workload}.json"
        path.write_text(json.dumps({"full": by_seed}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
