"""Command-line front end.

Subcommands: simulate, ratio, adversary, exhaust, sweep, formulas.
Each prints a JSON summary to stdout; simulate and ratio can also write
the results CSV and an NDJSON event trace.  Exit status is nonzero when
a checked bound fails or a verification finds a counterexample.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .harness import (
    ADVERSARY_KINDS,
    ORACLE_KINDS,
    ExhaustSpace,
    ExperimentConfig,
    exhaustive_verify,
    measure_ratio,
    run_adversary_demo,
    run_policy,
    sweep,
)
from .formulas import formulas_report
from .model import PPM, CollateralError, ModelParams
from .policies import POLICY_KINDS
from .workloads import InvalidSpec, WorkloadSpec


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--C", type=int)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--T", type=int)
    sub.add_argument("--F", type=int)
    sub.add_argument("--eta-ppm", type=int, default=None)
    sub.add_argument("--p-ppm", type=int, default=PPM)
    sub.add_argument("--tau", type=int, default=0)


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON experiment config file")
    sub.add_argument("--policy", choices=POLICY_KINDS)
    _add_param_flags(sub)
    sub.add_argument("--workload", help="workload spec: JSON file or inline JSON")
    sub.add_argument("--seq", help="transaction sequence CSV (header slot,value)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--repetitions", type=int, default=1)
    sub.add_argument("--trace", help="write NDJSON event trace here")
    sub.add_argument("--csv", help="write results CSV here")


def _workload_from_arg(arg: str) -> WorkloadSpec:
    text = arg
    if not arg.lstrip().startswith("{"):
        with open(arg) as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvalidSpec(f"workload is not valid JSON: {err}") from None
    return WorkloadSpec.from_json_obj(obj)


def _require_flags(flags: dict, context: str = "") -> None:
    missing = [name for name, v in flags.items() if v is None]
    if missing:
        raise CollateralError(
            f"missing required flags{context}: {', '.join('--' + m for m in missing)}"
        )


def _config_from_args(args, oracle: str | None = None) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config)
        if oracle is not None:
            from dataclasses import replace

            config = replace(config, oracle=oracle)
        if args.trace:
            config.trace_path = args.trace
        if args.csv:
            config.csv_path = args.csv
        return config
    _require_flags(
        {"policy": args.policy, "C": args.C, "T": args.T, "F": args.F}, " without --config"
    )
    params = ModelParams(
        C=args.C, T=args.T, F=args.F, k=args.k,
        p_ppm=args.p_ppm, tau=args.tau, eta_ppm=args.eta_ppm,
    )
    workload = _workload_from_arg(args.workload) if args.workload else None
    return ExperimentConfig(
        params=params,
        policy=args.policy,
        seed=args.seed,
        workload=workload,
        seq_file=args.seq,
        oracle=oracle if oracle is not None else "brute-general",
        repetitions=args.repetitions,
        csv_path=args.csv,
        trace_path=args.trace,
    )


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _frac(f: Fraction | float | None):
    if f is None:
        return None
    if f == math.inf:
        return "inf"
    f = Fraction(f)
    return {"num": f.numerator, "den": f.denominator}


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    result = run_policy(config)
    _emit(
        {
            "policy": config.policy,
            "nTx": result.n_tx,
            "offeredValue": result.offered_value,
            "settledValue": result.settled_value,
            "flushCount": result.flush_count,
            "utility": _frac(result.utility),
        }
    )
    return 0


def cmd_ratio(args) -> int:
    config = _config_from_args(args, oracle=args.oracle)
    report = measure_ratio(config)
    rows = []
    for r in report.rows:
        rows.append(
            {
                "runId": r.run_id,
                "settledValue": r.result.settled_value,
                "optValue": r.opt_value,
                "optIsUpperBound": r.opt_is_upper_bound,
                "ratioValue": _frac(r.ratio_value),
                "ratioUtility": _frac(r.ratio_utility),
                "bound": r.bound,
                "boundKind": r.bound_kind,
                "boundOk": r.bound_ok,
            }
        )
    _emit({"policy": config.policy, "oracle": config.oracle, "rows": rows})
    return 0 if report.all_bounds_ok() else 1


def cmd_adversary(args) -> int:
    _require_flags({"C": args.C, "F": args.F})
    params = ModelParams(
        C=args.C, T=args.T if args.T is not None else args.C, F=args.F,
        k=args.k, p_ppm=args.p_ppm, tau=args.tau, eta_ppm=args.eta_ppm,
    )
    report = run_adversary_demo(
        args.type, args.target, params, args.epsilon, args.rounds, seed=args.seed
    )
    _emit(
        {
            "adversary": report.kind,
            "target": report.target,
            "nTx": len(report.seq),
            "algValue": report.result.settled_value,
            "optValue": report.opt_value,
            "optExact": report.opt_exact,
            "ratio": _frac(report.ratio),
        }
    )
    return 0


def cmd_exhaust(args) -> int:
    try:
        values = tuple(int(v) for v in args.values.split(","))
    except ValueError:
        raise CollateralError(
            f"--values must be comma-separated integers, got {args.values!r}"
        ) from None
    space = ExhaustSpace(
        C=args.C, k=args.k, T=args.T, F=args.F, max_len=args.max_len, values=values
    )
    summary = exhaustive_verify(space)
    _emit(
        {
            "sequences": summary.sequences,
            "prefixesChecked": summary.prefixes_checked,
            "flushEventsChecked": summary.flush_events_checked,
            "policies": {name: float(b) for name, b in summary.policies.items()},
            "counterexamples": [
                {
                    "policy": c.policy,
                    "sequence": list(c.pairs),
                    "optValue": c.opt_value,
                    "algValue": c.alg_value,
                    "bound": float(c.bound),
                }
                for c in summary.counterexamples
            ],
            "invariantViolations": summary.invariant_violations,
        }
    )
    return 0 if summary.ok() else 1


MAX_SWEEP_VALUES = 10_000


def cmd_sweep(args) -> int:
    if not args.step > 0:
        raise CollateralError(f"--step must be positive, got {args.step}")
    # below one ulp of the largest endpoint, v += step can stop advancing
    if args.step < math.ulp(max(abs(args.from_), abs(args.to + 1e-12))):
        raise CollateralError(f"--step {args.step} is too small to advance")
    if (args.to - args.from_) / args.step > MAX_SWEEP_VALUES:
        raise CollateralError(f"sweep would exceed {MAX_SWEEP_VALUES} values")
    config = _config_from_args(args)
    values = []
    v = args.from_
    while v <= args.to + 1e-12:
        values.append(round(v, 10))
        v += args.step
    rows = sweep(config, args.param, values)
    out_rows = []
    for r in rows:
        out_rows.append(
            {
                "value": r.value,
                "error": r.error,
                "meanSettled": _frac(r.mean_settled),
                "meanFlushes": _frac(r.mean_flushes),
                "meanUtility": _frac(r.mean_utility),
                "worstRatio": r.worst_ratio,
                "empiricalBest": r.empirical_best,
            }
        )
    _emit(
        {
            "param": args.param,
            "formulaOptimum": rows[0].formula_optimum if rows else None,
            "rows": out_rows,
        }
    )
    if args.csv:
        import csv as _csv

        with open(args.csv, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(
                [
                    "param", "value", "error", "mean_settled", "mean_flushes",
                    "mean_utility", "worst_ratio", "empirical_best", "formula_optimum",
                ]
            )
            for r in rows:
                w.writerow(
                    [
                        r.param, r.value, r.error or "",
                        "" if r.mean_settled is None else float(r.mean_settled),
                        "" if r.mean_flushes is None else float(r.mean_flushes),
                        "" if r.mean_utility is None else float(r.mean_utility),
                        "" if r.worst_ratio is None else r.worst_ratio,
                        str(r.empirical_best).lower(), r.formula_optimum,
                    ]
                )
    return 0


def cmd_formulas(args) -> int:
    p_ppm = args.p_ppm if args.tau is not None else None
    report = formulas_report(args.C, args.T, k=args.k, p_ppm=p_ppm, tau=args.tau)
    _emit(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatsim",
        description="simulate and verify online collateral maintenance policies",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run one policy over one workload")
    _add_run_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    rat = subs.add_parser("ratio", help="run and compare against an oracle")
    _add_run_flags(rat)
    rat.add_argument("--oracle", choices=ORACLE_KINDS, default="brute-general")
    rat.set_defaults(func=cmd_ratio)

    adv = subs.add_parser("adversary", help="play an adversarial construction")
    adv.add_argument("--type", choices=ADVERSARY_KINDS, required=True)
    adv.add_argument("--target", choices=POLICY_KINDS, required=True)
    adv.add_argument("--epsilon", type=int, default=1)
    adv.add_argument("--rounds", type=int, default=5)
    _add_param_flags(adv)
    adv.add_argument("--seed", type=int, default=0)
    adv.set_defaults(func=cmd_adversary)

    exh = subs.add_parser("exhaust", help="verify bounds on every small sequence")
    exh.add_argument("--C", type=int, required=True)
    exh.add_argument("--k", type=int, required=True)
    exh.add_argument("--T", type=int, required=True)
    exh.add_argument("--F", type=int, required=True)
    exh.add_argument("--max-len", type=int, required=True)
    exh.add_argument("--values", required=True, help="comma-separated value alphabet")
    exh.set_defaults(func=cmd_exhaust)

    swp = subs.add_parser("sweep", help="scan eta or k against the formula optimum")
    swp.add_argument("--param", choices=("eta", "k"), required=True)
    swp.add_argument("--from", dest="from_", type=float, required=True)
    swp.add_argument("--to", type=float, required=True)
    swp.add_argument("--step", type=float, required=True)
    _add_run_flags(swp)
    swp.set_defaults(func=cmd_sweep)

    frm = subs.add_parser("formulas", help="print the closed forms for given params")
    frm.add_argument("--C", type=int, required=True)
    frm.add_argument("--T", type=int, required=True)
    frm.add_argument("--k", type=int, default=None)
    frm.add_argument("--p-ppm", type=int, default=PPM)
    frm.add_argument("--tau", type=int, default=None)
    frm.set_defaults(func=cmd_formulas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CollateralError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        where = f"{err.filename}: " if err.filename else ""
        print(f"error: {where}{err.strerror or err}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        print(f"error: input is not UTF-8 text: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
