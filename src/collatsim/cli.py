"""Command-line front end.

Subcommands: simulate, ratio, adversary, exhaust, sweep, formulas.
Each prints a JSON summary to stdout; simulate and ratio can also write
the results CSV and an NDJSON event trace.  Exit status is nonzero when
a checked bound fails or a verification finds a counterexample.

simulate, ratio and sweep read their settings as one JSON config object:
each run flag given sets its field of the --config file's object, or of
{} without one, and ExperimentConfig.from_json_obj reads the result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from fractions import Fraction

from .harness import (
    ADVERSARY_KINDS,
    ORACLE_KINDS,
    PARAMS_FIELDS,
    ExhaustSpace,
    ExperimentConfig,
    exhaustive_verify,
    measure_ratio,
    run_adversary_demo,
    run_policy,
    sweep,
)
from .formulas import formulas_report
from .model import CollateralError, ModelParams, load_json, typed_field
from .policies import POLICY_KINDS


# each run flag and the config field it sets, "field" or "section.field"
FLAG_FIELDS = {
    **{name: f"params.{name}" for name in PARAMS_FIELDS},
    "policy": "policy", "seed": "seed", "repetitions": "repetitions", "oracle": "oracle",
    "csv": "outputs.csv", "trace": "outputs.trace", "seq": "seqFile", "workload": "workload",
}


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--C", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--T", type=int)
    sub.add_argument("--F", type=int)
    sub.add_argument("--eta-ppm", type=int)
    sub.add_argument("--p-ppm", type=int)
    sub.add_argument("--tau", type=int)


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON experiment config file")
    sub.add_argument("--policy", choices=POLICY_KINDS)
    _add_param_flags(sub)
    sub.add_argument(
        "--workload",
        help="workload spec: inline JSON when the value opens an object or array or is a "
        "whole JSON value (0, \"x\", null, ...), else the JSON file it names",
    )
    sub.add_argument("--seq", help="transaction sequence CSV (header slot,value)")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--repetitions", type=int)
    sub.add_argument("--trace", help="write NDJSON event trace here")
    sub.add_argument("--csv", help="write results CSV here")


def _require_flags(flags: dict, context: str = "") -> None:
    missing = [name for name, v in flags.items() if v is None]
    if missing:
        raise CollateralError(
            f"missing required flags{context}: {', '.join('--' + m for m in missing)}"
        )


def _inline_json(text: str) -> bool:
    """Whether a --workload value is JSON itself rather than a file name: it
    opens an object or an array, or it is a whole JSON value.  Malformed
    text that opens an object or an array is still read as JSON, so its
    error names the syntax, not a missing file."""
    if text.lstrip().startswith(("{", "[")):
        return True
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


def _config_from_args(args) -> ExperimentConfig:
    """The run's config: the run flags laid over the --config file's object, or over {}.

    Each flag given sets its field, and --seq or --workload first removes
    the file's source; ExperimentConfig.from_json_obj then reads the result.
    """
    if args.config:
        obj = load_json(args.config, "config")
    else:
        _require_flags(
            {"policy": args.policy, "C": args.C, "T": args.T, "F": args.F}, " without --config"
        )
        obj = {}
    typed_field("config", obj, "an object")
    given = {
        field: value for name, field in FLAG_FIELDS.items()
        if (value := getattr(args, name, None)) is not None
    }
    if "seqFile" in given or "workload" in given:
        obj.pop("seqFile", None)
        obj.pop("workload", None)
    for field, value in given.items():
        if field == "workload":
            value = load_json(value, "workload", _inline_json(value))
        section, _, key = field.rpartition(".")
        target = obj.setdefault(section, {}) if section else obj
        typed_field(section or "config", target, "an object")[key] = value
    return ExperimentConfig.from_json_obj(obj)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _frac(f: Fraction | float | None):
    if f is None:
        return None
    if f == math.inf:
        return "inf"
    return {"num": f.numerator, "den": f.denominator}


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    if config.repetitions != 1:
        raise CollateralError(
            f"simulate runs one repetition, got {config.repetitions}; ratio runs several"
        )
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
    config = _config_from_args(args)
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
    given = {name: v for name in PARAMS_FIELDS if (v := getattr(args, name)) is not None}
    params = ModelParams(**{"T": args.C, **given})  # T defaults to C
    row = run_adversary_demo(
        args.type, args.target, params, args.epsilon, args.rounds, seed=args.seed
    )
    _emit(
        {
            "adversary": args.type,
            "target": args.target,
            "nTx": row.result.n_tx,
            "algValue": row.result.settled_value,
            "optValue": row.opt_value,
            "ratio": _frac(row.ratio_value),
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


def _exact_decimal(text: str) -> Fraction:
    """A --from, --to or --step text as the exact decimal it reads.  Only a
    finite decimal with an exponent of at most 3 digits is read: Fraction(text)
    works out 10**exponent."""
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").lstrip("0_")
    with contextlib.suppress(ValueError):  # float() reads decimals alone: no "1/0"
        if math.isfinite(float(text)) and len(exponent) <= 3:
            return Fraction(text)
    raise argparse.ArgumentTypeError(
        f"not a finite decimal with an exponent of at most 3 digits: {text!r}"
    )


def cmd_sweep(args) -> int:
    lo, hi, step = args.from_, args.to, args.step
    if not step > 0:
        raise CollateralError(f"--step must be positive, got {float(step)}")
    if lo > hi:
        raise CollateralError(f"--from {float(lo)} is above --to {float(hi)}: no setting to run")
    if (hi - lo) / step > MAX_SWEEP_VALUES:
        raise CollateralError(f"sweep would exceed {MAX_SWEEP_VALUES} values")
    config = _config_from_args(args)
    if config.trace_path:
        raise CollateralError(f"sweep writes no trace, got {config.trace_path!r}")
    values = [lo + i * step for i in range(int((hi - lo) / step) + 1)]
    rows = sweep(config, args.param, values)
    out_rows = []
    for r in rows:
        out_rows.append(
            {
                "value": float(r.value),
                "error": r.error,
                "meanSettled": _frac(r.mean_settled),
                "meanFlushes": _frac(r.mean_flushes),
                "meanUtility": _frac(r.mean_utility),
                "worstRatio": _frac(r.worst_ratio),
                "empiricalBest": r.empirical_best,
            }
        )
    _emit(
        {
            "param": args.param,
            "formulaOptimum": rows[0].formula_optimum,
            "rows": out_rows,
        }
    )
    return 0


def cmd_formulas(args) -> int:
    _emit(formulas_report(args.C, args.T, k=args.k, p_ppm=args.p_ppm, tau=args.tau))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's refusals, the subparsers' too, as one ``error: …`` line, exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args leaves it as it was."""
    parser = _Parser(
        prog="collatsim",
        description="simulate and verify online collateral maintenance policies",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run one policy over one workload")
    _add_run_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    rat = subs.add_parser("ratio", help="run and compare against an oracle")
    _add_run_flags(rat)
    rat.add_argument("--oracle", choices=ORACLE_KINDS)
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
    swp.add_argument("--from", dest="from_", type=_exact_decimal, required=True)
    swp.add_argument("--to", type=_exact_decimal, required=True)
    swp.add_argument("--step", type=_exact_decimal, required=True)
    _add_run_flags(swp)
    swp.set_defaults(func=cmd_sweep)

    frm = subs.add_parser("formulas", help="print the closed forms for given params")
    frm.add_argument("--C", type=int, required=True)
    frm.add_argument("--T", type=int, required=True)
    frm.add_argument("--k", type=int, default=None)
    frm.add_argument("--p-ppm", type=int, default=ModelParams.p_ppm)  # as ModelParams
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
        # an empty name is shown quoted, so that the message still names it
        where = "" if err.filename is None else f"{err.filename or repr(err.filename)}: "
        print(f"error: {where}{err.strerror or err}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        print(f"error: input is not UTF-8 text: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
