"""Experiment harness: run policies, compare against oracles, verify bounds.

The pieces, bottom up: ``run_sequence`` drives one policy over one
sequence and validates the window invariant on the produced trace;
``measure_ratio`` adds an oracle and the formula bound for the policy;
``exhaustive_verify`` enumerates every sequence over a small alphabet and
checks the competitive bound on every prefix with exact integer
arithmetic; ``sweep`` scans eta or k and marks the empirical optimum
next to the formula one; ``run_adversary`` plays an adaptive adversary
against a policy in lockstep.

Results serialize to a fixed-column CSV; traces to newline-delimited
JSON.  Identical config and seed reproduce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import formulas
from .model import (
    CollateralError,
    EventTrace,
    ModelParams,
    RunResult,
    Transaction,
    TransactionSequence,
    validate_window_bound,
)
from .oracles import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    OracleBudget,
    greedy_feasible_value,
    opt_general_utility,
    opt_general_value,
    opt_kwallet_value,
    opt_utility_upper_bound,
    opt_value_extend,
    window_upper_bound,
)
from .policies import make_policy
from .workloads import (
    DONE,
    GAP,
    Thm3Adversary,
    WorkloadSpec,
    epoch_burst_seq,
    fwf_killer_seq,
    gen_stochastic,
    read_sequence_csv,
)


class ConfigError(CollateralError):
    pass


ORACLE_KINDS = ("brute-general", "brute-kwallet", "brute-utility", "window-bound")


def run_sequence(
    policy,
    seq: TransactionSequence,
    terminal_flushes: bool = False,
    charge: str = "per-wallet",
) -> RunResult:
    """Drive a policy over a sequence; returns exact totals.

    ``terminal_flushes`` asks wallet policies to flush leftover
    committed value after the last slot (utility accounting); the
    threshold policy always flushes its residue.  ``charge`` picks how
    utility counts flushes: per wallet flushed ("per-wallet", the
    default) or per flush action ("per-action", where a simultaneous
    multi-wallet flush costs one fee).
    """
    if charge not in ("per-wallet", "per-action"):
        raise ConfigError(f"unknown flush charge mode {charge!r}")
    seq.validate_values(policy.params.T)
    actions = 0
    for slot in range(1, seq.horizon + 1):
        decision = policy.step(slot, seq.at(slot))
        if decision.flushed or decision.flush_amount is not None:
            actions += 1
    return _close_run(policy, seq, actions, terminal_flushes, charge)


def _close_run(policy, seq, actions, terminal_flushes, charge) -> RunResult:
    """Both drivers' tail: the final flushes, the window check and the totals."""
    if policy.finish(seq.horizon, terminal_flushes):  # falsy if nothing flushed
        actions += 1
    validate_window_bound(policy.machine.trace, policy.params)
    return RunResult.from_machine(policy.machine, seq, actions, charge)


def value_bound_fraction(kind: str, params: ModelParams) -> Fraction | None:
    """Exact settled-value competitive bound for a policy, if one exists."""
    r = params.load_ratio
    k = params.k
    if kind == "fa":
        if r == 1:
            return Fraction(3) if k > 1 else None
        return (2 - r) / (1 - r)
    if kind == "fwf":
        if k <= 1 or r >= 1:
            return None
        return Fraction(k + 1) / (k * (1 - r))
    if kind == "ftwf":
        if k % 2 == 0 and r == 1:
            return Fraction(2 * (k + 1), k)
        return None
    if kind == "eta":
        eta = params.eta
        if eta + Fraction(params.T, params.C) < 1:
            return 1 / (1 - eta - Fraction(params.T, params.C))
        return None
    return None  # rand2 guarantees expectation only


def utility_bound_fraction(params: ModelParams) -> Fraction | None:
    """Exact utility bound for the threshold policy, if in domain."""
    try:
        return formulas.eta_alpha_exact(
            params.eta_ppm, params.C, params.T, params.p_ppm, params.tau
        )
    except formulas.DomainError:
        return None


def ratio_of(opt, alg) -> Fraction | float:
    """Exact opt/alg with the 0/0 -> 1 convention; nonpositive alg -> inf."""
    if opt == alg:
        return Fraction(1)
    if alg > 0:
        return Fraction(opt) / Fraction(alg)
    return math.inf


@dataclass
class RatioRow:
    run_id: int
    seed: int
    seq: TransactionSequence
    result: RunResult
    opt_value: int | None
    opt_utility: Fraction | None
    opt_is_upper_bound: bool
    ratio_value: Fraction | float | None
    ratio_utility: Fraction | float | None
    bound: float | None
    bound_kind: str | None  # 'value' | 'utility'
    slack: Fraction
    bound_ok: bool | None


@dataclass
class RatioReport:
    config: "ExperimentConfig"
    rows: list[RatioRow]

    def all_bounds_ok(self) -> bool:
        return all(r.bound_ok is not False for r in self.rows)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a batch of runs."""

    params: ModelParams
    policy: str
    seed: int = 0
    workload: WorkloadSpec | None = None
    seq_file: str | None = None
    sequence: TransactionSequence | None = None
    oracle: str = "brute-general"
    repetitions: int = 1
    csv_path: str | None = None
    trace_path: str | None = None
    utility: bool | None = None
    flush_charge: str = "per-wallet"
    budget: OracleBudget = field(default_factory=lambda: DEFAULT_BUDGET)

    def __post_init__(self) -> None:
        if self.oracle not in ORACLE_KINDS:
            raise ConfigError(f"unknown oracle {self.oracle!r}; expected {ORACLE_KINDS}")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be positive, got {self.repetitions}")
        sources = [
            s for s in (self.workload, self.seq_file, self.sequence) if s is not None
        ]
        if len(sources) != 1:
            raise ConfigError("exactly one of workload, seq_file, sequence is required")
        if self.flush_charge not in ("per-wallet", "per-action"):
            raise ConfigError(f"unknown flush charge mode {self.flush_charge!r}")

    @property
    def utility_on(self) -> bool:
        if self.utility is not None:
            return self.utility
        return self.params.tau > 0

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        try:
            pp = obj["params"]
            params = ModelParams(
                C=pp["C"],
                T=pp["T"],
                F=pp["F"],
                k=pp.get("k", 1),
                p_ppm=pp.get("p_ppm", 10**6),
                tau=pp.get("tau", 0),
                eta_ppm=pp.get("eta_ppm"),
            )
            workload = obj.get("workload")
            outputs = obj.get("outputs", {})
            return cls(
                params=params,
                policy=obj["policy"],
                seed=obj.get("seed", 0),
                workload=WorkloadSpec.from_json_obj(workload) if workload else None,
                seq_file=obj.get("seqFile"),
                oracle=obj.get("oracle", "brute-general"),
                repetitions=obj.get("repetitions", 1),
                csv_path=outputs.get("csv"),
                trace_path=outputs.get("trace"),
                utility=obj.get("utility"),
                flush_charge=obj.get("flushCharge", "per-wallet"),
            )
        except KeyError as missing:
            raise ConfigError(f"config missing field {missing}") from None
        except CollateralError:
            raise
        except (TypeError, ValueError) as err:
            raise ConfigError(f"malformed config: {err}") from None

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"config is not valid JSON: {err}") from None
        return cls.from_json_obj(obj)

    def sequence_for(self, rep: int) -> TransactionSequence:
        if self.sequence is not None:
            return self.sequence
        if self.seq_file is not None:
            return read_sequence_csv(self.seq_file)
        return gen_stochastic(self.workload.with_seed(self.workload.seed + rep))

    def policy_for(self, rep: int):
        return make_policy(self.policy, self.params, seed=self.seed + rep)


def run_policy(config: ExperimentConfig) -> RunResult:
    """Run the configured policy once (repetition 0) and write outputs."""
    seq = config.sequence_for(0)
    policy = config.policy_for(0)
    result = run_sequence(
        policy, seq, terminal_flushes=config.utility_on, charge=config.flush_charge
    )
    if config.trace_path:
        write_trace_ndjson(result.trace, config.trace_path)
    if config.csv_path:
        row = _csv_row(config, 0, config.seed, result, None)
        write_results_csv([row], config.csv_path)
    return result


def measure_ratio(config: ExperimentConfig) -> RatioReport:
    """Run repetitions, compare each against the configured oracle."""
    rows = []
    for rep in range(config.repetitions):
        seq = config.sequence_for(rep)
        policy = config.policy_for(rep)
        result = run_sequence(
            policy, seq, terminal_flushes=config.utility_on, charge=config.flush_charge
        )
        rows.append(_ratio_row(config, rep, seq, result))
    report = RatioReport(config, rows)
    if config.csv_path:
        write_results_csv(
            [_csv_row(config, r.run_id, r.seed, r.result, r) for r in rows],
            config.csv_path,
        )
    if config.trace_path and rows:
        write_trace_ndjson(rows[-1].result.trace, config.trace_path)
    return report


def _ratio_row(
    config: ExperimentConfig, rep: int, seq: TransactionSequence, result: RunResult
) -> RatioRow:
    params = config.params
    opt_value = None
    opt_utility = None
    upper = False
    if config.oracle == "brute-general":
        opt_value = opt_general_value(seq, params.C, params.F, config.budget)
    elif config.oracle == "brute-kwallet":
        opt_value = opt_kwallet_value(seq, params, config.budget)
    elif config.oracle == "brute-utility":
        opt_value = opt_general_value(seq, params.C, params.F, config.budget)
        opt_utility = opt_general_utility(seq, params, config.budget)
    else:  # window-bound
        opt_value = window_upper_bound(seq, params.C, params.F)
        opt_utility = opt_utility_upper_bound(opt_value, params)
        upper = True
    ratio_value = ratio_of(opt_value, result.settled_value)
    ratio_utility = (
        ratio_of(opt_utility, result.utility) if opt_utility is not None else None
    )
    # pick the bound: utility bound for the threshold policy when
    # utility numbers exist, else the value bound
    exact = None
    bound_kind = None
    slack = Fraction(0)
    if config.policy == "eta" and opt_utility is not None:
        exact = utility_bound_fraction(params)
        if exact is not None:
            bound_kind = "utility"
            slack = params.p * params.C + params.tau
    if exact is None:
        exact = value_bound_fraction(config.policy, params)
        if exact is not None:
            bound_kind = "value"
    bound = None
    bound_ok = None
    if exact is not None:
        bound = float(exact)
        if bound_kind == "value":
            lhs, rhs = opt_value, result.settled_value
        else:
            lhs, rhs = opt_utility, result.utility
        bound_ok = lhs <= exact * rhs + slack
    return RatioRow(
        run_id=rep,
        seed=config.seed + rep,
        seq=seq,
        result=result,
        opt_value=opt_value,
        opt_utility=opt_utility,
        opt_is_upper_bound=upper,
        ratio_value=ratio_value,
        ratio_utility=ratio_utility,
        bound=bound,
        bound_kind=bound_kind,
        slack=slack,
        bound_ok=bound_ok,
    )


# ---------------------------------------------------------------------------
# exhaustive verification

MAX_EXHAUST_SEQUENCES = 5**7


@dataclass(frozen=True)
class ExhaustSpace:
    """Enumeration space: every sequence over values+gap up to max_len slots."""

    C: int
    k: int
    T: int
    F: int
    max_len: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.max_len < 1:
            raise ConfigError(f"max_len must be positive, got {self.max_len}")
        outside = [v for v in self.values if not 1 <= v <= self.T]
        if outside:
            raise ConfigError(f"values must lie in [1, T={self.T}], got {outside}")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"values must be distinct, got {list(self.values)}")

    def sequence_count(self) -> int:
        return (len(self.values) + 1) ** self.max_len


@dataclass
class Counterexample:
    policy: str
    pairs: tuple[tuple[int, int], ...]
    opt_value: int
    alg_value: int
    bound: Fraction


@dataclass
class ExhaustSummary:
    space: ExhaustSpace
    policies: dict[str, Fraction]
    sequences: int
    prefixes_checked: int
    counterexamples: list[Counterexample]
    invariant_violations: list[str]
    flush_events_checked: int

    def ok(self) -> bool:
        return not self.counterexamples and not self.invariant_violations


def default_exhaust_policies(params: ModelParams) -> dict[str, Fraction]:
    """Policies with a per-sequence guarantee at these params, with exact bounds."""
    out: dict[str, Fraction] = {}
    for kind in ("fa", "fwf", "ftwf"):
        b = value_bound_fraction(kind, params)
        if b is not None:
            out[kind] = b
    return out


def exhaustive_verify(
    space: ExhaustSpace, policies: dict[str, Fraction] | None = None
) -> ExhaustSummary:
    """Check V_opt <= bound * V_alg on every prefix of every sequence.

    The comparison is exact integer arithmetic (bound is a Fraction,
    zero additive slack).  Flush-shape invariants are checked on every
    flush along the way: a cyclic-flush wallet leaves more than C/k - T
    committed, simultaneous flush-all wallets pairwise exceed C/k, and
    at r = 1 a flush-all event carries at least C/2 total (pair flushes
    likewise carry at least C/k).
    """
    if space.sequence_count() > MAX_EXHAUST_SEQUENCES:
        raise BudgetExceeded(
            f"{space.sequence_count()} sequences exceed cap {MAX_EXHAUST_SEQUENCES}"
        )
    params = ModelParams(C=space.C, T=space.T, F=space.F, k=space.k)
    params.require_kwallet()
    if policies is None:
        policies = default_exhaust_policies(params)
    if not policies:
        raise ConfigError("no policy has a checkable bound at these parameters")
    size = params.C // params.k
    saturated = params.load_ratio == 1
    summary = ExhaustSummary(
        space=space,
        policies=dict(policies),
        sequences=0,
        prefixes_checked=0,
        counterexamples=[],
        invariant_violations=[],
        flush_events_checked=0,
    )
    symbols = tuple(space.values) + (None,)

    def check_flushes(kind: str, trace: EventTrace, slot: int, pairs) -> None:
        new_flushes = [e for e in trace.events if e.kind == "flush"]
        if not new_flushes:
            return
        summary.flush_events_checked += len(new_flushes)
        amounts = [e.flush_amount for e in new_flushes]
        if kind == "fwf":
            if amounts[0] <= size - params.T:
                summary.invariant_violations.append(
                    f"fwf flush at slot {slot} carries {amounts[0]} <= C/k-T "
                    f"on {pairs}"
                )
        elif kind == "fa":
            for i in range(len(amounts)):
                for j in range(i + 1, len(amounts)):
                    if amounts[i] + amounts[j] <= size:
                        summary.invariant_violations.append(
                            f"fa flush at slot {slot}: wallets {i + 1},{j + 1} "
                            f"carry {amounts[i]}+{amounts[j]} <= C/k on {pairs}"
                        )
            if saturated and 2 * sum(amounts) < params.C:
                summary.invariant_violations.append(
                    f"fa flush at slot {slot} carries {sum(amounts)} < C/2 on {pairs}"
                )
        elif kind == "ftwf" and saturated:
            if sum(amounts) < size:
                summary.invariant_violations.append(
                    f"ftwf pair flush at slot {slot} carries {sum(amounts)} < C/k "
                    f"on {pairs}"
                )

    def walk(depth: int, pairs: list, states: list, opt_states: dict) -> None:
        slot = depth + 1
        for sym in symbols:
            tx = Transaction(slot, sym) if sym is not None else None
            new_states = []
            for kind, policy in states:
                # a clone's trace holds only the events of this step
                p2 = policy.clone()
                p2.step(slot, tx)
                check_flushes(kind, p2.machine.trace, slot, tuple(pairs))
                new_states.append((kind, p2))
            if sym is not None:
                new_pairs = pairs + [(slot, sym)]
                opt_next = opt_value_extend(opt_states, slot, sym, space.C, space.F)
                opt_here = max(opt_next.values())
                summary.prefixes_checked += 1
                for kind, p2 in new_states:
                    v_alg = p2.machine.settled
                    b = policies[kind]
                    if opt_here * b.denominator > b.numerator * v_alg:
                        summary.counterexamples.append(
                            Counterexample(
                                kind, tuple(new_pairs), opt_here, v_alg, b
                            )
                        )
            else:
                new_pairs = pairs
                opt_next = opt_states
            if slot < space.max_len:
                walk(depth + 1, new_pairs, new_states, opt_next)
            else:
                summary.sequences += 1

    roots = [(kind, make_policy(kind, params, seed=0)) for kind in policies]
    walk(0, [], roots, {(): 0})
    return summary


# ---------------------------------------------------------------------------
# adversaries


@dataclass
class AdversaryReport:
    kind: str
    target: str
    seq: TransactionSequence
    result: RunResult
    opt_value: int
    opt_exact: bool
    ratio: Fraction | float


def run_adversary(policy, adversary: Thm3Adversary):
    """Lockstep drive: the adversary sees each decision before its next move."""
    last: bool | None = None
    txs = []
    slot = 0
    actions = 0
    while True:
        out = adversary.next_emission(last)
        if out is DONE:
            break
        slot += 1
        tx = None if out is GAP else out
        if tx is not None and tx.slot != slot:
            raise CollateralError(
                f"adversary emitted slot {tx.slot}, driver is at {slot}"
            )
        decision = policy.step(slot, tx)
        if decision.flushed or decision.flush_amount is not None:
            actions += 1
        if tx is not None:
            txs.append(tx)
            last = decision.action == "settle"
        else:
            last = None
    seq = TransactionSequence(txs, horizon=slot)
    return seq, _close_run(policy, seq, actions, False, "per-wallet")


ADVERSARY_KINDS = ("thm3", "fwfkiller", "burst")


def run_adversary_demo(
    kind: str,
    target: str,
    params: ModelParams,
    epsilon: int,
    rounds: int,
    seed: int = 0,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> AdversaryReport:
    """Run one adversarial construction against a target policy.

    The reported optimum is the exact brute value when the sequence fits
    the oracle budget, else a certified feasible lower bound, so the
    reported ratio never overstates the truth.
    """
    policy = make_policy(target, params, seed=seed)
    if kind == "thm3":
        adversary = Thm3Adversary(params, epsilon, rounds)
        seq, result = run_adversary(policy, adversary)
    elif kind == "fwfkiller":
        seq = fwf_killer_seq(params, epsilon, rounds)
        result = run_sequence(policy, seq)
    elif kind == "burst":
        seq = epoch_burst_seq(params, rounds)
        result = run_sequence(policy, seq)
    else:
        raise ConfigError(f"unknown adversary {kind!r}; expected {ADVERSARY_KINDS}")
    if len(seq) <= budget.max_transactions:
        opt_value = opt_general_value(seq, params.C, params.F, budget)
        exact = True
    else:
        opt_value, _ = greedy_feasible_value(seq, params.C, params.F)
        exact = False
    return AdversaryReport(
        kind=kind,
        target=target,
        seq=seq,
        result=result,
        opt_value=opt_value,
        opt_exact=exact,
        ratio=ratio_of(opt_value, result.settled_value),
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepRow:
    param: str
    value: float
    error: str | None = None
    mean_settled: Fraction | None = None
    mean_flushes: Fraction | None = None
    mean_utility: Fraction | None = None
    worst_ratio: float | None = None
    empirical_best: bool = False
    formula_optimum: float | None = None


def sweep(config: ExperimentConfig, param: str, values: list[float]) -> list[SweepRow]:
    """Scan eta or k, rerunning the configured workload at each setting.

    Rows carry per-setting means over repetitions and the worst observed
    opt/alg value ratio (window-bound oracle, an upper bound on opt).
    The empirical best row is marked: highest mean utility for eta,
    lowest worst ratio for k; the formula optimum rides along.
    """
    if param not in ("eta", "k"):
        raise ConfigError(f"sweep parameter must be eta or k, got {param!r}")
    p = config.params
    if param == "eta":
        formula = formulas.eta_star(p.C, p.T, p.p_ppm / 10**6, p.tau)
    else:
        formula = formulas.k_star(p.C, p.T)[0]
    rows = []
    for v in values:
        try:
            if param == "eta":
                params = replace(p, eta_ppm=round(v * 10**6))
                cfg = replace(config, params=params, policy="eta")
            else:
                k = int(v)
                if k != v:
                    raise ConfigError(f"k must be integral, got {v}")
                params = replace(p, k=k)
                params.require_kwallet()
                cfg = replace(config, params=params)
            row = SweepRow(param=param, value=v, formula_optimum=formula)
            settled = Fraction(0)
            flushes = Fraction(0)
            utility = Fraction(0)
            worst: float = 0.0
            for rep in range(cfg.repetitions):
                seq = cfg.sequence_for(rep)
                result = run_sequence(
                    cfg.policy_for(rep),
                    seq,
                    terminal_flushes=cfg.utility_on,
                    charge=cfg.flush_charge,
                )
                settled += result.settled_value
                flushes += result.flush_count
                utility += result.utility
                upper = window_upper_bound(seq, params.C, params.F)
                worst = max(worst, float(ratio_of(upper, result.settled_value)))
            n = cfg.repetitions
            row.mean_settled = settled / n
            row.mean_flushes = flushes / n
            row.mean_utility = utility / n
            row.worst_ratio = worst
            rows.append(row)
        except CollateralError as err:
            rows.append(
                SweepRow(param=param, value=v, error=str(err), formula_optimum=formula)
            )
    candidates = [r for r in rows if r.error is None]
    if candidates:
        if param == "eta":
            best = max(candidates, key=lambda r: r.mean_utility)
        else:
            best = min(candidates, key=lambda r: r.worst_ratio)
        best.empirical_best = True
    return rows


# ---------------------------------------------------------------------------
# serialization

RESULT_COLUMNS = [
    "run_id",
    "policy",
    "C",
    "k",
    "T",
    "F",
    "p_ppm",
    "tau",
    "eta_ppm",
    "seed",
    "n_tx",
    "offered_value",
    "settled_value",
    "flush_count",
    "utility_num",
    "utility_den",
    "opt_value",
    "opt_utility_num",
    "opt_utility_den",
    "ratio_value",
    "ratio_utility",
    "bound",
    "bound_ok",
]


def _ratio_str(ratio) -> str:
    if ratio is None:
        return ""
    if ratio == math.inf:
        return "inf"
    f = Fraction(ratio)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _csv_row(
    config: ExperimentConfig,
    run_id: int,
    seed: int,
    result: RunResult,
    ratio_row: RatioRow | None,
) -> dict:
    p = config.params
    row = {
        "run_id": run_id,
        "policy": config.policy,
        "C": p.C,
        "k": p.k,
        "T": p.T,
        "F": p.F,
        "p_ppm": p.p_ppm,
        "tau": p.tau,
        "eta_ppm": "" if p.eta_ppm is None else p.eta_ppm,
        "seed": seed,
        "n_tx": result.n_tx,
        "offered_value": result.offered_value,
        "settled_value": result.settled_value,
        "flush_count": result.flush_count,
        "utility_num": result.utility.numerator,
        "utility_den": result.utility.denominator,
        "opt_value": "",
        "opt_utility_num": "",
        "opt_utility_den": "",
        "ratio_value": "",
        "ratio_utility": "",
        "bound": "",
        "bound_ok": "",
    }
    if ratio_row is not None:
        row["opt_value"] = ratio_row.opt_value
        if ratio_row.opt_utility is not None:
            row["opt_utility_num"] = ratio_row.opt_utility.numerator
            row["opt_utility_den"] = ratio_row.opt_utility.denominator
        row["ratio_value"] = _ratio_str(ratio_row.ratio_value)
        row["ratio_utility"] = _ratio_str(ratio_row.ratio_utility)
        if ratio_row.bound is not None:
            row["bound"] = "inf" if ratio_row.bound == math.inf else repr(ratio_row.bound)
            row["bound_ok"] = "true" if ratio_row.bound_ok else "false"
    return row


def write_results_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_trace_ndjson(trace: EventTrace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(trace.to_ndjson())
