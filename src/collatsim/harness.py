"""Experiment harness: run policies, compare against oracles, verify bounds.

The pieces, bottom up: ``run_sequence`` steps one policy over the offers
of one sequence, validates the window invariant on the settles its sink
kept and returns the run's totals;
``measure_ratio`` adds an oracle and the formula bound for the policy,
worked out once per policy kind and ``ModelParams`` and checked on a
value row in ints;
``exhaustive_verify`` checks the competitive bound on every prefix of
every sequence over a small alphabet on the state graphs of ``graph``;
``sweep`` scans eta or k,
one ``measure_ratio`` run per setting with the window-bound oracle (the LP
relaxation, an upper bound on opt), and marks the empirical optimum next
to the formula one;
``run_adversary_demo`` measures an adversarial sequence against its
target like any other ratio run.

Every run charges the flush fee tau once per wallet flushed (or pool
tranche), and flushes leftover committed value at the end exactly when
tau > 0 (the threshold policy always does).  Results hold totals only: a
run's log is its policy's ``trace``, and a batch writes the trace
of its last repetition, so it keeps one trace at a time.  Only a run whose
trace is written logs to an ``EventTrace``; every other run, the other
repetitions, each sweep setting and every run without a trace path,
logs to a ``SettleLog``, which formats no text.
``ExperimentConfig.from_json_obj`` reads every run's settings, from a
config file or the CLI's flags: a field left out takes the dataclass
default, and a field it does not read is refused.
Each results CSV is written from its records through one writer, which
takes the header from the first record's keys; traces are written as
newline-delimited JSON.  Identical config and seed reproduce
byte-identical outputs.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations

from . import formulas
from .graph import StateTable, forward, rule_pass
from .model import (
    PPM,
    CollateralError,
    EventTrace,
    ModelParams,
    RunResult,
    SettleLog,
    TransactionSequence,
    known_fields,
    typed_field,
    validate_window_bound,
)
from .oracles import (
    ROOT_KEY,
    opt_general_utility,
    opt_general_value,
    opt_kwallet_value,
    opt_utility_upper_bound,
    opt_value_extend,  # unused here; bench/tracer.py times calls by this name
    opt_value_key_row,
    window_upper_bound,
)
from .policies import GroupFlushPolicy, check_policy_kind, make_policy
from .workloads import (
    WorkloadSpec,
    epoch_burst_seq,
    fwf_killer_seq,
    gen_stochastic,
    read_sequence_csv,
    thm3_seq,
)


ORACLE_KINDS = ("brute-general", "brute-kwallet", "brute-utility", "window-bound")
MAX_REPETITIONS = 10_000

# the fields ExperimentConfig.from_json_obj reads; it refuses any other
CONFIG_FIELDS = (
    "params", "policy", "seed", "workload", "seqFile", "oracle", "repetitions", "outputs",
)
PARAMS_FIELDS = ("C", "T", "F", "k", "p_ppm", "tau", "eta_ppm")


def run_sequence(policy, seq: TransactionSequence) -> RunResult:
    """Drive a policy over a sequence's offers, then its horizon; exact totals.

    Quiet slots are not stepped, so the cost goes with the offers.  The
    policy's ``finish`` flushes the leftovers, wallet policies when tau > 0
    and the threshold policy always.  Utility charges tau once per wallet
    flushed, or per pool tranche.  The result holds totals only; the run's
    log stays in ``policy.trace``, the sink the policy was made with,
    and the window check reads its settle columns.
    """
    seq.validate_values(policy.params.T)
    step = policy.step
    for slot, value in zip(seq.slots, seq.values):
        step(slot, value)
    if seq.horizon > (seq.slots[-1] if seq.slots else 0):
        policy.step(seq.horizon, None)
    policy.finish(seq.horizon)
    validate_window_bound(policy.trace, policy.params)
    return RunResult.from_machine(policy, seq)


# per policy, its competitive bound on settled value as an exact closed
# form of ModelParams; rand2 guarantees expectation only, so has none
_VALUE_BOUNDS = {
    "fa": lambda p: formulas.fa_ratio(p.k, p.load_ratio),
    "fwf": lambda p: formulas.fwf_ratio(p.k, p.load_ratio),
    "ftwf": lambda p: formulas.ftwf_ratio(p.k) if p.load_ratio == 1 else None,
    "eta": lambda p: formulas.eta_alpha(p.eta, Fraction(p.C), p.T, p.p, 0),
}


def _exact_bound(closed_form, params: ModelParams) -> Fraction | None:
    """closed_form(params), or None where it is out of domain or unbounded."""
    try:
        bound = closed_form(params)
    except formulas.DomainError:
        return None
    return None if bound == formulas.UNBOUNDED else bound


def value_bound_fraction(kind: str, params: ModelParams) -> Fraction | None:
    """Exact settled-value competitive bound for a policy, if one exists."""
    return _exact_bound(_VALUE_BOUNDS.get(kind, lambda p: None), params)


def utility_bound_fraction(params: ModelParams) -> Fraction | None:
    """Exact utility bound for the threshold policy, if in domain."""
    return _exact_bound(
        lambda p: formulas.eta_alpha(p.eta, Fraction(p.C), p.T, p.p, p.tau), params
    )


def ratio_of(opt, alg) -> Fraction | float:
    """Exact opt/alg with the 0/0 -> 1 convention; nonpositive alg -> inf."""
    if opt == alg:
        return Fraction(1)
    if alg > 0:
        return Fraction(opt, alg)
    return math.inf


def value_bound_holds(opt: int, settled: int, num: int, den: int) -> bool:
    """Whether opt <= (num/den) * settled, decided in ints (den > 0)."""
    return den * opt <= num * settled


_NO_SLACK = Fraction(0)


@lru_cache(maxsize=256)
def _row_bound(policy: str, utility: bool, params: ModelParams) -> tuple | None:
    """The bound a ratio row of ``policy`` checks: the utility bound for the
    threshold policy when the row has an optimal ``utility``, else the value
    bound.  ``(kind, exact, as a float, slack, numerator, denominator)``, or
    None without one; a bound past the float range raises CollateralError.
    ModelParams is frozen, so each (policy, utility, params) is worked out
    once: sweeps and batches repeat them."""
    exact = utility_bound_fraction(params) if policy == "eta" and utility else None
    if exact is not None:
        kind, slack = "utility", params.p * params.C + params.tau
    else:
        exact = value_bound_fraction(policy, params)
        if exact is None:
            return None
        kind, slack = "value", _NO_SLACK
    if exact > sys.float_info.max:
        raise CollateralError(f"{kind} bound is past the float range")
    return kind, exact, float(exact), slack, exact.numerator, exact.denominator


@dataclass
class RatioRow:
    run_id: int
    seed: int
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

    def __post_init__(self) -> None:
        if self.oracle not in ORACLE_KINDS:
            raise CollateralError(f"unknown oracle {self.oracle!r}; expected {ORACLE_KINDS}")
        if self.repetitions < 1:
            raise CollateralError(f"repetitions must be positive, got {self.repetitions}")
        if self.repetitions > MAX_REPETITIONS:
            raise CollateralError(
                f"repetitions must be at most {MAX_REPETITIONS}, got {self.repetitions}"
            )
        sources = [
            s for s in (self.workload, self.seq_file, self.sequence) if s is not None
        ]
        if len(sources) != 1:
            raise CollateralError("exactly one of workload, seq_file, sequence is required")
        check_policy_kind(self.policy)  # before anything runs

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        """The config a JSON object describes; the one reader of run settings.

        Only ``params.C``, ``T``, ``F`` and ``policy`` are required: a field
        left out takes the dataclass default, and one not read is refused.
        """
        def given(*fields):
            return {key: typed_field(key, obj[key], kind) for key, kind in fields if key in obj}

        try:
            known_fields("config", typed_field("config", obj, "an object"), CONFIG_FIELDS)
            pp = known_fields(
                "params", typed_field("params", obj["params"], "an object"), PARAMS_FIELDS
            )
            # indexing names a missing C, T or F; ModelParams defaults the rest
            params = ModelParams(**dict(pp, C=pp["C"], T=pp["T"], F=pp["F"]))
            workload = obj.get("workload")
            outputs = typed_field("outputs", obj.get("outputs", {}), "an object")
            known_fields("outputs", outputs, ("csv", "trace"))
            return cls(
                params=params,
                policy=typed_field("policy", obj["policy"], "a string"),
                **given(("seed", "an integer")),
                workload=None if workload is None else WorkloadSpec.from_json_obj(workload),
                seq_file=typed_field("seqFile", obj.get("seqFile"), "a string", True),
                **given(("oracle", "a string"), ("repetitions", "an integer")),
                csv_path=typed_field("outputs.csv", outputs.get("csv"), "a string", True),
                trace_path=typed_field("outputs.trace", outputs.get("trace"), "a string", True),
            )
        except KeyError as missing:
            raise CollateralError(f"config missing field {missing}") from None
        except (TypeError, ValueError) as err:
            raise CollateralError(f"malformed config: {err}") from None

    def sequence_for(self, rep: int) -> TransactionSequence:
        """Repetition rep's sequence: the workload's draw for rep, else the
        given sequence or the file's, which is read again at every call."""
        if self.sequence is not None:
            return self.sequence
        if self.seq_file is not None:
            return read_sequence_csv(self.seq_file)
        return gen_stochastic(self.workload.with_seed(self.workload.seed + rep))

    def policy_for(self, rep: int, trace: SettleLog | None = None):
        """Repetition rep's policy, logging to ``trace`` (see ``make_policy``)."""
        return make_policy(self.policy, self.params, seed=self.seed + rep, trace=trace)


def _sink(written) -> SettleLog:
    """A run's sink: the full ``EventTrace`` when its trace is written."""
    return EventTrace() if written else SettleLog()


def run_policy(config: ExperimentConfig) -> RunResult:
    """Run the configured policy once (repetition 0) and write outputs."""
    policy = config.policy_for(0, _sink(config.trace_path))
    result = run_sequence(policy, config.sequence_for(0))
    if config.trace_path:
        write_trace_ndjson(policy.trace, config.trace_path)
    if config.csv_path:
        write_results_csv([_csv_row(config, result)], config.csv_path)
    return result


def measure_ratio(config: ExperimentConfig) -> RatioReport:
    """Run repetitions, compare each against the configured oracle; rows
    keep totals only, and the trace written is the last repetition's, the
    only one that logs its text."""
    rows = []
    last = config.repetitions - 1
    for rep in range(config.repetitions):
        if rep == 0 or config.workload is not None:  # a file's is the same each time
            seq = config.sequence_for(rep)
        policy = config.policy_for(rep, _sink(config.trace_path and rep == last))
        rows.append(_ratio_row(config, rep, seq, run_sequence(policy, seq)))
    if config.csv_path:
        write_results_csv([_csv_row(config, r.result, r) for r in rows], config.csv_path)
    if config.trace_path:
        write_trace_ndjson(policy.trace, config.trace_path)
    return RatioReport(rows)


def _ratio_row(
    config: ExperimentConfig, rep: int, seq: TransactionSequence, result: RunResult
) -> RatioRow:
    params = config.params
    opt_value = None
    opt_utility = None
    upper = False
    if config.oracle == "brute-general":
        opt_value = opt_general_value(seq, params.C, params.F)
    elif config.oracle == "brute-kwallet":
        opt_value = opt_kwallet_value(seq, params)
    elif config.oracle == "brute-utility":
        opt_value = opt_general_value(seq, params.C, params.F)
        opt_utility = opt_general_utility(seq, params)
    else:  # window-bound
        opt_value = window_upper_bound(seq, params.C, params.F)
        opt_utility = opt_utility_upper_bound(opt_value, params)
        upper = True
    ratio_value = ratio_of(opt_value, result.settled_value)
    ratio_utility = (
        ratio_of(opt_utility, result.utility) if opt_utility is not None else None
    )
    bound = bound_kind = bound_ok = None
    slack = _NO_SLACK
    chosen = _row_bound(config.policy, opt_utility is not None, params)
    if chosen is not None:
        bound_kind, exact, bound, slack, num, den = chosen
        if bound_kind == "value":
            bound_ok = value_bound_holds(opt_value, result.settled_value, num, den)
        else:
            bound_ok = opt_utility <= exact * result.utility + slack
    return RatioRow(
        run_id=rep,
        seed=config.seed + rep,
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
            raise CollateralError(f"max_len must be positive, got {self.max_len}")
        if not self.values:
            raise CollateralError("values must not be empty")
        outside = [v for v in self.values if not 1 <= v <= self.T]
        if outside:
            raise CollateralError(f"values must lie in [1, T={self.T}], got {outside}")
        if len(set(self.values)) != len(self.values):
            raise CollateralError(f"values must be distinct, got {list(self.values)}")

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


def flush_faults(kind: str, amounts: tuple, params: ModelParams, slot: int, pairs) -> list[str]:
    """The flush-shape invariants that one step of ``kind`` breaks, given the
    amounts it flushed (at least one), the step's slot and the pairs before
    it: a cyclic-flush wallet leaves more than C/k - T committed,
    simultaneous flush-all wallets pairwise exceed C/k, and at r = 1 a
    flush-all event carries at least C/2 total (a pair flush at least C/k)."""
    size = params.C // params.k
    saturated = params.k * params.T == params.C  # r = 1
    faults = []
    if kind == "fwf":
        if amounts[0] <= size - params.T:
            faults.append(f"fwf flush at slot {slot} carries {amounts[0]} <= C/k-T")
    elif kind == "fa":
        for (i, a), (j, b) in combinations(enumerate(amounts, 1), 2):
            if a + b <= size:
                faults.append(f"fa flush at slot {slot}: wallets {i},{j} carry {a}+{b} <= C/k")
        if saturated and 2 * sum(amounts) < params.C:
            faults.append(f"fa flush at slot {slot} carries {sum(amounts)} < C/2")
    elif kind == "ftwf" and saturated:
        if sum(amounts) < size:
            faults.append(f"ftwf pair flush at slot {slot} carries {sum(amounts)} < C/k")
    return [f"{fault} on {pairs}" for fault in faults]


def exhaustive_verify(
    space: ExhaustSpace, policies: dict[str, Fraction] | None = None
) -> ExhaustSummary:
    """Check V_opt <= bound * V_alg on every prefix of every sequence.

    The comparison is exact integer arithmetic (bound is a Fraction,
    zero additive slack).  The flush-shape invariants of ``flush_faults``
    are checked on every flush along the way.

    A node of the tree of prefixes is known by each policy's
    ``state(slot)`` and the value DP's key, the rows of its layer with
    slots made relative, less the dominated ones (``opt_value_key_row``).
    No offer exceeds ``max(values)``, so the rows forget the settles that
    no later window can push past C with offers of at most that: at
    C = 12, T = 3 and F <= 3 every settle is forgotten and one key serves
    every prefix.
    Transition tables, local to the call, are ``graph.StateTable``s.  Kinds
    with one group size g are one rule and share one (fa and ftwf at k = 2),
    filled by the rule's ``GroupFlushPolicy.next_states`` on the state
    tuple, which calls the ``offer`` that ``step`` calls in a run; the value
    DP's is filled by ``opt_value_key_row`` on the key itself.
    Along an edge, policy i with bound num/den has the weight
    ``den*gain - num*delta``, and a prefix is a counterexample exactly
    when the sum of weights from the root to it is positive.

    Each rule's flushes depend on its state alone, so one ``rule_pass`` per
    rule counts them on its own graph of states.  The rows these passes fill
    are every edge of the tree, and whether a step breaks an invariant
    depends on the kind and the amounts alone, so each kind's rows are
    checked once for a fault.  Each policy's bound is decided on its own
    graph of (state, DP key) nodes by one ``forward`` max-plus pass; kinds
    on one rule held to one bound share the pass.  When no pass finds a
    fault there is nothing to list.  Otherwise ``walk``, depth first over
    the values then the gap, lists the counterexamples and violation texts
    in tree order, carrying per policy V_alg to test ``den*V_opt > num*V_alg``.
    Only ``GroupFlushPolicy`` has such a state; others raise CollateralError.
    """
    # two or more symbols over more slots than the cap has bits are over the
    # cap, so a long max_len is refused before the power is built
    if (
        space.max_len > MAX_EXHAUST_SEQUENCES.bit_length()
        or space.sequence_count() > MAX_EXHAUST_SEQUENCES
    ):
        raise CollateralError(
            f"{len(space.values) + 1}^{space.max_len} sequences exceed cap "
            f"{MAX_EXHAUST_SEQUENCES}"
        )
    params = ModelParams(C=space.C, T=space.T, F=space.F, k=space.k)
    params.require_kwallet()
    if policies is None:
        policies = default_exhaust_policies(params)
    if not policies:
        raise CollateralError("no policy has a checkable bound at these parameters")
    kinds = list(policies)
    roots = [make_policy(kind, params, seed=0) for kind in kinds]
    for kind, policy in zip(kinds, roots):
        if not isinstance(policy, GroupFlushPolicy):
            raise CollateralError(
                f"exhaustive verification needs a wallet-group policy, got {kind!r}"
            )
    bounds = [(b.numerator, b.denominator) for b in policies.values()]
    symbols = tuple(space.values) + (None,)
    largest = max(space.values)  # no offer is larger, so none lifts V_opt more
    # kinds with one group size g are one rule and share its table
    by_rule: dict = {}
    for p in roots:
        if p.g not in by_rule:
            by_rule[p.g] = StateTable(p.state(0), partial(p.next_states, symbols=symbols))
    tables = [by_rule[p.g] for p in roots]
    dp_table = StateTable(
        ROOT_KEY, partial(opt_value_key_row, symbols=symbols, C=space.C, F=space.F, top=largest)
    )
    length = space.max_len
    flushes = {table: rule_pass(table, length) for table in by_rule.values()}
    # every sequence has max_len symbols, and each non-gap symbol ends a prefix
    sequences = space.sequence_count()
    summary = ExhaustSummary(
        space=space,
        policies=dict(policies),
        sequences=sequences,
        prefixes_checked=sequences - 1,
        counterexamples=[],
        invariant_violations=[],
        flush_events_checked=sum(flushes[table] for table in tables),
    )
    # only whether a step breaks an invariant is read here, so the slot and
    # the pairs are placeholders
    broken = any(
        flush_faults(kind, amounts, params, 0, ())
        for kind, table in zip(kinds, tables)
        for row in table.rows
        if row is not None
        for _, _, amounts in row
        if amounts
    )
    # kinds on one rule held to one bound share the max-plus pass
    if broken or any(
        forward(table, dp_table, bound, largest, length)
        for table, bound in dict.fromkeys(zip(tables, bounds))
    ):
        n = len(kinds)
        walk(0, [0] * n, 0, [0] * n, 0, [], tables, dp_table, kinds, bounds, symbols, params,
             summary)
    return summary


def walk(
    slot: int, sids: list, kid: int, v_algs: list, v_opt: int, path: list, tables: list,
    dp_table: StateTable, kinds: list, bounds: list, symbols: tuple, params: ModelParams,
    summary: ExhaustSummary,
) -> None:
    """List into ``summary`` what is found below the node after the pairs
    ``path`` at ``slot``: policy i (``kinds[i]``, bound ``bounds[i]`` as
    (num, den)) in state ``sids[i]`` of ``tables[i]`` with V_alg
    ``v_algs[i]``, and the value DP at key ``kid`` with V_opt ``v_opt``."""
    nxt = slot + 1
    dp_edges = dp_table.row(kid)
    rows = [table.rows[sid] for table, sid in zip(tables, sids)]
    for s, sym in enumerate(symbols):
        child_kid, gain = dp_edges[s]
        opt_child = v_opt + gain
        child_sids = []
        child_algs = []
        for i, kind in enumerate(kinds):
            child_sid, delta, amounts = rows[i][s]
            if amounts:
                faults = flush_faults(kind, amounts, params, nxt, tuple(path))
                summary.invariant_violations.extend(faults)
            num, den = bounds[i]
            alg_child = v_algs[i] + delta
            child_sids.append(child_sid)
            child_algs.append(alg_child)
            if sym is not None and den * opt_child > num * alg_child:
                summary.counterexamples.append(
                    Counterexample(
                        kind, (*path, (nxt, sym)), opt_child, alg_child, summary.policies[kind]
                    )
                )
        if sym is not None:
            path.append((nxt, sym))
        if nxt < summary.space.max_len:
            walk(nxt, child_sids, child_kid, child_algs, opt_child, path, tables, dp_table,
                 kinds, bounds, symbols, params, summary)
        if sym is not None:
            path.pop()


# ---------------------------------------------------------------------------
# adversaries


ADVERSARY_KINDS = ("thm3", "fwfkiller", "burst")


def run_adversary_demo(
    kind: str,
    target: str,
    params: ModelParams,
    epsilon: int,
    rounds: int,
    seed: int = 0,
) -> RatioRow:
    """Measure one adversarial construction against a target policy.

    The target is made first, so its own parameter errors come before the
    construction's.  thm3 builds its sequence against that policy, a
    private copy of the measured one with the same seed; for rand2 the
    copy shares the measured run's coins, so the row measures an
    adversary that knows them, not rand2's expected ratio against an
    oblivious one.  The sequence then runs through ``measure_ratio`` with
    the exact window-DP optimum; one whose DP would pass the oracle's cap
    raises CollateralError, and one past MAX_ADVERSARY_OFFERS offers is
    refused while it is built.
    """
    policy = make_policy(target, params, seed=seed, trace=SettleLog())
    if kind == "thm3":
        seq = thm3_seq(params, epsilon, rounds, policy)
    elif kind == "fwfkiller":
        seq = fwf_killer_seq(params, epsilon, rounds)
    elif kind == "burst":
        seq = epoch_burst_seq(params, rounds)
    else:
        raise CollateralError(f"unknown adversary {kind!r}; expected {ADVERSARY_KINDS}")
    config = ExperimentConfig(params, target, seed=seed, sequence=seq)
    return measure_ratio(config).rows[0]


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


def _mean(xs: list) -> Fraction:
    return sum(xs, Fraction(0)) / len(xs)


def sweep(config: ExperimentConfig, param: str, values: list[float]) -> list[SweepRow]:
    """Scan eta or k, rerunning the configured workload at each setting.

    Each setting is a ``measure_ratio`` run of the config with the
    window-bound oracle (the LP relaxation, an upper bound on opt) and no
    outputs of its own; a sequence file is read once for all of them.
    Rows carry per-setting means over repetitions and the worst observed
    opt/alg value ratio, or the error that ended the setting.  The
    empirical best row is marked: highest mean utility for eta, lowest
    worst ratio for k; the formula optimum rides along.  When no setting
    ran, CollateralError names the first refusal and nothing is written;
    otherwise the rows go to ``config.csv_path`` when it is set.
    """
    if param not in ("eta", "k"):
        raise CollateralError(f"sweep parameter must be eta or k, got {param!r}")
    p = config.params
    if param == "eta":
        formula = formulas.eta_star(p.C, p.T, p.p_ppm / PPM, p.tau)
    else:
        formula = formulas.k_star(p.C, p.T)[0]
    rows = []
    fixed = None  # a file's sequence, read at the first setting that gets to it
    for v in values:
        try:
            if param == "eta":
                params = replace(p, eta_ppm=round(v * PPM))
                cfg = replace(config, params=params, policy="eta")
            else:
                k = int(v)
                if k != v:
                    raise CollateralError(f"k must be integral, got {v}")
                params = replace(p, k=k)
                params.require_kwallet()
                cfg = replace(config, params=params)
            if config.seq_file is not None:
                if fixed is None:
                    fixed = read_sequence_csv(config.seq_file)
                cfg = replace(cfg, seq_file=None, sequence=fixed)
            runs = measure_ratio(
                replace(cfg, oracle="window-bound", csv_path=None, trace_path=None)
            ).rows
            results = [r.result for r in runs]
            rows.append(
                SweepRow(
                    param=param,
                    value=v,
                    mean_settled=_mean([r.settled_value for r in results]),
                    mean_flushes=_mean([r.flush_count for r in results]),
                    mean_utility=_mean([r.utility for r in results]),
                    worst_ratio=max(float(r.ratio_value) for r in runs),
                    formula_optimum=formula,
                )
            )
        except CollateralError as err:
            rows.append(
                SweepRow(param=param, value=v, error=str(err), formula_optimum=formula)
            )
    candidates = [r for r in rows if r.error is None]
    if not candidates:
        first = f"; the first: {rows[0].error}" if rows else ""
        raise CollateralError(f"no {param} setting ran{first}")
    if param == "eta":
        best = max(candidates, key=lambda r: r.mean_utility)
    else:
        best = min(candidates, key=lambda r: r.worst_ratio)
    best.empirical_best = True
    if config.csv_path:
        write_results_csv([asdict(r) for r in rows], config.csv_path)
    return rows


# ---------------------------------------------------------------------------
# serialization


def _cell(x):
    """A results CSV cell: None blank, a bool true or false, a Fraction as a
    float, anything else as it is."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return float(x)
    return x


def _ratio_str(ratio) -> str:
    if ratio is None:
        return ""
    if ratio == math.inf:
        return "inf"
    f = Fraction(ratio)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _csv_row(
    config: ExperimentConfig, result: RunResult, ratio_row: RatioRow | None = None
) -> dict:
    """A results row: the run's params and totals, then its ratio row's
    measures, blank without one (``simulate``'s run 0 at the config's seed)."""
    p, r = config.params, ratio_row
    opt_utility = r and r.opt_utility
    return {
        "run_id": r.run_id if r else 0,
        "policy": config.policy,
        "C": p.C,
        "k": p.k,
        "T": p.T,
        "F": p.F,
        "p_ppm": p.p_ppm,
        "tau": p.tau,
        "eta_ppm": p.eta_ppm,
        "seed": r.seed if r else config.seed,
        "n_tx": result.n_tx,
        "offered_value": result.offered_value,
        "settled_value": result.settled_value,
        "flush_count": result.flush_count,
        "utility_num": result.utility.numerator,
        "utility_den": result.utility.denominator,
        "opt_value": r and r.opt_value,
        "opt_utility_num": None if opt_utility is None else opt_utility.numerator,
        "opt_utility_den": None if opt_utility is None else opt_utility.denominator,
        "ratio_value": _ratio_str(r and r.ratio_value),
        "ratio_utility": _ratio_str(r and r.ratio_utility),
        "bound": r and r.bound,
        "bound_ok": r and r.bound_ok,
    }


def write_results_csv(rows: list[dict], path: str) -> None:
    """Write records under the first one's keys, each cell by ``_cell``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows([_cell(x) for x in row.values()] for row in rows)


def write_trace_ndjson(trace: EventTrace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(trace.to_ndjson())
