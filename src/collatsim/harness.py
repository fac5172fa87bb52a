"""Experiment harness: run policies, compare against oracles, verify bounds.

The pieces, bottom up: ``run_sequence`` steps one policy over the offers
of one sequence, validates the window invariant on the produced trace and
returns the run's totals;
``measure_ratio`` adds an oracle and the formula bound for the policy;
``exhaustive_verify`` checks the competitive bound with exact integer
arithmetic on every prefix of every sequence over a small alphabet,
stepping each state of a wallet rule and each value-DP key once per offer
(a DP table keeps each key with its rows), counting flushes from the
prefixes per state on each rule's own graph, deciding each policy's bound
by one forward max-plus pass over its graph of (state, DP key) nodes,
each holding one weight sum, shared by the kinds of one rule and bound,
and walking the tree of prefixes only when a pass finds a counterexample
or a broken invariant; ``sweep`` scans eta or k,
one ``measure_ratio`` run per setting with the window-bound oracle (the LP
relaxation, an upper bound on opt), and marks the empirical optimum next
to the formula one;
``run_adversary_demo`` measures an adversarial sequence against its
target like any other ratio run.

Every run charges the flush fee tau once per wallet flushed (or pool
tranche), and flushes leftover committed value at the end exactly when
tau > 0 (the threshold policy always does).  Results hold totals only: a
run's log is its policy's ``machine.trace``, and a batch writes the trace
of its last repetition, so it keeps one trace at a time.
``ExperimentConfig.from_json_obj`` reads every run's settings, from a
config file or the CLI's flags: a field left out takes the dataclass
default, and a field it does not read is refused.
Ratio and sweep results serialize to fixed-column CSVs through one
writer; traces to newline-delimited JSON.  Identical config and seed
reproduce byte-identical outputs.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from fractions import Fraction

from . import formulas
from .model import (
    PPM,
    CollateralError,
    EventTrace,
    ModelParams,
    RunResult,
    TransactionSequence,
    known_fields,
    typed_field,
    validate_window_bound,
)
from .oracles import (
    BudgetExceeded,
    opt_general_utility,
    opt_general_value,
    opt_kwallet_value,
    opt_utility_upper_bound,
    opt_value_extend,  # unused here; bench/tracer.py times calls by this name
    opt_value_key_step,
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


class ConfigError(CollateralError):
    pass


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
    log stays in ``policy.machine.trace``.
    """
    seq.validate_values(policy.params.T)
    step = policy.step
    for slot, value in zip(seq.slots, seq.values):
        step(slot, value)
    if seq.horizon > (seq.slots[-1] if seq.slots else 0):
        policy.step(seq.horizon, None)
    policy.finish(seq.horizon)
    validate_window_bound(policy.machine.trace, policy.params)
    return RunResult.from_machine(policy.machine, seq)


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
        return Fraction(opt) / Fraction(alg)
    return math.inf


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

    def __post_init__(self) -> None:
        if self.oracle not in ORACLE_KINDS:
            raise ConfigError(f"unknown oracle {self.oracle!r}; expected {ORACLE_KINDS}")
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be positive, got {self.repetitions}")
        if self.repetitions > MAX_REPETITIONS:
            raise ConfigError(
                f"repetitions must be at most {MAX_REPETITIONS}, got {self.repetitions}"
            )
        sources = [
            s for s in (self.workload, self.seq_file, self.sequence) if s is not None
        ]
        if len(sources) != 1:
            raise ConfigError("exactly one of workload, seq_file, sequence is required")
        check_policy_kind(self.policy, ConfigError)  # before anything runs

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        """The config a JSON object describes; the one reader of run settings.

        Only ``params.C``, ``T``, ``F`` and ``policy`` are required: a field
        left out takes the dataclass default, and one not read is refused.
        """
        known = partial(known_fields, ConfigError)
        check = partial(typed_field, ConfigError)

        def given(*fields):
            return {key: check(key, obj[key], kind) for key, kind in fields if key in obj}

        try:
            known("config", check("config", obj, "an object"), CONFIG_FIELDS)
            pp = known("params", check("params", obj["params"], "an object"), PARAMS_FIELDS)
            # indexing names a missing C, T or F; ModelParams defaults the rest
            params = ModelParams(**dict(pp, C=pp["C"], T=pp["T"], F=pp["F"]))
            workload = obj.get("workload")
            outputs = check("outputs", obj.get("outputs", {}), "an object")
            known("outputs", outputs, ("csv", "trace"))
            return cls(
                params=params,
                policy=check("policy", obj["policy"], "a string"),
                **given(("seed", "an integer")),
                workload=None if workload is None else WorkloadSpec.from_json_obj(workload),
                seq_file=check("seqFile", obj.get("seqFile"), "a string", True),
                **given(("oracle", "a string"), ("repetitions", "an integer")),
                csv_path=check("outputs.csv", outputs.get("csv"), "a string", True),
                trace_path=check("outputs.trace", outputs.get("trace"), "a string", True),
            )
        except KeyError as missing:
            raise ConfigError(f"config missing field {missing}") from None
        except CollateralError:
            raise
        except (TypeError, ValueError) as err:
            raise ConfigError(f"malformed config: {err}") from None

    def sequence_for(self, rep: int) -> TransactionSequence:
        """Repetition rep's sequence: the workload's draw for rep, else the
        given sequence or the file's, which is read again at every call."""
        if self.sequence is not None:
            return self.sequence
        if self.seq_file is not None:
            return read_sequence_csv(self.seq_file)
        return gen_stochastic(self.workload.with_seed(self.workload.seed + rep))

    def policy_for(self, rep: int):
        return make_policy(self.policy, self.params, seed=self.seed + rep)


def run_policy(config: ExperimentConfig) -> RunResult:
    """Run the configured policy once (repetition 0) and write outputs."""
    policy = config.policy_for(0)
    result = run_sequence(policy, config.sequence_for(0))
    if config.trace_path:
        write_trace_ndjson(policy.machine.trace, config.trace_path)
    if config.csv_path:
        row = _csv_row(config, 0, config.seed, result, None)
        write_results_csv([row], config.csv_path)
    return result


def measure_ratio(config: ExperimentConfig) -> RatioReport:
    """Run repetitions, compare each against the configured oracle; rows
    keep totals only, and the trace written is the last repetition's."""
    rows = []
    for rep in range(config.repetitions):
        if rep == 0 or config.workload is not None:  # a file's is the same each time
            seq = config.sequence_for(rep)
        policy = config.policy_for(rep)
        rows.append(_ratio_row(config, rep, seq, run_sequence(policy, seq)))
    report = RatioReport(config, rows)
    if config.csv_path:
        write_results_csv(
            [_csv_row(config, r.run_id, r.seed, r.result, r) for r in rows],
            config.csv_path,
        )
    if config.trace_path:
        write_trace_ndjson(policy.machine.trace, config.trace_path)
    return report


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
        if exact > sys.float_info.max:
            raise ConfigError(f"{bound_kind} bound is past the float range")
        bound = float(exact)
        if bound_kind == "value":
            lhs, rhs = opt_value, result.settled_value
        else:
            lhs, rhs = opt_utility, result.utility
        bound_ok = lhs <= exact * rhs + slack
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
            raise ConfigError(f"max_len must be positive, got {self.max_len}")
        if not self.values:
            raise ConfigError("values must not be empty")
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


class _StateTable:
    """States met by exhaustive_verify's walk and their transitions.

    Each state gets a small id on first sight.  ``reps[id]`` is what the
    state is stepped from (a policy in that state with its slot, or a DP
    key's rows), and ``rows[id]`` holds one transition per symbol, filled
    when first asked for.  A state's transitions do not depend on the
    representative it was met with, so one serves every node.
    """

    __slots__ = ("ids", "reps", "rows", "width")

    def __init__(self, width: int):
        self.ids: dict = {}
        self.reps: list = []
        self.rows: list = []
        self.width = width

    def intern(self, state, rep) -> int:
        sid = self.ids.get(state)
        if sid is None:
            sid = self.ids[state] = len(self.reps)
            self.reps.append(rep)
            self.rows.append([None] * self.width)
        return sid


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

    A node of the tree of prefixes is known by each policy's
    ``state(slot)`` and the value DP's key, the rows of its layer with
    slots made relative, less the dominated ones (``opt_value_key_step``).
    Transition tables, local to the call, hold what one offer does: per
    rule and state the next state, the settled delta, the flush count and
    the invariants its flushes break, tagged by kind; per DP key the next
    key and the gain in V_opt.  Kinds with one group size g are one rule
    and share a table, so a rule is stepped once for all its kinds (fa and
    ftwf at k = 2).  A state's row is filled once, by stepping copies of
    one policy kept per state; a key's row by one ``opt_value_key_step``
    per symbol from the rows kept with the key, dominated ones included.
    Along an edge, policy i with bound num/den has the weight
    ``den*gain - num*delta``, and a prefix is a counterexample exactly
    when the sum of weights from the root to it is positive.

    Each rule's flushes and faults depend on its state alone, so one pass
    per rule over its own graph of states, one layer per slot, counts the
    prefixes that reach each state, adds prefixes times flushes on every
    edge to ``flush_events_checked``, and finds an edge that breaks an
    invariant of a kind on the rule.  Each policy's bound is decided on its
    own graph of (state, DP key) nodes by one forward max-plus pass, one
    layer per slot, each node holding the largest weight sum along a
    prefix that reaches it; kinds on one rule held to one bound share the
    pass.  When no
    pass finds a fault there is nothing to list.  Otherwise a depth-first
    walk over the values then the gap lists the counterexamples and
    violation texts in tree order, carrying per policy V_alg to test
    ``den*V_opt > num*V_alg``.  Only ``GroupFlushPolicy`` has such a
    state; other policies raise ConfigError.
    """
    # two or more symbols over more slots than the cap has bits are over the
    # cap, so a long max_len is refused before the power is built
    if (
        space.max_len > MAX_EXHAUST_SEQUENCES.bit_length()
        or space.sequence_count() > MAX_EXHAUST_SEQUENCES
    ):
        raise BudgetExceeded(
            f"{len(space.values) + 1}^{space.max_len} sequences exceed cap "
            f"{MAX_EXHAUST_SEQUENCES}"
        )
    params = ModelParams(C=space.C, T=space.T, F=space.F, k=space.k)
    params.require_kwallet()
    if policies is None:
        policies = default_exhaust_policies(params)
    if not policies:
        raise ConfigError("no policy has a checkable bound at these parameters")
    kinds = list(policies)
    n = len(kinds)
    roots = [make_policy(kind, params, seed=0) for kind in kinds]
    for kind, policy in zip(kinds, roots):
        if not isinstance(policy, GroupFlushPolicy):
            raise ConfigError(
                f"exhaustive verification needs a wallet-group policy, got {kind!r}"
            )
    bounds = [(b.numerator, b.denominator) for b in policies.values()]
    size = params.C // params.k
    saturated = params.load_ratio == 1
    # every sequence has max_len symbols, and each non-gap symbol ends a prefix
    sequences = space.sequence_count()
    summary = ExhaustSummary(
        space=space,
        policies=dict(policies),
        sequences=sequences,
        prefixes_checked=sequences - 1,
        counterexamples=[],
        invariant_violations=[],
        flush_events_checked=0,
    )
    symbols = tuple(space.values) + (None,)
    width = len(symbols)
    # kinds with one group size g are one rule and share its table; peers[i]
    # lists the kinds on kind i's rule
    rules = [p.g for p in roots]
    peers = [tuple(j for j in range(n) if rules[j] == rule) for rule in rules]
    by_rule = {rule: _StateTable(width) for rule in rules}
    tables = [by_rule[rule] for rule in rules]
    dp_table = _StateTable(width)

    def broken_invariants(kind: str, amounts: list) -> list[str]:
        """The invariants one step's flushes break, as texts to format with
        the slot ({0}) and the pairs before the step ({1})."""
        faults = []
        if kind == "fwf":
            if amounts[0] <= size - params.T:
                faults.append(f"fwf flush at slot {{0}} carries {amounts[0]} <= C/k-T")
        elif kind == "fa":
            for i in range(len(amounts)):
                for j in range(i + 1, len(amounts)):
                    if amounts[i] + amounts[j] <= size:
                        faults.append(
                            f"fa flush at slot {{0}}: wallets {i + 1},{j + 1} "
                            f"carry {amounts[i]}+{amounts[j]} <= C/k"
                        )
            if saturated and 2 * sum(amounts) < params.C:
                faults.append(f"fa flush at slot {{0}} carries {sum(amounts)} < C/2")
        elif kind == "ftwf" and saturated:
            if sum(amounts) < size:
                faults.append(
                    f"ftwf pair flush at slot {{0}} carries {sum(amounts)} < C/k"
                )
        return [f + " on {1}" for f in faults]

    def policy_row(i: int, sid: int) -> list:
        """The transitions of policy i's rule from state sid, one per symbol,
        filled on first use; their faults are (kind index, text) for every
        kind on the rule."""
        table = tables[i]
        row = table.rows[sid]
        if row[0] is not None:
            return row
        policy, slot = table.reps[sid]
        nxt = slot + 1
        for s, sym in enumerate(symbols):
            # a clone's trace holds only the events of this step
            p2 = policy.clone()
            p2.step(nxt, sym)
            amounts = p2.machine.trace.flush_amounts
            faults = ()
            if amounts:
                faults = tuple(
                    (j, text) for j in peers[i] for text in broken_invariants(kinds[j], amounts)
                )
            row[s] = (
                table.intern(p2.state(nxt), (p2, nxt)),
                p2.machine.settled - policy.machine.settled,
                len(amounts),
                faults,
            )
        return row

    def dp_row(kid: int) -> list:
        """The value DP's transitions from key kid, one per symbol, filled
        on first use."""
        row = dp_table.rows[kid]
        if row[0] is None:
            window = dp_table.reps[kid]
            for s, sym in enumerate(symbols):
                child, key, gain = opt_value_key_step(window, sym, space.C, space.F)
                row[s] = dp_table.intern(key, child), gain
        return row

    length = space.max_len
    root_sids = [table.intern(p.state(0), (p, 0)) for table, p in zip(tables, roots)]
    root_key = (((), 0),)
    root_kid = dp_table.intern(root_key, root_key)

    def rule_pass(i: int) -> tuple[int, bool]:
        """The flushes of policy i's rule on all prefixes, and whether one of
        its steps breaks an invariant: one layer per slot of the rule's own
        graph, each mapping a state to the number of prefixes reaching it."""
        flushes, broken = 0, False
        layer = {root_sids[i]: 1}
        for _ in range(length):
            below: dict = {}
            get = below.get
            for sid, paths in layer.items():
                for child, _, flushed, faults in policy_row(i, sid):
                    flushes += paths * flushed
                    if faults:
                        broken = True
                    below[child] = get(child, 0) + paths
            layer = below
        return flushes, broken

    def forward(i: int) -> bool:
        """Policy i's max-plus pass, after its rule's pass has filled the
        rule's rows: whether a prefix ends with a sum above 0."""
        num, den = bounds[i]
        rows, dp_rows = tables[i].rows, dp_table.rows
        # maps each (state id, DP key id) node at one slot to the largest
        # weight sum along a prefix reaching it
        layer = {(root_sids[i], root_kid): 0}
        for _ in range(length - 1):
            below: dict = {}
            get = below.get
            for (sid, kid), best in layer.items():
                dp_edges = dp_rows[kid]
                if dp_edges[0] is None:
                    dp_edges = dp_row(kid)
                for (child_sid, delta, _, _), (child_kid, gain) in zip(rows[sid], dp_edges):
                    total = best + den * gain - num * delta
                    child = child_sid, child_kid
                    if get(child, total - 1) < total:
                        below[child] = total
            layer = below
        # a gap gains and settles nothing, so a prefix whose sum is above 0
        # keeps it along gaps to the edges out of the last slot, which build
        # no layer
        for (sid, kid), best in layer.items():
            for (_, delta, _, _), (_, gain) in zip(rows[sid], dp_row(kid)):
                if best + den * gain - num * delta > 0:
                    return True
        return False

    rule_passes = {}  # rule -> its pass, shared by its kinds
    for i, rule in enumerate(rules):
        if rule not in rule_passes:
            rule_passes[rule] = rule_pass(i)
    summary.flush_events_checked = sum(rule_passes[rule][0] for rule in rules)
    # kinds on one rule held to one bound share the max-plus pass
    groups = {(rules[i], bounds[i]): i for i in range(n)}
    if not any(broken for _, broken in rule_passes.values()) and not any(
        forward(i) for i in groups.values()
    ):
        return summary

    path: list = []  # the (slot, value) pairs from the root to the node
    violations = summary.invariant_violations
    counterexamples = summary.counterexamples

    def walk(slot: int, sids: list, kid: int, v_algs: list, v_opt: int) -> None:
        """List the counterexamples and violations below a node."""
        nxt = slot + 1
        dp_edges = dp_row(kid)
        rows = [table.rows[sid] for table, sid in zip(tables, sids)]
        for s, sym in enumerate(symbols):
            child_kid, gain = dp_edges[s]
            opt_child = v_opt + gain
            child_sids = []
            child_algs = []
            for i in range(n):
                child_sid, delta, _, faults = rows[i][s]
                for j, fault in faults:
                    if j == i:
                        violations.append(fault.format(nxt, tuple(path)))
                num, den = bounds[i]
                alg_child = v_algs[i] + delta
                child_sids.append(child_sid)
                child_algs.append(alg_child)
                if sym is not None and den * opt_child > num * alg_child:
                    counterexamples.append(
                        Counterexample(
                            kinds[i], (*path, (nxt, sym)), opt_child, alg_child,
                            policies[kinds[i]],
                        )
                    )
            if sym is not None:
                path.append((nxt, sym))
            if nxt < length:
                walk(nxt, child_sids, child_kid, child_algs, opt_child)
            if sym is not None:
                path.pop()

    walk(0, root_sids, root_kid, [0] * n, 0)
    # walk's closure refers to itself: dropping it frees the tables now, not
    # at the cyclic GC's next pass
    del walk
    return summary


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
    raises BudgetExceeded, and one past MAX_ADVERSARY_OFFERS offers is
    refused while it is built.
    """
    policy = make_policy(target, params, seed=seed)
    if kind == "thm3":
        seq = thm3_seq(params, epsilon, rounds, policy)
    elif kind == "fwfkiller":
        seq = fwf_killer_seq(params, epsilon, rounds)
    elif kind == "burst":
        seq = epoch_burst_seq(params, rounds)
    else:
        raise ConfigError(f"unknown adversary {kind!r}; expected {ADVERSARY_KINDS}")
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
    ran, ConfigError names the first refusal and nothing is written;
    otherwise the rows go to ``config.csv_path`` when it is set.
    """
    if param not in ("eta", "k"):
        raise ConfigError(f"sweep parameter must be eta or k, got {param!r}")
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
                    raise ConfigError(f"k must be integral, got {v}")
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
        raise ConfigError(f"no {param} setting ran{first}")
    if param == "eta":
        best = max(candidates, key=lambda r: r.mean_utility)
    else:
        best = min(candidates, key=lambda r: r.worst_ratio)
    best.empirical_best = True
    if config.csv_path:
        write_results_csv(
            [
                {
                    "param": r.param,
                    "value": r.value,
                    "error": r.error or "",
                    "mean_settled": _float_or_blank(r.mean_settled),
                    "mean_flushes": _float_or_blank(r.mean_flushes),
                    "mean_utility": _float_or_blank(r.mean_utility),
                    "worst_ratio": _float_or_blank(r.worst_ratio),
                    "empirical_best": str(r.empirical_best).lower(),
                    "formula_optimum": r.formula_optimum,
                }
                for r in rows
            ],
            config.csv_path,
            SWEEP_COLUMNS,
        )
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


SWEEP_COLUMNS = [
    "param",
    "value",
    "error",
    "mean_settled",
    "mean_flushes",
    "mean_utility",
    "worst_ratio",
    "empirical_best",
    "formula_optimum",
]


def _float_or_blank(x) -> float | str:
    return "" if x is None else float(x)


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
            row["bound"] = repr(ratio_row.bound)
            row["bound_ok"] = "true" if ratio_row.bound_ok else "false"
    return row


def write_results_csv(
    rows: list[dict], path: str, columns: list[str] = RESULT_COLUMNS
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_trace_ndjson(trace: EventTrace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(trace.to_ndjson())
