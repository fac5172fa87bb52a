"""Workload generators: stochastic streams and adversarial constructions.

Static generators return a TransactionSequence.  The adaptive adversary
is a session object stepped in lockstep with a target policy: each call
hands back the next emission (a transaction, a quiet slot, or the end
marker) and may depend on every decision the target made so far.

All generated values are ints in [1, max_value] and at most one
transaction occupies a slot.  Generation is deterministic per seed.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field

from .model import (
    CollateralError,
    InvalidParams,
    ModelParams,
    Transaction,
    TransactionSequence,
)


class InvalidSpec(CollateralError):
    pass


class NotSingleWallet(CollateralError):
    pass


class EpsilonDoesNotDivideC(CollateralError):
    pass


WORKLOAD_KINDS = (
    "poisson-uniform",
    "poisson-exponential",
    "poisson-pareto",
    "constant",
    "bursty",
)


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a stochastic workload.

    arrival_rate_per_mille: per-slot arrival probability in 1/1000ths.
    value_params: per-kind value distribution knobs (see gen_stochastic).
    max_value: cap applied to every generated value (the model's T).
    """

    kind: str
    arrival_rate_per_mille: int
    horizon: int
    seed: int
    max_value: int
    value_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise InvalidSpec(f"unknown workload kind {self.kind!r}")
        for name in ("arrival_rate_per_mille", "horizon", "seed", "max_value"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidSpec(f"{name} must be an integer, got {v!r}")
        if not 0 <= self.arrival_rate_per_mille <= 1000:
            raise InvalidSpec(
                f"arrival rate must be in [0, 1000], got {self.arrival_rate_per_mille}"
            )
        if self.horizon < 0:
            raise InvalidSpec(f"horizon must be nonnegative, got {self.horizon}")
        if self.max_value < 1:
            raise InvalidSpec(f"max_value must be positive, got {self.max_value}")
        if not isinstance(self.value_params, dict):
            raise InvalidSpec(f"valueParams must be an object, got {self.value_params!r}")
        if self.kind in ("poisson-uniform", "bursty"):
            lo, hi = self.value_range()
            if not (isinstance(lo, int) and isinstance(hi, int) and 1 <= lo <= hi):
                raise InvalidSpec(f"bad uniform range [{lo}, {hi}]")

    def value_range(self) -> tuple:
        """The [min, max] of a uniform value draw (poisson-uniform, bursty)."""
        return (
            self.value_params.get("min", 1),
            self.value_params.get("max", self.max_value),
        )

    @classmethod
    def from_json_obj(cls, obj: dict) -> "WorkloadSpec":
        if not isinstance(obj, dict):
            raise InvalidSpec(f"workload spec must be an object, got {obj!r}")
        try:
            return cls(
                kind=obj["kind"],
                arrival_rate_per_mille=obj["arrivalRatePerMille"],
                horizon=obj["horizon"],
                seed=obj["seed"],
                max_value=obj["maxValue"],
                value_params=obj.get("valueParams", {}),
            )
        except KeyError as missing:
            raise InvalidSpec(f"workload spec missing field {missing}") from None

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "arrivalRatePerMille": self.arrival_rate_per_mille,
            "valueParams": dict(self.value_params),
            "horizon": self.horizon,
            "seed": self.seed,
            "maxValue": self.max_value,
        }

    def with_seed(self, seed: int) -> "WorkloadSpec":
        return WorkloadSpec(
            self.kind, self.arrival_rate_per_mille, self.horizon, seed,
            self.max_value, dict(self.value_params),
        )


def _clamp(v: float, max_value: int) -> int:
    return max(1, min(max_value, int(v)))


def gen_stochastic(spec: WorkloadSpec) -> TransactionSequence:
    """Sample a workload; same spec (and seed) always gives the same result.

    Value distributions by kind:
      poisson-uniform      uniform int in [min, max]
      poisson-exponential  1 + floor(Exp(mean)), capped
      poisson-pareto       floor of a Pareto(tailIndex) variate, capped
      constant             the fixed `value`
      bursty               uniform [min, max]; arrivals only during bursts
                           of burstLen slots separated by gapLen quiet slots
    """
    rng = random.Random(spec.seed)
    vp = spec.value_params
    rate = spec.arrival_rate_per_mille / 1000.0
    txs = []
    burst_len = vp.get("burstLen", 1)
    gap_len = vp.get("gapLen", 0)
    lo, hi = spec.value_range()
    if spec.kind == "bursty" and (burst_len < 1 or gap_len < 0):
        raise InvalidSpec(f"bursty needs burstLen >= 1, gapLen >= 0, got {vp}")
    for slot in range(1, spec.horizon + 1):
        if spec.kind == "bursty":
            in_burst = (slot - 1) % (burst_len + gap_len) < burst_len
            if not in_burst or rng.random() >= rate:
                continue
        elif rng.random() >= rate:
            continue
        if spec.kind in ("poisson-uniform", "bursty"):
            value = _clamp(rng.randint(lo, hi), spec.max_value)
        elif spec.kind == "poisson-exponential":
            mean = vp.get("mean", spec.max_value / 2)
            if mean <= 0:
                raise InvalidSpec(f"exponential mean must be positive, got {mean}")
            value = _clamp(1 + rng.expovariate(1.0 / mean), spec.max_value)
        elif spec.kind == "poisson-pareto":
            tail = vp.get("tailIndex", 1.5)
            if tail <= 0:
                raise InvalidSpec(f"pareto tail index must be positive, got {tail}")
            value = _clamp(rng.paretovariate(tail), spec.max_value)
        else:  # constant
            value = _clamp(vp.get("value", spec.max_value), spec.max_value)
        txs.append(Transaction(slot, value))
    return TransactionSequence(txs, spec.horizon)


def fwf_killer_seq(
    params: ModelParams, epsilon: int, rounds: int
) -> TransactionSequence:
    """Alternating tiny/full-size pairs that starve the cyclic-flush policy.

    Requires the saturated regime T = C/k.  Each round places value
    epsilon at slot s and value C/k at slot s+1; rounds start every
    ceil(F/k)+1 slots, which is exactly enough for the round-robin to
    always present a fresh online wallet to the tiny transaction.  The
    cyclic policy settles only the epsilons while the full-size
    transactions (all of which an offline optimum can clear at this
    spacing) trigger flush after flush.
    """
    params.require_kwallet()
    if params.k * params.T != params.C:
        raise InvalidParams(
            f"killer sequence needs T = C/k, got T={params.T} C={params.C} k={params.k}"
        )
    if not 1 <= epsilon < params.T:
        raise InvalidParams(f"need 1 <= epsilon < C/k, got {epsilon}")
    if rounds < 1:
        raise InvalidParams(f"rounds must be positive, got {rounds}")
    step = math.ceil(params.F / params.k) + 1
    txs = []
    slot = 1
    for _ in range(rounds):
        txs.append(Transaction(slot, epsilon))
        txs.append(Transaction(slot + 1, params.T))
        slot += max(step, 2)
    return TransactionSequence(txs)


def epoch_burst_seq(params: ModelParams, epochs: int) -> TransactionSequence:
    """Fill-then-burst stress pattern for the flush-all policy.

    Per epoch: value-T transactions fill every wallet to within T of
    capacity, one more value-T transaction triggers the collective
    flush, and value-T transactions keep arriving through all F outage
    slots (the most value the one-per-slot model can place there).  The
    next epoch starts the slot the wallets return.
    """
    params.require_kwallet()
    if epochs < 1:
        raise InvalidParams(f"epochs must be positive, got {epochs}")
    size = params.C // params.k
    fills = params.k * (size // params.T)
    txs = []
    slot = 1
    for _ in range(epochs):
        for _ in range(fills):
            txs.append(Transaction(slot, params.T))
            slot += 1
        txs.append(Transaction(slot, params.T))  # trigger, discarded by FA
        for j in range(1, params.F + 1):
            txs.append(Transaction(slot + j, params.T))
        slot += params.F + 1
    return TransactionSequence(txs)


GAP = object()  # quiet slot
DONE = object()  # adversary finished


class Thm3Adversary:
    """Adaptive adversary against any deterministic single-wallet policy.

    Round structure: emit value-epsilon probes one per slot until the
    target settles one, then emit a single value-C transaction in the
    next slot; if C/epsilon probes all get discarded, give up on the
    round.  Either way, F quiet slots follow before the next round.  A
    policy that settles the probe cannot take the big transaction; one
    that keeps discarding forfeits the probes.

    Step with ``next_emission(last_settled)`` where the argument reports
    whether the previous slot's emission was settled (None on the first
    call or after a quiet slot).
    """

    def __init__(self, params: ModelParams, epsilon: int, rounds: int):
        if params.k != 1:
            raise NotSingleWallet(f"adversary targets one wallet, got k={params.k}")
        if epsilon < 1 or params.C % epsilon != 0:
            raise EpsilonDoesNotDivideC(
                f"epsilon must divide C, got epsilon={epsilon} C={params.C}"
            )
        if rounds < 1:
            raise InvalidParams(f"rounds must be positive, got {rounds}")
        self.params = params
        self.epsilon = epsilon
        self.rounds = rounds
        self.max_probes = params.C // epsilon
        self.slot = 0
        self.round_no = 1
        self.phase = "probe"  # probe | big | gap
        self.probes_sent = 0
        self.gaps_left = 0

    def next_emission(self, last_settled: bool | None):
        """Return the next Transaction, GAP, or DONE."""
        if self.round_no > self.rounds:
            return DONE
        self.slot += 1
        if self.phase == "probe":
            if self.probes_sent > 0 and last_settled:
                self.phase = "gap"
                self.gaps_left = self.params.F
                self.probes_sent = 0
                return Transaction(self.slot, self.params.C)
            if self.probes_sent == self.max_probes:
                # nothing settled; skip the big transaction this round
                self.probes_sent = 0
                self.phase = "gap"
                self.gaps_left = self.params.F
                # fall through to gap handling below
            else:
                self.probes_sent += 1
                return Transaction(self.slot, self.epsilon)
        if self.phase == "gap":
            if self.gaps_left > 0:
                self.gaps_left -= 1
                if self.gaps_left == 0:
                    self.phase = "probe"
                    self.round_no += 1
                    if self.round_no > self.rounds:
                        self.slot -= 1
                        return DONE
                return GAP
        raise AssertionError("unreachable adversary state")


def write_sequence_csv(seq: TransactionSequence, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "value"])
        for t in seq:
            writer.writerow([t.slot, t.value])


def read_sequence_csv(path: str, horizon: int | None = None) -> TransactionSequence:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["slot", "value"]:
            raise InvalidSpec(f"expected header slot,value, got {header}")
        txs = []
        for row in reader:
            if not row:
                continue
            try:
                txs.append(Transaction(int(row[0]), int(row[1])))
            except (ValueError, IndexError):
                raise InvalidSpec(
                    f"{path} line {reader.line_num}: expected slot,value integers, got {row}"
                ) from None
    return TransactionSequence(txs, horizon)
