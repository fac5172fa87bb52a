"""Workload generators: stochastic streams and adversarial constructions.

Every generator returns a TransactionSequence.  The starvation sequence
(thm3_seq) is built against a private copy of its target policy, so it
reacts to each decision the target makes and still runs like any other
sequence.

All generated values are ints in [1, max_value] and at most one
transaction occupies a slot.  Generation is deterministic per seed.  The
three adversarial builders raise CollateralError as soon as a sequence would
hold more than MAX_ADVERSARY_OFFERS offers, so no rounds, C/epsilon or F
makes one grow without bound.  A run steps only the offers, so a sequence
may reach any slot; only a stochastic workload, which draws once per slot
up to its horizon, refuses a horizon past MAX_SLOTS.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field

from .model import (
    FIELD_KINDS,
    CollateralError,
    ModelParams,
    Transaction,
    TransactionSequence,
    known_fields,
    typed_field,
)


# The adversarial builders refuse to offer more than this.  The run, its
# trace and the exact window DP that measure a sequence all grow with it:
# through the CLI (CPython 3.11) a burst of 140,000 offers peaked at 101 MB,
# one of 14,000 at 25 MB.
MAX_ADVERSARY_OFFERS = 20_000


# gen_stochastic draws once per slot up to a workload's horizon.  Through the
# CLI (CPython 3.11, 2-vCPU VM) fa over 10^5 slots that all offer takes 1.7 s
# at a 72 MB peak.
MAX_SLOTS = 100_000


def _offer(slots: list, values: list, slot: int, value: int) -> int:
    """Append an adversary's next offer to the columns and return its value;
    CollateralError past the cap."""
    if len(slots) == MAX_ADVERSARY_OFFERS:
        raise CollateralError(
            f"adversary sequence exceeds {MAX_ADVERSARY_OFFERS} offers at slot {slot}"
        )
    slots.append(slot)
    values.append(value)
    return value


# each workload kind and the valueParams knobs it reads, the rest refused;
# min and max bound a uniform draw in ints, the others are plain numbers
VALUE_KNOBS = {
    "poisson-uniform": ("min", "max"),
    "poisson-exponential": ("mean",),
    "poisson-pareto": ("tailIndex",),
    "constant": ("value",),
    "bursty": ("min", "max", "burstLen", "gapLen"),
}
WORKLOAD_KINDS = tuple(VALUE_KNOBS)


# the fields WorkloadSpec.from_json_obj reads; it refuses any other
WORKLOAD_FIELDS = (
    "kind", "arrivalRatePerMille", "horizon", "seed", "maxValue", "valueParams",
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
            raise CollateralError(f"unknown workload kind {self.kind!r}")
        for name in ("arrival_rate_per_mille", "horizon", "seed", "max_value"):
            typed_field(name, getattr(self, name), "an integer")
        if not 0 <= self.arrival_rate_per_mille <= 1000:
            raise CollateralError(
                f"arrival rate must be in [0, 1000], got {self.arrival_rate_per_mille}"
            )
        if self.horizon < 0:
            raise CollateralError(f"horizon must be nonnegative, got {self.horizon}")
        if self.horizon > MAX_SLOTS:
            raise CollateralError(f"sequence runs to slot {self.horizon}, past {MAX_SLOTS} slots")
        if self.max_value < 1:
            raise CollateralError(f"max_value must be positive, got {self.max_value}")
        # the exponential draw's default mean is max_value / 2, a float
        typed_field("max_value", self.max_value, "a finite number")
        vp = typed_field("valueParams", self.value_params, "an object")
        knobs = VALUE_KNOBS[self.kind]
        known_fields(f"{self.kind} valueParams", vp, knobs)
        for knob in knobs:
            if knob in vp and knob not in ("min", "max"):
                typed_field(knob, vp[knob], "a finite number")
        if "min" in knobs:
            lo, hi = self.value_range()
            is_int = FIELD_KINDS["an integer"]  # never a bool
            if not (is_int(lo) and is_int(hi) and 1 <= lo <= hi):
                raise CollateralError(f"bad uniform range [{lo}, {hi}]")
        if self.kind == "bursty":
            if vp.get("burstLen", 1) < 1 or vp.get("gapLen", 0) < 0:
                raise CollateralError(f"bursty needs burstLen >= 1, gapLen >= 0, got {vp}")
        if self.kind == "poisson-exponential" and vp.get("mean", 1) <= 0:
            raise CollateralError(f"exponential mean must be positive, got {vp['mean']}")
        if self.kind == "poisson-pareto" and vp.get("tailIndex", 1) <= 0:
            raise CollateralError(f"pareto tail index must be positive, got {vp['tailIndex']}")

    def value_range(self) -> tuple:
        """The [min, max] of a uniform value draw (poisson-uniform, bursty)."""
        return (
            self.value_params.get("min", 1),
            self.value_params.get("max", self.max_value),
        )

    @classmethod
    def from_json_obj(cls, obj: dict) -> "WorkloadSpec":
        typed_field("workload spec", obj, "an object")
        known_fields("workload", obj, WORKLOAD_FIELDS)
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
            raise CollateralError(f"workload spec missing field {missing}") from None

    def with_seed(self, seed: int) -> "WorkloadSpec":
        return WorkloadSpec(
            self.kind, self.arrival_rate_per_mille, self.horizon, seed,
            self.max_value, dict(self.value_params),
        )


def _clamp(v: float, max_value: int) -> int:
    return max(1, int(min(max_value, v)))  # caps an infinite draw too


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
    slots, values = [], []
    burst_len = vp.get("burstLen", 1)
    gap_len = vp.get("gapLen", 0)
    lo, hi = spec.value_range()
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
            value = _clamp(1 + rng.expovariate(1.0 / mean), spec.max_value)
        elif spec.kind == "poisson-pareto":
            try:
                draw = rng.paretovariate(vp.get("tailIndex", 1.5))
            except OverflowError:  # a variate past the float range is past any cap
                draw = math.inf
            value = _clamp(draw, spec.max_value)
        else:  # constant
            value = _clamp(vp.get("value", spec.max_value), spec.max_value)
        slots.append(slot)
        values.append(value)
    return TransactionSequence(slots, values, spec.horizon)


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
        raise CollateralError(
            f"killer sequence needs T = C/k, got T={params.T} C={params.C} k={params.k}"
        )
    if not 1 <= epsilon < params.T:
        raise CollateralError(f"need 1 <= epsilon < C/k, got {epsilon}")
    if rounds < 1:
        raise CollateralError(f"rounds must be positive, got {rounds}")
    step = -(-params.F // params.k) + 1
    slots, values = [], []
    slot = 1
    for _ in range(rounds):
        _offer(slots, values, slot, epsilon)
        _offer(slots, values, slot + 1, params.T)
        slot += max(step, 2)
    return TransactionSequence(slots, values)


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
        raise CollateralError(f"epochs must be positive, got {epochs}")
    size = params.C // params.k
    fills = params.k * (size // params.T)
    slots, values = [], []
    slot = 1
    for _ in range(epochs):
        for _ in range(fills):
            _offer(slots, values, slot, params.T)
            slot += 1
        _offer(slots, values, slot, params.T)  # trigger, discarded by FA
        for j in range(1, params.F + 1):
            _offer(slots, values, slot + j, params.T)
        slot += params.F + 1
    return TransactionSequence(slots, values)


def thm3_seq(
    params: ModelParams, epsilon: int, rounds: int, target
) -> TransactionSequence:
    """Probe-then-big rounds that starve a single-wallet policy.

    Requires T = C.  Each round offers value-epsilon probes, one per
    slot, until the target settles one, then a single value-C offer in
    the next slot; after C/epsilon discarded probes the round ends
    without the big offer.  F quiet slots separate rounds, F - 1 trail
    the last one.  A policy that settles the probe cannot take the big
    offer; one that keeps discarding forfeits the probes.

    The decisions come from stepping ``target`` through the offers, as a
    run does; it is a private copy of the policy under attack made with
    the same seed, which this consumes.
    Against a deterministic policy a sequence fixed in advance this way
    is as strong as an adversary that adapts during the run.  Against
    rand2 the copy holds the measured run's own coins, so the sequence
    is built by an adversary that knows them.  Its ratio is a per-seed
    outcome of that adversary (50/3 at seed 0 and 25 at seed 2 for
    C = T = 10, F = 2), not rand2's guarantee, which holds in expectation
    against an adversary fixed before the coins are drawn.
    """
    if params.k != 1:
        raise CollateralError(f"adversary targets one wallet, got k={params.k}")
    if epsilon < 1 or params.C % epsilon != 0:
        raise CollateralError(
            f"epsilon must divide C, got epsilon={epsilon} C={params.C}"
        )
    if rounds < 1:
        raise CollateralError(f"rounds must be positive, got {rounds}")
    if params.T != params.C:
        raise CollateralError(f"thm3 needs T = C, got T={params.T} C={params.C}")
    slots, values = [], []
    slot = 0
    for round_no in range(rounds):
        if round_no:
            slot += params.F  # quiet; the target catches up at its next step
        for _ in range(params.C // epsilon):
            slot += 1
            if target.step(slot, _offer(slots, values, slot, epsilon)):
                slot += 1
                target.step(slot, _offer(slots, values, slot, params.C))
                break
    return TransactionSequence(slots, values, horizon=slot + params.F - 1)


def write_sequence_csv(seq: TransactionSequence, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "value"])
        writer.writerows(zip(seq.slots, seq.values))


# read_sequence_csv reads a plain file this many bytes at a time, so the
# text it holds besides the columns stays bounded however long the file is
CSV_BLOCK_BYTES = 1 << 16
# the header lines of a plain file: LF or CRLF ended, or all the file holds
PLAIN_HEADERS = (b"slot,value\n", b"slot,value\r\n", b"slot,value")


def read_sequence_csv(path: str) -> TransactionSequence:
    """The sequence in a CSV file of a ``slot,value`` header and int rows.

    A plain file, as ``write_sequence_csv`` writes one, is split a block
    at a time at C speed.  Any other file is read row by row by the csv
    module: blank lines are skipped, fields past the second ignored, and
    the error names the first bad row: a field past the csv module's size
    limit, a row that is not two ints, or a slot or value below 1.  Both
    give the same columns or the same error.
    """
    columns = _plain_columns(path)
    if columns is None:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header != ["slot", "value"]:
                    raise CollateralError(f"expected header slot,value, got {header}")
                columns = _checked_columns(path, reader)
            except csv.Error as err:  # a field past the csv module's size limit
                raise CollateralError(f"{path} line {reader.line_num}: {err}") from None
    return TransactionSequence(*columns)


def _plain_columns(path: str) -> tuple[list[int], list[int]] | None:
    """The columns of a plain file, or None if the file is not plain.

    Plain is the header and then rows of two fields of ASCII digits, each
    line ended by LF or CRLF (the last may be unended), with no blank line
    and no field longer than ``csv.field_size_limit()``.  Such a file
    decodes the same in any locale's codec, and the csv module splits it
    exactly at its commas and line ends, so ``bytes.split`` and ``int``
    give the columns it would.  A block ends at its last line end; the
    partial line left is carried into the next.
    """
    limit = csv.field_size_limit()
    slots: list[int] = []
    values: list[int] = []
    rest = b""
    with open(path, "rb") as fh:
        if fh.readline(len(PLAIN_HEADERS[1])) not in PLAIN_HEADERS:
            return None
        while True:
            chunk = fh.read(CSV_BLOCK_BYTES)
            if chunk:
                text = rest + chunk
                end = text.rfind(b"\n") + 1
                body, rest = text[:end], text[end:]
                if len(rest) > limit:  # a line past the size limit
                    return None
            else:  # the last line may be unended
                body = rest + b"\n" if rest else b""
            if b"\r" in body:
                body = body.replace(b"\r\n", b"\n")
            if body:
                # what is not a digit must be a comma and a line end, row by row
                separators = body.translate(None, b"0123456789")
                if separators != b",\n" * (len(separators) // 2):
                    return None
                fields = body.replace(b"\n", b",").split(b",")
                fields.pop()  # the empty field after the last line end
                if len(body) > limit and max(map(len, fields)) > limit:
                    return None
                try:
                    slots += map(int, fields[0::2])
                    values += map(int, fields[1::2])
                except ValueError:  # an empty field, or more digits than int() reads
                    return None
            if not chunk:
                return slots, values


def _checked_columns(path: str, reader) -> tuple[list[int], list[int]]:
    """The columns of the rows left in ``reader``, read one row at a time
    to raise at the first bad one."""
    slots: list[int] = []
    values: list[int] = []
    for row in reader:
        if not row:
            continue
        try:
            slot, value = int(row[0]), int(row[1])
        except (ValueError, IndexError):
            raise CollateralError(
                f"{path} line {reader.line_num}: expected slot,value integers, got {row}"
            ) from None
        Transaction(slot, value)  # its text for a slot or value below 1
        slots.append(slot)
        values.append(value)
    return slots, values
