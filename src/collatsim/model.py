"""Core domain types and the pool state machine.

Money is integral throughout: collateral C, cap T, transaction values and
the flush fee tau are nonnegative ints, while the settlement probability p
and the flush threshold eta are fixed-point parts-per-million.  Utility is
kept as an exact Fraction so competitive-bound checks never see float
noise: p times the settled value, less tau for each wallet flushed or pool
tranche flushed.  A threshold policy flushes pool tranches of eta*C, which
need not be a whole amount, so the pool keeps its ledger as ints in units
of 1/PPM: eta*C is the int eta_ppm*C there.  Exact values appear only at
the edges, in the trace's amounts and in the pool's error texts.

Time is a sequence of slots 1, 2, 3, ...  Within a slot the order is
fixed: collateral that finished its outage returns, then at most one
transaction arrives, then the settle-or-discard decision, then any flush.
A flush at slot t puts the flushed collateral offline for slots
t+1 .. t+F; it is usable again at slot t+F+1.

The pool is a ledger of its ``free`` and ``committed`` balances, updated
in place; its ``begin_slot(slot)`` is the only place collateral returns,
all of it whose outage ended before ``slot``.  Every policy is its own
machine: the threshold policy is a pool, and the wallet policies keep
their state lists.

Each machine logs its run to the sink its driver gives it, and keeps no
totals: the sink is the run's one record.  Both sinks keep the settles,
as two int columns, for the window check, and count the flushes; a run's
settled value and flush count are read off them.  A run whose
trace is written gets an ``EventTrace``, which also writes every event as
its NDJSON line when it is logged, an offer's arrive line together with
the line of its settle or discard; any other run gets a ``SettleLog``,
which keeps the settles and the flush count alone.  The program only
writes the trace; nothing here parses it back.  A
``TransactionSequence`` is built from its two int columns, slots and
values, or from ``(slot, value)`` pairs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import lt
from typing import NamedTuple

PPM = 10**6
NOTHING_OUT = sys.maxsize  # a pending return slot while nothing is out


class CollateralError(Exception):
    """Every refusal this package raises, its text saying why; the one
    subclass, ``formulas.DomainError``, marks an input a closed form has
    no value for."""


FIELD_KINDS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    # bounded by the float range, since the generators draw with these as floats
    "a finite number": lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and -sys.float_info.max <= v <= sys.float_info.max
    ),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
}


def typed_field(name: str, value, kind: str, optional: bool = False):
    """Return an input field's ``value`` if it is ``kind``, else raise CollateralError.

    ``kind`` is a key of FIELD_KINDS, and a bool is never a number.
    ``optional`` also admits None, as read for a field left out.
    """
    if not (optional and value is None or FIELD_KINDS[kind](value)):
        allowed = f"{kind} or null" if optional else kind
        raise CollateralError(f"{name} must be {allowed}, got {value!r}")
    return value


def known_fields(where: str, obj, names: tuple[str, ...]):
    """Return ``obj``; raise CollateralError on its first key not in ``names``.

    Only an object's keys are checked: a value of another type is returned
    as it is, for the reader's own type check to refuse.
    """
    if isinstance(obj, dict):
        for key in obj:
            if key not in names:
                raise CollateralError(f"unknown {where} field {key!r}")
    return obj


def load_json(source: str, what: str, inline: bool = False):
    """The JSON value in the file ``source``, or in ``source`` itself if ``inline``."""
    text = source
    if not inline:  # read before parsing: a UnicodeDecodeError is a ValueError as well
        with open(source) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:  # bad syntax, too many digits, too deep
        raise CollateralError(f"{what} is not valid JSON: {err}") from None


class _Offer(NamedTuple):
    slot: int
    value: int


class Transaction(_Offer):
    """A payment request: one per slot at most, value in [1, T].

    An immutable (slot, value) tuple whose constructor checks both fields.
    """

    __slots__ = ()

    def __new__(cls, slot: int, value: int) -> "Transaction":
        if slot < 1:
            raise CollateralError(f"slot must be >= 1, got {slot}")
        if value < 1:
            raise CollateralError(f"value must be >= 1, got {value}")
        return tuple.__new__(cls, (slot, value))


class TransactionSequence:
    """An ordered batch of transactions with strictly increasing slots.

    The offers are two int columns, ``slots`` and ``values``, so a run
    reads them without an object per offer; iteration builds the
    ``Transaction``s for readers that want them.  The checks run over
    whole columns at C speed, and only a failing one scans for its first
    offender, with the text ``Transaction`` and the slot order check give.
    The horizon is the last simulated slot; it defaults to the slot of
    the final transaction and may extend past it (trailing quiet slots).
    """

    __slots__ = ("slots", "values", "horizon")

    def __init__(self, slots, values, horizon: int | None = None):
        slots, values = tuple(slots), tuple(values)
        if len(slots) != len(values):
            raise CollateralError(f"{len(slots)} slots but {len(values)} values")
        if slots and (min(slots) < 1 or min(values) < 1):
            for slot, value in zip(slots, values):
                Transaction(slot, value)  # raises at the first offender
        if not all(map(lt, slots, slots[1:])):
            a, b = next((a, b) for a, b in zip(slots, slots[1:]) if b <= a)
            raise CollateralError(f"slots must be strictly increasing: {a} then {b}")
        last = slots[-1] if slots else 0
        if horizon is None:
            horizon = last
        if horizon < last:
            raise CollateralError(f"horizon {horizon} precedes last slot {last}")
        self.slots = slots
        self.values = values
        self.horizon = horizon

    @classmethod
    def from_pairs(cls, pairs, horizon: int | None = None) -> "TransactionSequence":
        pairs = tuple(pairs)
        slots, values = zip(*pairs) if pairs else ((), ())
        return cls(slots, values, horizon)

    def offered_value(self) -> int:
        return sum(self.values)

    def validate_values(self, T: int) -> None:
        if self.values and max(self.values) > T:
            i = next(i for i, v in enumerate(self.values) if v > T)
            raise CollateralError(
                f"value {self.values[i]} at slot {self.slots[i]} exceeds cap {T}"
            )

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self):
        return map(Transaction, self.slots, self.values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TransactionSequence)
            and self.slots == other.slots
            and self.values == other.values
            and self.horizon == other.horizon
        )

    def __repr__(self) -> str:
        return f"TransactionSequence({self.slots!r}, {self.values!r}, horizon={self.horizon})"


# A group policy keeps a room and an outage end per wallet, and fa scans and
# flushes every wallet of its group, so a run's time grows with k.  Through
# the CLI (CPython 3.11, 2-vCPU VM) over 10^5 slots that all offer, fa takes
# ~1.4 s and fwf ~0.3 s at k = 1,000 (53 MB peak), and fa ~11 s at k = 10^4.
MAX_WALLETS = 1_000


@dataclass(frozen=True)
class ModelParams:
    """Shared model parameters.

    C      total collateral (int > 0)
    T      per-transaction value cap (1 <= T <= C)
    F      outage length in slots after a flush (int >= 1)
    k      wallet count for the wallet policies (pool users leave k=1)
    p_ppm  settlement reward rate p in parts-per-million of value
    tau    flat fee per flush event (int >= 0); requires p*C > tau
    eta_ppm  optional flush threshold eta for the pool policy, in ppm of C
    """

    C: int
    T: int
    F: int
    k: int = 1
    p_ppm: int = PPM
    tau: int = 0
    eta_ppm: int | None = None

    def __post_init__(self) -> None:
        for name in ("C", "T", "F", "k", "p_ppm", "tau"):
            typed_field(name, getattr(self, name), "an integer")
            if name in ("C", "T", "k", "tau"):  # as formulas_report bounds them
                typed_field(name, getattr(self, name), "a finite number")
        typed_field("eta_ppm", self.eta_ppm, "an integer", optional=True)
        if self.C < 1:
            raise CollateralError(f"C must be positive, got {self.C}")
        if not 1 <= self.T <= self.C:
            raise CollateralError(f"T must satisfy 1 <= T <= C, got T={self.T} C={self.C}")
        if self.F < 1:
            raise CollateralError(f"F must be positive, got {self.F}")
        if self.k < 1:
            raise CollateralError(f"k must be positive, got {self.k}")
        if not 1 <= self.p_ppm <= PPM:
            raise CollateralError(f"p_ppm must be in [1, {PPM}], got {self.p_ppm}")
        if self.tau < 0:
            raise CollateralError(f"tau must be nonnegative, got {self.tau}")
        # profitability assumption p*C > tau, checked in exact ppm units
        if self.p_ppm * self.C <= self.tau * PPM:
            raise CollateralError(
                f"p*C must exceed tau: p_ppm={self.p_ppm} C={self.C} tau={self.tau}"
            )
        if self.eta_ppm is not None:
            if self.eta_ppm * self.C < self.T * PPM or self.eta_ppm > PPM:
                raise CollateralError(
                    f"eta must satisfy T/C <= eta <= 1, got eta_ppm={self.eta_ppm}"
                )

    @property
    def p(self) -> Fraction:
        return Fraction(self.p_ppm, PPM)

    @property
    def eta(self) -> Fraction:
        if self.eta_ppm is None:
            raise CollateralError("eta_ppm is not set")
        return Fraction(self.eta_ppm, PPM)

    @property
    def load_ratio(self) -> Fraction:
        """r = k*T/C, the wallet-model load."""
        return Fraction(self.k * self.T, self.C)

    def require_kwallet(self) -> None:
        if self.k > MAX_WALLETS:
            raise CollateralError(f"k must be at most {MAX_WALLETS}, got {self.k}")
        if self.C % self.k != 0:
            raise CollateralError(f"C={self.C} not divisible by k={self.k}")
        if self.k * self.T > self.C:
            raise CollateralError(f"need k*T <= C, got k={self.k} T={self.T} C={self.C}")


# balances recur: in one 4,000-slot bursty eta run at C=200, T=60, F=2 (seeds 1
# and 97), a fresh memo hits 88% of its calls at eta_ppm 418000, 41% at 418123
@lru_cache(maxsize=1024)
def ppm_amount(units: int) -> str:
    """An amount of ``units``/PPM as NDJSON: an int when it is whole, else the
    quoted reduced "num/den", the bytes of ``str(Fraction(units, PPM))``."""
    if units % PPM == 0:
        return str(units // PPM)
    g = gcd(units, PPM)
    return f'"{units // g}/{PPM // g}"'


class SettleLog:
    """The sink of a run whose NDJSON is not written: the run's record.

    It has the logged calls of ``EventTrace`` and keeps, in log order,
    only what the program reads back: the settle columns ``settle_slots``
    and ``settle_values``, two int lists that the window check reads as
    they are, since a machine settles at most one offer a slot and so
    logs settles in strictly increasing slot order, and ``flushes``, the
    count of flushed wallets and pool tranches.  A run's totals are
    ``sum(settle_values)`` and ``flushes``.  Every other call logs
    nothing.
    """

    __slots__ = ("settle_slots", "settle_values", "flushes")

    def __init__(self):
        self.settle_slots: list[int] = []
        self.settle_values: list[int] = []
        self.flushes = 0

    def wallet_settle(self, slot: int, wallet: int, value: int) -> None:
        self.settle_slots.append(slot)
        self.settle_values.append(value)

    def pool_settle(self, slot: int, value: int, free: int, committed: int) -> None:
        self.settle_slots.append(slot)
        self.settle_values.append(value)

    def _flushed(self, *event) -> None:
        self.flushes += 1

    def _nothing(self, *event) -> None:
        pass

    wallet_flush = pool_flush = _flushed
    discard = wallet_online = pool_online = _nothing


class EventTrace(SettleLog):
    """The sink of a run whose NDJSON is written: the settles and the text.

    One method per logged call appends its NDJSON text to ``chunks``,
    from one f-string; a settle also appends to the settle columns it
    inherits, and a flush adds 1 to ``flushes``.  An offer's ``arrive``
    line goes out with the line of its outcome, as one string that
    converts the slot and value once:
    the policies log ``discard``, and a settle logs ``wallet_settle`` or
    ``pool_settle``.  A wallet policy's events are
    ``settle`` with the wallet and value, ``flush`` with the wallet and its
    committed value, and ``online`` with the wallet.  The pool logs
    ``settle`` with the value and its ``available`` and ``committed``
    balances after it, ``flush`` with the tranche and the two balances,
    and ``online`` with the returning tranche and ``committed``; its
    amounts are ints in 1/PPM, printed by the memoised ``ppm_amount``.
    Every line's bytes equal the json module's encoding of the same
    object with separators ``(",", ":")``, keys in the order slot, kind,
    wallet, value, flushAmount, available, committed.  Nothing in the
    program reads the text back: it is for the trace file.
    """

    __slots__ = ("chunks",)

    def __init__(self):
        super().__init__()
        self.chunks: list[str] = []

    def discard(self, slot: int, value: int) -> None:
        s, v = str(slot), str(value)
        self.chunks.append(
            f'{{"slot":{s},"kind":"arrive","value":{v}}}\n'
            f'{{"slot":{s},"kind":"discard","value":{v}}}\n'
        )

    def wallet_settle(self, slot: int, wallet: int, value: int) -> None:
        s, v = str(slot), str(value)
        self.chunks.append(
            f'{{"slot":{s},"kind":"arrive","value":{v}}}\n'
            f'{{"slot":{s},"kind":"settle","wallet":{wallet},"value":{v}}}\n'
        )
        self.settle_slots.append(slot)
        self.settle_values.append(value)

    def wallet_flush(self, slot: int, wallet: int, amount: int) -> None:
        self.chunks.append(
            f'{{"slot":{slot},"kind":"flush","wallet":{wallet},"flushAmount":{amount}}}\n'
        )
        self.flushes += 1

    def wallet_online(self, slot: int, wallet: int) -> None:
        self.chunks.append(f'{{"slot":{slot},"kind":"online","wallet":{wallet}}}\n')

    def pool_settle(self, slot: int, value: int, free: int, committed: int) -> None:
        s, v = str(slot), str(value)
        self.chunks.append(
            f'{{"slot":{s},"kind":"arrive","value":{v}}}\n'
            f'{{"slot":{s},"kind":"settle","value":{v},'
            f'"available":{ppm_amount(free)},"committed":{ppm_amount(committed)}}}\n'
        )
        self.settle_slots.append(slot)
        self.settle_values.append(value)

    def pool_flush(self, slot: int, amount: int, free: int, committed: int) -> None:
        self.chunks.append(
            f'{{"slot":{slot},"kind":"flush","flushAmount":{ppm_amount(amount)},'
            f'"available":{ppm_amount(free)},"committed":{ppm_amount(committed)}}}\n'
        )
        self.flushes += 1

    def pool_online(self, slot: int, amount: int, committed: int) -> None:
        self.chunks.append(
            f'{{"slot":{slot},"kind":"online","flushAmount":{ppm_amount(amount)},'
            f'"committed":{ppm_amount(committed)}}}\n'
        )

    def to_ndjson(self) -> str:
        """One compact JSON object per event and line, "" for no events."""
        return "".join(self.chunks)


class CollateralPool:
    """A single pool of C collateral; any committed portion may flush.

    A ledger of three balances that always sum to C: ``free`` collateral,
    ``committed`` (settled, not yet flushed) and the in-flight tranches, a
    FIFO of ``(amount, back_at)``.  Every amount is an int in units of
    1/PPM, so a tranche of eta*C is exact without fractions.  Settling
    moves value from free to committed; flushing amount a at slot t moves
    it from committed to a tranche that is offline for slots t+1..t+F.
    `begin_slot` comes first in a slot, slots increasing, and is the only
    place a tranche returns to ``free``; a caller may skip it while
    ``slot < next_back``, the earliest return (``NOTHING_OUT`` while no
    tranche is out).  ``trace`` is the sink it logs to, a new
    ``EventTrace`` unless one is given, and the run's record: the pool
    keeps no totals.  ``policies.ThresholdPolicy`` is a
    pool that adds its rule and steps itself through these methods.
    """

    __slots__ = ("params", "free", "committed", "inflight", "next_back", "trace")

    def __init__(self, params: ModelParams, trace: SettleLog | None = None):
        self.params = params
        self.free = params.C * PPM
        self.committed = 0
        self.inflight: list[tuple[int, int]] = []  # (amount, back at slot)
        self.next_back = NOTHING_OUT
        self.trace = EventTrace() if trace is None else trace

    def begin_slot(self, slot: int) -> None:
        """Free every tranche whose outage ended before ``slot``, logging
        each ``online`` at its return slot."""
        inflight = self.inflight
        while inflight and inflight[0][1] <= slot:
            amount, back = inflight.pop(0)
            self.free += amount
            self.trace.pool_online(back, amount, self.committed)
        self.next_back = inflight[0][1] if inflight else NOTHING_OUT

    def settle(self, value: int, slot: int) -> None:
        """Settle an offer of ``value`` at ``slot`` from the free balance,
        which must cover it, logging the offer's arrive and settle."""
        units = value * PPM
        if self.free < units:
            raise CollateralError(
                f"pool has {Fraction(self.free, PPM)} available, needs {value}"
            )
        self.free -= units
        self.committed += units
        self.trace.pool_settle(slot, value, self.free, self.committed)

    def flush(self, amount: int, slot: int) -> None:
        """Flush ``amount`` units of 1/PPM of the committed collateral."""
        if amount <= 0:
            raise CollateralError(f"flush amount must be positive, got {Fraction(amount, PPM)}")
        if amount > self.committed:
            raise CollateralError(
                f"flush {Fraction(amount, PPM)} exceeds committed "
                f"{Fraction(self.committed, PPM)}"
            )
        self.committed -= amount
        self.inflight.append((amount, slot + self.params.F + 1))
        self.next_back = self.inflight[0][1]
        self.trace.pool_flush(slot, amount, self.free, self.committed)


@dataclass
class RunResult:
    """Totals for one policy run; utility is exact.  The run's log is the
    policy's sink, which the result does not hold."""

    settled_value: int
    flush_count: int
    utility: Fraction
    offered_value: int
    n_tx: int

    @classmethod
    def from_machine(cls, machine, seq: TransactionSequence) -> "RunResult":
        """Totals read off the sink of ``machine``, a policy, after it was
        stepped over seq; utility charges tau once per flush, a wallet or a
        pool tranche, and is one Fraction of ints in 1/PPM."""
        params, trace = machine.params, machine.trace
        settled = sum(trace.settle_values)
        return cls(
            settled_value=settled,
            flush_count=trace.flushes,
            utility=Fraction(params.p_ppm * settled - PPM * params.tau * trace.flushes, PPM),
            offered_value=seq.offered_value(),
            n_tx=len(seq),
        )


def first_overfull_window(
    slots: list[int], values: list[int], C: int, F: int
) -> tuple[int, int] | None:
    """The window law: the first F+1-slot window carrying more than C.

    ``slots`` and ``values`` are the columns of the settles, slots in
    nondecreasing order.  Returns ``(s, total)`` for the first settle
    whose window [s, s+F] sums above C, or None when every window fits.
    Two pointers, so O(n): the window grows at its right end and drops
    each settle once it starts past it.
    """
    n = len(slots)
    total = 0
    j = 0
    for s, v in zip(slots, values):
        end = s + F
        while j < n and slots[j] <= end:
            total += values[j]
            j += 1
        if total > C:
            return s, total
        total -= v
    return None


def validate_window_bound(trace: SettleLog, params: ModelParams) -> None:
    """Check that settled value in any F+1 consecutive slots is <= C.

    This holds for every correct run of either machine: a unit of
    collateral settles at most one transaction in any window of F+1
    slots, because flushed collateral is unusable for F slots.  The
    check is linear and every run pays it.  It reads the settle columns
    of the run's sink, either kind, as they are: a machine logs its settles in strictly
    increasing slot order, so the error names the first failing window.
    """
    bad = first_overfull_window(trace.settle_slots, trace.settle_values, params.C, params.F)
    if bad is not None:
        s, total = bad
        raise CollateralError(
            f"window bound violated: {total} > C={params.C} in slots "
            f"[{s}, {s + params.F}]"
        )
