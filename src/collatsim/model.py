"""Core domain types and the two collateral state machines.

Money is integral throughout: collateral C, cap T, transaction values and
the flush fee tau are nonnegative ints, while the settlement probability p
and the flush threshold eta are fixed-point parts-per-million.  Utility is
kept as an exact Fraction so competitive-bound checks never see float
noise.  The single place fractional amounts appear is the pool: a
threshold policy may flush tranches of eta*C, which need not be integral,
so pool arithmetic accepts Fraction amounts and stays exact.

Time is a sequence of slots 1, 2, 3, ...  Within a slot the order is
fixed: collateral that finished its outage returns, then at most one
transaction arrives, then the settle-or-discard decision, then any flush.
A flush at slot t puts the flushed collateral offline for slots
t+1 .. t+F; it is usable again at slot t+F+1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

PPM = 10**6


class CollateralError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParams(CollateralError):
    pass


class IndexOutOfRange(CollateralError):
    pass


class WalletOffline(CollateralError):
    pass


class InsufficientCollateral(CollateralError):
    pass


class FlushExceedsCommitted(CollateralError):
    pass


class ZeroFlush(CollateralError):
    pass


@dataclass(frozen=True)
class Transaction:
    """A payment request: one per slot at most, value in [1, T]."""

    slot: int
    value: int

    def __post_init__(self) -> None:
        if self.slot < 1:
            raise InvalidParams(f"slot must be >= 1, got {self.slot}")
        if self.value < 1:
            raise InvalidParams(f"value must be >= 1, got {self.value}")


class TransactionSequence:
    """An ordered batch of transactions with strictly increasing slots.

    The horizon is the last simulated slot; it defaults to the slot of
    the final transaction and may extend past it (trailing quiet slots).
    """

    __slots__ = ("txs", "horizon", "_by_slot")

    def __init__(self, txs, horizon: int | None = None):
        txs = tuple(txs)
        for a, b in zip(txs, txs[1:]):
            if b.slot <= a.slot:
                raise InvalidParams(
                    f"slots must be strictly increasing: {a.slot} then {b.slot}"
                )
        last = txs[-1].slot if txs else 0
        if horizon is None:
            horizon = last
        if horizon < last:
            raise InvalidParams(f"horizon {horizon} precedes last slot {last}")
        self.txs = txs
        self.horizon = horizon
        self._by_slot = {t.slot: t for t in txs}

    @classmethod
    def from_pairs(cls, pairs, horizon: int | None = None) -> "TransactionSequence":
        return cls((Transaction(s, v) for s, v in pairs), horizon)

    def at(self, slot: int) -> Transaction | None:
        return self._by_slot.get(slot)

    def prefix(self, slot: int) -> "TransactionSequence":
        """The sequence truncated to slots 1..slot (horizon = slot)."""
        return TransactionSequence((t for t in self.txs if t.slot <= slot), slot)

    def offered_value(self) -> int:
        return sum(t.value for t in self.txs)

    def validate_values(self, T: int) -> None:
        for t in self.txs:
            if t.value > T:
                raise InvalidParams(f"value {t.value} at slot {t.slot} exceeds cap {T}")

    def __len__(self) -> int:
        return len(self.txs)

    def __iter__(self):
        return iter(self.txs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TransactionSequence)
            and self.txs == other.txs
            and self.horizon == other.horizon
        )

    def __repr__(self) -> str:
        return f"TransactionSequence({list(self.txs)!r}, horizon={self.horizon})"


@dataclass(frozen=True)
class ModelParams:
    """Shared model parameters.

    C      total collateral (int > 0)
    T      per-transaction value cap (1 <= T <= C)
    F      outage length in slots after a flush (int >= 1)
    k      wallet count for the wallet-bank machine (pool users leave k=1)
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
        if self.C < 1:
            raise InvalidParams(f"C must be positive, got {self.C}")
        if not 1 <= self.T <= self.C:
            raise InvalidParams(f"T must satisfy 1 <= T <= C, got T={self.T} C={self.C}")
        if self.F < 1:
            raise InvalidParams(f"F must be positive, got {self.F}")
        if self.k < 1:
            raise InvalidParams(f"k must be positive, got {self.k}")
        if not 1 <= self.p_ppm <= PPM:
            raise InvalidParams(f"p_ppm must be in [1, {PPM}], got {self.p_ppm}")
        if self.tau < 0:
            raise InvalidParams(f"tau must be nonnegative, got {self.tau}")
        # profitability assumption p*C > tau, checked in exact ppm units
        if self.p_ppm * self.C <= self.tau * PPM:
            raise InvalidParams(
                f"p*C must exceed tau: p_ppm={self.p_ppm} C={self.C} tau={self.tau}"
            )
        if self.eta_ppm is not None:
            if self.eta_ppm * self.C < self.T * PPM or self.eta_ppm > PPM:
                raise InvalidParams(
                    f"eta must satisfy T/C <= eta <= 1, got eta_ppm={self.eta_ppm}"
                )

    @property
    def p(self) -> Fraction:
        return Fraction(self.p_ppm, PPM)

    @property
    def eta(self) -> Fraction:
        if self.eta_ppm is None:
            raise InvalidParams("eta_ppm is not set")
        return Fraction(self.eta_ppm, PPM)

    @property
    def eta_collateral(self) -> Fraction:
        """The flush tranche size eta*C, exact (not always integral)."""
        return Fraction(self.eta_ppm * self.C, PPM)

    @property
    def wallet_size(self) -> int:
        self.require_kwallet()
        return self.C // self.k

    @property
    def load_ratio(self) -> Fraction:
        """r = k*T/C, the wallet-model load."""
        return Fraction(self.k * self.T, self.C)

    def require_kwallet(self) -> None:
        if self.C % self.k != 0:
            raise InvalidParams(f"C={self.C} not divisible by k={self.k}")
        if self.k * self.T > self.C:
            raise InvalidParams(f"need k*T <= C, got k={self.k} T={self.T} C={self.C}")


def _json_amount(x):
    """Ints pass through; integral Fractions collapse; the rest become 'num/den'."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x


# trace event kinds
ARRIVE = "arrive"
SETTLE = "settle"
DISCARD = "discard"
FLUSH = "flush"
ONLINE = "online"

_NDJSON = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class Event:
    slot: int
    kind: str
    wallet: int | None = None
    value: int | None = None
    flush_amount: int | Fraction | None = None
    available: int | Fraction | None = None
    committed: int | Fraction | None = None

    def to_json_obj(self) -> dict:
        obj = {"slot": self.slot, "kind": self.kind}
        if self.wallet is not None:
            obj["wallet"] = self.wallet
        if self.value is not None:
            obj["value"] = self.value
        if self.flush_amount is not None:
            obj["flushAmount"] = _json_amount(self.flush_amount)
        if self.available is not None:
            obj["available"] = _json_amount(self.available)
        if self.committed is not None:
            obj["committed"] = _json_amount(self.committed)
        return obj


class EventTrace:
    """Append-only event log for one run; the machines count the totals."""

    __slots__ = ("events",)

    def __init__(self, events=None):
        self.events = list(events) if events else []

    def add(self, slot: int, kind: str, **kw) -> None:
        self.events.append(Event(slot, kind, **kw))

    def to_ndjson(self) -> str:
        return "\n".join(
            _NDJSON.encode(e.to_json_obj()) for e in self.events
        ) + ("\n" if self.events else "")


class WalletBank:
    """k wallets of size C/k each; a wallet flushes as a whole.

    A wallet flushed at slot t is offline for slots t+1..t+F and comes
    back online with remaining capacity restored to C/k at slot t+F+1.
    `begin_slot` must be called once per slot, in order, before any other
    operation for that slot; it performs the restorations.  `settled` and
    `flushes` are the run's totals; `clone` copies them with an empty trace.
    """

    __slots__ = ("params", "size", "remaining", "offline_until",
                 "settled", "flushes", "trace")

    def __init__(self, params: ModelParams):
        params.require_kwallet()
        self.params = params
        self.size = params.C // params.k
        self.remaining = [self.size] * params.k
        self.offline_until = [0] * params.k
        self.settled = 0
        self.flushes = 0
        self.trace = EventTrace()

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.params.k:
            raise IndexOutOfRange(f"wallet index {i} out of 1..{self.params.k}")

    def begin_slot(self, slot: int) -> list[int]:
        """Restore wallets whose outage ended; returns their indices."""
        came_online = []
        for j in range(self.params.k):
            if self.offline_until[j] != 0 and self.offline_until[j] == slot - 1:
                self.remaining[j] = self.size
                self.offline_until[j] = 0
                self.trace.add(slot, ONLINE, wallet=j + 1)
                came_online.append(j + 1)
        return came_online

    def wallet_available(self, i: int, slot: int) -> bool:
        self._check_index(i)
        return self.offline_until[i - 1] < slot

    def committed(self, i: int) -> int:
        self._check_index(i)
        return self.size - self.remaining[i - 1]

    def settle(self, i: int, tx: Transaction, slot: int) -> None:
        self._check_index(i)
        if not self.wallet_available(i, slot):
            raise WalletOffline(f"wallet {i} offline at slot {slot}")
        if tx.value > self.remaining[i - 1]:
            raise InsufficientCollateral(
                f"wallet {i} has {self.remaining[i - 1]}, needs {tx.value}"
            )
        self.remaining[i - 1] -= tx.value
        self.settled += tx.value
        self.trace.add(slot, SETTLE, wallet=i, value=tx.value)

    def flush(self, i: int, slot: int) -> None:
        """Take wallet i offline; the whole wallet goes, committed or not."""
        self._check_index(i)
        if not self.wallet_available(i, slot):
            raise WalletOffline(f"wallet {i} already offline at slot {slot}")
        self.trace.add(slot, FLUSH, wallet=i, flush_amount=self.committed(i))
        self.offline_until[i - 1] = slot + self.params.F
        self.flushes += 1

    def clone(self) -> "WalletBank":
        other = object.__new__(WalletBank)
        other.params = self.params
        other.size = self.size
        other.remaining = list(self.remaining)
        other.offline_until = list(self.offline_until)
        other.settled = self.settled
        other.flushes = self.flushes
        other.trace = EventTrace()
        return other


class CollateralPool:
    """A single pool of C collateral; any committed portion may flush.

    Flushing amount a at slot t moves it to an in-flight tranche that
    rejoins the available balance at slot t+F+1.  Tranches are retired
    lazily whenever the pool is observed, so `available` is always
    consistent with the current slot.  `settled` and `flushes` count the
    run's settled value and flushed tranches.
    """

    __slots__ = ("params", "committed", "inflight", "settled", "flushes", "trace")

    def __init__(self, params: ModelParams):
        self.params = params
        self.committed: int | Fraction = 0
        self.inflight: list[tuple[int | Fraction, int]] = []  # (amount, back at slot)
        self.settled = 0
        self.flushes = 0
        self.trace = EventTrace()

    def _retire(self, slot: int) -> None:
        keep = []
        for amount, back_at in self.inflight:
            if back_at <= slot:
                self.trace.add(
                    slot, ONLINE, flush_amount=amount,
                    available=None, committed=self.committed,
                )
            else:
                keep.append((amount, back_at))
        self.inflight = keep

    def begin_slot(self, slot: int) -> None:
        self._retire(slot)

    def pending(self) -> int | Fraction:
        return sum(a for a, _ in self.inflight)

    def available(self, slot: int) -> int | Fraction:
        self._retire(slot)
        return self.params.C - self.committed - self.pending()

    def settle(self, tx: Transaction, slot: int) -> None:
        if self.available(slot) < tx.value:
            raise InsufficientCollateral(
                f"pool has {self.available(slot)} available, needs {tx.value}"
            )
        self.committed += tx.value
        self.settled += tx.value
        self.trace.add(
            slot, SETTLE, value=tx.value,
            available=self.params.C - self.committed - self.pending(),
            committed=self.committed,
        )

    def flush(self, amount: int | Fraction, slot: int) -> None:
        if amount <= 0:
            raise ZeroFlush(f"flush amount must be positive, got {amount}")
        if amount > self.committed:
            raise FlushExceedsCommitted(
                f"flush {amount} exceeds committed {self.committed}"
            )
        self.committed -= amount
        self.inflight.append((amount, slot + self.params.F + 1))
        self.flushes += 1
        self.trace.add(
            slot, FLUSH, flush_amount=amount,
            available=self.params.C - self.committed - self.pending(),
            committed=self.committed,
        )

    def clone(self) -> "CollateralPool":
        other = object.__new__(CollateralPool)
        other.params = self.params
        other.committed = self.committed
        other.inflight = list(self.inflight)
        other.settled = self.settled
        other.flushes = self.flushes
        other.trace = EventTrace()
        return other


@dataclass
class RunResult:
    """Totals for one policy run; utility is exact."""

    trace: EventTrace
    settled_value: int
    flush_count: int
    flush_actions: int
    utility: Fraction
    offered_value: int
    n_tx: int

    @classmethod
    def from_machine(
        cls,
        machine: "WalletBank | CollateralPool",
        seq: TransactionSequence,
        flush_actions: int,
        charge: str = "per-wallet",
    ) -> "RunResult":
        """Totals from the machine's counters after it was stepped over seq."""
        params = machine.params
        charged = machine.flushes if charge == "per-wallet" else flush_actions
        return cls(
            trace=machine.trace,
            settled_value=machine.settled,
            flush_count=machine.flushes,
            flush_actions=flush_actions,
            utility=params.p * machine.settled - params.tau * charged,
            offered_value=seq.offered_value(),
            n_tx=len(seq),
        )


def first_overfull_window(
    pairs: list[tuple[int, int]], C: int, F: int
) -> tuple[int, int] | None:
    """The window law: the first F+1-slot window carrying more than C.

    ``pairs`` are (slot, value) in nondecreasing slot order.  Returns
    ``(s, total)`` for the first pair whose window [s, s+F] sums above C,
    or None when every window fits.  Two pointers, so O(n): the window
    grows at its right end and drops each pair once it starts past it.
    """
    n = len(pairs)
    total = 0
    j = 0
    for s, v in pairs:
        end = s + F
        while j < n and pairs[j][0] <= end:
            total += pairs[j][1]
            j += 1
        if total > C:
            return s, total
        total -= v
    return None


def validate_window_bound(trace: EventTrace, params: ModelParams) -> None:
    """Check that settled value in any F+1 consecutive slots is <= C.

    This holds for every correct run of either machine: a unit of
    collateral settles at most one transaction in any window of F+1
    slots, because flushed collateral is unusable for F slots.  The
    check is linear and every run pays it.  The error names the first
    failing window in slot order, which is settle order in any trace
    the machines write.
    """
    settles = sorted((e.slot, e.value) for e in trace.events if e.kind == SETTLE)
    bad = first_overfull_window(settles, params.C, params.F)
    if bad is not None:
        s, total = bad
        raise CollateralError(
            f"window bound violated: {total} > C={params.C} in slots "
            f"[{s}, {s + params.F}]"
        )
