"""The online collateral-maintenance policies.

Every policy exposes the same stepping interface: ``step(slot, tx)`` is
called once per slot, in order, with the arriving transaction or None,
and returns the decision taken.  ``finish(slot, terminal_flushes)`` runs
once after the last slot; wallet policies flush leftover committed
collateral only when asked (utility accounting), the threshold policy
always does.  Policies are deterministic given params and seed.  Each
keeps its state machine under ``machine``; the machine's counters are the
run's totals and its trace only logs events.  ``clone`` copies the state,
counters included, and gives the copy an empty trace, so exhaustive
drivers can fork mid-run and read off the events of one step.

The three deterministic wallet policies are one rule, ``GroupFlushPolicy``:
first fit within an active group of g wallets; on a misfit, discard the
transaction, flush the group and rotate to the next group.  Arrivals
during an outage of the active group are discarded as well.  The presets
differ only in g: FlushAll ("fa") is g = k, FlushWhenFull ("fwf") g = 1
and FlushTwoWhenFull ("ftwf") g = 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    ARRIVE,
    DISCARD,
    CollateralPool,
    InvalidParams,
    ModelParams,
    Transaction,
    WalletBank,
)


class OddWalletCount(InvalidParams):
    pass


class InvalidEta(InvalidParams):
    pass


@dataclass(frozen=True)
class PolicyDecision:
    """What a policy did in one slot.

    action is 'settle', 'discard', or None (no arrival); flushed lists
    wallet indices flushed this slot; flush_amount is the pool tranche
    if the pool flushed.
    """

    action: str | None
    wallet: int | None = None
    flushed: tuple[int, ...] = ()
    flush_amount: int | Fraction | None = None


NO_ARRIVAL = PolicyDecision(None)


class GroupFlushPolicy:
    """First fit within the active group of g wallets; flush it on a misfit.

    The k wallets form k/g groups of consecutive wallets, (W_1..W_g),
    (W_g+1..W_2g), ..., and the first group starts active.  While any
    wallet of the active group is offline every arrival is discarded.
    Otherwise the transaction settles in the group's first wallet with
    room for it; if none has room it is discarded, the group's wallets
    are flushed in index order and the next group becomes active in
    cyclic order, even if a later group would be online sooner.
    """

    name = "group"

    def __init__(self, params: ModelParams, g: int):
        if g < 1 or params.k % g != 0:
            # sweep rows report this text, so the pair preset keeps its wording
            if g == 2:
                raise OddWalletCount(f"pair policy needs even k, got {params.k}")
            raise OddWalletCount(f"groups of {g} need k divisible by {g}, got {params.k}")
        self.params = params
        self.g = g
        self.machine = WalletBank(params)
        self.active = 1

    def step(self, slot: int, tx: Transaction | None) -> PolicyDecision:
        bank = self.machine
        bank.begin_slot(slot)
        if tx is None:
            return NO_ARRIVAL
        bank.trace.add(slot, ARRIVE, value=tx.value)
        hi = self.active * self.g
        lo = hi - self.g
        if max(bank.offline_until[lo:hi]) >= slot:
            bank.trace.add(slot, DISCARD, value=tx.value)
            return PolicyDecision("discard")
        remaining = bank.remaining
        for i in range(lo, hi):
            if tx.value <= remaining[i]:
                bank.settle(i + 1, tx, slot)
                return PolicyDecision("settle", wallet=i + 1)
        bank.trace.add(slot, DISCARD, value=tx.value)
        group = tuple(range(lo + 1, hi + 1))
        for i in group:
            bank.flush(i, slot)
        self.active = self.active % (self.params.k // self.g) + 1
        return PolicyDecision("discard", flushed=group)

    def finish(self, slot: int, terminal_flushes: bool = False) -> list[int]:
        if not terminal_flushes:
            return []
        return _flush_leftovers(self.machine, slot)

    def clone(self) -> "GroupFlushPolicy":
        other = object.__new__(type(self))
        other.params = self.params
        other.g = self.g
        other.machine = self.machine.clone()
        other.active = self.active
        return other


class FlushAllPolicy(GroupFlushPolicy):
    """FlushAll: one group of all k wallets, flushed together."""

    name = "fa"

    def __init__(self, params: ModelParams):
        super().__init__(params, params.k)


class FlushWhenFullPolicy(GroupFlushPolicy):
    """FlushWhenFull: one active wallet in strict cyclic order."""

    name = "fwf"

    def __init__(self, params: ModelParams):
        super().__init__(params, 1)


class FlushTwoWhenFullPolicy(GroupFlushPolicy):
    """FlushTwoWhenFull: wallets paired (W_1,W_2), (W_3,W_4), ...; needs even k."""

    name = "ftwf"

    def __init__(self, params: ModelParams):
        super().__init__(params, 2)


class RandTwoPolicy:
    """Single real wallet of size C driven by a simulated two-wallet run.

    A shadow FlushAll with two wallets of size C each is fed the same
    arrivals.  Each time the real wallet comes online (including at the
    start) a fair coin picks one shadow wallet; the real wallet then
    settles exactly the transactions that shadow wallet settles and
    flushes when the shadow run flushes.

    Coins come from ``coins`` (a zero-argument callable returning 0 or 1)
    when given, else from a seeded RNG.
    """

    name = "rand2"

    def __init__(self, params: ModelParams, seed: int | None = None, coins=None):
        if params.k != 1:
            raise InvalidParams(f"rand2 runs a single wallet, got k={params.k}")
        if coins is None and seed is None:
            raise InvalidParams("rand2 needs a seed or an explicit coin source")
        self.params = params
        self.machine = WalletBank(params)
        self.shadow = FlushAllPolicy(
            ModelParams(C=2 * params.C, T=params.T, F=params.F, k=2)
        )
        if coins is not None:
            self._coin = coins
            self._rng = None
        else:
            self._rng = random.Random(seed)
            self._coin = lambda: self._rng.getrandbits(1)
        self.chosen: int | None = None
        self.coins_drawn = 0

    def step(self, slot: int, tx: Transaction | None) -> PolicyDecision:
        bank = self.machine
        bank.begin_slot(slot)
        if bank.wallet_available(1, slot) and self.chosen is None:
            self.chosen = 1 + self._coin()
            self.coins_drawn += 1
        shadow_decision = self.shadow.step(slot, tx)
        if tx is None:
            return NO_ARRIVAL
        bank.trace.add(slot, ARRIVE, value=tx.value)
        if shadow_decision.action == "settle" and shadow_decision.wallet == self.chosen:
            bank.settle(1, tx, slot)
            return PolicyDecision("settle", wallet=1)
        bank.trace.add(slot, DISCARD, value=tx.value)
        if shadow_decision.flushed:
            bank.flush(1, slot)
            self.chosen = None
            return PolicyDecision("discard", flushed=(1,))
        return PolicyDecision("discard")

    def finish(self, slot: int, terminal_flushes: bool = False) -> list[int]:
        if not terminal_flushes:
            return []
        return _flush_leftovers(self.machine, slot)

    def clone(self) -> "RandTwoPolicy":
        if self._rng is None:
            raise InvalidParams("cannot clone a rand2 policy with an external coin source")
        other = object.__new__(RandTwoPolicy)
        other.params = self.params
        other.machine = self.machine.clone()
        other.shadow = self.shadow.clone()
        other._rng = random.Random()
        other._rng.setstate(self._rng.getstate())
        other._coin = lambda: other._rng.getrandbits(1)
        other.chosen = self.chosen
        other.coins_drawn = self.coins_drawn
        return other


class ThresholdPolicy:
    """Pool policy A_eta: settle whenever possible, flush in eta*C tranches.

    A transaction settles iff the available balance covers it.  After a
    settle, while the committed reserve is at least eta*C, exactly eta*C
    is flushed (at most one tranche can trigger per settle since the
    reserve was below eta*C beforehand and T <= eta*C).  At the end of a
    run the residual reserve is flushed in one final tranche regardless
    of accounting mode, so the flush count is always ceil(V / (eta*C)).
    """

    name = "eta"

    def __init__(self, params: ModelParams):
        if params.eta_ppm is None:
            raise InvalidEta("threshold policy needs eta_ppm")
        self.params = params
        self.machine = CollateralPool(params)
        self.eta_c = params.eta_collateral

    def step(self, slot: int, tx: Transaction | None) -> PolicyDecision:
        pool = self.machine
        pool.begin_slot(slot)
        if tx is None:
            return NO_ARRIVAL
        pool.trace.add(slot, ARRIVE, value=tx.value)
        if pool.available(slot) < tx.value:
            pool.trace.add(slot, DISCARD, value=tx.value)
            return PolicyDecision("discard")
        pool.settle(tx, slot)
        flushed: int | Fraction | None = None
        while pool.committed >= self.eta_c:
            pool.flush(self.eta_c, slot)
            flushed = self.eta_c if flushed is None else flushed + self.eta_c
        return PolicyDecision("settle", flush_amount=flushed)

    def finish(self, slot: int, terminal_flushes: bool = True) -> int | Fraction | None:
        # the final partial tranche is part of the policy, not optional
        if self.machine.committed > 0:
            amount = self.machine.committed
            self.machine.flush(amount, slot)
            return amount
        return None

    def clone(self) -> "ThresholdPolicy":
        other = object.__new__(ThresholdPolicy)
        other.params = self.params
        other.machine = self.machine.clone()
        other.eta_c = self.eta_c
        return other


def _flush_leftovers(bank: WalletBank, slot: int) -> list[int]:
    """Flush every online wallet holding committed value; returns indices."""
    flushed = []
    for i in range(1, bank.params.k + 1):
        if bank.wallet_available(i, slot) and bank.committed(i) > 0:
            bank.flush(i, slot)
            flushed.append(i)
    return flushed


POLICY_KINDS = ("fa", "fwf", "ftwf", "rand2", "eta")


def make_policy(kind: str, params: ModelParams, seed: int | None = None, coins=None):
    """Build a policy from its configuration string."""
    if kind == "fa":
        return FlushAllPolicy(params)
    if kind == "fwf":
        return FlushWhenFullPolicy(params)
    if kind == "ftwf":
        return FlushTwoWhenFullPolicy(params)
    if kind == "rand2":
        return RandTwoPolicy(params, seed=seed, coins=coins)
    if kind == "eta":
        return ThresholdPolicy(params)
    raise InvalidParams(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")
