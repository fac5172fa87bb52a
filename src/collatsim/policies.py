"""The online collateral-maintenance policies.

Every policy exposes the same stepping interface: ``step(slot, value)``
is called with increasing slots and the value of the transaction arriving
there, an int, or None for a quiet slot (a slot not stepped is quiet as
well), and returns the 1-based wallet that settled the offer, the pool
counting as 1, or 0 if nothing settled.  A run steps the two int columns
of a ``TransactionSequence``, so no object is built per offer.
``finish(slot)`` runs once after the last step; wallet policies flush
leftover committed collateral exactly when tau > 0, the threshold policy
always does.  Policies are deterministic given params and seed.  Each
keeps its state machine under ``machine``; the machine's counters are
the run's totals and its trace only logs events.  The wallet-group
policies also have ``state``, everything later steps depend on as a
flat tuple, and ``next_states``, the same rule read on that tuple, which
the exhaustive verifier steps; and ``clone``, which copies the state,
counters included, and gives the copy an empty trace, so a test can fork
mid-run and read off the events of one step.

The three deterministic wallet policies are one class, ``GroupFlushPolicy``:
first fit within an active group of g wallets; on a misfit, discard the
transaction, flush the group and rotate to the next group.  Arrivals
during an outage of the active group are discarded as well.  The kinds
differ only in g, which ``make_policy`` reads from ``GROUP_SIZES``:
FlushAll ("fa") is g = k, FlushWhenFull ("fwf") g = 1 and
FlushTwoWhenFull ("ftwf") g = 2.  RandTwo ("rand2") keeps one wallet that
follows a coin-chosen wallet of a two-wallet FlushAll.
"""

from __future__ import annotations

import random
from functools import partial

from .model import PPM, CollateralError, CollateralPool, ModelParams, WalletBank


def _flush_leftovers(policy, slot: int) -> None:
    """The wallet policies' ``finish``: when tau > 0, flush every online
    wallet that holds committed value."""
    bank = policy.machine
    if policy.params.tau > 0:
        for j in range(bank.params.k):
            if bank.offline_until[j] < slot and bank.remaining[j] < bank.size:
                bank.flush(j + 1, slot)


class GroupFlushPolicy:
    """First fit within the active group of g wallets; flush it on a misfit.

    The k wallets form k/g groups of consecutive wallets, (W_1..W_g),
    (W_g+1..W_2g), ..., and the first group starts active.  While any
    wallet of the active group is offline every arrival is discarded.
    Otherwise the transaction settles in the group's first wallet with
    room for it; if none has room it is discarded, the group's wallets
    are flushed in index order and the next group becomes active in
    cyclic order, even if a later group would be online sooner.
    ``name`` is the kind the policy was made as, which only labels it.
    """

    def __init__(self, params: ModelParams, g: int, name: str):
        if g < 1 or params.k % g != 0:
            # sweep rows report this text, so ftwf keeps its wording
            if g == 2:
                raise CollateralError(f"pair policy needs even k, got {params.k}")
            raise CollateralError(f"groups of {g} need k divisible by {g}, got {params.k}")
        self.params = params
        self.g = g
        self.name = name
        self.machine = WalletBank(params)
        self.active = 1

    def step(self, slot: int, value: int | None) -> int:
        bank = self.machine
        if slot >= bank.next_back:
            bank.begin_slot(slot)
        if value is None:
            return 0
        hi = self.active * self.g
        lo = hi - self.g
        if bank.offline_until[lo] >= slot:  # step flushes groups whole: one return
            bank.trace.discard(slot, value)
            return 0
        remaining = bank.remaining
        for i in range(lo, hi):
            if value <= remaining[i]:
                bank.settle(i + 1, value, slot)
                return i + 1
        bank.trace.discard(slot, value)
        bank.flush(lo + 1, slot, hi)
        self.active = self.active + 1 if hi < self.params.k else 1
        return 0

    finish = _flush_leftovers

    def state(self, slot: int) -> tuple[int, ...]:
        """Everything later steps depend on, as a flat tuple, after step(slot).

        The active group, each wallet's capacity when next online (its
        remaining capacity, or the full C/k it returns with when offline),
        then each wallet's outage end relative to ``slot`` (-1 while
        online).  Two policies of the same params and g with equal states
        make the same decisions and flushes on any continuation, so a
        search may treat them as one node.
        """
        bank = self.machine
        size = bank.size
        caps = [self.active]
        ends = []
        for left, end in zip(bank.remaining, bank.offline_until):
            if end:
                caps.append(size)
                ends.append(end - slot)
            else:
                caps.append(left)
                ends.append(-1)
        return tuple(caps + ends)

    def next_states(self, state: tuple[int, ...], symbols) -> list[tuple]:
        """What ``step(slot + 1, v)`` does for each v of ``symbols``, read on
        ``state(slot)`` alone, without a policy in that state.

        The rule of ``step`` on the tuple: each outage end ages by a slot,
        an end of 0 coming back online (its capacity is already C/k).  A
        gap, or an offer while the active group is out, changes nothing
        more; an offer settles in the group's first wallet with room for
        it; a misfit flushes the group's wallets, C/k less each one's room,
        takes them out for F slots and makes the next group active.  Per
        symbol the result is the next state, the settled delta and the
        flushed amounts in wallet order, () when nothing flushed.
        """
        k, g = self.params.k, self.g
        active = state[0]
        caps = state[1:k + 1]
        ends = tuple([e - 1 if e > 0 else -1 for e in state[k + 1:]])
        aged = state[:k + 1] + ends
        hi = active * g
        lo = hi - g
        if ends[lo] >= 0:  # groups go out whole, so the first wallet tells
            return [(aged, 0, ())] * len(symbols)
        out = []
        misfit = None
        for value in symbols:
            if value is None:
                out.append((aged, 0, ()))
                continue
            for i in range(lo, hi):
                if value <= caps[i]:
                    nxt = list(aged)
                    nxt[i + 1] -= value
                    out.append((tuple(nxt), value, ()))
                    break
            else:
                if misfit is None:  # every misfit from one state flushes alike
                    size = self.machine.size
                    nxt = list(aged)
                    nxt[0] = active + 1 if hi < k else 1
                    nxt[lo + 1:hi + 1] = [size] * g
                    nxt[k + lo + 1:k + hi + 1] = [self.params.F] * g
                    misfit = tuple(nxt), 0, tuple([size - caps[i] for i in range(lo, hi)])
                out.append(misfit)
        return out

    def clone(self) -> "GroupFlushPolicy":
        other = object.__new__(type(self))
        other.params = self.params
        other.g = self.g
        other.name = self.name
        other.machine = self.machine.clone()
        other.active = self.active
        return other


class RandTwoPolicy:
    """One real wallet of size C that follows one wallet of a two-wallet FlushAll.

    The simulated FlushAll has two wallets of size C and the same arrivals;
    it tries wallet 1 first, then wallet 2, and flushes both on a misfit.  At
    the first step with the real wallet online, at the start and after each
    outage, a fair coin picks ``chosen``, one of FlushAll's wallets.  The
    real wallet settles exactly what that wallet settles and flushes when
    FlushAll does, so its room is the chosen wallet's room, and the other
    wallet's room is the one int ``other``.

    Coins come from ``coins`` (a zero-argument callable returning 0 or 1)
    when given, else from a seeded RNG.
    """

    name = "rand2"

    def __init__(self, params: ModelParams, seed: int | None = None, coins=None):
        if params.k != 1:
            raise CollateralError(f"rand2 runs a single wallet, got k={params.k}")
        if coins is None and seed is None:
            raise CollateralError("rand2 needs a seed or an explicit coin source")
        self.params = params
        self.machine = WalletBank(params)
        self._coin = coins if coins is not None else partial(random.Random(seed).getrandbits, 1)
        self.chosen: int | None = None
        self.other = params.C
        self.coins_drawn = 0

    def step(self, slot: int, value: int | None) -> int:
        bank = self.machine
        if slot >= bank.next_back:
            bank.begin_slot(slot)
        online = bank.offline_until[0] < slot
        if online and self.chosen is None:
            self.chosen = 1 + self._coin()
            self.coins_drawn += 1
        if value is None:
            return 0
        if online and value <= bank.remaining[0] and (self.chosen == 1 or value > self.other):
            bank.settle(1, value, slot)
            return 1
        bank.trace.discard(slot, value)
        if not online:
            return 0
        if value <= self.other:
            self.other -= value
        else:  # FlushAll's misfit
            bank.flush(1, slot)
            self.chosen = None
            self.other = self.params.C
        return 0

    finish = _flush_leftovers


class ThresholdPolicy:
    """Pool policy A_eta: settle whenever possible, flush in eta*C tranches.

    A transaction settles iff the free balance covers it.  After a
    settle, once the committed reserve reaches eta*C, exactly eta*C is
    flushed.  At the end of a run the residual reserve is flushed in one
    final tranche whatever tau is, so the flush count is always
    ceil(V / (eta*C)).  Amounts are the pool's units of 1/PPM, in
    which the tranche eta*C is the int eta_ppm*C.
    """

    name = "eta"

    def __init__(self, params: ModelParams):
        if params.eta_ppm is None:
            raise CollateralError("threshold policy needs eta_ppm")
        self.params = params
        self.machine = CollateralPool(params)
        self.tranche = params.eta_ppm * params.C

    def step(self, slot: int, value: int | None) -> int:
        pool = self.machine
        if slot >= pool.next_back:
            pool.begin_slot(slot)
        if value is None:
            return 0
        if pool.free < value * PPM:
            pool.trace.discard(slot, value)
            return 0
        pool.settle(value, slot)
        # one tranche at most: the reserve was below eta*C, and ModelParams has T <= eta*C
        if pool.committed >= self.tranche:
            pool.flush(self.tranche, slot)
        return 1

    def finish(self, slot: int) -> None:
        # the final partial tranche is part of the policy, not optional
        if self.machine.committed > 0:
            self.machine.flush(self.machine.committed, slot)


# the group size g of each wallet-group kind; None stands for all k wallets
GROUP_SIZES = {"fa": None, "fwf": 1, "ftwf": 2}
POLICY_KINDS = (*GROUP_SIZES, "rand2", "eta")


def check_policy_kind(kind: str) -> None:
    if kind not in POLICY_KINDS:
        raise CollateralError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")


def make_policy(kind: str, params: ModelParams, seed: int | None = None, coins=None):
    """Build a policy from its configuration string."""
    check_policy_kind(kind)
    if kind in GROUP_SIZES:
        g = GROUP_SIZES[kind]
        return GroupFlushPolicy(params, params.k if g is None else g, kind)
    if kind == "rand2":
        return RandTwoPolicy(params, seed=seed, coins=coins)
    return ThresholdPolicy(params)
