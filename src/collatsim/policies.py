"""The online collateral-maintenance policies.

Every policy exposes the same stepping interface: ``step(slot, value)``
is called with increasing slots and the value of the transaction arriving
there, an int, or None for a quiet slot (a slot not stepped is quiet as
well), and returns the 1-based wallet that settled the offer, the pool
counting as 1, or 0 if nothing settled.  A run steps the two int columns
of a ``TransactionSequence``, so no object is built per offer.
``finish(slot)`` runs once after the last step; wallet policies flush
leftover committed collateral exactly when tau > 0, the threshold policy
always does.  Policies are deterministic given params and seed.  Every
policy is its own state machine and keeps no totals: it logs its events
to the sink the driver passes as ``trace``, an ``EventTrace`` when the
run's NDJSON is written (the default), else a ``SettleLog`` that keeps
only the settles and the flush count, and the run's totals are read off
that sink.  A wallet policy keeps its
state as one flat int list and steps it with one rule,
``GroupFlushPolicy.offer``; the threshold policy is a ``CollateralPool``.
A group policy also has ``state``, everything later steps depend on as
a tuple, and ``next_states``, the rule on a copy of one, which exhaust
steps.

The three deterministic wallet policies are one class, ``GroupFlushPolicy``:
first fit within an active group of g wallets; on a misfit, discard the
transaction, flush the group and rotate to the next group.  Arrivals
during an outage of the active group are discarded as well.  The kinds
differ only in g, which ``make_policy`` reads from ``GROUP_SIZES``:
FlushAll ("fa") is g = k, FlushWhenFull ("fwf") g = 1 and
FlushTwoWhenFull ("ftwf") g = 2.  RandTwo ("rand2") keeps one wallet that
follows a coin-chosen wallet of a two-wallet FlushAll's state list.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial

from .model import (
    PPM,
    CollateralError,
    CollateralPool,
    EventTrace,
    ModelParams,
    SettleLog,
)


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

    The policy is its own machine.  Its state ``st`` is laid out as
    ``state()`` with absolute outage ends (-1 before a wallet's first
    flush), and ``offer`` is the rule on it; ``outages`` queues each
    flushed group's return, in flush order since every outage lasts F.
    """

    def __init__(self, params: ModelParams, g: int, name: str, trace: SettleLog | None = None):
        if g < 1 or params.k % g != 0:
            # sweep rows report this text, so ftwf keeps its wording
            if g == 2:
                raise CollateralError(f"pair policy needs even k, got {params.k}")
            raise CollateralError(f"groups of {g} need k divisible by {g}, got {params.k}")
        params.require_kwallet()
        self.params = params
        self.name = name
        self._fresh(params.k, g, params.C // params.k, params.F)
        self.outages: deque[tuple[int, int, int]] = deque()  # (back at, first, past the last)
        self.trace = EventTrace() if trace is None else trace

    @classmethod
    def rule(cls, k: int, g: int, size: int, F: int) -> "GroupFlushPolicy":
        """The rule alone, its ``st`` fresh, for rand2's shadow: 2C need not fit a ModelParams."""
        rule = object.__new__(cls)
        rule._fresh(k, g, size, F)
        return rule

    def _fresh(self, k: int, g: int, size: int, F: int) -> None:
        """The rule's sizes and its start: group 1 active, every wallet empty and online."""
        self.k, self.g, self.size, self.F = k, g, size, F
        self.st = [1] + [size] * k + [-1] * k

    def offer(self, st: list[int], slot: int, value: int) -> int | list[int]:
        """The rule: an offer of ``value`` at ``slot`` changes ``st`` in place.
        Returns the wallet that settled it, 0 while the active group is
        out, or on a misfit the amounts flushed, C/k less each room."""
        g, k = self.g, self.k
        hi = st[0] * g
        if st[k + hi] >= slot:  # groups go out whole, so the last wallet tells
            return 0
        lo = hi - g
        for i in range(lo + 1, hi + 1):
            if value <= st[i]:
                st[i] -= value
                return i
        st[0] = st[0] + 1 if hi < k else 1
        return self._flush(st, lo + 1, hi, slot)

    def _flush(self, st: list[int], first: int, last: int, slot: int) -> list[int]:
        """Flush wallets first..last: their amounts; back at C/k after slot + F."""
        k, size, end = self.k, self.size, slot + self.F
        amounts = []
        for i in range(first, last + 1):
            amounts.append(size - st[i])
            st[i] = size
            st[k + i] = end
        return amounts

    def step(self, slot: int, value: int | None) -> int:
        trace, outages = self.trace, self.outages
        while outages and outages[0][0] <= slot:
            back, first, end = outages.popleft()
            for i in range(first, end):
                trace.wallet_online(back, i)
        if value is None:
            return 0
        st = self.st
        active = st[0]
        taken = self.offer(st, slot, value)
        if taken and taken.__class__ is int:
            trace.wallet_settle(slot, taken, value)
            return taken
        trace.discard(slot, value)
        if taken:  # a misfit flushed the group that was active
            g = self.g
            first = wallet = active * g - g + 1
            for amount in taken:
                trace.wallet_flush(slot, wallet, amount)
                wallet += 1
            outages.append((slot + self.F + 1, first, wallet))
        return 0

    def finish(self, slot: int) -> None:
        # tau > 0: flush each online wallet holding value; no step follows, so no return is queued
        if self.params.tau > 0:
            st, k = self.st, self.k
            for i in range(1, k + 1):
                if st[k + i] < slot and st[i] < self.size:
                    (amount,) = self._flush(st, i, i, slot)
                    self.trace.wallet_flush(slot, i, amount)

    def state(self, slot: int) -> tuple[int, ...]:
        """Everything later steps depend on, as a flat tuple, at any slot
        from the last step on: the active group, each wallet's room (C/k
        while offline), then each wallet's outage end less ``slot``, -1
        while online.  Policies of one params and g in equal states act
        alike on any continuation, so a search may merge them."""
        return _relative(self.st, slot, self.k)

    def next_states(self, state: tuple[int, ...], symbols) -> list[tuple]:
        """Per v of ``symbols``, what ``step(slot + 1, v)`` does from
        ``state(slot)``: the next state, the settled delta and the flushed
        amounts, () if none.  Read a slot later, the state is slot 0 of a
        run, and ``offer`` at slot 0 on a copy of it is the step."""
        aged = _relative(state, 1, self.k)
        out = []
        for value in symbols:
            if value is None:
                out.append((aged, 0, ()))
                continue
            st = list(aged)
            taken = self.offer(st, 0, value)
            if not taken:  # the group is out
                out.append((aged, 0, ()))
            elif taken.__class__ is int:
                out.append((tuple(st), value, ()))
            else:
                out.append((tuple(st), 0, tuple(taken)))
        return out


def _relative(st, slot: int, k: int) -> tuple[int, ...]:
    """A group state with its outage ends made relative to ``slot``, -1 once over."""
    return (*st[:k + 1], *[end - slot if end >= slot else -1 for end in st[k + 1:]])


class RandTwoPolicy:
    """One real wallet of size C that follows one wallet of a two-wallet FlushAll.

    The shadow FlushAll, two wallets of size C with the same arrivals, is
    the state list ``st = [1, room 1, room 2, end 1, end 2]`` that
    ``GroupFlushPolicy.offer`` decides every offer on.  At the first step
    with the real wallet online, at the start and after each outage, a fair
    coin picks ``chosen``, one of the shadow's wallets.  The real wallet
    settles what that wallet settles and flushes when the shadow misfits,
    so its room is ``st[chosen]``.  Both go out for F slots, so the real
    wallet is out exactly while the shadow is, until ``st[3]``, the shadow's
    outage end, and is back at ``st[3] + 1``.  Coins come from ``coins``, a
    zero-argument callable returning 0 or 1, else a seeded RNG.
    """

    name = "rand2"

    def __init__(
        self, params: ModelParams, seed: int | None = None, coins=None,
        trace: SettleLog | None = None,
    ):
        if params.k != 1:
            raise CollateralError(f"rand2 runs a single wallet, got k={params.k}")
        if coins is None and seed is None:
            raise CollateralError("rand2 needs a seed or an explicit coin source")
        self.params = params
        shadow = GroupFlushPolicy.rule(2, 2, params.C, params.F)
        self._offer, self.st = shadow.offer, shadow.st
        self._coin = coins if coins is not None else partial(random.Random(seed).getrandbits, 1)
        self.chosen: int | None = None
        self.trace = EventTrace() if trace is None else trace

    def step(self, slot: int, value: int | None) -> int:
        st, chosen = self.st, self.chosen
        if chosen is None and st[3] < slot:  # online: at the start, or back from an outage
            if st[3] >= 0:
                self.trace.wallet_online(st[3] + 1, 1)
            chosen = self.chosen = 1 + self._coin()
        if value is None:
            return 0
        if chosen is None:  # out, and so is the shadow
            self.trace.discard(slot, value)
            return 0
        taken = self._offer(st, slot, value)
        if taken == chosen:
            self.trace.wallet_settle(slot, 1, value)
            return 1
        self.trace.discard(slot, value)
        if taken.__class__ is list:  # the shadow's misfit flushed both its wallets
            self.trace.wallet_flush(slot, 1, taken[chosen - 1])
            self.chosen = None
        return 0

    def finish(self, slot: int) -> None:
        # tau > 0: flush the wallet if it is online and holds value; no step follows
        chosen = self.chosen
        if self.params.tau > 0 and chosen is not None and self.st[chosen] < self.params.C:
            self.trace.wallet_flush(slot, 1, self.params.C - self.st[chosen])


class ThresholdPolicy(CollateralPool):
    """Pool policy A_eta: settle whenever possible, flush in eta*C tranches.

    A transaction settles iff the free balance covers it.  After a
    settle, once the committed reserve reaches eta*C, exactly eta*C is
    flushed.  At the end of a run the residual reserve is flushed in one
    final tranche whatever tau is, so the flush count is always
    ceil(V / (eta*C)).  The policy is the pool it steps: it adds the
    rule, and the pool's ``begin_slot``, ``settle`` and ``flush`` keep
    the ledger, guards included.  Amounts are the pool's units of 1/PPM,
    in which the tranche eta*C is the int eta_ppm*C.
    """

    __slots__ = ("tranche",)
    name = "eta"

    def __init__(self, params: ModelParams, trace: SettleLog | None = None):
        if params.eta_ppm is None:
            raise CollateralError("threshold policy needs eta_ppm")
        super().__init__(params, trace)
        self.tranche = params.eta_ppm * params.C

    def step(self, slot: int, value: int | None) -> int:
        if slot >= self.next_back:
            self.begin_slot(slot)
        if value is None:
            return 0
        if self.free < value * PPM:
            self.trace.discard(slot, value)
            return 0
        self.settle(value, slot)
        # one tranche at most: the reserve was below eta*C, and ModelParams has T <= eta*C
        if self.committed >= self.tranche:
            self.flush(self.tranche, slot)
        return 1

    def finish(self, slot: int) -> None:
        # the final partial tranche is part of the policy, not optional
        if self.committed > 0:
            self.flush(self.committed, slot)


# the group size g of each wallet-group kind; None stands for all k wallets
GROUP_SIZES = {"fa": None, "fwf": 1, "ftwf": 2}
POLICY_KINDS = (*GROUP_SIZES, "rand2", "eta")


def check_policy_kind(kind: str) -> None:
    if kind not in POLICY_KINDS:
        raise CollateralError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")


def make_policy(
    kind: str, params: ModelParams, seed: int | None = None, coins=None,
    trace: SettleLog | None = None,
):
    """Build a policy from its configuration string; it logs to ``trace``,
    a new ``EventTrace`` unless a sink is given."""
    check_policy_kind(kind)
    if kind in GROUP_SIZES:
        g = GROUP_SIZES[kind]
        return GroupFlushPolicy(params, params.k if g is None else g, kind, trace)
    if kind == "rand2":
        return RandTwoPolicy(params, seed=seed, coins=coins, trace=trace)
    return ThresholdPolicy(params, trace)
