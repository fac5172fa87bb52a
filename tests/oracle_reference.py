"""Test-side references for the general-model optimum value, the trace and
the exhaustive verifier.

Two slow routes that share no code with ``collatsim.oracles``:
``subset_optima`` enumerates subsets against a quadratic window check, and
``opt_general_value_sim`` drives the real CollateralPool through every
settle/discard choice.  Both are exponential in the number of transactions
and meant for n <= 12.  ``greedy_feasible_value`` is a feasible lower bound
at any size.  ``opt_value_key`` keys an absolute layer of
``opt_value_extend``, the reference for ``opt_value_key_step``.
``window_lp_reference`` enumerates every integer fill 0 <= y_i <= v_i
under the window law, the reference for the greedy LP
bound ``window_upper_bound``; ``window_upper_bound_all_offsets`` is the
partition bound, which that greedy never exceeds.  ``reference_ndjson``
writes ``Event`` tuples, the events of ``trace_reader``, through the json
module, as the reference for ``EventTrace.to_ndjson``.  ``ReferencePool`` is
the pool ledger in exact Fractions and ``ReferenceThreshold`` the threshold
policy over it, the reference for the integer ledger of ``CollateralPool``
and ``ThresholdPolicy``.  ``utility_optimum_reference`` runs every
settle/discard and flush/keep schedule on ``ReferencePool``, as the
reference for ``opt_general_utility``.  ``ReferenceRandTwo`` steps rand2
through a whole two-wallet FlushAll run, the reference for
``RandTwoPolicy``.  ``ReferenceBank`` keeps one outage per wallet, the
reference for the grouped outages of ``WalletBank``.  ``run_every_slot`` is the
per-slot driver that ``run_sequence`` is checked against.  ``exhaustive_verify_reference``
walks every prefix of every short sequence explicitly, as the reference
for the table-driven ``exhaustive_verify``.
"""

import json
import random
from bisect import insort
from fractions import Fraction
from itertools import product

from collatsim.harness import (
    MAX_EXHAUST_SEQUENCES,
    ConfigError,
    Counterexample,
    ExhaustSpace,
    ExhaustSummary,
    default_exhaust_policies,
)
from collatsim.model import (
    PPM,
    CollateralPool,
    EventTrace,
    FlushExceedsCommitted,
    IndexOutOfRange,
    InsufficientCollateral,
    ModelParams,
    WalletBank,
    WalletOffline,
    ZeroFlush,
)
from collatsim.oracles import BudgetExceeded, opt_value_extend
from collatsim.policies import make_policy
from trace_reader import ARRIVE, DISCARD, FLUSH, ONLINE, SETTLE, Event, read_events

_NDJSON = json.JSONEncoder(separators=(",", ":"))


def json_amount(x):
    """Ints pass through; integral Fractions collapse; the rest become 'num/den'."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x


def to_json_obj(event) -> dict:
    """One trace event as a dict, leaving out the fields that are None."""
    obj = {"slot": event.slot, "kind": event.kind}
    if event.wallet is not None:
        obj["wallet"] = event.wallet
    if event.value is not None:
        obj["value"] = event.value
    if event.flush_amount is not None:
        obj["flushAmount"] = json_amount(event.flush_amount)
    if event.available is not None:
        obj["available"] = json_amount(event.available)
    if event.committed is not None:
        obj["committed"] = json_amount(event.committed)
    return obj


def reference_ndjson(events) -> str:
    """The NDJSON of ``events``, one json-module encoding per line."""
    return "".join(_NDJSON.encode(to_json_obj(e)) + "\n" for e in events)


def reference_first_overfull(pairs, C, F):
    """Sum every window [s, s+F] from scratch, in the order given."""
    for s, _ in pairs:
        total = sum(v for t, v in pairs if s <= t <= s + F)
        if total > C:
            return s, total
    return None


def window_law_holds(pairs, C, F):
    """Every F+1-slot window ending at a member carries at most C (quadratic)."""
    return all(
        sum(v for t, v in pairs if s - F <= t <= s) <= C for s, _ in pairs
    )


def greedy_feasible_value(pairs, C, F):
    """Admit pairs by decreasing value while the window law still holds.

    The result is a feasible schedule, so its value never overstates the
    optimum.  Returns the value and the chosen pairs in slot order.
    """
    chosen = []
    for pair in sorted(pairs, key=lambda p: (-p[1], p[0])):
        if window_law_holds(chosen + [pair], C, F):
            chosen.append(pair)
    return sum(v for _, v in chosen), sorted(chosen)


def window_upper_bound_all_offsets(seq, C, F):
    """The partition bound: the minimum over all F+1 partition offsets.

    Each offset splits the slots into blocks of F+1; every block holds at
    most min(C, its offered value) of a feasible schedule.
    """
    txs = list(seq)
    if not txs:
        return 0
    width = F + 1
    best = None
    for offset in range(width):
        blocks = {}
        for t in txs:
            block = (t.slot - 1 + offset) // width
            blocks[block] = blocks.get(block, 0) + t.value
        bound = sum(min(C, v) for v in blocks.values())
        best = bound if best is None else min(best, bound)
    return best


def window_lp_reference(pairs, C, F):
    """The LP relaxation's optimum by enumerating integer fills.

    Settle y_i of each (slot, v_i), 0 <= y_i <= v_i, keeping every window
    at most C.  The window constraints form an interval matrix, which is
    totally unimodular, so the best integer fill is the LP optimum.
    """
    slots = [s for s, _ in pairs]
    return max(
        sum(fill)
        for fill in product(*(range(v + 1) for _, v in pairs))
        if window_law_holds(list(zip(slots, fill)), C, F)
    )


def subset_optima(pairs, C, F):
    """The optimum of every prefix of ``pairs``, by subset enumeration.

    Masks run in increasing order, so when mask 2^i - 1 has been seen every
    subset of the first i pairs has been, and the running best is their
    optimum.  Entry i - 1 of the result is the optimum of the first i pairs.
    """
    best, optima = 0, []
    for mask in range(1, 1 << len(pairs)):
        members = [p for i, p in enumerate(pairs) if mask >> i & 1]
        total = sum(v for _, v in members)
        if total > best and window_law_holds(members, C, F):
            best = total
        if mask & (mask + 1) == 0:
            optima.append(best)
    return optima


def opt_value_key(
    states: dict, slot: int, F: int
) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """A layer of opt_value_extend as a tuple free of absolute slots.

    ``states`` is a layer whose offers all lie in slots 1 .. ``slot``.  Each
    state becomes a row of the (slot - s, value) pairs it settled in slots
    slot-F+1 .. slot, whatever F, mapped to how far its total lies below
    the layer's best.  Older settles share no window with a later offer,
    so states that differ only in them merge and keep the smaller gap.
    The key is the sorted (row, gap) pairs, less the dominated rows: a
    row is dropped when its copy without its oldest settle, ``row[1:]``,
    is present with a gap no larger.  That copy has no more load in any
    later window and at least the same total, so whatever the row's state
    settles later the copy's can settle too, and the layer's best is the
    same at every later slot with or without the row.  Before slot F+1 no
    settle has left the window, each row's total is its own sum, and
    ``row[1:]`` lies below it by the oldest value, so no row is dominated
    there and the check is skipped.  Equal keys gain the same best total
    on every later continuation.
    """
    best = max(states.values())
    base = slot - F + 1
    rows: dict = {}
    get = rows.get
    for state, total in states.items():
        row = tuple((slot - s, v) for s, v in state if s >= base)
        gap = best - total
        if get(row, gap) >= gap:
            rows[row] = gap
    if slot <= F:
        return tuple(sorted(rows.items()))
    return tuple(sorted(
        (row, gap) for row, gap in rows.items() if not row or get(row[1:], gap + 1) > gap
    ))


def opt_general_value_sim(seq, C, F):
    """General-model optimum via the pool state machine.

    Enumerates every settle/discard decision tree and drives the actual
    CollateralPool through it, flushing the whole reserve every slot
    (loss-free when flushes cost nothing).  Infeasible branches die when
    the machine refuses a settle.
    """
    txs = list(seq)
    params = ModelParams(C=C, T=C, F=F)
    n = len(txs)
    best = 0
    for mask in range(1 << n):
        pool = CollateralPool(params)
        value = 0
        ok = True
        picked = {txs[i].slot: txs[i].value for i in range(n) if mask >> i & 1}
        for slot in range(1, seq.horizon + 1):
            pool.begin_slot(slot)
            offered = picked.get(slot)
            if offered is not None:
                if pool.free < offered * PPM:
                    ok = False
                    break
                pool.settle(offered, slot)
                value += offered
            if pool.committed > 0:
                pool.flush(pool.committed, slot)
        if ok and value > best:
            best = value
    return best


class ReferencePool:
    """The pool ledger with exact amounts, each an int or a Fraction.

    The balances ``free`` and ``committed``, the FIFO ``inflight`` of
    ``(amount, back_at)`` and the counters ``settled`` and ``flushes``
    follow ``CollateralPool``'s rules with the same guards and texts.  Each
    event is kept as an ``Event``, for ``reference_ndjson`` to write.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.free = Fraction(params.C)
        self.committed = Fraction(0)
        self.inflight = []
        self.settled = 0
        self.flushes = 0
        self.events = []

    def begin_slot(self, slot):
        while self.inflight and self.inflight[0][1] <= slot:
            amount, back = self.inflight.pop(0)
            self.free += amount
            self.events.append(
                Event(back, ONLINE, flush_amount=amount, committed=self.committed)
            )

    def settle(self, value, slot):
        if self.free < value:
            raise InsufficientCollateral(
                f"pool has {self.free} available, needs {value}"
            )
        self.free -= value
        self.committed += value
        self.settled += value
        self.events.append(Event(slot, ARRIVE, value=value))
        self.events.append(Event(
            slot, SETTLE, value=value, available=self.free, committed=self.committed
        ))

    def flush(self, amount, slot):
        if amount <= 0:
            raise ZeroFlush(f"flush amount must be positive, got {amount}")
        if amount > self.committed:
            raise FlushExceedsCommitted(
                f"flush {amount} exceeds committed {self.committed}"
            )
        self.committed -= amount
        self.inflight.append((amount, slot + self.params.F + 1))
        self.flushes += 1
        self.events.append(Event(
            slot, FLUSH, flush_amount=amount, available=self.free, committed=self.committed
        ))


def utility_optimum_reference(seq, params):
    """General-model optimum utility p*V - tau*f by trying every schedule.

    Each offer is settled or discarded, and then the whole committed
    reserve is flushed or not: 4^n schedules, none pruned, each run on the
    Fraction ledger of ``ReferencePool``.  A schedule that settles past the
    free collateral or flushes an empty reserve is dropped.  The residue is
    flushed at the horizon.  The empty schedule scores 0.
    """
    txs = list(seq)
    best = Fraction(0)
    for schedule in product(range(4), repeat=len(txs)):
        pool = ReferencePool(params)
        try:
            for tx, choice in zip(txs, schedule):
                pool.begin_slot(tx.slot)
                if choice & 1:
                    pool.settle(tx.value, tx.slot)
                if choice & 2:
                    pool.flush(pool.committed, tx.slot)
        except (InsufficientCollateral, ZeroFlush):
            continue
        if pool.committed > 0:
            pool.flush(pool.committed, seq.horizon)
        utility = params.p * pool.settled - params.tau * pool.flushes
        if utility > best:
            best = utility
    return best


class ReferenceThreshold:
    """Policy A_eta over ``ReferencePool``, flushing tranches of the exact eta*C."""

    def __init__(self, params: ModelParams):
        self.machine = ReferencePool(params)
        self.eta_c = Fraction(params.eta_ppm * params.C, PPM)

    def step(self, slot, value):
        pool = self.machine
        pool.begin_slot(slot)
        if value is None:
            return
        if pool.free < value:
            pool.events.append(Event(slot, ARRIVE, value=value))
            pool.events.append(Event(slot, DISCARD, value=value))
            return
        pool.settle(value, slot)
        if pool.committed >= self.eta_c:
            pool.flush(self.eta_c, slot)

    def finish(self, slot):
        if self.machine.committed > 0:
            self.machine.flush(self.machine.committed, slot)


class ReferenceRandTwo:
    """rand2 driven by a whole two-wallet FlushAll run, the shadow.

    The shadow FlushAll, with two wallets of size C each, is stepped on
    every step and its trace is ignored.  A coin is drawn as in
    ``RandTwoPolicy``, from ``coins`` or a ``random.Random(seed)``.  The
    real wallet settles what the coin-chosen shadow wallet settles and
    flushes when the online shadow misfits; the two flush in the same
    slots with the same F, so they go offline and come back together.  The
    reference for the one-wallet rule of ``RandTwoPolicy.step``.
    """

    def __init__(self, params: ModelParams, seed=None, coins=None):
        self.params = params
        self.machine = WalletBank(params)
        self.shadow = make_policy(
            "fa", ModelParams(C=2 * params.C, T=params.T, F=params.F, k=2)
        )
        if coins is None:
            rng = random.Random(seed)
            coins = lambda: rng.getrandbits(1)
        self._coin = coins
        self.chosen = None
        self.coins_drawn = 0

    def step(self, slot, value):
        bank = self.machine
        bank.begin_slot(slot)
        if bank.offline_until[0] < slot and self.chosen is None:
            self.chosen = 1 + self._coin()
            self.coins_drawn += 1
        taken = self.shadow.step(slot, value)
        if value is None:
            return 0
        if taken == self.chosen:
            bank.settle(1, value, slot)
            return 1
        bank.trace.discard(slot, value)
        if not taken and self.chosen is not None:
            bank.flush(1, slot)
            self.chosen = None
        return 0

    def finish(self, slot):
        bank = self.machine
        if self.params.tau > 0 and bank.offline_until[0] < slot and bank.remaining[0] < bank.size:
            bank.flush(1, slot)


class ReferenceBank(WalletBank):
    """``WalletBank`` with one ``(back at, index)`` outage per wallet.

    A flush of wallets i..last is one flush per wallet in index order,
    each checked, logged and sorted into ``outages`` on its own, and
    ``begin_slot`` restores the returns one wallet at a time.  Its
    ``next_back`` stays 0, so a policy calls ``begin_slot`` on every step.
    The reference for the one outage per flushed group, and the due-only
    ``begin_slot``, of ``WalletBank``; a policy steps it once it is set as
    the policy's ``machine``.
    """

    __slots__ = ()

    def __init__(self, params):
        super().__init__(params)
        self.next_back = 0

    def begin_slot(self, slot):
        outages = self.outages
        while outages and outages[0][0] <= slot:
            back, j = outages.pop(0)
            self.remaining[j] = self.size
            self.offline_until[j] = 0
            self.trace.wallet_online(back, j + 1)

    def flush(self, i, slot, last=None):
        for wallet in range(i, (i if last is None else last) + 1):
            if not 1 <= wallet <= self.params.k:
                raise IndexOutOfRange(f"wallet index {wallet} out of 1..{self.params.k}")
            j = wallet - 1
            if self.offline_until[j] >= slot:
                raise WalletOffline(f"wallet {wallet} already offline at slot {slot}")
            self.trace.wallet_flush(slot, wallet, self.size - self.remaining[j])
            until = slot + self.params.F
            self.offline_until[j] = until
            insort(self.outages, (until + 1, j))
            self.flushes += 1


def run_every_slot(policy, seq):
    """Step ``policy`` through every slot 1..horizon, quiet ones included.

    The driver ``run_sequence`` replaces by stepping only the offers and
    the horizon.
    """
    by_slot = dict(zip(seq.slots, seq.values))
    for slot in range(1, seq.horizon + 1):
        policy.step(slot, by_slot.get(slot))
    policy.finish(seq.horizon)


def exhaustive_verify_reference(
    space: ExhaustSpace, policies: dict[str, Fraction] | None = None
) -> ExhaustSummary:
    """The explicit walk whose counterexamples ``exhaustive_verify`` lists.

    Clones and steps every policy and extends the value DP once per
    prefix, in the same order, with the same flush-shape invariants and
    the same texts, so its summary must equal the one that
    ``exhaustive_verify`` builds from its forward passes and transition
    tables, field for field.  It forks at every node of the full tree, whose
    (|values| + 1)^L leaves are the sequences.
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
        new_flushes = [e for e in read_events(trace) if e.kind == "flush"]
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
            new_states = []
            for kind, policy in states:
                # a clone's trace holds only the events of this step
                p2 = policy.clone()
                p2.step(slot, sym)
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
