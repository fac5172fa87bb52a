"""Offline-optimum oracles, kept deliberately independent of the policies.

The general-model optimum has a clean combinatorial shape: a subset of
transactions is settleable with free immediate flushing iff every window
of F+1 consecutive slots carries at most C of its value.  The brute
oracles enumerate against that characterization; a separate routine
re-derives the optimum by simulating the pool state machine so the two
routes can be cross-checked.  Everything here refuses inputs above an
explicit budget rather than silently taking forever.

Two exchange arguments justify the pruned searches and are relied on
throughout: flushing everything when flushing at all is loss-free (the
fee is amount-independent and availability is monotone in the amount
returned), and a flush is never better late than at the slot of the last
settle that fed it (the tranche only returns later).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    CollateralError,
    CollateralPool,
    EventTrace,
    ModelParams,
    TransactionSequence,
    first_overfull_window,
)


class BudgetExceeded(CollateralError):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_transactions: int = 12
    max_flush_slots: int = 64

    def check_n(self, n: int) -> None:
        if n > self.max_transactions:
            raise BudgetExceeded(
                f"{n} transactions exceed oracle budget {self.max_transactions}"
            )

    def check_horizon(self, horizon: int) -> None:
        if horizon > self.max_flush_slots:
            raise BudgetExceeded(
                f"horizon {horizon} exceeds oracle budget {self.max_flush_slots}"
            )


DEFAULT_BUDGET = OracleBudget()


def feasible_window_check(txs, C: int, F: int) -> bool:
    """True iff every F+1-slot window of this transaction set sums to <= C.

    This is exactly general-model feasibility: settled collateral is
    unusable for the F slots after its (immediate) flush, so any window
    of F+1 slots spends at most C; conversely a set passing the check is
    settled greedily with available C minus the last F slots' settles.
    """
    items = sorted((t.slot, t.value) for t in txs)
    return first_overfull_window(items, C, F) is None


def opt_general_value(
    seq: TransactionSequence,
    C: int,
    F: int,
    budget: OracleBudget = DEFAULT_BUDGET,
    return_witness: bool = False,
):
    """Exact general-model optimum settled value, by subset enumeration."""
    txs = list(seq)
    budget.check_n(len(txs))
    n = len(txs)
    pairs = [(t.slot, t.value) for t in txs]
    best = 0
    best_mask = 0
    for mask in range(1, 1 << n):
        members = [pairs[i] for i in range(n) if mask >> i & 1]
        total = sum(v for _, v in members)
        if total > best and first_overfull_window(members, C, F) is None:
            best = total
            best_mask = mask
    if return_witness:
        witness = tuple(txs[i] for i in range(n) if best_mask >> i & 1)
        return best, witness
    return best


def opt_value_extend(
    pairs: list[tuple[int, int]], C: int, F: int, prev_best: int
) -> int:
    """Brute optimum for a prefix extended by one transaction.

    ``pairs`` is the full (slot, value) prefix including the new last
    element and ``prev_best`` the brute optimum without it.  Every
    subset either omits the new element (covered by prev_best) or
    contains it (enumerated here), so this equals opt_general_value on
    the whole prefix while doing half the work.  Used by the exhaustive
    verifier, which walks prefixes anyway.
    """
    n = len(pairs)
    newest = pairs[-1]
    best = prev_best
    for sub in range(1 << (n - 1)):
        members = [pairs[i] for i in range(n - 1) if sub >> i & 1]
        members.append(newest)
        total = sum(v for _, v in members)
        if total > best and first_overfull_window(members, C, F) is None:
            best = total
    return best


def greedy_feasible_value(
    seq: TransactionSequence, C: int, F: int
) -> tuple[int, list]:
    """Certified lower bound on the general-model optimum, any size.

    Greedily admits transactions in decreasing value order while the
    window check still passes; the result is a feasible schedule, so
    its value never overstates the optimum.
    """
    chosen: list = []
    for t in sorted(seq, key=lambda t: (-t.value, t.slot)):
        if feasible_window_check(chosen + [t], C, F):
            chosen.append(t)
    chosen.sort(key=lambda t: t.slot)
    return sum(t.value for t in chosen), chosen


def opt_general_value_sim(
    seq: TransactionSequence,
    C: int,
    F: int,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> int:
    """General-model optimum via the pool state machine, for cross-checks.

    Enumerates every settle/discard decision tree and drives the actual
    CollateralPool through it, flushing the whole reserve every slot
    (loss-free when flushes cost nothing).  Infeasible branches die when
    the machine refuses a settle.
    """
    txs = list(seq)
    budget.check_n(len(txs))
    budget.check_horizon(seq.horizon)
    params = ModelParams(C=C, T=C, F=F)
    n = len(txs)
    best = 0
    for mask in range(1 << n):
        pool = CollateralPool(params, EventTrace())
        value = 0
        ok = True
        picked = {txs[i].slot: txs[i] for i in range(n) if mask >> i & 1}
        for slot in range(1, seq.horizon + 1):
            pool.begin_slot(slot)
            tx = picked.get(slot)
            if tx is not None:
                if pool.available(slot) < tx.value:
                    ok = False
                    break
                pool.settle(tx, slot)
                value += tx.value
            if pool.committed > 0:
                pool.flush(pool.committed, slot)
        if ok and value > best:
            best = value
    return best


def opt_kwallet_value(
    seq: TransactionSequence,
    params: ModelParams,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> int:
    """Exact k-wallet optimum settled value.

    Searches assignments of transactions to wallets (or the bin), where
    each wallet settles its assigned subsequence in consecutive batches
    of sum <= C/k and flushes each batch at its last settle's slot, so
    the next batch cannot start within F slots of that.  Branch and
    bound with wallet-symmetry pruning.
    """
    params.require_kwallet()
    txs = sorted(seq, key=lambda t: t.slot)
    budget.check_n(len(txs))
    n = len(txs)
    size = params.C // params.k
    F = params.F
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + txs[i].value
    # wallet state: None (fresh) or (open batch load, last settle slot)
    wallets: list[tuple[int, int] | None] = [None] * params.k
    best = 0

    def walk(i: int, acc: int) -> None:
        nonlocal best
        if acc > best:
            best = acc
        if i == n or acc + suffix[i] <= best:
            return
        tx = txs[i]
        seen: set = set()
        for w in range(params.k):
            state = wallets[w]
            if state in seen:
                continue
            seen.add(state)
            if state is None:
                wallets[w] = (tx.value, tx.slot)
                walk(i + 1, acc + tx.value)
                wallets[w] = state
            else:
                load, last = state
                if load + tx.value <= size:
                    wallets[w] = (load + tx.value, tx.slot)
                    walk(i + 1, acc + tx.value)
                    wallets[w] = state
                if tx.slot > last + F:
                    # close the open batch (flushed at `last`), start fresh
                    wallets[w] = (tx.value, tx.slot)
                    walk(i + 1, acc + tx.value)
                    wallets[w] = state
        walk(i + 1, acc)  # leave it unsettled

    walk(0, 0)
    return best


def opt_general_utility(
    seq: TransactionSequence,
    params: ModelParams,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> Fraction:
    """Exact general-model optimum utility p*V - tau*f.

    Searches every schedule by deciding, per transaction, discard / settle /
    settle then flush the whole reserve.  Restricting flushes to settle
    slots and to whole-reserve moves loses nothing (a flush helps later
    settles most when it is as large and as early as possible), and a
    final flush of any residual reserve is always charged.  Utility of the
    empty schedule is 0, so the result is never negative.  Branches are cut
    when even free flushing of the remaining offers cannot beat the
    incumbent, and the flush branch is skipped when the rest of the
    sequence fits without it.
    """
    txs = sorted(seq, key=lambda t: t.slot)
    budget.check_n(len(txs))
    n = len(txs)
    C, F, p, tau = params.C, params.F, params.p, params.tau
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + txs[i].value
    best = Fraction(0)

    def go(i: int, committed: int, inflight: tuple, settled: int, flushes: int):
        nonlocal best
        if i == n:
            terminal = 1 if committed > 0 else 0
            utility = p * settled - tau * (flushes + terminal)
            if utility > best:
                best = utility
            return
        # even flushing for free from here on cannot beat the incumbent
        if p * (settled + suffix[i]) - tau * flushes <= best:
            return
        tx = txs[i]
        live = tuple((a, b) for a, b in inflight if b > tx.slot)
        pending = sum(a for a, _ in live)
        if C - committed - pending >= tx.value:
            held = committed + tx.value
            go(i + 1, held, live, settled + tx.value, flushes)
            # flushing only pays off if the remaining offers would not fit
            if held + pending + suffix[i + 1] > C:
                go(
                    i + 1,
                    0,
                    live + ((held, tx.slot + F + 1),),
                    settled + tx.value,
                    flushes + 1,
                )
        go(i + 1, committed, live, settled, flushes)

    go(0, 0, (), 0, 0)
    return best


def opt_utility_upper_bound(opt_value: int, params: ModelParams) -> Fraction:
    """Cap on optimum utility given optimum value: V_opt * (p - tau/C).

    Any schedule settling V needs at least V/C flushes to recycle its
    collateral, so utility is at most V*(p - tau/C); requires p*C > tau,
    which ModelParams enforces.
    """
    return opt_value * (params.p - Fraction(params.tau, params.C))


def window_upper_bound(seq: TransactionSequence, C: int, F: int) -> int:
    """Cheap upper bound on the general-model optimum value.

    Partition the slots into disjoint F+1 windows; any feasible subset
    puts at most min(C, offered value) into each.  The minimum over the
    F+1 possible partition offsets is taken.
    """
    txs = list(seq)
    if not txs:
        return 0
    width = F + 1
    best = None
    for offset in range(width):
        blocks: dict[int, int] = {}
        for t in txs:
            blocks.setdefault((t.slot - 1 + offset) // width, 0)
            blocks[(t.slot - 1 + offset) // width] += t.value
        bound = sum(min(C, v) for v in blocks.values())
        best = bound if best is None else min(best, bound)
    return best
