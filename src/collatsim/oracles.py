"""Offline-optimum oracles, kept deliberately independent of the policies.

The general-model optimum has a clean combinatorial shape: a subset of
transactions is settleable with free immediate flushing iff every window
of F+1 consecutive slots carries at most C of its value.  The value
oracle is a DP over the settles of the last F slots, exact at any length;
it refuses an input only when its layers would hold more than MAX_DP_CELLS
cells in all, a cell being a state or one settle a state lists.  The tests
re-derive it by subset enumeration and by simulating the pool state
machine.  ``opt_value_key_row`` steps the same DP on keys, slot-free rows
less the dominated ones, so that prefixes with equal windows share one key;
from ``ROOT_KEY``, the exhaustive verifier keeps each key and steps it
alone, once for all the symbols of its space.  A key's rows also
forget the oldest settles that no later window can push past C given the
largest offer still possible, so they block no offer.  The tests key the
absolute layers, less the dominated rows' states, as the step's reference.
The utility and k-wallet oracles are branch-and-bound searches that
refuse more than MAX_SEARCH_TRANSACTIONS transactions rather than
silently taking forever.  Both searches score in ints, the utility search
in units of 1/PPM, turned into a Fraction only at its return.

Two exchange arguments justify the pruned searches and are relied on
throughout: flushing everything when flushing at all is loss-free (the
fee is amount-independent and availability is monotone in the amount
returned), and a flush is never better late than at the slot of the last
settle that fed it (the tranche only returns later).
"""

from __future__ import annotations

from fractions import Fraction

from .model import PPM, CollateralError, ModelParams, TransactionSequence


# The window DP's time and memory both grow with its states and their
# lengths, so the cap counts each layer's states plus the settles they list.
# Forty offers of 1 at C = F = 40 are refused after 1.2 s at 117 MB peak on a
# 2-vCPU VM (CPython 3.11); any input of at most 12 transactions stays below
# 2^16 cells.
MAX_DP_CELLS = 2**23
MAX_SEARCH_TRANSACTIONS = 12


def _check_search_size(n: int) -> None:
    if n > MAX_SEARCH_TRANSACTIONS:
        raise CollateralError(
            f"{n} transactions exceed oracle budget {MAX_SEARCH_TRANSACTIONS}"
        )


def opt_value_extend(
    states: dict, slot: int, value: int, C: int, F: int
) -> dict:
    """One step of the general-model optimum: offer (slot, value) to a DP.

    A state is the tuple of settled (slot, value) pairs that can still
    share an F+1-slot window with a later offer, those of the last F
    slots, mapped to the best settled total that reaches it.  Start from
    ``{(): 0}`` and feed transactions in slot order; as a slot holds one
    transaction there are at most 2^F states.  The offer is discarded, or
    settled when the window ending at its slot stays within C.  Checking
    only windows that end at a settle is the whole window law, since the
    heaviest window can slide left until it ends at one.
    """
    lo = slot - F
    new = ((slot, value),) if F else ()
    out: dict = {}
    get = out.get
    for state, total in states.items():
        while state and state[0][0] < lo:
            state = state[1:]
        load = value
        for _, v in state:
            load += v
        if state and state[0][0] == lo:  # in this window, in no later one
            state = state[1:]
        if get(state, -1) < total:
            out[state] = total
        if load <= C:
            key = state + new
            total += value
            if get(key, -1) < total:
                out[key] = total
    return out


# the value DP's key before the first slot: one empty row, the best
ROOT_KEY = (((), 0),)


def opt_value_key_row(
    key: tuple, symbols, C: int, F: int, top: int
) -> list[tuple[tuple, int]]:
    """One slot of the value DP on a key free of absolute slots, per symbol.

    A key is a layer's sorted (row, gap) pairs: a row lists the (slots
    ago, value) settles of the last F slots, oldest first, that a later
    window can still push past C, and its gap is how far the best total
    among the layer's states with that row lies below the layer's best;
    the root is ``ROOT_KEY``.  Each of ``symbols`` is the slot's offer,
    None for a quiet slot, and ``top`` the largest offer still possible,
    at least every later offer.  Returns, per symbol, the next key and the
    gain in the layer's best.

    Every row ages a slot, once for all symbols, and an offer settles on
    it when the window ending at the slot, the row and the offer, stays
    within C.  The settle of F slots ago then leaves the window.  Then the
    row forgets its oldest settles while they cannot matter: a settle of
    a slots ago is forgotten while ``load + (F - a)*top <= C``, ``load``
    being its value plus those of every younger settle.  A later window
    that holds it holds every younger settle and at most F - a later
    offers, each at most ``top``, so it stays within C whatever is settled
    later, and the row allows the same settles on every continuation
    without it.  The rule still holds after the row ages or takes an offer
    of at most ``top``.  Rows made equal by either drop merge and keep the
    smaller gap.  The key drops each dominated row, one whose copy without
    its oldest settle, ``row[1:]``, is present with a gap no larger: the
    copy has no more load in any later window and at least the same
    total, so whatever the row's states settle later the copy's can settle
    too, and the best is the same at every later slot without the row.
    So equal keys gain alike on every continuation, and a key is the
    whole state.
    """
    last = F - 1
    aged = []  # per row: its load, then aged a slot, its load so and its gap
    quiet: dict = {}  # the rows aged without an offer, forgotten and merged
    get = quiet.get
    for row, gap in key:
        kept = load = sum([v for _, v in row])
        if row and row[0][0] == last:
            kept -= row[0][1]
            row = row[1:]
        row = tuple([(age + 1, v) for age, v in row])
        aged.append((load, row, kept, gap))
        # forget the oldest settles that no later window can push past C
        while row and kept + (F - row[0][0]) * top <= C:
            kept -= row[0][1]
            row = row[1:]
        if get(row, gap + 1) > gap:
            quiet[row] = gap
    out = []
    for value in symbols:
        merged = dict(quiet)
        get = merged.get
        if value is not None:
            for load, row, kept, gap in aged:
                if load + value <= C:  # settled; at F = 0 it is forgotten at once
                    row, kept, gap = row + ((0, value),), kept + value, gap - value
                    while row and kept + (F - row[0][0]) * top <= C:
                        kept -= row[0][1]
                        row = row[1:]
                    if get(row, gap + 1) > gap:
                        merged[row] = gap
        gain = -min(merged.values())
        out.append((tuple(sorted(
            (row, gap + gain) for row, gap in merged.items()
            if not row or get(row[1:], gap + 1) > gap
        )), gain))
    return out


def opt_general_value(seq: TransactionSequence, C: int, F: int) -> int:
    """Exact general-model optimum settled value, in O(n * 2^F).

    Folds opt_value_extend over the sequence, keeping only the current
    layer.  Raises CollateralError once the layers built hold more than
    MAX_DP_CELLS cells (states plus the settles they list) in all.
    """
    slots, values = seq.slots, seq.values
    layer = {(): 0}
    cells = 0
    for i, (slot, value) in enumerate(zip(slots, values)):
        layer = opt_value_extend(layer, slot, value, C, F)
        cells += len(layer) + sum(map(len, layer))
        if cells > MAX_DP_CELLS:
            raise CollateralError(
                f"window DP exceeds {MAX_DP_CELLS} cells (states plus their "
                f"settles) at transaction {i + 1} of {len(slots)} (F={F})"
            )
    return max(layer.values())


def opt_kwallet_value(seq: TransactionSequence, params: ModelParams) -> int:
    """Exact k-wallet optimum settled value.

    Searches assignments of transactions to wallets (or the bin), where
    each wallet settles its assigned subsequence in consecutive batches
    of sum <= C/k and flushes each batch at its last settle's slot, so
    the next batch cannot start within F slots of that.  Branch and
    bound with wallet-symmetry pruning.
    """
    params.require_kwallet()
    slots, values = seq.slots, seq.values
    n = len(slots)
    _check_search_size(n)
    size = params.C // params.k
    F = params.F
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    # wallet state: None (fresh) or (open batch load, last settle slot)
    wallets: list[tuple[int, int] | None] = [None] * params.k
    best = 0

    def walk(i: int, acc: int) -> None:
        nonlocal best
        if acc > best:
            best = acc
        if i == n or acc + suffix[i] <= best:
            return
        slot, value = slots[i], values[i]
        seen: set = set()
        for w in range(params.k):
            state = wallets[w]
            if state in seen:
                continue
            seen.add(state)
            if state is None:
                wallets[w] = (value, slot)
                walk(i + 1, acc + value)
                wallets[w] = state
            else:
                load, last = state
                if load + value <= size:
                    wallets[w] = (load + value, slot)
                    walk(i + 1, acc + value)
                    wallets[w] = state
                if slot > last + F:
                    # close the open batch (flushed at `last`), start fresh
                    wallets[w] = (value, slot)
                    walk(i + 1, acc + value)
                    wallets[w] = state
        walk(i + 1, acc)  # leave it unsettled

    walk(0, 0)
    return best


def opt_general_utility(seq: TransactionSequence, params: ModelParams) -> Fraction:
    """Exact general-model optimum utility p*V - tau*f.

    Searches every schedule by deciding, per transaction, discard / settle /
    settle then flush the whole reserve.  Restricting flushes to settle
    slots and to whole-reserve moves loses nothing (a flush helps later
    settles most when it is as large and as early as possible), and a
    final flush of any residual reserve is always charged.  Utility of the
    empty schedule is 0, so the result is never negative.  Branches are cut
    when even free flushing of the remaining offers cannot beat the
    incumbent, and the flush branch is skipped when the rest of the
    sequence fits without it.  The search scores in ints of 1/PPM,
    p_ppm*V - PPM*tau*f, and the one Fraction is built at the return.
    """
    slots, values = seq.slots, seq.values
    n = len(slots)
    _check_search_size(n)
    C, F, p_ppm, fee = params.C, params.F, params.p_ppm, PPM * params.tau
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + values[i]
    best = 0

    def go(i: int, committed: int, inflight: tuple, settled: int, flushes: int):
        nonlocal best
        if i == n:
            terminal = 1 if committed > 0 else 0
            utility = p_ppm * settled - fee * (flushes + terminal)
            if utility > best:
                best = utility
            return
        # even flushing for free from here on cannot beat the incumbent
        if p_ppm * (settled + suffix[i]) - fee * flushes <= best:
            return
        slot, value = slots[i], values[i]
        live = tuple((a, b) for a, b in inflight if b > slot)
        pending = sum(a for a, _ in live)
        if C - committed - pending >= value:
            held = committed + value
            go(i + 1, held, live, settled + value, flushes)
            # flushing only pays off if the remaining offers would not fit
            if held + pending + suffix[i + 1] > C:
                go(
                    i + 1,
                    0,
                    live + ((held, slot + F + 1),),
                    settled + value,
                    flushes + 1,
                )
        go(i + 1, committed, live, settled, flushes)

    go(0, 0, (), 0, 0)
    return Fraction(best, PPM)


def opt_utility_upper_bound(opt_value: int, params: ModelParams) -> Fraction:
    """Cap on optimum utility given optimum value: V_opt * (p - tau/C).

    Any schedule settling V needs at least V/C flushes to recycle its
    collateral, so utility is at most V*(p - tau/C); requires p*C > tau,
    which ModelParams enforces.
    """
    return opt_value * (params.p - Fraction(params.tau, params.C))


def window_upper_bound(seq: TransactionSequence, C: int, F: int) -> int:
    """Cheap upper bound on the general-model optimum value, in O(n).

    It is the optimum of the LP relaxation that settles y_i of offer i,
    0 <= y_i <= v_i, with every F+1-slot sliding window summing to at most
    C.  One pass in slot order fills each offer greedily,
    y_i = min(v_i, C - (y settled in [s_i - F, s_i - 1])), reading that
    window's sum off the running totals at a left pointer.

    Feasible: the offers of any window lie in [s_i - F, s_i] of its last
    offer i, and y_i leaves that sum at most C.
    Optimal: let G_t and Y_t be the totals through slot t of the greedy and
    of any feasible y; G_t >= Y_t at every t, by induction.  Either
    y_t = v_t, so G_t = G_{t-1} + v_t >= Y_t, or G_t = G_{t-F-1} + C >= Y_t,
    since Y's window [t - F, t] holds at most C.
    Between the two: every feasible schedule is a feasible y, so the bound
    is at least the optimum; every block of a partition of the slots into
    F+1 windows is a sliding window, so it is at most the partition bound,
    the sum over blocks of min(C, offered value).
    """
    slots = seq.slots
    before = []  # the greedy's total before each offer
    total = left = 0
    for slot, value in zip(slots, seq.values):
        before.append(total)
        start = slot - F
        while slots[left] < start:
            left += 1
        room = C - total + before[left]
        total += value if value < room else room
    return total
