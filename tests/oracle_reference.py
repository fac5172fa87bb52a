"""Test-side references for the general-model optimum value and the trace.

Two slow routes that share no code with ``collatsim.oracles``:
``subset_optima`` enumerates subsets against a quadratic window check, and
``opt_general_value_sim`` drives the real CollateralPool through every
settle/discard choice.  Both are exponential in the number of transactions
and meant for n <= 12.  ``greedy_feasible_value`` is a feasible lower bound
at any size.  ``reference_ndjson`` writes a trace through the json module,
as the reference for ``EventTrace.to_ndjson``.
"""

import json
from fractions import Fraction

from collatsim.model import CollateralPool, ModelParams

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
        picked = {txs[i].slot: txs[i] for i in range(n) if mask >> i & 1}
        for slot in range(1, seq.horizon + 1):
            pool.begin_slot(slot)
            tx = picked.get(slot)
            if tx is not None:
                if pool.free < tx.value:
                    ok = False
                    break
                pool.settle(tx, slot)
                value += tx.value
            if pool.committed > 0:
                pool.flush(pool.committed, slot)
        if ok and value > best:
            best = value
    return best
