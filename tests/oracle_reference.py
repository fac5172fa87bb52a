"""Test-side references for the general-model optimum value.

Two slow routes that share no code with ``collatsim.oracles``:
``subset_optima`` enumerates subsets against a quadratic window check, and
``opt_general_value_sim`` drives the real CollateralPool through every
settle/discard choice.  Both are exponential in the number of transactions
and meant for n <= 12.
"""

from collatsim.model import CollateralPool, ModelParams


def window_law_holds(pairs, C, F):
    """Every F+1-slot window ending at a member carries at most C (quadratic)."""
    return all(
        sum(v for t, v in pairs if s - F <= t <= s) <= C for s, _ in pairs
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
