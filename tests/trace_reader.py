"""A reader and checker of collatsim's NDJSON trace, on the standard library alone.

``read_events`` parses a trace, an ``EventTrace`` or its NDJSON text, into
``Event`` tuples, one per line, and ``trace_totals`` sums a run's totals
from them.  ``trace_problems`` re-checks the rules of the machines from the
events alone: slots never go back, each ``arrive`` is followed at once by
its own ``settle`` or ``discard``, no F+1-slot window settles more than C,
and for the wallet bank or the pool the rules of its ledger below.  It
imports nothing from collatsim, so a process that never loads the
simulator can check a trace the simulator wrote.
"""

import json
from collections import deque
from fractions import Fraction
from typing import NamedTuple

# trace event kinds
ARRIVE = "arrive"
SETTLE = "settle"
DISCARD = "discard"
FLUSH = "flush"
ONLINE = "online"


class Event(NamedTuple):
    """One trace record, as ``read_events`` parses it from its line; a
    field the event's kind does not use is None.

    The amounts ``flush_amount``, ``available`` and ``committed`` are ints,
    or Fractions where a pool tranche of eta*C is not integral.
    """

    slot: int
    kind: str
    wallet: int | None = None
    value: int | None = None
    flush_amount: int | Fraction | None = None
    available: int | Fraction | None = None
    committed: int | Fraction | None = None


def _amount(a):
    return Fraction(a) if isinstance(a, str) else a


def read_events(trace_or_text) -> list[Event]:
    """The events of an ``EventTrace``, or of its NDJSON text, in log order."""
    text = trace_or_text if isinstance(trace_or_text, str) else trace_or_text.to_ndjson()
    events = []
    for line in text.splitlines():
        obj = json.loads(line)
        events.append(Event(
            obj["slot"], obj["kind"], obj.get("wallet"), obj.get("value"),
            _amount(obj.get("flushAmount")), _amount(obj.get("available")),
            _amount(obj.get("committed")),
        ))
    return events


def trace_totals(trace_or_text) -> dict:
    """The run totals read back from the trace alone."""
    events = read_events(trace_or_text)
    return {
        "settled_value": sum(e.value for e in events if e.kind == SETTLE),
        "flush_count": sum(1 for e in events if e.kind == FLUSH),
        "n_tx": sum(1 for e in events if e.kind == ARRIVE),
        "offered_value": sum(e.value for e in events if e.kind == ARRIVE),
    }


def _overdue(due: int, e: Event) -> bool:
    """Whether collateral due back at slot ``due`` should have returned
    before ``e``: returns come first in a slot, and several at one slot
    are logged one after another."""
    return due < e.slot or due == e.slot and e.kind != ONLINE


class _Wallets:
    """The wallet bank's rules: k wallets of C/k, each flushed whole."""

    def __init__(self, C: int, F: int, k: int):
        self.size, self.F, self.k = Fraction(C, k), F, k
        self.load = [0] * (k + 1)  # value settled since the wallet's last return
        self.out = {}  # offline wallet -> the slot of its flush
        self.overdue = set()

    def see(self, e: Event) -> list[str]:
        problems = []
        for w, t in self.out.items():
            if w not in self.overdue and _overdue(t + self.F + 1, e):
                self.overdue.add(w)
                problems.append(f"wallet {w} flushed at slot {t} is still offline")
        w = e.wallet
        if e.kind not in (SETTLE, FLUSH, ONLINE):
            return problems
        if w is None or not 1 <= w <= self.k:
            return problems + [f"wallet {w} is out of 1..{self.k}"]
        if e.kind == ONLINE:
            if w not in self.out:
                return problems + [f"wallet {w} comes online while online"]
            t = self.out.pop(w)
            self.overdue.discard(w)
            self.load[w] = 0
            if e.slot != t + self.F + 1:
                problems.append(
                    f"wallet {w} flushed at slot {t} is back at slot {e.slot}, "
                    f"not {t + self.F + 1}"
                )
        elif w in self.out:
            problems.append(f"{e.kind} in wallet {w} while it is offline")
        elif e.kind == SETTLE:
            self.load[w] += e.value
            if self.load[w] > self.size:
                problems.append(
                    f"wallet {w} holds {self.load[w]} > C/k = {self.size} since its last return"
                )
        else:
            if e.flush_amount != self.load[w]:
                problems.append(
                    f"wallet {w} flushes {e.flush_amount}, but its load is {self.load[w]}"
                )
            self.out[w] = e.slot
        return problems


class _Pool:
    """The pool's rules: its balances, and tranches back in flush order."""

    def __init__(self, C: int, F: int):
        self.F = F
        self.available, self.committed = Fraction(C), Fraction(0)
        self.inflight = deque()  # [amount, flush slot, reported overdue]

    def see(self, e: Event) -> list[str]:
        problems = []
        for tranche in self.inflight:
            if not tranche[2] and _overdue(tranche[1] + self.F + 1, e):
                tranche[2] = True
                problems.append(f"tranche flushed at slot {tranche[1]} is still out")
        if e.kind == SETTLE:
            self.available -= e.value
            self.committed += e.value
            if self.available < 0:
                problems.append(f"settle of {e.value} leaves {self.available} available")
        elif e.kind == FLUSH:
            if e.flush_amount > self.committed:
                problems.append(f"flush of {e.flush_amount} exceeds committed {self.committed}")
            self.committed -= e.flush_amount
            self.inflight.append([e.flush_amount, e.slot, False])
        elif e.kind == ONLINE:
            if not self.inflight:
                return problems + [f"tranche of {e.flush_amount} returns with none out"]
            amount, t, _ = self.inflight.popleft()
            if e.flush_amount != amount:
                problems.append(
                    f"tranche of {e.flush_amount} returns out of turn: {amount} is next"
                )
            if e.slot != t + self.F + 1:
                problems.append(
                    f"tranche flushed at slot {t} is back at slot {e.slot}, not {t + self.F + 1}"
                )
            self.available += e.flush_amount
        for name, logged in (("available", e.available), ("committed", e.committed)):
            if logged is not None and logged != getattr(self, name):
                problems.append(f"{name} {logged}, but the ledger holds {getattr(self, name)}")
        return problems


def trace_problems(
    trace_or_text, C: int, F: int, k: int | None = None, end: int | None = None
) -> list[str]:
    """Every fault found in a run's trace, each as one line; [] for none.

    ``k`` names a wallet bank of k wallets of C/k, None the pool of C.
    ``end``, if given, is the run's last slot: a wallet or tranche due
    back by it that the trace does not bring back is a fault too.
    Every trace: an event whose slot goes back; an ``arrive`` not followed
    at once by its own ``settle`` or ``discard``, or one of those with no
    arrive; more than C settled in some window of F+1 slots.  Wallets: a
    settle or flush while the wallet is offline; more than C/k settled in
    a wallet since its last return; a ``flushAmount`` other than that
    load; an ``online`` not exactly F+1 slots after its flush; a wallet
    still offline at an event at or past its return slot.  The pool: a
    logged ``available`` or ``committed`` that the ledger rebuilt from
    the events does not hold; a settle past the available balance; a
    flush of more than is committed; a tranche returning out of turn, not
    exactly F+1 slots after its flush, or late.
    """
    rules = _Pool(C, F) if k is None else _Wallets(C, F, k)
    problems = []
    last = 0
    arrive = None  # the offer awaiting its settle or discard
    # the settles of the last F+1 slots.  bench/checks.window_violation
    # holds the same linear check, but it belongs to the benchmark, which
    # these tests do not import; oracle_reference's quadratic checks are
    # references for collatsim's own, and import it
    window, carried = deque(), 0
    for i, e in enumerate(read_events(trace_or_text), 1):
        where = f"event {i} ({e.kind} at slot {e.slot})"
        if e.slot < last:
            problems.append(f"{where}: slot goes back from {last}")
        last = max(last, e.slot)
        if arrive is not None:
            if e.kind not in (SETTLE, DISCARD) or (e.slot, e.value) != arrive:
                problems.append(f"{where}: the arrive before it has no settle or discard")
            arrive = None
        elif e.kind in (SETTLE, DISCARD):
            problems.append(f"{where}: no arrive before it")
        if e.kind == ARRIVE:
            arrive = (e.slot, e.value)
        elif e.kind == SETTLE:
            window.append(e)
            carried += e.value
            while window[0].slot < e.slot - F:
                carried -= window.popleft().value
            if carried > C:
                problems.append(
                    f"{where}: slots [{e.slot - F}, {e.slot}] settle {carried} > C={C}"
                )
        problems += (f"{where}: {p}" for p in rules.see(e))
    if arrive is not None:
        problems.append(f"the last arrive, at slot {arrive[0]}, has no settle or discard")
    if end is not None:
        # a mark at the last slot: whatever was due back by it is overdue
        problems += (f"by the last slot, {end}: {p}" for p in rules.see(Event(end, "end")))
    return problems
