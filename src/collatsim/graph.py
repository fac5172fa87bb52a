"""State graphs: the states met from a root, their transitions, layer passes.

``harness.exhaustive_verify`` checks the competitive bound in exact ints
on every prefix of every sequence over a small alphabet, on one
``StateTable`` per wallet rule and one for the value DP, each filling a
state's row by one step call for all symbols (a rule's row holds each
step's next state, settled delta and flushed amounts; a DP key's rows
forget the settles that no offer of the space can push past C).
``rule_pass`` counts flushes from the prefixes per state on each rule's
own graph; ``forward`` decides a policy's bound by one max-plus pass over
its graph of (state, DP key) nodes, each holding one weight sum, that
drops a node whose sum the slots left cannot lift above 0.  The flush
invariants and the listing walk stay in ``harness``.
"""


class StateTable:
    """States met from a root and their transitions.

    ``step(state)`` is a state's row, one transition per symbol, each
    ``(next state, ...)``, a function of the state alone: a rule's
    ``next_states`` or the value DP's ``opt_value_key_row``.  Each state
    gets a small id on first sight, the root 0, and ``states[id]`` is the
    state.  ``rows[id]``, None until ``row`` first fills it, is the state's
    row with each next state replaced by its id.
    """

    __slots__ = ("ids", "states", "rows", "step")

    def __init__(self, root, step):
        self.ids: dict = {root: 0}
        self.states: list = [root]
        self.rows: list = [None]
        self.step = step

    def row(self, sid: int) -> list:
        """State sid's transitions, filled by ``step`` on first use."""
        row = self.rows[sid]
        if row is None:
            ids, states = self.ids, self.states
            row = self.rows[sid] = []
            for entry in self.step(states[sid]):
                nid = ids.setdefault(entry[0], len(states))
                if nid == len(states):
                    states.append(entry[0])
                    self.rows.append(None)
                row.append((nid,) + entry[1:])
        return row


def rule_pass(table: StateTable, length: int) -> int:
    """The flushes of a rule, rows ``(next id, settled delta, amounts)``, on
    all prefixes of up to ``length`` symbols: one layer per slot of its own
    graph, each mapping a state to the number of prefixes reaching it.  It
    fills the rows it meets, and reads a filled one (never empty) directly."""
    rows, row = table.rows, table.row
    flushes = 0
    layer = {0: 1}
    for _ in range(length):
        below: dict = {}
        get = below.get
        for sid, paths in layer.items():
            for child, _, amounts in rows[sid] or row(sid):
                flushes += paths * len(amounts)
                below[child] = get(child, 0) + paths
        layer = below
    return flushes


def forward(table: StateTable, dp_table: StateTable, bound, largest: int, length: int) -> bool:
    """The max-plus pass of a rule held to bound (num, den), after
    ``rule_pass`` has filled its rows: whether a prefix ends with a sum
    above 0, an edge weighing ``den*gain - num*delta`` (the DP row's gain,
    at most ``largest``, against the rule row's settled delta, never < 0)."""
    (num, den), rows, dp_row = bound, table.rows, dp_table.row
    # no edge weighs more than top, so a child at depth d whose sum is at
    # most floor = -top*(L-d), 0 at depth L, ends no prefix above 0 and is
    # dropped; a gap gains and settles nothing, so a sum above 0 lasts to L
    top = den * largest
    # maps each (state id, DP key id) node at one slot to the largest
    # weight sum along a prefix reaching it
    layer = {(0, 0): 0}
    for depth in range(1, length + 1):
        floor = -top * (length - depth)
        below: dict = {}
        get = below.get
        for (sid, kid), best in layer.items():
            for (child_sid, delta, _), (child_kid, gain) in zip(rows[sid], dp_row(kid)):
                total = best + den * gain - num * delta
                child = child_sid, child_kid
                if get(child, floor) < total:
                    below[child] = total
        layer = below
    return bool(layer)
