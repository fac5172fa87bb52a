"""Call timing for the traced run, installed from outside the program.

Each wrapper replaces a name at the place its caller looks it up: a
module attribute such as ``collatsim.harness.opt_general_value`` or a
class attribute such as ``WalletBank.settle``.  ``uninstall`` puts the
originals back, so the untraced run executes the program unchanged.

Every wrapped call is aggregated in memory under its group:
``calls`` counts every call, ``busy`` is the inclusive time of the
outermost call when calls of one group nest, and ``self`` is inclusive
time minus the time of wrapped calls nested inside.  Calls of coarse
groups (items, oracle calls, validation, writes, verification) also
record one span each: name, start, end, parent span and item id.
Per-slot methods (stepping, machine operations, clones) are aggregated
only, so 10^5 calls do not make 10^5 spans.
"""

from __future__ import annotations

import inspect
import time

# (module, attribute, group, span)
MODULE_HOOKS = (
    ("cli", "main", "cli.main", True),
    ("cli", "measure_ratio", "harness.measure_ratio", True),
    ("harness", "measure_ratio", "harness.measure_ratio", True),
    ("cli", "exhaustive_verify", "harness.exhaustive_verify", True),
    ("harness", "exhaustive_verify", "harness.exhaustive_verify", True),
    ("harness", "run_sequence", "harness.run_sequence", True),
    ("harness", "write_results_csv", "harness.write", True),
    ("harness", "write_trace_ndjson", "harness.write", True),
    ("harness", "validate_window_bound", "model.validate_window_bound", True),
    ("harness", "opt_general_value", "oracles.opt_general_value", True),
    ("harness", "opt_kwallet_value", "oracles.opt_kwallet_value", True),
    ("harness", "opt_general_utility", "oracles.opt_general_utility", True),
    ("harness", "window_upper_bound", "oracles.window_upper_bound", True),
    ("harness", "opt_value_extend", "oracles.opt_value_extend", False),
    ("harness", "read_sequence_csv", "workloads.read_sequence_csv", True),
    ("harness", "gen_stochastic", "workloads.gen_stochastic", True),
    ("workloads", "gen_stochastic", "workloads.gen_stochastic", True),
)

# (module, class, methods, group)
CLASS_HOOKS = (
    ("model", "WalletBank", ("begin_slot", "settle", "flush"), "model.bank"),
    ("model", "CollateralPool",
     ("begin_slot", "available", "pending", "settle", "flush"), "model.pool"),
    ("model", "WalletBank", ("clone",), "model.clone"),
    ("model", "CollateralPool", ("clone",), "model.clone"),
    ("model", "EventTrace", ("clone",), "model.clone"),
    ("model", "EventTrace", ("to_ndjson",), "model.to_ndjson"),
)

STEP_GROUP = "policies.step"


class Tracer:
    """In-memory spans and per-group aggregates for one traced pass."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # group -> [calls, busy_s, self_s]
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.item = None
        self.missing: list[str] = []
        self._depth: dict[str, int] = {}
        self._frames: list[list] = []  # child time of each open call
        self._open_spans: list[int] = []
        self._step_kind = None
        self._installed: list[tuple] = []

    def call(self, fn, group, span, args, kwargs):
        depth = self._depth.get(group, 0)
        kind_group = None
        if group == STEP_GROUP:
            # a shadow policy's steps count for the policy that drives it
            if depth == 0:
                self._step_kind = getattr(args[0], "name", "unknown")
            kind_group = f"{STEP_GROUP}.{self._step_kind}"
        span_id = None
        if span:
            span_id = len(self.spans)
            parent = self._open_spans[-1] if self._open_spans else None
            self.spans.append([group, 0.0, 0.0, parent, self.item])
            self._open_spans.append(span_id)
        frame = [0.0]
        self._frames.append(frame)
        self._depth[group] = depth + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            elapsed = end - start
            self._frames.pop()
            self._depth[group] = depth
            if self._frames:
                self._frames[-1][0] += elapsed
            own = elapsed - frame[0]
            for name in (group, kind_group) if kind_group else (group,):
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[2] += own
                if depth == 0:
                    st[1] += elapsed
            if span:
                self.spans[span_id][1] = start
                self.spans[span_id][2] = end
                self._open_spans.pop()

    def wrap(self, fn, group, span):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(fn, group, span, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        return wrapper

    def region(self, name, fn, *args):
        """Run fn(*args) as a span of the benchmark's own (item, set-up)."""
        return self.call(fn, name, True, args, {})

    def _replace(self, owner, attr, group, span):
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, group, span))

    def install(self, cs) -> None:
        """Wrap the hooks on the collatsim modules held by namespace ``cs``.

        A hook whose name the program no longer has is skipped and listed
        in ``missing``; its metrics then read 0.
        """
        for mod, attr, group, span in MODULE_HOOKS:
            module = getattr(cs, mod)
            if callable(getattr(module, attr, None)):
                self._replace(module, attr, group, span)
            else:
                self.missing.append(f"{mod}.{attr}")
        for mod, cls_name, methods, group in CLASS_HOOKS:
            cls = getattr(getattr(cs, mod), cls_name, None)
            for method in methods:
                if cls is not None and method in vars(cls):
                    self._replace(cls, method, group, False)
                else:
                    self.missing.append(f"{mod}.{cls_name}.{method}")
        for cls in vars(cs.policies).values():
            if isinstance(cls, type) and cls.__module__ == cs.policies.__name__:
                if "step" in vars(cls):
                    self._replace(cls, "step", STEP_GROUP, False)
                if "clone" in vars(cls):
                    self._replace(cls, "clone", "policies.clone", False)
        for name, fn in vars(cs.formulas).copy().items():
            if inspect.isfunction(fn) and fn.__module__ == cs.formulas.__name__:
                self._replace(cs.formulas, name, "formulas", False)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def spans_json(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end,
             "parent": parent, "item": item}
            for i, (name, start, end, parent, item) in enumerate(self.spans)
        ]
