"""Output checks: compare values, not bytes.

Recorded expectations are compared field by field.  Numbers compare as
numbers whatever their encoding (``3``, ``"3"``, ``"7/3"``,
``{"num": 7, "den": 3}``), with a float on either side compared to
1e-9 relative.  Keys the expectation does not name are ignored, so a
field added to a report, a CSV column or an NDJSON event later does
not fail the check.  The remaining functions are checks that hold for
any seed, written without the program's code.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction


def as_number(x):
    """x as a Fraction or float if it encodes a number, else None."""
    if x is None or isinstance(x, bool):
        return None
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return x
    if isinstance(x, dict) and set(x) == {"num", "den"}:
        return Fraction(x["num"], x["den"])
    if isinstance(x, str):
        if x == "inf":
            return math.inf
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            return None
    return None


def canon(x) -> str | None:
    """A number's canonical text ("7/3", "inf"); other values unchanged."""
    n = as_number(x)
    if n is None:
        return x
    if isinstance(n, float):
        return "inf" if n == math.inf else str(Fraction(n).limit_denominator(10**9))
    return str(n)


def diff(expected, actual, where: str = "$") -> list[str]:
    """Mismatches between an expectation and an actual value."""
    if isinstance(expected, dict) and as_number(expected) is None:
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {actual!r}"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{where}.{key}: missing")
            else:
                out += diff(value, actual[key], f"{where}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected {len(expected)} entries, got {actual!r:.200}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += diff(e, a, f"{where}[{i}]")
        return out
    e, a = as_number(expected), as_number(actual)
    if e is not None and a is not None:
        if e == a:
            return []
        if (isinstance(e, float) or isinstance(a, float)) and math.isfinite(e) and math.isfinite(a):
            if abs(e - a) <= 1e-9 * max(1.0, abs(float(e))):
                return []
    elif expected == actual:
        return []
    return [f"{where}: expected {expected!r}, got {actual!r}"]


def event_key(obj: dict) -> list:
    """The fields of one trace event that the check compares."""
    return [obj.get("slot"), obj.get("kind"), obj.get("wallet"), obj.get("value"),
            canon(obj.get("flushAmount"))]


def events_summary(events: list[dict]) -> dict:
    """Event count and a digest of every event's compared fields."""
    keys = json.dumps([event_key(e) for e in events], separators=(",", ":"))
    return {"count": len(events), "sha256": hashlib.sha256(keys.encode()).hexdigest()}


def window_violation(settles: list[tuple[int, int]], C: int, F: int):
    """First F+1-slot window whose settled value exceeds C, else None."""
    total = 0
    lo = 0
    for slot, value in settles:
        total += value
        while settles[lo][0] < slot - F:
            total -= settles[lo][1]
            lo += 1
        if total > C:
            return f"slots [{settles[lo][0]}, {slot}] settle {total} > C={C}"
    return None


def window_bound(pairs: list[tuple[int, int]], C: int, F: int) -> int:
    """Least, over the F+1 block offsets, of sum(min(C, block value))."""
    if not pairs:
        return 0
    best = None
    for offset in range(F + 1):
        blocks: dict[int, int] = {}
        for slot, value in pairs:
            b = (slot - 1 + offset) // (F + 1)
            blocks[b] = blocks.get(b, 0) + value
        bound = sum(min(C, v) for v in blocks.values())
        best = bound if best is None else min(best, bound)
    return best


def trace_problems(events: list[dict], pairs, params: dict, report_row: dict) -> list[str]:
    """Checks of one run's NDJSON events against its input and report."""
    out = []
    arrivals = [(e["slot"], e["value"]) for e in events if e.get("kind") == "arrive"]
    if arrivals != [tuple(p) for p in pairs]:
        out.append("arrive events differ from the input sequence")
    settles = [(e["slot"], e["value"]) for e in events if e.get("kind") == "settle"]
    if sum(v for _, v in settles) != report_row.get("settledValue"):
        out.append("settle events do not sum to settledValue")
    bad = window_violation(settles, params["C"], params["F"])
    if bad:
        out.append(f"window law broken: {bad}")
    return out
