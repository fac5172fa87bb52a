"""Closed-form competitive ratios and optimal parameter choices.

These are plain arithmetic on the model parameters, used to label
plots, pick sweep markers, and supply the bounds the harness checks runs
against.  Each competitive bound has this one implementation: fed
Fractions (k, C, T and tau integers) it returns the exact Fraction.  The
optimal wallet count and threshold are surds, decided exactly on their
squares; ``nearest_float`` prints each value as its exact value correctly
rounded.  Domain violations raise DomainError with a message naming the
offending precondition.  Ratios that are genuinely unbounded (saturated
single-wallet regimes) come back as math.inf.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt

from .model import PPM, CollateralError, typed_field


class DomainError(CollateralError):
    pass


UNBOUNDED = math.inf


def fa_ratio(k: int, r: Fraction) -> Fraction | float:
    """Flush-all guarantee: (2-r)/(1-r) for load r = kT/C < 1; 3 at r = 1.

    The saturated single-wallet case has no deterministic guarantee.
    """
    if k < 1 or int(k) != k:
        raise DomainError(f"k must be a positive integer, got {k}")
    if not 0 < r <= 1:
        raise DomainError(f"load ratio must be in (0, 1], got {float(r)}")
    if r == 1:
        return UNBOUNDED if k == 1 else Fraction(3)
    return (2 - r) / (1 - r)


def fwf_ratio(k: int, r: Fraction) -> Fraction | float:
    """Cyclic-flush guarantee: (k+1)/(k(1-r)) for k > 1, r < 1."""
    if k <= 1 or int(k) != k:
        raise DomainError(f"k must be an integer > 1, got {k}")
    if not 0 < r <= 1:
        raise DomainError(f"load ratio must be in (0, 1], got {float(r)}")
    if r == 1:
        return UNBOUNDED
    return (k + 1) / (k * (1 - r))


def ftwf_ratio(k: int) -> Fraction:
    """Paired-flush guarantee at r = 1: 2(k+1)/k for even k > 1."""
    if k <= 1 or int(k) != k or k % 2 != 0:
        raise DomainError(f"k must be an even integer > 1, got {k}")
    return Fraction(2 * (k + 1), k)


def k_star(C: int, T: int) -> tuple[float, int]:
    """Wallet count minimizing the cyclic-flush ratio (k+1)C/(k(C - kT)).

    Unimodal in real k with minimizer sqrt(1 + C/T) - 1, correctly rounded
    as the first value returned; the best feasible integer is its floor, at
    least 1, by isqrt, or one more, by one exact compare (the floor on a tie).
    """
    if C <= 0 or T <= 0:
        raise DomainError(f"C and T must be positive, got C={C} T={T}")
    if T > C:
        raise DomainError(f"T must not exceed C, got C={C} T={T}")
    k = max(1, isqrt((C + T) // T) - 1)  # kT <= C, since T <= C
    if (k + 1) * T < C and (k + 2) * k * (C - k * T) < (k + 1) ** 2 * (C - (k + 1) * T):
        k += 1
    return nearest_float(-1, Fraction(C + T, T)), k


def kwallet_profit_inflation(k: int, C: int, T: int, p: Fraction, tau: int) -> Fraction:
    """Collateral overhead of running k wallets under utility accounting.

    (p/tau - k/C) / (p/tau - k/(C - kT)): the factor by which collateral
    must grow so per-flush profit matches the single-pool baseline.
    Tends to 1 as tau -> 0, and tau = 0 returns exactly 1.  Its caller,
    formulas_report, has checked k >= 1 and 1 <= T <= C.
    """
    if k * T >= C:
        raise DomainError(f"need kT < C, got k={k} T={T} C={C}")
    if tau == 0:
        return Fraction(1)
    if p / tau <= Fraction(k, C - k * T):
        raise DomainError(
            f"need p/tau > k/(C - kT), got p/tau={float(p / tau)} k/(C-kT)={k / (C - k * T)}"
        )
    return (p / tau - Fraction(k, C)) / (p / tau - Fraction(k, C - k * T))


def eta_alpha(eta: Fraction, C: int, T: int, p: Fraction, tau: int) -> Fraction:
    """Utility guarantee of the threshold policy at threshold eta.

    1/(1 - eta - T/C) * (p/tau - 1/C) / (p/tau - 1/(eta C)).  With
    tau = 0 this degrades gracefully to the value-only guarantee
    1/(1 - eta - T/C).  C >= 1 and T, tau >= 0 are integers, as its callers
    check, so T/C is exact.
    """
    floor = Fraction(T, C)
    if eta < floor:
        raise DomainError(f"eta={float(eta)} is below the floor T/C={T / C}")
    if 1 - eta - floor <= 0:  # so eta < 1 too
        raise DomainError(
            f"need eta + T/C < 1 for a finite guarantee, got eta={float(eta)} T/C={T / C}"
        )
    value_part = 1 / (1 - eta - floor)
    if tau == 0:
        return value_part
    if p / tau <= 1 / (eta * C):
        raise DomainError(
            f"need p/tau > 1/(eta C), got p/tau={float(p / tau)} 1/(eta C)={float(1 / (eta * C))}"
        )
    return value_part * (p / tau - Fraction(1, C)) / (p / tau - 1 / (eta * C))


def eta_star(C: int, T: int, p_ppm: int, tau: int) -> tuple[Fraction, Fraction, bool]:
    """The threshold minimizing eta_alpha, exactly: (beta, square, clamped).

    beta = tau/(p C), and the unclamped minimizer, a surd, comes as its
    square (1 - T/C) beta; it is clamped up to T/C when below (T/C)^2.
    """
    if not 0 <= T < C:
        raise DomainError(f"need 0 <= T < C and C > 0, got C={C} T={T}")
    if p_ppm <= 0 or tau < 0:
        raise DomainError(f"need p > 0 and tau >= 0, got p={p_ppm / PPM} tau={tau}")
    beta = Fraction(tau * PPM, p_ppm * C)
    if beta >= 1:
        raise DomainError(f"need p*C > tau, got beta={nearest_float(beta)}")
    floor = Fraction(T, C)
    square = (1 - floor) * beta
    return beta, square, square < floor * floor


def _guarantee_at_eta_star(C: int, T: int, p: Fraction, tau: int, beta, square, clamped):
    """eta_alpha at the optimum after its clamp: at T/C, exact, or else the
    surd (1 - beta)/(sqrt(a) - sqrt(beta))^2, a = 1 - T/C, in domain exactly
    when beta < a, rounded as s(a + beta) + 2s sqrt(a beta), s = (1 - beta)/(a - beta)^2."""
    if clamped:
        return eta_alpha(Fraction(T, C), C, T, p, tau)
    a = 1 - Fraction(T, C)
    if beta >= a:
        raise DomainError(
            f"need sqrt(1 - T/C) > sqrt(beta), got T/C={T / C} beta={nearest_float(beta)}"
        )
    s = (1 - beta) / (a - beta) ** 2
    return nearest_float(s * (a + beta), 4 * s * s * square)


def nearest_float(u: Fraction | int | float, q: Fraction | int = 0) -> float:
    """u + sqrt(q), q >= 0, correctly rounded to a float (inf past the range).

    isqrt brackets sqrt(q) ever tighter until the root is exact or both ends
    round alike: rounding is monotone, and an irrational sum is never the
    midpoint of two floats.  A float u, rounded already, comes back as it is."""
    n, d = Fraction(q).as_integer_ratio()
    bits = 64
    while True:  # sqrt(q) = sqrt(nd)/d lies in [root, root + 1)/(d 2^bits)
        root = isqrt(n * d << 2 * bits)
        low = _float(u + Fraction(root, d << bits))
        if root * root == n * d << 2 * bits or low == _float(u + Fraction(root + 1, d << bits)):
            return low
        bits *= 2


def _float(x: Fraction) -> float:
    try:
        return float(x)  # correctly rounded
    except OverflowError:  # the nearest float past the range is inf
        return UNBOUNDED


def _float_or_error(closed_form, *args) -> float | str:
    """A closed form's exact value correctly rounded, "inf" when it is
    unbounded (strict JSON has no Infinity), or its DomainError text."""
    try:
        value = nearest_float(closed_form(*args))
    except DomainError as err:
        return str(err)
    return "inf" if value == UNBOUNDED else value


def formulas_report(
    C: int,
    T: int,
    k: int | None = None,
    p_ppm: int | None = None,
    tau: int | None = None,
) -> dict:
    """Every applicable closed form for the given parameters, as JSON for the CLI.

    Each float is its exact value correctly rounded ("inf" when unbounded),
    and each flag is decided exactly.  etaStarRatio and etaAlphaAtStar are
    one value, the guarantee at the optimal threshold after its clamp to T/C.
    """
    # the float range ModelParams puts on the same inputs, in its words
    for name, value in (("C", C), ("T", T), ("k", k), ("tau", tau)):
        if value is not None:
            typed_field(name, value, "a finite number")
    out: dict = {"C": C, "T": T}
    real_k, int_k = k_star(C, T)
    out["kStar"] = {"real": real_k, "integer": int_k}
    # the bounds ModelParams puts on the same inputs, in its words
    if k is not None and k < 1:
        raise DomainError(f"k must be positive, got {k}")
    if p_ppm is not None and not 1 <= p_ppm <= PPM:
        raise DomainError(f"p_ppm must be in [1, {PPM}], got {p_ppm}")
    if k is not None:
        # on the exact load ratio the two wallet ratios are the exact bounds
        # that ratio and exhaust check
        r = Fraction(k * T, C)
        out["k"] = k
        out["loadRatio"] = nearest_float(r)
        out["faRatio"] = _float_or_error(fa_ratio, k, r)
        out["fwfRatio"] = _float_or_error(fwf_ratio, k, r)
        out["ftwfRatio"] = _float_or_error(ftwf_ratio, k)
    if p_ppm is not None and tau is not None:
        p = Fraction(p_ppm, PPM)
        out["p"] = nearest_float(p)
        out["tau"] = tau
        beta, square, clamped = eta_star(C, T, p_ppm, tau)
        out["beta"] = nearest_float(beta)
        raw = nearest_float(0, square)
        out["etaStar"] = {
            "raw": raw,
            "value": nearest_float(Fraction(T, C)) if clamped else raw,
            "clamped": clamped,
        }
        out["etaStarRatio"] = out["etaAlphaAtStar"] = _float_or_error(
            _guarantee_at_eta_star, C, T, p, tau, beta, square, clamped
        )
        if k is not None:
            out["kwalletProfitInflation"] = _float_or_error(
                kwallet_profit_inflation, k, C, T, p, tau
            )
    return out
