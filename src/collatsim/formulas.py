"""Closed-form competitive ratios and optimal parameter choices.

These are plain arithmetic on the model parameters, used to label
plots, pick sweep markers, and supply the bounds the harness checks runs
against.  Each competitive bound has this one implementation: fed floats
it returns a float, and fed Fractions (k, T and tau integers) the exact
Fraction.  Domain violations raise DomainError with a message naming the
offending precondition.  Ratios that are genuinely unbounded (saturated
single-wallet regimes) come back as math.inf.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import PPM, CollateralError, typed_field


class DomainError(CollateralError):
    pass


UNBOUNDED = math.inf

Real = float | Fraction


def fa_ratio(k: int, r: Real) -> Real:
    """Flush-all guarantee: (2-r)/(1-r) for load r = kT/C < 1; 3 at r = 1.

    The saturated single-wallet case has no deterministic guarantee.
    Exact when r is a Fraction.
    """
    if k < 1 or int(k) != k:
        raise DomainError(f"k must be a positive integer, got {k}")
    if not 0 < r <= 1:
        raise DomainError(f"load ratio must be in (0, 1], got {float(r)}")
    if r == 1:
        return UNBOUNDED if k == 1 else Fraction(3)
    return (2 - r) / (1 - r)


def fwf_ratio(k: int, r: Real) -> Real:
    """Cyclic-flush guarantee: (k+1)/(k(1-r)) for k > 1, r < 1.

    Exact when r is a Fraction.
    """
    if k <= 1 or int(k) != k:
        raise DomainError(f"k must be an integer > 1, got {k}")
    if not 0 < r <= 1:
        raise DomainError(f"load ratio must be in (0, 1], got {float(r)}")
    if r == 1:
        return UNBOUNDED
    return (k + 1) / (k * (1 - r))


def ftwf_ratio(k: int) -> Fraction:
    """Paired-flush guarantee at r = 1: 2(k+1)/k for even k > 1, as a Fraction."""
    if k <= 1 or int(k) != k or k % 2 != 0:
        raise DomainError(f"k must be an even integer > 1, got {k}")
    return Fraction(2 * (k + 1), k)


def k_star(C: float, T: float) -> tuple[float, int]:
    """Wallet count minimizing the cyclic-flush ratio.

    Returns (real minimizer sqrt(1 + C/T) - 1, best feasible integer
    neighbor).  Integer candidates must keep kT <= C; the ratio formula
    is evaluated directly so k = 1 is comparable too.
    """
    if C <= 0 or T <= 0:
        raise DomainError(f"C and T must be positive, got C={C} T={T}")
    if T > C:
        raise DomainError(f"T must not exceed C, got C={C} T={T}")
    real_k = math.sqrt(1 + C / T) - 1

    def ratio_at(k: int) -> float:
        r = k * T / C
        if r >= 1:
            return math.inf
        return (k + 1) / (k * (1 - r))

    lo = max(1, math.floor(real_k))
    hi = max(1, math.ceil(real_k))
    candidates = [k for k in {lo, hi} if k * T <= C]
    if not candidates:
        raise DomainError(f"no feasible integer wallet count for C={C} T={T}")
    best = min(candidates, key=ratio_at)
    return real_k, best


def kwallet_profit_inflation(
    k: int, C: float, T: float, p: float, tau: float
) -> float:
    """Collateral overhead of running k wallets under utility accounting.

    (p/tau - k/C) / (p/tau - k/(C - kT)): the factor by which collateral
    must grow so per-flush profit matches the single-pool baseline.
    Tends to 1 as tau -> 0, and tau = 0 returns exactly 1.
    """
    if k < 1 or int(k) != k:
        raise DomainError(f"k must be a positive integer, got {k}")
    if C <= 0 or T <= 0:
        raise DomainError(f"C and T must be positive, got C={C} T={T}")
    if k * T >= C:
        raise DomainError(f"need kT < C, got k={k} T={T} C={C}")
    if tau < 0 or p <= 0:
        raise DomainError(f"need p > 0 and tau >= 0, got p={p} tau={tau}")
    if tau == 0:
        return 1.0
    if p / tau <= k / (C - k * T):
        raise DomainError(
            f"need p/tau > k/(C - kT), got p/tau={p / tau} k/(C-kT)={k / (C - k * T)}"
        )
    return (p / tau - k / C) / (p / tau - k / (C - k * T))


def eta_alpha(eta: Real, C: Real, T: float, p: Real, tau: float) -> Real:
    """Utility guarantee of the threshold policy at threshold eta.

    1/(1 - eta - T/C) * (p/tau - 1/C) / (p/tau - 1/(eta C)).  With
    tau = 0 this degrades gracefully to the value-only guarantee
    1/(1 - eta - T/C).  Exact when eta, p and C are Fractions and T and
    tau are integers; an integer C would make T/C a float.
    """
    if C <= 0 or T < 0:
        raise DomainError(f"need C > 0 and T >= 0, got C={C} T={T}")
    if eta < T / C:
        raise DomainError(f"eta={eta} is below the floor T/C={T / C}")
    if eta > 1:
        raise DomainError(f"eta={eta} exceeds 1")
    if 1 - eta - T / C <= 0:
        raise DomainError(
            f"need eta + T/C < 1 for a finite guarantee, got eta={eta} T/C={T / C}"
        )
    if tau < 0 or p <= 0:
        raise DomainError(f"need p > 0 and tau >= 0, got p={p} tau={tau}")
    value_part = 1 / (1 - eta - T / C)
    if tau == 0:
        return value_part
    if p / tau <= 1 / (eta * C):
        raise DomainError(
            f"need p/tau > 1/(eta C), got p/tau={p / tau} 1/(eta C)={1 / (eta * C)}"
        )
    return value_part * (p / tau - 1 / C) / (p / tau - 1 / (eta * C))


def _eta_star_beta(C: float, T: float, p: float, tau: float) -> float:
    """beta = tau/(p C), once the optimal threshold's domain is checked."""
    if C <= 0 or T < 0 or T >= C:
        raise DomainError(f"need 0 <= T < C and C > 0, got C={C} T={T}")
    if p <= 0 or tau < 0:
        raise DomainError(f"need p > 0 and tau >= 0, got p={p} tau={tau}")
    beta = tau / (p * C)
    if beta >= 1:
        raise DomainError(f"need p*C > tau, got beta={beta}")
    return beta


def eta_star_raw(C: float, T: float, p: float, tau: float) -> float:
    """Unclamped optimizer sqrt((1 - T/C) * beta), beta = tau/(p C)."""
    beta = _eta_star_beta(C, T, p, tau)  # checked before T/C is formed
    return math.sqrt((1 - T / C) * beta)


def eta_star(C: float, T: float, p: float, tau: float) -> float:
    """Threshold minimizing eta_alpha, clamped up to the floor T/C."""
    return max(eta_star_raw(C, T, p, tau), T / C)


def eta_star_is_clamped(C: float, T: float, p: float, tau: float) -> bool:
    return eta_star_raw(C, T, p, tau) < T / C


def eta_star_ratio(C: float, T: float, p: float, tau: float) -> float:
    """Guarantee at the optimal threshold: (1-beta)/(sqrt(1-T/C)-sqrt(beta))^2."""
    beta = _eta_star_beta(C, T, p, tau)
    root_gap = math.sqrt(1 - T / C) - math.sqrt(beta)
    if root_gap <= 0:
        raise DomainError(
            f"need sqrt(1 - T/C) > sqrt(beta), got T/C={T / C} beta={beta}"
        )
    return (1 - beta) / (root_gap**2)


def _float_or_error(closed_form, *args) -> float | str:
    """A closed form's value as a JSON float, or its DomainError text."""
    try:
        return float(closed_form(*args))
    except DomainError as err:
        return str(err)


def formulas_report(
    C: int,
    T: int,
    k: int | None = None,
    p_ppm: int | None = None,
    tau: int | None = None,
) -> dict:
    """Every applicable closed form for the given parameters, for the CLI."""
    # past the float range the float arithmetic below overflows
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
        # that ratio and exhaust check, then correctly rounded
        r = Fraction(k * T, C)
        out["k"] = k
        out["loadRatio"] = float(r)
        out["faRatio"] = _float_or_error(fa_ratio, k, r)
        out["fwfRatio"] = _float_or_error(fwf_ratio, k, r)
        out["ftwfRatio"] = _float_or_error(ftwf_ratio, k)
    if p_ppm is not None and tau is not None:
        p = p_ppm / PPM
        out["p"] = p
        out["tau"] = tau
        raw = eta_star_raw(C, T, p, tau)
        out["beta"] = tau / (p * C)
        clamped = eta_star(C, T, p, tau)
        out["etaStar"] = {
            "raw": raw,
            "value": clamped,
            "clamped": eta_star_is_clamped(C, T, p, tau),
        }
        out["etaStarRatio"] = _float_or_error(eta_star_ratio, C, T, p, tau)
        out["etaAlphaAtStar"] = _float_or_error(eta_alpha, clamped, C, T, p, tau)
        if k is not None:
            out["kwalletProfitInflation"] = _float_or_error(
                kwallet_profit_inflation, k, C, T, p, tau
            )
    return out
