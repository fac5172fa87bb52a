"""Closed-form ratios and optimizers."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from collatsim.formulas import (
    DomainError,
    UNBOUNDED,
    eta_alpha,
    eta_star,
    fa_ratio,
    formulas_report,
    ftwf_ratio,
    fwf_ratio,
    k_star,
    kwallet_profit_inflation,
    nearest_float,
)
from collatsim.harness import exact_bound
from collatsim.model import PPM, ModelParams
from identity_grid import FORMULAS_C

EXACT = 1e-12


def test_fa_ratio():
    half = Fraction(1, 2)
    assert fa_ratio(1, half) == fa_ratio(7, half) == 3
    assert fa_ratio(1, Fraction(1, 10**9)) == Fraction(2 * 10**9 - 1, 10**9 - 1)
    assert fa_ratio(2, Fraction(1)) == 3
    assert fa_ratio(1, Fraction(1)) == UNBOUNDED
    with pytest.raises(DomainError):
        fa_ratio(1, Fraction(0))
    with pytest.raises(DomainError):
        fa_ratio(1, Fraction(3, 2))


def test_fwf_ratio():
    assert fwf_ratio(2, Fraction(1, 2)) == 3
    assert fwf_ratio(10, Fraction(1, 10)) == Fraction(11, 9)
    assert fwf_ratio(2, Fraction(1)) == UNBOUNDED
    with pytest.raises(DomainError):
        fwf_ratio(1, Fraction(1, 2))
    with pytest.raises(DomainError):
        fwf_ratio(2, Fraction(0))


def test_ftwf_ratio():
    assert ftwf_ratio(2) == 3
    assert ftwf_ratio(4) == Fraction(5, 2)
    with pytest.raises(DomainError):
        ftwf_ratio(3)
    with pytest.raises(DomainError):
        ftwf_ratio(1)


def decimal_float(f) -> float:
    """f() worked out in 60-digit decimals, then rounded to a float: a route
    to the correctly rounded value that shares nothing with nearest_float."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(f())


def test_k_star():
    assert k_star(16, 2) == (2.0, 2)
    real, integer = k_star(8, 8)
    assert real == decimal_float(lambda: Decimal(2).sqrt() - 1)
    assert integer == 1
    assert k_star(99, 1) == (9.0, 9)
    # the ratio is not symmetric around the real optimum; here ceil wins
    real, integer = k_star(6, 1)
    assert math.floor(real) == 1 and integer == 2
    # C = T(k^2 + 3k + 1) ties k and k + 1 exactly: the smaller is kept
    assert Fraction(2 * 5, 1 * 4) == Fraction(3 * 5, 2 * 3)
    assert k_star(5, 1)[1] == 1


def test_kwallet_profit_inflation():
    assert kwallet_profit_inflation(2, 20, 6, Fraction(1, 2), 1) == Fraction(8, 5)
    assert kwallet_profit_inflation(2, 20, 6, Fraction(1, 2), 0) == 1
    with pytest.raises(DomainError):
        kwallet_profit_inflation(2, 20, 6, Fraction(1, 4), 1)  # p/tau hits k/(C-kT)


def test_eta_alpha():
    assert eta_alpha(Fraction(1, 2), 20, 6, Fraction(1, 5), 1) == Fraction(15, 2)
    # tau -> 0 leaves only the value-ratio part C/(C - etaC - T)
    assert eta_alpha(Fraction(1, 2), 20, 6, Fraction(1, 5), 0) == 5
    with pytest.raises(DomainError, match="floor"):
        eta_alpha(Fraction(1, 5), 20, 6, Fraction(1, 5), 1)
    with pytest.raises(DomainError, match="finite"):
        eta_alpha(Fraction(3, 4), 20, 6, Fraction(1, 5), 1)
    with pytest.raises(DomainError, match="p/tau"):
        eta_alpha(Fraction(1, 2), 20, 6, Fraction(1, 50), 1)


def test_eta_alpha_exact_matches_float():
    got = eta_alpha(Fraction(1, 2), 200, 60, Fraction(1, 10), 5)
    assert got == Fraction(15, 2)
    assert abs(float(got) - eta_alpha(0.5, 200, 60, 0.1, 5)) < EXACT


@st.composite
def kwallet_params(draw):
    """Valid k-wallet params: C = k(T + slack), so r = T/(T + slack) <= 1."""
    k = draw(st.integers(1, 8))
    T = draw(st.integers(1, 20))
    return ModelParams(C=k * (T + draw(st.integers(0, 40))), T=T, F=1, k=k)


@st.composite
def eta_params(draw):
    """Threshold params with eta + T/C <= 1/2 and p/tau >= 2/(eta C), so
    inside eta_alpha's domain."""
    C = draw(st.integers(4, 400))
    T = draw(st.integers(1, C // 4))
    eta_ppm = draw(st.integers(-(-T * PPM // C), (C * PPM // 2 - T * PPM) // C))
    p_ppm = draw(st.integers(1, PPM))
    tau = draw(st.integers(0, p_ppm * eta_ppm * C // (2 * PPM * PPM)))
    return ModelParams(C=C, T=T, F=1, p_ppm=p_ppm, tau=tau, eta_ppm=eta_ppm)


@given(kwallet_params())
@settings(max_examples=300, deadline=None)
def test_wallet_bounds_exact_on_exact_inputs(params):
    # each wallet bound against its closed form written out again, in Fractions
    k, r = params.k, params.load_ratio
    assert r == Fraction(k * params.T, params.C)
    if r < 1:
        assert fa_ratio(k, r) == (2 - r) / (1 - r)
    else:
        assert fa_ratio(k, r) == (UNBOUNDED if k == 1 else 3)
    if k == 1:
        with pytest.raises(DomainError):
            fwf_ratio(k, r)
    else:
        assert fwf_ratio(k, r) == (UNBOUNDED if r == 1 else (k + 1) / (k * (1 - r)))
    if k % 2 or k == 1:
        with pytest.raises(DomainError):
            ftwf_ratio(k)
    else:
        assert ftwf_ratio(k) == Fraction(2 * (k + 1), k)


@given(eta_params())
@settings(max_examples=300, deadline=None)
def test_eta_alpha_exact_on_exact_inputs(params):
    # eta_alpha in the shape (1 - beta) eta/((a - eta)(eta - beta)), with
    # a = 1 - T/C and beta = tau/(pC): the same value by another route
    eta, a = params.eta, 1 - Fraction(params.T, params.C)
    got = eta_alpha(eta, params.C, params.T, params.p, params.tau)
    assert isinstance(got, Fraction)
    beta = params.tau / (params.p * params.C)
    assert got == (1 - beta) * eta / ((a - eta) * (eta - beta))


def test_eta_star():
    beta, square, clamped = eta_star(20, 6, 200000, 1)  # beta = 1/4
    assert (beta, square, clamped) == (Fraction(1, 4), Fraction(7, 40), False)
    assert nearest_float(0, square) == decimal_float(lambda: Decimal("0.175").sqrt())
    # tiny flush fee: the raw optimum dips under T/C and is pulled back up
    beta, square, clamped = eta_star(20, 6, PPM, 1)
    assert square < Fraction(3, 10) ** 2 and clamped
    # the raw optimum at the floor exactly is not clamped
    assert eta_star(12, 5, 280000, 1) == (Fraction(25, 84), Fraction(25, 144), False)
    with pytest.raises(DomainError):
        eta_star(10, 10, PPM, 1)
    with pytest.raises(DomainError):
        eta_star(10, 1, 100000, 2)  # beta >= 1


def test_eta_star_ratio():
    # T/C = beta = 1/10: eta* = sqrt(9/100) and the guarantee
    # (1 - beta)/(sqrt(1 - T/C) - sqrt(beta))^2 = (9/10)/(4/10) are rational
    report = formulas_report(10, 1, p_ppm=PPM, tau=1)
    assert report["etaStar"] == {"raw": 0.3, "value": 0.3, "clamped": False}
    assert report["etaStarRatio"] == report["etaAlphaAtStar"] == 2.25
    assert eta_alpha(Fraction(3, 10), 10, 1, Fraction(1), 1) == Fraction(9, 4)
    # tau = 0 clamps to the floor, where the value guarantee is 1/(1 - 2T/C)
    assert formulas_report(4, 1, p_ppm=PPM, tau=0)["etaStarRatio"] == 2.0
    report = formulas_report(10, 1, p_ppm=PPM, tau=9)  # beta = 9/10 >= 1 - T/C
    assert report["etaStarRatio"] == report["etaAlphaAtStar"]
    assert report["etaStarRatio"].startswith("need sqrt(1 - T/C) > sqrt(beta)")
    # clamped, the guarantee is eta_alpha at the floor, not the closed form
    # at the root below it: 57/20, where the root gives 2.5277...
    report = formulas_report(20, 6, p_ppm=PPM, tau=1)
    assert report["etaStar"] == {"raw": nearest_float(0, Fraction(7, 200)), "value": 0.3,
                                 "clamped": True}
    assert report["etaStarRatio"] == report["etaAlphaAtStar"] == 2.85


def test_eta_consistency_unclamped():
    # at the floor exactly the guarantee is rational: 59/4 in both fields
    report = formulas_report(12, 5, p_ppm=280000, tau=1)
    assert not report["etaStar"]["clamped"]
    assert report["etaStar"]["raw"] == report["etaStar"]["value"] == 5 / 12
    assert report["etaStarRatio"] == report["etaAlphaAtStar"] == 14.75
    assert eta_alpha(Fraction(5, 12), 12, 5, Fraction(28, 100), 1) == Fraction(59, 4)


def test_eta_star_minimizes_on_grid():
    C, T, p, tau = 200, 60, Fraction(1, 10), 5
    _, square, clamped = eta_star(C, T, 100000, tau)
    assert not clamped
    near = math.isqrt(math.floor(square * PPM * PPM))  # 418330 ppm
    alphas = {}
    for eta_ppm in {*range(300000, PPM, 1000), *range(near - 50, near + 50)}:
        try:
            alphas[eta_ppm] = eta_alpha(Fraction(eta_ppm, PPM), C, T, p, tau)
        except DomainError:
            pass
    # the best whole-ppm threshold is next to sqrt(square)
    assert min(alphas, key=alphas.get) in (near, near + 1)


def test_k_star_minimizes_fwf():
    C, T = 16, 2
    ratios = {k: Fraction((k + 1) * C, k * (C - k * T)) for k in range(1, C // T)}
    assert k_star(C, T)[1] == min(ratios, key=ratios.get) == 2
    # on a real grid, k* = 2 is the minimum: the ratio falls to it and rises past it
    grid = [Fraction(j, 100) for j in range(100, 100 * C // T)]
    values = [(k + 1) * C / (k * (C - k * T)) for k in grid]
    at = grid.index(2)
    assert all(a > b for a, b in zip(values[:at], values[1:at + 1]))
    assert all(a < b for a, b in zip(values[at:], values[at + 1:]))


def test_ratios_at_least_one():
    assert fa_ratio(3, Fraction(1, 100)) >= 1
    assert fwf_ratio(50, Fraction(1, 1000)) >= 1
    assert ftwf_ratio(100) >= 1
    assert formulas_report(1000, 10, p_ppm=500000, tau=1)["etaStarRatio"] >= 1


def test_formulas_report():
    report = formulas_report(20, 6, k=2, p_ppm=100000, tau=1)
    assert report["kStar"]["integer"] >= 1
    assert report["loadRatio"] == 0.6
    assert "etaStar" in report and "etaStarRatio" in report
    assert report["beta"] == 0.5
    bare = formulas_report(20, 6)
    assert "beta" not in bare


def test_formulas_prints_the_exact_wallet_bounds_rounded():
    # the ratios formulas prints are the bounds ratio and exhaust check,
    # correctly rounded: 3.5, not 3.4999999999999996, at C=10, T=3, k=2
    assert formulas_report(10, 3, k=2)["faRatio"] == 3.5
    for C, k in product(FORMULAS_C, range(1, 5)):
        for T in range(1, C + 1):
            report = formulas_report(C, T, k=k)
            assert report["loadRatio"] == k * T / C
            for kind, name in (("fa", "faRatio"), ("fwf", "fwfRatio")):
                bound = exact_bound(kind, ModelParams(C=C, T=T, F=1, k=k))
                if bound is None:  # out of domain, or unbounded
                    assert isinstance(report[name], str) or report[name] == UNBOUNDED
                else:
                    assert report[name] == float(bound)


@st.composite
def formulas_inputs(draw):
    """formulas' inputs with p and tau: T < C, tau up to just under pC, so
    beta < 1, and k from 1 to C."""
    C = draw(st.integers(2, 10**4))
    T = draw(st.integers(1, C - 1))
    p_ppm = draw(st.integers(1, PPM))
    tau = draw(st.integers(0, max(0, (p_ppm * C - 1) // PPM)))
    return C, T, p_ppm, tau, draw(st.integers(1, C))


@given(formulas_inputs())
@example((12, 5, 280000, 1, 2))  # the raw optimum on the floor exactly
@example((20, 6, PPM, 1, 2))  # clamped, with a guarantee in domain
@example((10, 1, PPM, 9, 1))  # unclamped, with beta past 1 - T/C
@settings(max_examples=300, deadline=None)
def test_formulas_floats_are_the_exact_values_rounded(inputs):
    # every float formulas prints, worked out again in 60-digit decimals,
    # each domain decided in ints
    C, T, p_ppm, tau, k = inputs
    report = formulas_report(C, T, k=k, p_ppm=p_ppm, tau=tau)
    # (1 - T/C) beta < (T/C)^2, times p_ppm C^2
    clamped = (C - T) * tau * PPM < T * T * p_ppm
    assert report["etaStar"]["clamped"] == clamped
    with localcontext() as ctx:
        ctx.prec = 60
        p, floor = Decimal(p_ppm) / PPM, Decimal(T) / C
        beta, a = tau / (p * C), 1 - floor
        raw = (a * beta).sqrt()
        if clamped:  # eta_alpha at the floor
            in_domain = C > 2 * T and (tau == 0 or T * p_ppm > tau * PPM)
            if in_domain:
                guarantee = (1 - beta) * floor / ((a - floor) * (floor - beta))
        else:
            in_domain = tau * PPM < (C - T) * p_ppm  # beta < 1 - T/C
            if in_domain:
                guarantee = (1 - beta) / (a.sqrt() - beta.sqrt()) ** 2
        expected = {
            "p": p, "beta": beta, "loadRatio": Decimal(k * T) / C,
            "kStar": (1 + Decimal(C) / T).sqrt() - 1,
            "etaStar": raw, "etaStarValue": floor if clamped else raw,
        }
        inflation = None
        if k * T < C and (tau == 0 or p_ppm * (C - k * T) > k * tau * PPM):
            inflation = (p / tau - Decimal(k) / C) / (p / tau - Decimal(k) / (C - k * T)) if tau else 1
    printed = {
        "p": report["p"], "beta": report["beta"], "loadRatio": report["loadRatio"],
        "kStar": report["kStar"]["real"], "etaStar": report["etaStar"]["raw"],
        "etaStarValue": report["etaStar"]["value"],
    }
    assert printed == {name: float(value) for name, value in expected.items()}
    assert report["etaStarRatio"] == report["etaAlphaAtStar"]
    if in_domain:
        assert report["etaStarRatio"] == float(guarantee)
    else:
        assert isinstance(report["etaStarRatio"], str)
    if inflation is None:
        assert isinstance(report["kwalletProfitInflation"], str)
    else:
        assert report["kwalletProfitInflation"] == float(inflation)
