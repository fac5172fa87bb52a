"""Closed-form ratios and optimizers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from collatsim.formulas import (
    DomainError,
    UNBOUNDED,
    eta_alpha,
    eta_star,
    eta_star_is_clamped,
    eta_star_raw,
    eta_star_ratio,
    fa_ratio,
    formulas_report,
    ftwf_ratio,
    fwf_ratio,
    k_star,
    kwallet_profit_inflation,
)
from collatsim.model import PPM, ModelParams

EXACT = 1e-12


def test_fa_ratio():
    assert abs(fa_ratio(1, 0.5) - 3.0) < EXACT
    assert abs(fa_ratio(7, 0.5) - 3.0) < EXACT
    assert abs(fa_ratio(1, 1e-9) - 2.0) < 1e-8
    assert abs(fa_ratio(2, 1.0) - 3.0) < EXACT
    assert fa_ratio(1, 1.0) == UNBOUNDED
    with pytest.raises(DomainError):
        fa_ratio(1, 0.0)
    with pytest.raises(DomainError):
        fa_ratio(1, 1.5)


def test_fwf_ratio():
    assert abs(fwf_ratio(2, 0.5) - 3.0) < EXACT
    assert abs(fwf_ratio(10, 0.1) - 11 / 9) < EXACT
    assert fwf_ratio(2, 1.0) == UNBOUNDED
    with pytest.raises(DomainError):
        fwf_ratio(1, 0.5)
    with pytest.raises(DomainError):
        fwf_ratio(2, 0.0)


def test_ftwf_ratio():
    assert abs(ftwf_ratio(2) - 3.0) < EXACT
    assert abs(ftwf_ratio(4) - 2.5) < EXACT
    with pytest.raises(DomainError):
        ftwf_ratio(3)
    with pytest.raises(DomainError):
        ftwf_ratio(1)


def test_k_star():
    real, integer = k_star(16, 2)
    assert abs(real - 2.0) < EXACT
    assert integer == 2
    real, integer = k_star(8, 8)
    assert abs(real - (math.sqrt(2) - 1)) < EXACT
    assert integer == 1
    real, integer = k_star(99, 1)
    assert abs(real - 9.0) < EXACT
    # the ratio is not symmetric around the real optimum; here ceil wins
    real, integer = k_star(6, 1)
    assert math.floor(real) == 1 and integer == 2


def test_kwallet_profit_inflation():
    assert abs(kwallet_profit_inflation(2, 20, 6, 0.1, 0.2) - 1.6) < EXACT
    assert kwallet_profit_inflation(2, 20, 6, 0.1, 0.0) == 1.0
    with pytest.raises(DomainError):
        kwallet_profit_inflation(2, 20, 6, 0.1, 0.4)  # p/tau hits k/(C-kT)


def test_eta_alpha():
    assert abs(eta_alpha(0.5, 20, 6, 0.1, 0.5) - 7.5) < EXACT
    # tau -> 0 leaves only the value-ratio part C/(C - etaC - T)
    assert abs(eta_alpha(0.5, 20, 6, 0.1, 0.0) - 5.0) < EXACT
    with pytest.raises(DomainError, match="floor"):
        eta_alpha(0.2, 20, 6, 0.1, 0.5)
    with pytest.raises(DomainError, match="finite"):
        eta_alpha(0.75, 20, 6, 0.1, 0.5)
    with pytest.raises(DomainError, match="p/tau"):
        eta_alpha(0.5, 20, 6, 0.01, 0.5)


def test_eta_alpha_exact_matches_float():
    got = eta_alpha(Fraction(1, 2), Fraction(200), 60, Fraction(1, 10), 5)
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
    """Valid threshold params with eta + T/C <= 1/2 and p/tau >= 2/(eta C).

    Each subtraction in eta_alpha then keeps at least half of its larger
    term, so float rounding moves the result by a few ulps at most.
    """
    C = draw(st.integers(4, 400))
    T = draw(st.integers(1, C // 4))
    eta_ppm = draw(st.integers(-(-T * PPM // C), (C * PPM // 2 - T * PPM) // C))
    p_ppm = draw(st.integers(1, PPM))
    tau = draw(st.integers(0, p_ppm * eta_ppm * C // (2 * PPM * PPM)))
    return ModelParams(C=C, T=T, F=1, p_ppm=p_ppm, tau=tau, eta_ppm=eta_ppm)


def assert_one_body(closed_form, exact_args, float_args):
    """closed_form is exact on exact_args and agrees with itself on floats."""
    try:
        exact = closed_form(*exact_args)
    except DomainError:
        with pytest.raises(DomainError):
            closed_form(*float_args)
        return
    approx = closed_form(*float_args)
    if exact == UNBOUNDED:
        assert approx == UNBOUNDED
        return
    assert isinstance(exact, Fraction)
    assert abs(float(approx) - exact) <= 1e-12 * exact


@given(kwallet_params())
@settings(max_examples=300, deadline=None)
def test_wallet_bounds_exact_on_exact_inputs(params):
    k, r = params.k, params.load_ratio
    r_float = k * params.T / params.C
    assert_one_body(fa_ratio, (k, r), (k, r_float))
    assert_one_body(fwf_ratio, (k, r), (k, r_float))
    assert_one_body(ftwf_ratio, (k,), (k,))


@given(eta_params())
@settings(max_examples=300, deadline=None)
def test_eta_alpha_exact_on_exact_inputs(params):
    C, T, tau = params.C, params.T, params.tau
    assert_one_body(
        eta_alpha,
        (params.eta, Fraction(C), T, params.p, tau),
        (params.eta_ppm / PPM, C, T, params.p_ppm / PPM, tau),
    )


def test_eta_star():
    got = eta_star(20, 6, 0.1, 0.5)
    assert abs(got - math.sqrt(0.175)) < EXACT
    assert not eta_star_is_clamped(20, 6, 0.1, 0.5)
    # tiny flush fee: the raw optimum dips under T/C and is pulled back up
    assert eta_star_raw(20, 6, 1.0, 0.01) < 0.3
    assert eta_star(20, 6, 1.0, 0.01) == 0.3
    assert eta_star_is_clamped(20, 6, 1.0, 0.01)
    # T=0 limit with beta=1/4
    assert abs(eta_star(1, 0, 1.0, 0.25) - 0.5) < EXACT
    with pytest.raises(DomainError):
        eta_star(10, 10, 1.0, 0.1)
    with pytest.raises(DomainError):
        eta_star(10, 1, 0.1, 2.0)  # beta >= 1


def test_eta_star_ratio():
    assert abs(eta_star_ratio(1, 0, 1.0, 0.25) - 3.0) < EXACT
    assert abs(eta_star_ratio(1, 0, 1.0, 1e-12) - 1.0) < 1e-5
    with pytest.raises(DomainError):
        eta_star_ratio(20, 19, 1.0, 2.0)  # sqrt(1-T/C) <= sqrt(beta)


def test_eta_consistency_unclamped():
    args = (20, 6, 0.1, 0.5)
    assert abs(eta_alpha(eta_star(*args), *args) - eta_star_ratio(*args)) < 1e-9


def test_eta_star_minimizes_on_grid():
    C, T, p, tau = 20, 6, 0.1, 0.5
    star = eta_star(C, T, p, tau)
    at_star = eta_alpha(star, C, T, p, tau)
    eta = T / C + 1e-4
    while eta < 1 - T / C - 1e-4:
        try:
            assert eta_alpha(eta, C, T, p, tau) >= at_star * (1 - 1e-6)
        except DomainError:
            pass
        eta += 1e-4


def test_k_star_minimizes_fwf():
    C, T = 16, 2
    real, _ = k_star(C, T)
    at_star = (real + 1) / (real * (1 - real * T / C))
    k = 1.0 + 1e-4
    while k * T < C:
        got = (k + 1) / (k * (1 - k * T / C))
        assert got >= at_star * (1 - 1e-6)
        k += 1e-3


def test_ratios_at_least_one():
    assert fa_ratio(3, 0.01) >= 1
    assert fwf_ratio(50, 0.001) >= 1
    assert ftwf_ratio(100) >= 1
    assert eta_star_ratio(100, 1, 0.5, 0.1) >= 1


def test_formulas_report():
    report = formulas_report(20, 6, k=2, p_ppm=100000, tau=1)
    assert report["kStar"]["integer"] >= 1
    assert report["loadRatio"] == 0.6
    assert "etaStar" in report and "etaStarRatio" in report
    assert abs(report["beta"] - 0.5) < EXACT
    bare = formulas_report(20, 6)
    assert "beta" not in bare
