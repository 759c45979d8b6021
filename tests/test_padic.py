"""Tests for valuations, norms, digit expansions and factorization."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qmobius.padic import (
    FactorizationError,
    NormValue,
    PLUS_INFINITY,
    Place,
    exact_sqrt,
    factor_int,
    in_closed_ball,
    is_prime,
    norm,
    on_sphere,
    padic_expand,
    parse_rational,
    principal_profile,
    vp,
)

PRIMES = (2, 3, 5, 7, 101)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def test_parse_rational_forms():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)


def test_parse_rational_normalizes_signed_denominator():
    assert parse_rational("4/-6") == Fraction(-2, 3)
    assert str(parse_rational("4/-6")) == "-2/3"


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1/2/3", "1.5", "2 3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_round_trip(x):
    assert parse_rational(str(x)) == x


@pytest.mark.parametrize("p", [1, 0, -1, -2])
def test_vp_rejects_p_below_two(p):
    # p = 1 or -1 divides every integer, so stripping its powers never ends
    with pytest.raises(ValueError, match="p >= 2"):
        vp(Fraction(12), p)
    with pytest.raises(ValueError, match="p >= 2"):
        on_sphere(Fraction(1), Fraction(0), 0, p)


def test_vp_values():
    assert vp(Fraction(12), 2) == 2
    assert vp(Fraction(12), 3) == 1
    assert vp(Fraction(5, 12), 2) == -2
    assert vp(Fraction(1), 7) == 0
    assert vp(Fraction(0), 5) == PLUS_INFINITY
    assert vp(Fraction(0), 5) == math.inf
    for n in (12, -12, 7, 0):
        assert vp(n, 2) == vp(Fraction(n), 2)
        assert vp(n, 3) == vp(Fraction(n), 3)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from(PRIMES))
def test_vp_is_multiplicative(x, y, p):
    assert vp(x * y, p) == vp(x, p) + vp(y, p)


@given(rationals, rationals, st.sampled_from(PRIMES))
def test_ultrametric_inequality(x, y, p):
    """vp(x+y) >= min(vp x, vp y), with equality when the valuations differ."""
    v_sum = vp(x + y, p)
    v_min = min(vp(x, p), vp(y, p))
    assert v_sum >= v_min
    if vp(x, p) != vp(y, p):
        assert v_sum == v_min


def test_norm_values():
    assert str(norm(Fraction(4), Place.finite(2))) == "2^-2"
    assert norm(Fraction(4), Place.finite(2)).value == Fraction(1, 4)
    assert norm(Fraction(-3, 2), Place.real()).value == Fraction(3, 2)
    assert norm(Fraction(0), Place.finite(7)).is_zero
    for n in (12, -12, 0):
        for place in (Place.real(), Place.finite(2), Place.finite(3)):
            assert norm(n, place) == norm(Fraction(n), place)
            assert str(norm(n, place)) == str(norm(Fraction(n), place))


def test_norm_cmp_one():
    assert norm(Fraction(4), Place.finite(2)).cmp_one() == -1
    assert norm(Fraction(1, 4), Place.finite(2)).cmp_one() == 1
    assert norm(Fraction(3), Place.finite(2)).cmp_one() == 0
    assert norm(Fraction(1, 2), Place.real()).cmp_one() == -1
    assert NormValue.p_power(3, 0).cmp_one() == 0


@given(nonzero_rationals)
def test_product_formula(x):
    """|x|_real times |x|_p over the primes dividing x multiplies to 1."""
    product = abs(x)
    for p, v in principal_profile(x).items():
        product *= Fraction(p) ** (-v)
    assert product == 1


def test_padic_expand_worked_values():
    minus_one = padic_expand(Fraction(-1), 2, 4)
    assert minus_one.valuation == 0
    assert minus_one.digits == (1, 1, 1, 1)

    third = padic_expand(Fraction(1, 3), 2, 4)
    assert third.digits == (1, 1, 0, 1)

    twelve = padic_expand(Fraction(12), 2, 3)
    assert twelve.valuation == 2
    assert twelve.digits == (1, 1, 0)

    for n in (12, -12, 1, -1):
        assert padic_expand(n, 2, 5) == padic_expand(Fraction(n), 2, 5)
        assert padic_expand(n, 3, 5) == padic_expand(Fraction(n), 3, 5)
    with pytest.raises(ValueError):
        padic_expand(0, 2, 4)


def test_padic_expand_rejects():
    with pytest.raises(ValueError):
        padic_expand(Fraction(0), 2, 4)
    with pytest.raises(ValueError):
        padic_expand(Fraction(1), 2, 0)


def test_padic_expand_negative_valuation():
    half = padic_expand(Fraction(1, 2), 2, 3)
    assert half.valuation == -1
    assert half.digits == (1, 0, 0)
    assert half.partial_sum() == Fraction(1, 2)


@given(nonzero_rationals, st.sampled_from((2, 3, 5)), st.integers(min_value=1, max_value=24))
def test_padic_expand_partial_sum_consistency(x, p, count):
    """x agrees with its partial sum through the first `count` digits."""
    expansion = padic_expand(x, p, count)
    assert len(expansion.digits) == count
    assert all(0 <= d < p for d in expansion.digits)
    assert expansion.digits[0] != 0  # unit part starts with a nonzero digit
    difference = x - expansion.partial_sum()
    if difference != 0:
        assert vp(difference, p) >= expansion.valuation + count


def test_ball_and_sphere():
    # radius exponent -1 means radius 3^-1; |4 - 1|_3 = 1/3 sits exactly on it
    assert in_closed_ball(Fraction(4), Fraction(1), -1, 3)
    assert on_sphere(Fraction(4), Fraction(1), -1, 3)
    assert in_closed_ball(Fraction(10), Fraction(1), -1, 3)
    assert not on_sphere(Fraction(10), Fraction(1), -1, 3)  # distance 3^-2, strictly inside
    assert not in_closed_ball(Fraction(2), Fraction(1), -1, 3)  # distance 1, outside


def test_is_prime_small():
    primes_below_30 = [p for p in range(30) if is_prime(p)]
    assert primes_below_30 == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(341)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_factor_int():
    assert factor_int(360) == {2: 3, 3: 2, 5: 1}
    assert factor_int(1) == {}
    assert factor_int(-12) == {2: 2, 3: 1}
    assert factor_int(10**6 + 3) == {10**6 + 3: 1}  # prime cofactor above the bound


def test_factor_int_composite_cofactor_fails():
    p = 10**6 + 3
    with pytest.raises(FactorizationError):
        factor_int(p * p)


def test_factor_int_cofactor_past_proven_bound_fails():
    # 2**89 - 1 is prime, but above the bound where Miller-Rabin is proven
    with pytest.raises(FactorizationError):
        factor_int(2**89 - 1)


@pytest.mark.parametrize("check", [is_prime, Place.finite], ids=["is_prime", "Place.finite"])
def test_primality_past_proven_bound_fails(check):
    # 2**89 - 1 is prime, but no verdict past the Miller-Rabin bound is proven
    with pytest.raises(FactorizationError, match="factorization"):
        check(2**89 - 1)


def test_principal_profile():
    assert principal_profile(Fraction(4, 3)) == {2: 2, 3: -1}
    assert principal_profile(Fraction(1)) == {}
    assert principal_profile(Fraction(0)) == {}
    for n in (12, -12, 1, 0):
        assert principal_profile(n) == principal_profile(Fraction(n))
    assert principal_profile(-12) == {2: 2, 3: 1}


@given(nonzero_rationals)
def test_principal_profile_reconstructs(x):
    rebuilt = Fraction(1)
    for p, v in principal_profile(x).items():
        rebuilt *= Fraction(p) ** v
    assert rebuilt == abs(x)


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(-4)) is None


@given(nonzero_rationals)
def test_exact_sqrt_of_square(x):
    assert exact_sqrt(x * x) == abs(x)


def test_place():
    assert Place.real().is_real
    assert str(Place.real()) == "real"
    assert str(Place.finite(7)) == "7"
    with pytest.raises(ValueError):
        Place.finite(6)
