"""Tests for per-place verdicts, adelic reports and Siegel radii."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qmobius import padic
from qmobius.classify import (
    AdelicReport,
    Verdict,
    adelic_report,
    check_adelic_image,
    classify_at,
    exceptional_primes,
    in_named_family,
    siegel_radius,
)
from qmobius.mobius import (
    FamilyParameter,
    MobiusMap,
    RationalPair,
    case_A,
    case_B,
    case_C,
    case_C_sub,
    case_D,
    case_D_sub,
    from_parameter,
)
from qmobius.padic import Place, principal_profile, vp

F = Fraction

small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
nonzero_small = small_rationals.filter(lambda x: x != 0)
t_values = small_rationals.filter(lambda t: t not in (1, -1))
parameters = st.builds(
    FamilyParameter,
    t=t_values,
    sign=st.sampled_from((1, -1)),
    a=small_rationals,
    c=nonzero_small,
)


def std_map():
    return MobiusMap.make(2, 0, 1, F(1, 2))


def test_classify_at_worked_examples():
    f = std_map()
    real = classify_at(f, F(0), Place.real())
    assert real.verdict is Verdict.REPELLER
    assert real.derivative_norm.value == 4

    dyadic = classify_at(f, F(0), Place.finite(2))
    assert dyadic.verdict is Verdict.ATTRACTOR
    assert dyadic.derivative_norm.value == F(1, 4)
    assert dyadic.derivative_norm.exponent == -2


def test_classify_at_case_C_indifferent_everywhere_sampled():
    f = case_C(F(2), F(1))
    for place in (Place.real(), Place.finite(2), Place.finite(3), Place.finite(97)):
        assert classify_at(f, F(1), place).verdict is Verdict.INDIFFERENT


def test_classify_at_rejects_non_fixed_point():
    with pytest.raises(ValueError, match="not a fixed point"):
        classify_at(std_map(), F(1), Place.real())


def test_exceptional_primes_worked():
    f = std_map()
    at_zero = exceptional_primes(f, F(0))
    assert [(r.place.prime, r.verdict) for r in at_zero] == [(2, Verdict.ATTRACTOR)]
    assert at_zero[0].derivative_norm.exponent == -2

    at_partner = exceptional_primes(f, F(3, 2))
    assert [(r.place.prime, r.verdict) for r in at_partner] == [(2, Verdict.REPELLER)]


def test_exceptional_primes_empty_for_case_C():
    f = case_C(F(5), F(3))
    xi = F(4, 3)  # (a-1)/c
    assert exceptional_primes(f, xi) == []


def test_adelic_report_worked():
    reports = adelic_report(std_map())
    by_point = {r.fixed_point: r for r in reports}
    assert set(by_point) == {F(0), F(3, 2)}

    zero = by_point[F(0)]
    assert zero.real_report.verdict is Verdict.REPELLER
    assert [(r.place.prime, r.verdict) for r in zero.exceptional] == [(2, Verdict.ATTRACTOR)]

    partner = by_point[F(3, 2)]
    assert partner.real_report.verdict is Verdict.ATTRACTOR
    assert [(r.place.prime, r.verdict) for r in partner.exceptional] == [(2, Verdict.REPELLER)]


def test_adelic_report_json_schema():
    reports = adelic_report(std_map())
    doc = reports[1].to_json_dict()
    assert doc == {
        "fixed_point": "0",
        "real": "repeller",
        "exceptional": [{"p": 2, "verdict": "attractor", "deriv_norm_exp": -2}],
        "default": "indifferent",
    }


def test_adelic_report_rejects_irrational():
    f = MobiusMap.make(1, -1, 1, 0)
    with pytest.raises(ValueError, match="not rational"):
        adelic_report(f)


def test_verdict_at_lookup():
    report = adelic_report(std_map())[1]  # fixed point 0
    assert report.verdict_at(Place.real()) is Verdict.REPELLER
    assert report.verdict_at(Place.finite(2)) is Verdict.ATTRACTOR
    assert report.verdict_at(Place.finite(3)) is Verdict.INDIFFERENT
    assert report.verdict_at(Place.finite(101)) is Verdict.INDIFFERENT


def test_verdict_dual():
    assert Verdict.ATTRACTOR.dual() is Verdict.REPELLER
    assert Verdict.REPELLER.dual() is Verdict.ATTRACTOR
    assert Verdict.INDIFFERENT.dual() is Verdict.INDIFFERENT


@given(parameters)
def test_exceptional_primes_divide_c_xi_plus_d(fp):
    f = from_parameter(fp)
    result = f.fixed_points()
    points = [result.point1, result.point2] if isinstance(result, RationalPair) else [result.point]
    for xi in points:
        w = f.c * xi + f.d
        allowed = set(principal_profile(w))
        listed = {r.place.prime for r in exceptional_primes(f, xi)}
        assert listed == allowed  # nonzero valuation iff non-indifferent
        for r in exceptional_primes(f, xi):
            assert r.derivative_norm.exponent == 2 * vp(w, r.place.prime)


@given(parameters)
def test_partner_verdict_duality(fp):
    f = from_parameter(fp)
    result = f.fixed_points()
    if not isinstance(result, RationalPair):
        return
    r1, r2 = adelic_report(f)
    assert r1.real_report.verdict.dual() is r2.real_report.verdict
    primes = {r.place.prime for r in r1.exceptional}
    assert primes == {r.place.prime for r in r2.exceptional}
    for p in primes:
        place = Place.finite(p)
        assert r1.verdict_at(place).dual() is r2.verdict_at(place)


def per_point_reports(f):
    """Each fixed point classified on its own: the real verdict and its own factoring."""
    result = f.fixed_points()
    points = [result.point1, result.point2] if isinstance(result, RationalPair) else [result.point]
    return tuple(
        AdelicReport(xi, classify_at(f, xi, Place.real()), tuple(exceptional_primes(f, xi)))
        for xi in points
    )


@given(st.builds(
    FamilyParameter,
    t=st.one_of(st.just(F(0)), t_values),
    sign=st.sampled_from((1, -1)),
    a=small_rationals,
    c=nonzero_small,
))
@example(FamilyParameter(t=F(0), sign=1, a=F(2), c=F(1)))
@example(FamilyParameter(t=F(0), sign=-1, a=F(1, 2), c=F(5)))
@example(FamilyParameter(t=F(1, 2), sign=1, a=F(2), c=F(1)))
@example(FamilyParameter(t=F(-3, 7), sign=-1, a=F(0), c=F(-12, 5)))
def test_adelic_report_matches_per_point_classification(fp):
    f = from_parameter(fp)
    expected = per_point_reports(f)
    reports = adelic_report(f)
    assert len(reports) == len(expected) == (1 if fp.t == 0 else 2)
    for got, want in zip(reports, expected):
        assert got.fixed_point == want.fixed_point
        assert got.real_report == want.real_report
        assert len(got.exceptional) == len(want.exceptional)
        for g, w in zip(got.exceptional, want.exceptional):
            assert g.place == w.place
            assert g.verdict is w.verdict
            assert g.derivative_norm == w.derivative_norm
            assert str(g.derivative_norm) == str(w.derivative_norm)
        assert got.to_json_dict() == want.to_json_dict()


def factor_inputs(monkeypatch, f):
    """The integers adelic_report(f) hands to factor_int, in call order."""
    seen = []
    factor_int = padic.factor_int

    def counting(n):
        seen.append(n)
        return factor_int(n)

    monkeypatch.setattr(padic, "factor_int", counting)
    adelic_report(f)
    return seen


def test_adelic_report_factors_the_pair_once(monkeypatch):
    # c*xi + d is 2 at xi = 3/2 and 1/2 at xi = 0: one profile covers both
    assert factor_inputs(monkeypatch, std_map()) == [2, 1]


def test_adelic_report_factors_a_large_prime_once(monkeypatch):
    p = 9_999_999_967  # prime; c*xi + d = p/3 at xi = 0, 3/p at its partner
    assert padic.is_prime(p)
    f = MobiusMap.make(F(3, p), 0, 1, F(p, 3))
    assert Counter(factor_inputs(monkeypatch, f)) == {p: 1, 3: 1}
    for report in adelic_report(f):
        assert [r.place.prime for r in report.exceptional] == [3, p]


@pytest.mark.parametrize(
    "f",
    [
        case_C(F(2), F(1)),
        case_C(F(-7), F(3)),
        case_C_sub(F(5), 1),
        case_C_sub(F(5), -1),
        case_D(F(2), F(1)),
        case_D(F(1, 2), F(5)),
        case_D_sub(F(4), 1),
        case_D_sub(F(4), -1),
    ],
)
def test_fused_families_indifferent_everywhere(f):
    (report,) = adelic_report(f)
    assert report.real_report.verdict is Verdict.INDIFFERENT
    assert report.exceptional == ()
    assert f.derivative_at(report.fixed_point) == 1


def test_in_named_family():
    assert in_named_family(case_A(F(3), F(2)))
    assert in_named_family(case_B(F(1, 2)))
    assert in_named_family(case_C(F(2), F(1)))
    assert in_named_family(case_C_sub(F(3), -1))
    assert in_named_family(case_D(F(2), F(1)))
    assert in_named_family(case_D_sub(F(3), -1))
    assert not in_named_family(MobiusMap.make(3, 1, 2, 1))


def test_siegel_radius_worked():
    f = case_C(F(2), F(1))
    r3 = siegel_radius(f, 3)
    assert (r3.radius_exponent, r3.caveat) == (0, False)
    assert r3.radius == 1

    r2 = siegel_radius(f, 2)
    assert r2.radius_exponent == -1
    assert r2.radius == F(1, 2)


def test_siegel_radius_prime_power_coefficient():
    f = MobiusMap.make(4, 1, 3, 1)  # det = 1, not in any named family
    report = siegel_radius(f, 2)
    assert report.radius_exponent == -2  # vp(3) - vp(4)
    assert report.caveat


def test_siegel_radius_rejects_non_prime():
    with pytest.raises(ValueError, match="not a prime"):
        siegel_radius(std_map(), 4)


def test_siegel_radius_rejects_a_zero():
    f = MobiusMap.make(0, -1, 1, 0)
    with pytest.raises(ValueError, match="radius undefined"):
        siegel_radius(f, 2)


def test_check_adelic_image_worked():
    f = std_map()
    g = from_parameter(FamilyParameter(t=F(-1251, 49), sign=1, a=F(-1251, 49), c=F(-1251, 49)))
    cases = [
        (f, F(1), [3]),  # f(1) = 4/3
        (f, F(0), []),  # f(0) = 0
        (f, F(3, 2), [2]),  # f(3/2) = 3/2
        # The numerator of g(x) holds 3415409 * 148255097, which trial
        # division to 1e6 cannot split; the answer never needs it.
        (g, F(-807, 23), [3, 139, 2273, 178064401]),
    ]
    for h, x, primes in cases:
        assert check_adelic_image(h, x) == primes
        # Complete: stripping the listed primes leaves no denominator.
        rest = h.apply(x).denominator
        for p in primes:
            while rest % p == 0:
                rest //= p
        assert rest == 1


def test_check_adelic_image_rejects_pole():
    f = std_map()
    with pytest.raises(ValueError, match="pole"):
        check_adelic_image(f, -f.d / f.c)


@given(parameters, small_rationals)
def test_check_adelic_image_is_finite(fp, x):
    f = from_parameter(fp)
    if f.c * x + f.d == 0:
        return
    primes = check_adelic_image(f, x)
    assert all(vp(f.apply(x), p) < 0 for p in primes)
