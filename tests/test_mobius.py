"""Tests for map construction, iteration algebra and the named families."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qmobius.mobius import (
    CASE_TAGS,
    INFINITY,
    FamilyParameter,
    Infinity,
    IrrationalPair,
    Mat2,
    MobiusMap,
    RationalDouble,
    RationalPair,
    case_A,
    case_B,
    case_C,
    case_C_sub,
    case_D,
    case_D_sub,
    closed_iterate,
    cross_ratio,
    detect_period,
    format_point,
    from_parameter,
    pair_relations,
    parse_map,
    parse_point,
)
from qmobius.orbit import run_orbit

F = Fraction

small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
nonzero_small = small_rationals.filter(lambda x: x != 0)
t_values = small_rationals.filter(lambda t: t not in (1, -1))
signs = st.sampled_from((1, -1))

parameters = st.builds(FamilyParameter, t=t_values, sign=signs, a=small_rationals, c=nonzero_small)


def std_map():
    return MobiusMap.make(2, 0, 1, F(1, 2))


def test_construction_enforces_determinant():
    with pytest.raises(ValueError, match="determinant"):
        MobiusMap.make(2, 0, 1, 1)


def test_construction_enforces_c_nonzero():
    with pytest.raises(ValueError, match="affine"):
        MobiusMap.make(2, 0, 0, F(1, 2))


def test_apply_basic():
    f = std_map()
    assert f(F(1)) == F(4, 3)
    assert f(F(0)) == F(0)
    assert f(F(3, 2)) == F(3, 2)


def test_apply_pole_and_infinity():
    f = std_map()
    pole = -f.d / f.c
    assert isinstance(f(pole), Infinity)
    assert f(INFINITY) == F(2)  # a/c


def test_compose_worked_value():
    f = std_map()
    ff = f.compose(f)
    assert (ff.a, ff.b, ff.c, ff.d) == (F(4), F(0), F(5, 2), F(1, 4))


def test_compose_rejects_affine_product():
    # (0,-1,1,0) squared has lower-left entry 0
    rot = MobiusMap.make(0, -1, 1, 0)
    with pytest.raises(ValueError, match="c != 0"):
        rot.compose(rot)


def test_inverse():
    f = std_map()
    g = f.inverse()
    for x in (F(0), F(1), F(7, 3)):
        assert g(f(x)) == x


def test_power_is_matrix_power():
    rot = MobiusMap.make(0, -1, 1, 0)
    m = rot.power(2)
    assert m == Mat2(F(-1), F(0), F(0), F(-1))
    assert m.is_scalar


@given(parameters, st.integers(min_value=1, max_value=12))
def test_power_matches_repeated_compose(fp, n):
    f = from_parameter(fp)
    acc = Mat2(f.a, f.b, f.c, f.d)
    for _ in range(n - 1):
        acc = acc @ f
    assert f.power(n) == acc


@pytest.mark.parametrize("trace", [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(3), F(-5, 2)])
def test_power_matches_repeated_product_for_every_trace(trace):
    """Scalar (t = 0, +-1), parabolic (t = +-2) and hyperbolic powers alike."""
    for f in maps_with_trace(trace, random.Random(2), 5):
        acc = Mat2(f.a, f.b, f.c, f.d)
        for n in range(1, 25):
            assert f.power(n) == acc
            acc = acc @ f


@pytest.mark.parametrize("n", [100, 1500])
def test_power_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for _ in range(4):
        t = random_rational(rng)
        if t in (1, -1):
            continue
        fp = FamilyParameter(t, rng.choice((1, -1)), random_rational(rng), random_rational(rng, nonzero=True))
        f = from_parameter(fp)
        rows = [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in ((f.a, f.b), (f.c, f.d))]
        want = [F(int(e.p), int(e.q)) for e in sympy.Matrix(rows) ** n]
        m = f.power(n)
        assert [m.a, m.b, m.c, m.d] == want


def test_mat2_rejects_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        Mat2(F(1), F(2), F(2), F(4))


def test_fixed_points_pair():
    result = std_map().fixed_points()
    assert isinstance(result, RationalPair)
    assert result.point1 == F(3, 2)
    assert result.point2 == F(0)


def test_fixed_points_double():
    result = case_C(F(2), F(1)).fixed_points()
    assert isinstance(result, RationalDouble)
    assert result.point == F(1)


def test_fixed_points_irrational():
    result = MobiusMap.make(1, -1, 1, 0).fixed_points()
    assert isinstance(result, IrrationalPair)
    assert result.discriminant == F(-3)


def test_pair_relations_worked():
    f = std_map()
    result = f.fixed_points()
    point_product, deriv_product = pair_relations(f, result)
    assert point_product == -f.b / f.c == 0
    assert deriv_product == 1


def test_pair_relations_rejects_double():
    f = case_C(F(2), F(1))
    with pytest.raises(TypeError):
        pair_relations(f, f.fixed_points())


def test_pair_relations_rejects_wrong_pair():
    with pytest.raises(ValueError, match="not the fixed points"):
        pair_relations(std_map(), RationalPair(F(1), F(2)))


@given(parameters)
def test_from_parameter_has_rational_fixed_points(fp):
    """The parametrization sweeps exactly the maps solvable over Q."""
    f = from_parameter(fp)
    assert f.a * f.d - f.b * f.c == 1
    result = f.fixed_points()
    assert not isinstance(result, IrrationalPair)
    if fp.t == 0:
        assert isinstance(result, RationalDouble)


@given(parameters)
def test_pair_relations_hold_for_family(fp):
    f = from_parameter(fp)
    result = f.fixed_points()
    if isinstance(result, RationalPair):
        point_product, deriv_product = pair_relations(f, result)
        assert point_product == -f.b / f.c
        assert deriv_product == 1


def test_family_parameter_rejects():
    with pytest.raises(ValueError, match="pole"):
        FamilyParameter(t=F(1), sign=1, a=F(2), c=F(1))
    with pytest.raises(ValueError, match="sign"):
        FamilyParameter(t=F(0), sign=2, a=F(2), c=F(1))
    with pytest.raises(ValueError, match="c = 0"):
        FamilyParameter(t=F(0), sign=1, a=F(2), c=F(0))


def test_case_constructors_worked_points():
    assert case_C(F(2), F(1)).fixed_points() == RationalDouble(F(1))
    assert case_D(F(2), F(1)).fixed_points() == RationalDouble(F(3))
    assert case_C_sub(F(3), 1).fixed_points() == RationalDouble(F(1))
    assert case_D_sub(F(3), 1).fixed_points() == RationalDouble(F(-1))


@pytest.mark.parametrize("build, args", [
    (case_A, (F(0), F(1))),
    (case_A, (F(2), F(0))),
    (case_B, (F(0),)),
    (case_B, (F(1),)),
    (case_B, (F(-1),)),
    (case_C, (F(2), F(0))),
    (case_D, (F(2), F(0))),
    (case_C_sub, (F(0), 1)),
    (case_D_sub, (F(0), 1)),
    (case_C_sub, (F(3), 2)),
])
def test_case_constructors_reject(build, args):
    with pytest.raises(ValueError):
        build(*args)


def test_case_A_and_B_shapes():
    f = case_A(F(3), F(2))
    assert f.b == 0 and f.d == F(1, 3)
    g = case_B(F(1, 2))
    assert g.b == g.c and g.a == g.d
    assert g.a * g.a - g.c * g.c == 1


@given(st.sampled_from(CASE_TAGS), nonzero_small, small_rationals, signs,
       st.fractions(min_value=-20, max_value=20, max_denominator=20),
       st.integers(min_value=1, max_value=30))
def test_closed_iterate_matches_apply(tag, c, a, sign, x0, n):
    if tag == "C":
        f = case_C(a, c)
    elif tag == "C_sub":
        f = case_C_sub(c, sign)
    elif tag == "D":
        f = case_D(a, c)
    else:
        f = case_D_sub(c, sign)
    expected = x0
    for _ in range(n):
        expected = f.apply(expected)
    if isinstance(expected, Infinity):
        assert isinstance(closed_iterate(tag, f, x0, n), Infinity)
    else:
        assert closed_iterate(tag, f, x0, n) == expected


def test_closed_iterate_worked_value():
    f = case_C(F(2), F(1))
    assert closed_iterate("C", f, F(2), 3) == F(5, 4)


def test_closed_iterate_checks_tag():
    f = case_C(F(2), F(1))
    with pytest.raises(ValueError, match="unknown case tag"):
        closed_iterate("E", f, F(2), 1)
    with pytest.raises(ValueError, match="constraints"):
        closed_iterate("D", f, F(2), 1)


FUSED = {
    "C": case_C(F(2), F(3)),
    "C_sub": case_C_sub(F(3), -1),
    "D": case_D(F(-2, 5), F(3, 7)),
    "D_sub": case_D_sub(F(3), 1),
}


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_closed_iterate_from_infinity(tag):
    """x0 = inf is u = 0 in the translation formula."""
    f = FUSED[tag]
    orbit = run_orbit(f, INFINITY, 8).points
    assert [closed_iterate(tag, f, INFINITY, n) for n in range(1, 9)] == list(orbit[1:])


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_closed_iterate_at_fixed_point_and_pole(tag):
    f = FUSED[tag]
    xi = f.fixed_points().point
    pole = -f.d / f.c
    for n in range(1, 6):
        assert closed_iterate(tag, f, xi, n) == xi
    assert closed_iterate(tag, f, pole, 1) is INFINITY
    x = INFINITY
    for n in range(2, 6):
        x = f.apply(x)
        assert closed_iterate(tag, f, pole, n) == x


def translation_iterate(f, x0, n):
    """Reference for a fused map: 1/(x_n - xi) = 1/(x0 - xi) + n*c/(c*xi + d)."""
    xi = (f.a - f.d) / (2 * f.c)
    if x0 == xi:
        return xi
    u = (0 if isinstance(x0, Infinity) else 1 / (x0 - xi)) + n * f.c / (f.c * xi + f.d)
    return INFINITY if u == 0 else xi + 1 / u


@pytest.mark.parametrize("tag", CASE_TAGS)
def test_closed_iterate_matches_translation_formula(tag):
    f = FUSED[tag]
    rng = random.Random(4)
    starts = [random_rational(rng) for _ in range(3)]
    starts += [f.fixed_points().point, -f.d / f.c, INFINITY]
    for x0 in starts:
        for n in (1, 2, 3, 17, 1000, 10**6):
            assert closed_iterate(tag, f, x0, n) == translation_iterate(f, x0, n)


def test_cross_ratio_worked_values():
    assert cross_ratio(F(0), F(1), F(2), F(3)) == F(4, 3)
    assert cross_ratio(INFINITY, F(1), F(2), F(3)) == F(2)
    assert cross_ratio(F(0), INFINITY, F(2), F(3)) == F(2, 3)
    assert cross_ratio(F(0), F(1), INFINITY, F(3)) == F(2, 3)
    assert cross_ratio(F(0), F(1), F(2), INFINITY) == F(2)


def test_cross_ratio_rejects_repeats():
    with pytest.raises(ValueError, match="distinct"):
        cross_ratio(F(0), F(0), F(2), F(3))
    with pytest.raises(ValueError, match="distinct"):
        cross_ratio(INFINITY, INFINITY, F(2), F(3))


@given(parameters, st.lists(small_rationals, min_size=4, max_size=4, unique=True))
def test_cross_ratio_is_invariant(fp, quad):
    f = from_parameter(fp)
    images = [f.apply(x) for x in quad]
    assert cross_ratio(*images) == cross_ratio(*quad)


def test_detect_period_worked():
    assert detect_period(MobiusMap.make(0, -1, 1, 0), 10) == 2
    assert detect_period(case_C(F(2), F(1)), 24) is None


def test_detect_period_order_three():
    # trace -1 gives projective order 3: F^3 = I
    f = MobiusMap.make(0, -1, 1, -1)
    assert detect_period(f, 10) == 3


def test_detect_period_order_six_via_minus_identity():
    # trace 1: F^3 = -I, scalar, so the projective period is 3
    f = MobiusMap.make(0, -1, 1, 1)
    assert detect_period(f, 10) == 3


def test_detect_period_order_three_beyond_k_max():
    assert detect_period(MobiusMap.make(0, -1, 1, -1), 2) is None


def period_by_powers(f, k_max):
    """Reference: multiply F by itself until the product is scalar."""
    m = f
    for k in range(1, k_max + 1):
        if m.is_scalar:
            return k
        m = m @ f
    return None


def random_rational(rng, nonzero=False):
    num = rng.randint(-50, 50)
    while nonzero and num == 0:
        num = rng.randint(-50, 50)
    return F(num, rng.randint(1, 50))


def maps_with_trace(trace, rng, count):
    """(trace, -1, 1, 0) plus seeded maps with a, c random and d = trace - a."""
    maps = [MobiusMap(trace, F(-1), F(1), F(0))]
    for _ in range(count):
        a, c = random_rational(rng), random_rational(rng, nonzero=True)
        d = trace - a
        maps.append(MobiusMap(a, (a * d - 1) / c, c, d))
    return maps


PERIOD_K_MAXES = (1, 2, 3, 24)


@pytest.mark.parametrize("trace", [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(3)])
def test_detect_period_matches_matrix_powers(trace):
    for f in maps_with_trace(trace, random.Random(0), 20):
        for k_max in PERIOD_K_MAXES:
            assert detect_period(f, k_max) == period_by_powers(f, k_max)


def test_detect_period_matches_matrix_powers_on_family_maps():
    rng = random.Random(1)
    for _ in range(50):
        t = random_rational(rng)
        if t in (1, -1):
            continue
        fp = FamilyParameter(t, rng.choice((1, -1)), random_rational(rng), random_rational(rng, nonzero=True))
        f = from_parameter(fp)
        for k_max in PERIOD_K_MAXES:
            assert detect_period(f, k_max) == period_by_powers(f, k_max)


def test_parse_map():
    f = parse_map("2,0,1,1/2")
    assert (f.a, f.b, f.c, f.d) == (F(2), F(0), F(1), F(1, 2))
    assert str(f) == "2,0,1,1/2"
    with pytest.raises(ValueError, match="4 comma-separated"):
        parse_map("1,2,3")


def test_parse_and_format_point():
    assert parse_point("inf") is INFINITY
    assert parse_point("3/4") == F(3, 4)
    assert format_point(INFINITY) == "inf"
    assert format_point(F(-2, 3)) == "-2/3"
