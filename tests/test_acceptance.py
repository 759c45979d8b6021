"""Acceptance suite: ten exact-arithmetic criteria, one test (and one
printed pass/fail line) per criterion.  Everything is deterministic:
random sampling is seeded, tolerances are exact unless a criterion
states a numeric threshold.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines.
"""

import random
from fractions import Fraction

import pytest

from qmobius.classify import (
    Verdict,
    adelic_report,
    classify_at,
    exceptional_primes,
    siegel_radius,
)
from qmobius.mobius import (
    FamilyParameter,
    Infinity,
    MobiusMap,
    RationalDouble,
    RationalPair,
    case_C,
    case_C_sub,
    case_D,
    case_D_sub,
    closed_iterate,
    cross_ratio,
    detect_period,
    from_parameter,
)
from qmobius.orbit import basin_sample, distance_trace, invariant_sphere_check, run_orbit
from qmobius.padic import Place, norm, padic_expand, principal_profile, vp

F = Fraction
SEED = 20260816
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _rand_fraction(rng, height):
    return F(rng.randint(-height, height), rng.randint(1, height))


def _rand_parameter(rng, height=50):
    t = _rand_fraction(rng, height)
    while t in (1, -1):
        t = _rand_fraction(rng, height)
    c = _rand_fraction(rng, height)
    while c == 0:
        c = _rand_fraction(rng, height)
    return FamilyParameter(
        t=t, sign=rng.choice((1, -1)), a=_rand_fraction(rng, height), c=c
    )


@pytest.fixture(scope="module")
def family_maps():
    """100 maps with rational fixed points, height <= 50, fixed seed."""
    rng = random.Random(SEED)
    return [from_parameter(_rand_parameter(rng)) for _ in range(100)]


def _rational_fixed_points(f):
    result = f.fixed_points()
    if isinstance(result, RationalPair):
        return [result.point1, result.point2]
    assert isinstance(result, RationalDouble)
    return [result.point]


def test_criterion_01_indifferent_outside_finite_set(family_maps):
    checked = 0
    for f in family_maps:
        for xi in _rational_fixed_points(f):
            listed = {r.place.prime for r in exceptional_primes(f, xi)}
            allowed = set(principal_profile(f.c * xi + f.d))
            assert listed <= allowed
            for p in set(SMALL_PRIMES) | allowed:
                verdict = classify_at(f, xi, Place.finite(p)).verdict
                if p in listed:
                    assert verdict is not Verdict.INDIFFERENT
                else:
                    assert verdict is Verdict.INDIFFERENT
            checked += 1
    print(f"\nPASS criterion 1: indifference outside the exceptional set "
          f"({checked} fixed points, exact)")


def test_criterion_02_pair_relations_and_duality(family_maps):
    pairs = 0
    for f in family_maps:
        result = f.fixed_points()
        if isinstance(result, RationalPair):
            x1, x2 = result.point1, result.point2
            assert x1 * x2 == -f.b / f.c
            assert f.derivative_at(x1) * f.derivative_at(x2) == 1
            r1, r2 = adelic_report(f)
            assert r1.real_report.verdict.dual() is r2.real_report.verdict
            primes1 = {r.place.prime for r in r1.exceptional}
            assert primes1 == {r.place.prime for r in r2.exceptional}
            for p in primes1:
                place = Place.finite(p)
                assert r1.verdict_at(place).dual() is r2.verdict_at(place)
            pairs += 1
    assert pairs > 0
    print(f"\nPASS criterion 2: pair relations and verdict duality ({pairs} pairs, exact)")


def test_criterion_03_fused_families_indifferent():
    rng = random.Random(SEED + 3)
    cases = 0
    for _ in range(10):
        a = _rand_fraction(rng, 50)
        c = _rand_fraction(rng, 50)
        while c == 0:
            c = _rand_fraction(rng, 50)
        sign = rng.choice((1, -1))
        for f, expected_xi in (
            (case_C(a, c), (a - 1) / c),
            (case_C_sub(c, sign), F(1)),
            (case_D(a, c), (a + 1) / c),
            (case_D_sub(c, sign), F(-1)),
        ):
            result = f.fixed_points()
            assert isinstance(result, RationalDouble)
            assert result.point == expected_xi
            assert f.derivative_at(expected_xi) == 1
            (report,) = adelic_report(f)
            assert report.real_report.verdict is Verdict.INDIFFERENT
            assert report.exceptional == ()
            cases += 1
    print(f"\nPASS criterion 3: fused fixed points and full indifference ({cases} maps, exact)")


def test_criterion_04_closed_iterates_match_apply():
    rng = random.Random(SEED + 4)
    checked = 0
    for tag in ("C", "C_sub", "D", "D_sub"):
        for _ in range(20):
            c = _rand_fraction(rng, 20)
            while c == 0:
                c = _rand_fraction(rng, 20)
            a = _rand_fraction(rng, 20)
            sign = rng.choice((1, -1))
            if tag == "C":
                f = case_C(a, c)
            elif tag == "C_sub":
                f = case_C_sub(c, sign)
            elif tag == "D":
                f = case_D(a, c)
            else:
                f = case_D_sub(c, sign)
            x = x0 = _rand_fraction(rng, 20)
            for n in range(1, 51):
                x = f.apply(x)
                closed = closed_iterate(f, x0, n)
                if isinstance(x, Infinity):
                    assert isinstance(closed, Infinity)
                else:
                    assert closed == x
                checked += 1
    assert closed_iterate(case_C(F(2), F(1)), F(2), 3) == F(5, 4)
    print(f"\nPASS criterion 4: closed-form iterates equal repeated apply "
          f"({checked} comparisons, exact)")


def test_criterion_05_real_parabolic_convergence():
    f = case_C(F(2), F(1))
    record = run_orbit(f, F(2), 1000)
    previous = None
    for n, x in enumerate(record.points):
        distance = abs(x - 1)
        assert distance == F(1, n + 1)  # u/(n*u + 1) with u = x0 - xi = 1
        if previous is not None:
            assert distance < previous
        previous = distance
    print("\nPASS criterion 5: |x_n - 1| = 1/(n+1), strictly decreasing, n <= 1000 (exact)")


def test_criterion_06_siegel_spheres_and_radii():
    ok, witness = invariant_sphere_check(case_C(F(2), F(1)), F(1), 3, -1, samples=2, n=200)
    assert ok and witness is None

    rng = random.Random(SEED + 6)
    checked = 0
    for _ in range(20):
        fp = _rand_parameter(rng)
        f = from_parameter(fp)
        if f.a == 0:
            continue
        for p in (2, 3, 5, 7, 101):
            report = siegel_radius(f, p)
            assert report.radius_exponent == vp(f.c, p) - vp(f.a, p)
            place = Place.finite(p)
            assert report.radius == norm(f.a, place).value / norm(f.c, place).value
            checked += 1
    assert checked >= 20
    print(f"\nPASS criterion 6: invariant sphere at p=3 over 200 steps; "
          f"{checked} radius exponents match (exact)")


def test_criterion_07_attractor_dynamics():
    f = MobiusMap.make(2, 0, 1, F(1, 2))
    place = Place.finite(2)
    for x0 in (F(1), F(3), F(1, 3), F(5)):
        trace = distance_trace(f, x0, F(0), place, 30)
        base = -trace.values[0].exponent
        for n, value in enumerate(trace.values):
            assert -value.exponent - base == 2 * n
    sample = basin_sample(f, F(3, 2), Place.real(), [F(1), F(2), F(10), F(-5)], n=200)
    assert all(t.converged for t in sample.tested)
    for x0 in (F(1), F(2), F(10), F(-5)):
        final = distance_trace(f, x0, F(3, 2), Place.real(), 200).values[-1]
        assert final.value < F(1, 10**6)
    print("\nPASS criterion 7: dyadic valuation gain 2n (exact); real basin below 1e-6 by n=200")


def test_criterion_08_cross_ratio_invariance():
    assert cross_ratio(F(0), F(1), F(2), F(3)) == F(4, 3)
    rng = random.Random(SEED + 8)
    checked = 0
    for _ in range(20):
        f = from_parameter(_rand_parameter(rng))
        for _ in range(100):
            quad = []
            while len(quad) < 4:
                x = _rand_fraction(rng, 50)
                if x not in quad:
                    quad.append(x)
            images = [f.apply(x) for x in quad]
            assert cross_ratio(*images) == cross_ratio(*quad)
            checked += 1
    print(f"\nPASS criterion 8: cross-ratio preserved on {checked} quadruples (exact)")


def test_criterion_09_periodicity():
    assert detect_period(MobiusMap.make(0, -1, 1, 0), 24) == 2
    assert detect_period(case_C(F(2), F(1)), 24) is None
    print("\nPASS criterion 9: period 2 for the order-4 rotation; none for the parabolic map")


def test_criterion_10_number_kernel():
    rng = random.Random(SEED + 10)

    for p in (2, 3, 5, 7, 101):
        for _ in range(10**5):
            x = F(rng.randint(-999, 999), rng.randint(1, 999))
            y = F(rng.randint(-999, 999), rng.randint(1, 999))
            vx, vy = vp(x, p), vp(y, p)
            v_sum = vp(x + y, p)
            assert v_sum >= min(vx, vy)
            if vx != vy:
                assert v_sum == min(vx, vy)

    for _ in range(10**4):
        x = F(rng.randint(-9999, 9999), rng.randint(1, 9999))
        if x == 0:
            continue
        product = abs(x)
        for p, v in principal_profile(x).items():
            product *= F(p) ** (-v)
        assert product == 1

    for _ in range(10**3):
        x = F(rng.randint(-9999, 9999), rng.randint(1, 9999))
        if x == 0:
            continue
        for p in (2, 3, 5):
            expansion = padic_expand(x, p, 32)
            difference = x - expansion.partial_sum()
            if difference != 0:
                assert vp(difference, p) >= expansion.valuation + 32
    print("\nPASS criterion 10: ultrametric (5x10^5 pairs), product formula (10^4), "
          "32-digit expansions (10^3) all exact")
