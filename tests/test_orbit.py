"""Tests for exact orbits, distance traces, spheres and basin sampling."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qmobius.classify import Verdict, classify_at
from qmobius.mobius import (
    INFINITY,
    FamilyParameter,
    Infinity,
    MobiusMap,
    RationalDouble,
    RationalPair,
    _integer_matrix,
    case_C,
    case_C_sub,
    case_D,
    case_D_sub,
    from_parameter,
    parse_map,
)
from qmobius.orbit import (
    DEFAULT_REAL_THRESHOLD,
    DEFAULT_VALUATION_GAIN,
    BasinPoint,
    SizeBudgetError,
    _pairs,
    basin_sample,
    distance_trace,
    invariant_sphere_check,
    run_orbit,
)
from qmobius.padic import Place, norm, on_sphere, vp

F = Fraction

small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
parameters = st.builds(
    FamilyParameter,
    t=small_rationals.filter(lambda t: t not in (1, -1)),
    sign=st.sampled_from((1, -1)),
    a=small_rationals,
    c=small_rationals.filter(lambda x: x != 0),
)


def std_map():
    return MobiusMap.make(2, 0, 1, F(1, 2))


def test_run_orbit_worked():
    record = run_orbit(case_C(F(2), F(1)), F(2), 3)
    assert record.points == (F(2), F(3, 2), F(4, 3), F(5, 4))
    assert record.length == 3
    assert record.initial == F(2)


def test_run_orbit_constant_at_fixed_point():
    record = run_orbit(std_map(), F(3, 2), 5)
    assert set(record.points) == {F(3, 2)}


def test_run_orbit_through_pole():
    f = std_map()
    pole = -f.d / f.c
    record = run_orbit(f, pole, 3)
    assert record.points[0] == pole
    assert isinstance(record.points[1], Infinity)
    assert record.points[2] == f.a / f.c  # infinity maps to a/c


def test_run_orbit_reduces_the_homogeneous_pair():
    # 2*F = (4, 0; 2, 1) sends (1 : 2) to (4 : 4), which the step divides by g = 4
    record = run_orbit(MobiusMap.make(2, 0, 1, F(1, 2)), F(1, 2), 2)
    assert record.points == (F(1, 2), F(1), F(4, 3))


def test_run_orbit_reduction_keeps_a_fixed_point_small():
    # A*F = (A**2, 0; A, 1) sends the fixed point (A**2 - 1 : A) to A**2
    # times itself, so an unreduced pair would pass the bit budget by step 84
    A = 2**3000
    xi = F(A * A - 1, A)
    assert set(run_orbit(MobiusMap.make(A, 0, 1, F(1, A)), xi, 200).points) == {xi}


def test_run_orbit_rejects_bad_length():
    with pytest.raises(ValueError, match=">= 1"):
        run_orbit(std_map(), F(1), 0)


def budget_map():
    # f(x) = A**2 x/(A x + 1): numerator and denominator each gain about 6000 bits a step
    A = 2**3000
    return MobiusMap.make(A, 0, 1, F(1, A))


def test_run_orbit_size_budget():
    with pytest.raises(SizeBudgetError, match=r"step 84 needs 1005002 bits \(max 1000000\)"):
        run_orbit(budget_map(), F(1), 100)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: distance_trace(f, F(1), F(0), Place.finite(2), 100),
        lambda f: distance_trace(f, F(1), F(0), Place.real(), 100),
        lambda f: basin_sample(f, F(0), Place.finite(2), [F(1)], n=100),
        # x0 = 0 + 1*2**0 = 1 leaves the sphere at step 1, but the whole
        # orbit is computed before it is tested
        lambda f: invariant_sphere_check(f, F(0), 2, 0, samples=1, n=100),
    ],
    ids=["trace-2", "trace-real", "basin-2", "sphere-2"],
)
def test_orbit_readers_keep_the_size_budget(call):
    # the orbit of test_run_orbit_size_budget; xi = 0 attracts at 2, since f'(0) = A**2
    with pytest.raises(SizeBudgetError, match=r"step 84 needs 1005002 bits \(max 1000000\)"):
        call(budget_map())


@given(parameters, small_rationals, st.integers(min_value=1, max_value=25))
def test_orbit_agrees_with_matrix_power(fp, x0, n):
    f = from_parameter(fp)
    record = run_orbit(f, x0, n)
    assert record.points[n] == f.power(n).apply(x0)


def fraction_step(f, x):
    """One step of x -> (ax+b)/(cx+d) in Fraction arithmetic: pole -> inf -> a/c."""
    if isinstance(x, Infinity):
        return f.a / f.c
    den = f.c * x + f.d
    return INFINITY if den == 0 else (f.a * x + f.b) / den


@given(parameters, st.data(), st.integers(min_value=1, max_value=40))
def test_run_orbit_matches_fraction_steps(fp, data, n):
    f = from_parameter(fp)
    special = st.sampled_from((-f.d / f.c, INFINITY, f.a / f.c))
    x0 = data.draw(st.one_of(small_rationals, special), label="x0")
    expected = [x0]
    for _ in range(n):
        expected.append(fraction_step(f, expected[-1]))
    assert run_orbit(f, x0, n).points == tuple(expected)


@pytest.mark.parametrize(
    "coeffs, order", [((0, -1, 1, 0), 2), ((1, -1, 1, 0), 3), ((-1, -1, 1, 0), 3)]
)
@given(x0=st.one_of(small_rationals, st.just(INFINITY)))
def test_run_orbit_returns_with_the_map_order(coeffs, order, x0):
    # trace 0 or +-1 leaves both fixed points irrational, so every rational
    # x0 and infinity has exact period `order`
    points = run_orbit(MobiusMap.make(*coeffs), x0, 12).points
    assert [k for k, x in enumerate(points) if x == x0] == list(range(0, 13, order))


def test_distance_trace_attractor_valuations():
    """v2(x_n) = 2n along the dyadic attractor orbit."""
    f = std_map()
    trace = distance_trace(f, F(1), F(0), Place.finite(2), 10)
    valuations = [-v.exponent for v in trace.values]
    assert valuations == [2 * n for n in range(11)]


def test_distance_trace_constant_indifferent():
    trace = distance_trace(case_C(F(2), F(1)), F(4), F(1), Place.finite(3), 8)
    assert all(v.exponent == -1 for v in trace.values)  # |x_n - 1|_3 = 1/3 throughout


def test_distance_trace_real_parabolic():
    trace = distance_trace(case_C(F(2), F(1)), F(2), F(1), Place.real(), 5)
    assert [v.value for v in trace.values] == [F(1, k) for k in range(1, 7)]


def test_distance_trace_real_place_with_negative_denominator():
    # 2*F = (4, 0; 2, 1) sends (-3 : 1) to (-12 : -5), so x_1 - 3/2 = -9/-10
    trace = distance_trace(parse_map("2,0,1,1/2"), F(-3), F(3, 2), Place.real(), 3)
    assert trace.values[1].value == F(9, 10)


def test_distance_trace_marks_infinity():
    f = std_map()
    trace = distance_trace(f, -f.d / f.c, F(0), Place.real(), 2)
    assert trace.values[1] is None


def assert_one_norm_per_exponent(trace, f, x0, xi, n):
    """Each entry is norm(x_k - xi) of run_orbit's point, or None at infinity,
    and the entries share one NormValue object per distinct exponent."""
    points = run_orbit(f, x0, n).points
    assert trace.values == tuple(
        None if isinstance(x, Infinity) else norm(x - xi, trace.place) for x in points
    )
    norms = [v for v in trace.values if v is not None]
    assert len({id(v) for v in norms}) == len({v.exponent for v in norms})


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("f", [case_C(F(2), F(1)), case_D(F(1, 2), F(7))], ids=["case_C", "case_D"])
def test_distance_trace_shares_one_norm_per_exponent(f, p):
    """On a fused map 1/(x_n - xi) moves by a constant step, so its valuation
    takes few values over 1000 steps: a handful of objects, not 1001."""
    xi = f.fixed_points().point
    trace = distance_trace(f, xi + 1, xi, Place.finite(p), 1000)
    assert_one_norm_per_exponent(trace, f, xi + 1, xi, 1000)
    assert 1 < len({v.exponent for v in trace.values}) < 20


def test_distance_trace_from_the_center_shares_one_zero():
    f = case_C(F(2), F(1))
    trace = distance_trace(f, F(1), F(1), Place.finite(3), 1000)
    assert_one_norm_per_exponent(trace, f, F(1), F(1), 1000)
    assert all(v.is_zero for v in trace.values)
    assert trace.to_json_dict()["valuations"] == ["inf"] * 1001


def test_distance_trace_through_the_pole_at_a_prime():
    # 1/(x_n - 1) = n - 3 from x0 = 2/3, so x_3 is infinity and x_4 = 2
    f = case_C(F(2), F(1))
    trace = distance_trace(f, F(2, 3), F(1), Place.finite(3), 20)
    assert [k for k, v in enumerate(trace.values) if v is None] == [3]
    assert_one_norm_per_exponent(trace, f, F(2, 3), F(1), 20)
    assert trace.to_json_dict()["valuations"][:5] == [-1, 0, 0, None, 0]


def test_distance_trace_rejects_non_fixed_center():
    with pytest.raises(ValueError, match="not a fixed point"):
        distance_trace(std_map(), F(1), F(1), Place.real(), 3)


def test_invariant_sphere_holds_for_case_C():
    ok, witness = invariant_sphere_check(case_C(F(2), F(1)), F(1), 3, -1, samples=2, n=200)
    assert ok
    assert witness is None


def test_invariant_sphere_fails_at_attractor():
    ok, witness = invariant_sphere_check(std_map(), F(0), 2, 0, samples=1, n=10)
    assert not ok
    assert witness == (F(1), 1)  # x0 = 0 + 1*2^0 leaves the unit sphere at step 1


def test_invariant_sphere_samples_stay_on_sphere():
    # s = 1, 2 at p = 3 with rho_exp = -1: x0 in {4, 7}, both with |x0-1|_3 = 1/3
    ok, _ = invariant_sphere_check(case_C(F(2), F(1)), F(1), 3, -1, samples=5, n=50)
    assert ok


@pytest.mark.parametrize(
    "rho_exponent, expected", [(0, (False, (F(5, 2), 1))), (1, (True, None)), (2, (False, (F(7, 4), 1)))]
)
def test_invariant_sphere_around_repeller(rho_exponent, expected):
    """xi = 3/2 repels at 2, yet the sphere of exponent vp(c) + vp(c*xi + d) = 1 is invariant."""
    f = std_map()
    assert classify_at(f, F(3, 2), Place.finite(2)).verdict is Verdict.REPELLER
    assert invariant_sphere_check(f, F(3, 2), 2, rho_exponent) == expected


def test_basin_sample_dyadic():
    sample = basin_sample(std_map(), F(0), Place.finite(2), [F(1), F(3), F(1, 3), F(5)], n=30)
    assert all(t.converged for t in sample.tested)
    assert all(not t.hit_pole for t in sample.tested)
    # valuation gains 2 per step, so the default threshold of 20 is met at step 10
    assert [t.steps_observed for t in sample.tested] == [10, 10, 10, 10]


def test_basin_sample_real():
    sample = basin_sample(
        std_map(), F(3, 2), Place.real(), [F(1), F(2), F(10), F(-5)], n=200
    )
    assert all(t.converged for t in sample.tested)


def test_basin_sample_grid_containing_attractor():
    sample = basin_sample(std_map(), F(0), Place.finite(2), [F(0)], n=10)
    assert sample.tested[0].converged
    assert sample.tested[0].steps_observed == 0


@pytest.mark.parametrize("grid", [[F(0)], []], ids=["attractor-only", "empty"])
@pytest.mark.parametrize("n", [0, -5])
def test_basin_sample_rejects_bad_length_without_orbits(grid, n):
    """No grid point here runs an orbit, yet n is still checked."""
    with pytest.raises(ValueError, match=f"orbit length must be >= 1: got {n}"):
        basin_sample(std_map(), F(0), Place.finite(2), grid, n=n)


def test_basin_sample_rejects_non_attractor():
    with pytest.raises(ValueError, match="basin undefined"):
        basin_sample(std_map(), F(0), Place.real(), [F(1)], n=10)
    with pytest.raises(ValueError, match="basin undefined"):
        basin_sample(case_C(F(2), F(1)), F(1), Place.finite(3), [F(4)], n=10)


def test_orbit_json_round_trip():
    record = run_orbit(std_map(), -std_map().d / std_map().c, 2)
    doc = record.to_json_dict()
    assert doc["points"][1] == "inf"
    assert doc["length"] == 2


def test_trace_json_shapes():
    f = std_map()
    finite = distance_trace(f, F(1), F(0), Place.finite(2), 3).to_json_dict()
    assert finite["valuations"] == [0, 2, 4, 6]
    real = distance_trace(f, F(1), F(0), Place.real(), 2).to_json_dict()
    assert real["norms"][0] == "1"

    at_center = distance_trace(f, F(0), F(0), Place.finite(2), 1).to_json_dict()
    assert at_center["valuations"] == ["inf", "inf"]


def test_basin_json_shape():
    sample = basin_sample(std_map(), F(0), Place.finite(2), [F(1)], n=25)
    doc = sample.to_json_dict()
    assert doc["place"] == "2"
    assert doc["attractor"] == "0"
    assert doc["tested"][0]["x0"] == "1"
    assert doc["tested"][0]["converged"] is True


# The window judges that basin_sample used before one distance and one
# bound test replaced them, kept as the reference for its verdicts.
def _split_pole_tail(points):
    last_inf = -1
    for i, x in enumerate(points):
        if isinstance(x, Infinity):
            last_inf = i
    tail = [x for x in points[last_inf + 1 :]]
    return tail, last_inf + 1, last_inf >= 0


def _judge_real(tail, xi, threshold):
    distances = [abs(x - xi) for x in tail]
    for k, d in enumerate(distances):
        if d == 0:
            return True, k
    last = len(distances) - 1
    first_below = next((k for k, d in enumerate(distances) if d < threshold), None)
    quarter = 3 * last // 4
    monotone = all(distances[k + 1] < distances[k] for k in range(quarter, last))
    converged = distances[last] < threshold and monotone
    return converged, first_below if first_below is not None else last


def _judge_finite(tail, xi, p, threshold):
    place = Place.finite(p)
    norms = [norm(x - xi, place) for x in tail]
    for k, nv in enumerate(norms):
        if nv.is_zero:
            return True, k
    w = [-nv.exponent for nv in norms]
    last = len(w) - 1
    first_gained = next((k for k in range(len(w)) if w[k] - w[0] >= threshold), None)
    quarter = 3 * last // 4
    monotone = all(w[k + 1] > w[k] for k in range(quarter, last))
    converged = w[last] - w[0] >= threshold and monotone
    return converged, first_gained if first_gained is not None else last


def _reference_basin(f, xi, place, grid, n):
    tested = []
    for x0 in grid:
        tail, offset, hit_pole = _split_pole_tail(run_orbit(f, x0, n).points)
        if not tail:
            tested.append(BasinPoint(x0, False, n, hit_pole))
            continue
        if place.is_real:
            converged, steps = _judge_real(tail, xi, DEFAULT_REAL_THRESHOLD)
        else:
            converged, steps = _judge_finite(tail, xi, place.prime, DEFAULT_VALUATION_GAIN)
        tested.append(BasinPoint(x0, converged, offset + steps, hit_pole))
    return tuple(tested)


@given(
    parameters,
    st.sampled_from((None, 2, 3, 5)),
    st.integers(min_value=0, max_value=60),
    st.lists(small_rationals, max_size=2),
    st.integers(min_value=1, max_value=40),
)
# Real orbits from near the repeller whose distance to xi stops falling
# in the middle half of the window: the final-quarter rule decides them.
@example(FamilyParameter(F(13, 6), 1, F(2, 27), F(16, 37)), None, 29, [], 20)
@example(FamilyParameter(F(11, 17), -1, F(-25, 23), F(5, 16)), None, 42, [], 16)
def test_basin_sample_matches_window_judges(fp, prime, j, extra, n):
    f = from_parameter(fp)
    place = Place(prime)
    fixed = f.fixed_points()
    assume(isinstance(fixed, RationalPair))  # a fused fixed point attracts nowhere
    verdicts = {x: classify_at(f, x, place).verdict for x in (fixed.point1, fixed.point2)}
    assume(Verdict.ATTRACTOR in verdicts.values())
    xi, repeller = sorted(verdicts, key=lambda x: verdicts[x] is not Verdict.ATTRACTOR)
    # The pole, its image a/c, the attractor, the repeller, then a start
    # near the repeller, whose orbit lingers before it closes in on xi.
    grid = [-f.d / f.c, f.a / f.c, xi, repeller, repeller + F(1, (prime or 2) ** j), *extra]
    sample = basin_sample(f, xi, place, grid, n=n)
    assert (sample.place, sample.attractor) == (place, xi)
    assert sample.tested == _reference_basin(f, xi, place, grid, n)


# The readings that distance_trace, invariant_sphere_check and
# basin_sample made from Fraction points before they read the integer
# pair, kept as references (basin_sample's is _reference_basin above).
def _fraction_trace(f, x0, xi, place, n):
    points = run_orbit(f, x0, n).points
    return tuple(None if isinstance(x, Infinity) else norm(x - xi, place) for x in points)


def _fraction_sphere(f, xi, p, rho_exponent, samples, n):
    for u in range(1, min(samples, p - 1) + 1):
        x0 = xi + u * F(p) ** -rho_exponent
        for k, x in enumerate(run_orbit(f, x0, n).points):
            if isinstance(x, Infinity) or not on_sphere(x, xi, rho_exponent, p):
                return False, (x0, k)
    return True, None


nonzero_rationals = small_rationals.filter(lambda x: x != 0)
signs = st.sampled_from((1, -1))
fused_maps = st.one_of(
    st.builds(case_C, small_rationals, nonzero_rationals),
    st.builds(case_C_sub, nonzero_rationals, signs),
    st.builds(case_D, small_rationals, nonzero_rationals),
    st.builds(case_D_sub, nonzero_rationals, signs),
)
PLACES = (Place.finite(2), Place.finite(3), Place.finite(5), Place.real())


@given(st.one_of(st.builds(from_parameter, parameters), fused_maps), st.data(), st.integers(1, 40))
def test_pair_reading_matches_fraction_reading(f, data, n):
    fixed = f.fixed_points()
    fixed = [fixed.point] if isinstance(fixed, RationalDouble) else [fixed.point1, fixed.point2]
    xi = data.draw(st.sampled_from(fixed), label="xi")
    special = [-f.d / f.c, INFINITY, *fixed]
    x0 = data.draw(st.one_of(small_rationals, st.sampled_from(special)), label="x0")
    for place in PLACES:
        assert distance_trace(f, x0, xi, place, n).values == _fraction_trace(f, x0, xi, place, n)
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    rho_exponent = data.draw(st.integers(-3, 3), label="rho_exponent")
    samples = data.draw(st.integers(1, 4), label="samples")
    assert invariant_sphere_check(f, xi, p, rho_exponent, samples, n) == _fraction_sphere(
        f, xi, p, rho_exponent, samples, n
    )
    grid = [x for x in (x0, *special) if not isinstance(x, Infinity)]
    for place in PLACES:
        if classify_at(f, xi, place).verdict is Verdict.ATTRACTOR:
            assert basin_sample(f, xi, place, grid, n).tested == _reference_basin(f, xi, place, grid, n)


# Starts at which the closed form of the p-adic readers takes its rare
# branches: a preimage of infinity puts y_k = 1 at the one step with
# v_k = 0 (or the fused t_k at 0), infinity starts with g = 1 (or t_0 = 0),
# xi +- p**j and a/c move vp(g(x0)), the partner stays put, and at an
# indifferent pair point with vp(g(x0)) = 0 the orbit is stepped.
def _preimage_of_infinity(f, k):
    """f**-k(infinity), or None when f**k fixes infinity."""
    x = MobiusMap(f.d, -f.b, -f.c, f.a).power(k).apply(INFINITY)
    return None if isinstance(x, Infinity) else x


PRIMES = (2, 3, 5, 7, 97)
any_maps = st.one_of(st.builds(from_parameter, parameters), fused_maps)


def _fixed_list(f):
    fixed = f.fixed_points()
    return [fixed.point] if isinstance(fixed, RationalDouble) else [fixed.point1, fixed.point2]


@given(
    any_maps,
    st.sampled_from(PRIMES),
    st.integers(0, 1),
    st.sampled_from(("preimage", "inf", "xi+", "xi-", "partner", "a/c")),
    st.integers(-6, 6),
    st.integers(1, 40),
    st.integers(1, 40),
)
# xi = 0 attracts at 2 with vp(mu) = 2: from the pole, v_1 = 0 and x_1 = infinity
@example(MobiusMap.make(2, 0, 1, F(1, 2)), 2, 1, "preimage", 0, 1, 12)
@example(MobiusMap.make(2, 0, 1, F(1, 2)), 2, 1, "preimage", 0, 5, 12)
# v_k = 0 off the pole: from 1/4 at k = 0, and toward the repeller 3/2
# (vp(mu) = -2, vp(P) = 3) from 7/2 at k = 1
@example(MobiusMap.make(2, 0, 1, F(1, 2)), 2, 1, "xi+", -2, 1, 12)
@example(MobiusMap.make(2, 0, 1, F(1, 2)), 2, 0, "xi+", 1, 1, 12)
# at 3, vp(mu) = vp(4) = 0 and g(1) = -2 is a unit: the stepped reading
@example(MobiusMap.make(2, 0, 1, F(1, 2)), 3, 1, "xi+", 0, 1, 12)
def test_closed_form_matches_fraction_reading_at_its_edges(f, p, index, kind, j, k, n):
    fixed = _fixed_list(f)
    xi, partner = fixed[index % len(fixed)], fixed[(index + 1) % len(fixed)]
    x0 = {
        "preimage": _preimage_of_infinity(f, min(k, n)),
        "inf": INFINITY,
        "xi+": xi + F(p) ** j,
        "xi-": xi - F(p) ** j,
        "partner": partner,
        "a/c": f.a / f.c,
    }[kind]
    assume(x0 is not None)
    place = Place.finite(p)
    assert distance_trace(f, x0, xi, place, n).values == _fraction_trace(f, x0, xi, place, n)
    if classify_at(f, xi, place).verdict is Verdict.ATTRACTOR:
        grid = [x for x in (x0, partner, f.a / f.c, -f.d / f.c, xi + F(p) ** j) if not isinstance(x, Infinity)]
        assert basin_sample(f, xi, place, grid, n).tested == _reference_basin(f, xi, place, grid, n)


@given(any_maps, st.one_of(small_rationals, st.just(INFINITY)), st.integers(1, 40))
@example(budget_map(), F(1), 3)
def test_pairs_stay_within_the_closed_form_bit_bound(f, x0, n):
    """x_k's pair has at most 2*(bit_length(max(|p0|, |q0|)) + k*grow) bits."""
    matrix = _integer_matrix(f)
    A, B, C, D, _ = matrix
    grow = max(abs(A) + abs(B), abs(C) + abs(D)).bit_length()
    p0, q0 = (1, 0) if isinstance(x0, Infinity) else (x0.numerator, x0.denominator)
    start = max(abs(p0), abs(q0)).bit_length()
    for k, (p, q) in enumerate(_pairs(matrix, x0, n)):
        assert p.bit_length() + q.bit_length() <= 2 * (start + k * grow)


def test_budget_bound_admits_the_closed_form_up_to_its_boundary():
    # grow = bit_length(A**2) = 6001 from x0 = 1: 2*(1 + 83*6001) fits the
    # budget and 2*(1 + 84*6001) does not, so n = 84 steps the orbit
    f, two = budget_map(), Place.finite(2)
    assert distance_trace(f, F(1), F(0), two, 20).values == _fraction_trace(f, F(1), F(0), two, 20)
    # x_1 = A**2/(A + 1) and mu = f'(0) = A**2, so v2(x_k) = 6000*k
    assert distance_trace(f, F(1), F(0), two, 83).to_json_dict()["valuations"] == [6000 * k for k in range(84)]
    with pytest.raises(SizeBudgetError, match=r"step 84 needs 1005002 bits \(max 1000000\)"):
        distance_trace(f, F(1), F(0), two, 84)


@settings(deadline=None)  # at p = 97 the oracle follows 96 Fraction orbits
@given(any_maps, st.sampled_from(PRIMES), st.integers(0, 1), st.sampled_from((1, 2, None)), st.integers(1, 12))
# the benchmark's shape: every unit of 97 as a sample, ten steps
@example(case_C(F(2), F(1)), 97, 0, None, 10)
@example(case_D(F(1, 2), F(97)), 97, 0, None, 10)
def test_sphere_check_matches_fraction_sphere_around_indifferent_points(f, p, index, samples, n):
    """Spheres of exponent vp(c) - 1, vp(c) and vp(c) + 1; None samples every unit."""
    place = Place.finite(p)
    indifferent = [x for x in _fixed_list(f) if classify_at(f, x, place).verdict is Verdict.INDIFFERENT]
    assume(indifferent)
    xi = indifferent[index % len(indifferent)]
    samples = samples or p - 1
    vc = vp(f.c, p)
    for e in (vc - 1, vc, vc + 1):
        assert invariant_sphere_check(f, xi, p, e, samples, n) == _fraction_sphere(f, xi, p, e, samples, n)
