"""Exact orbit machinery: traces, invariant spheres, basin sampling.

Orbits are sequences of exact projective points; a pole step lands on
the point at infinity and the next step continues at a/c, so nothing is
ever approximated or dropped.  Mat2.apply acts on one point; an orbit
steps in integer homogeneous coordinates instead, a coprime pair (p : q)
under an integer multiple of the map's matrix, reduced each step by one
gcd against a number of fixed size.

Per-place distance traces, the invariant-sphere test around indifferent
points and basin-of-attraction sampling read |x_k - xi|_v without
building a Fraction point.  At a prime, vp(x_k - xi) for k = 0..n comes
in closed form from the multiplier at xi (_padic_valuations), with no
orbit stepped: each entry is an integer expression in k, and at most
one step needs an exact product.  The real place still steps the orbit
and reads |x_k - xi| = |p*s - r*q|/|q*s| off the pair, with xi = r/s.

Exact entries of matrix powers can grow without bound for hyperbolic
maps, so every orbit runs under the fixed bit-size budget DEFAULT_MAX_BITS
and fails loudly with SizeBudgetError instead of hanging; a closed-form
reading fails the same way, at the same step.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

from .classify import Verdict, classify_at
from .mobius import INFINITY, Infinity, MobiusMap, ProjectivePoint, _fixed_pair, _integer_matrix, format_point
from .padic import NormValue, Place, _vp_int, vp

__all__ = [
    "BasinPoint",
    "BasinSample",
    "DEFAULT_MAX_BITS",
    "DEFAULT_REAL_THRESHOLD",
    "DEFAULT_VALUATION_GAIN",
    "DistanceTrace",
    "OrbitRecord",
    "SizeBudgetError",
    "basin_sample",
    "distance_trace",
    "invariant_sphere_check",
    "run_orbit",
]

DEFAULT_MAX_BITS = 10**6
DEFAULT_VALUATION_GAIN = 20
DEFAULT_REAL_THRESHOLD = Fraction(1, 10**6)


class SizeBudgetError(RuntimeError):
    """An exact orbit entry outgrew the bit budget DEFAULT_MAX_BITS."""


@dataclass(frozen=True)
class OrbitRecord:
    """The first ``length`` + 1 exact iterates x_0, x_1, ..., x_n."""

    initial: ProjectivePoint
    points: tuple[ProjectivePoint, ...]
    length: int

    def to_json_dict(self) -> dict:
        return {
            "initial": format_point(self.initial),
            "points": [format_point(x) for x in self.points],
            "length": self.length,
        }


@dataclass(frozen=True)
class DistanceTrace:
    """Exact distances |x_k - center|_v along an orbit.

    An entry is None where the orbit sits at the point at infinity (the
    distance is undefined there, not large).
    """

    place: Place
    center: Fraction
    values: tuple[NormValue | None, ...]

    def to_json_dict(self) -> dict:
        base = {"place": str(self.place), "center": str(self.center)}
        if self.place.is_real:
            base["norms"] = [None if v is None else str(v.value) for v in self.values]
            return base
        valuations: list[int | str | None] = []
        for v in self.values:
            if v is None:
                valuations.append(None)
            elif v.is_zero:
                valuations.append("inf")
            else:
                valuations.append(-v.exponent)
        base["valuations"] = valuations
        return base


@dataclass(frozen=True)
class BasinPoint:
    """Convergence verdict for one tested initial point."""

    initial: Fraction
    converged: bool
    steps_observed: int
    hit_pole: bool


@dataclass(frozen=True)
class BasinSample:
    """Basin-of-attraction evidence at one place, in grid order."""

    place: Place
    attractor: Fraction
    tested: tuple[BasinPoint, ...]

    def to_json_dict(self) -> dict:
        return {
            "place": str(self.place),
            "attractor": str(self.attractor),
            "tested": [
                {
                    "x0": str(t.initial),
                    "converged": t.converged,
                    "steps_observed": t.steps_observed,
                    "hit_pole": t.hit_pole,
                }
                for t in self.tested
            ],
        }


def _require_length(n: int) -> None:
    if n < 1:
        raise ValueError(f"orbit length must be >= 1: got {n}")


def _coordinates(x: ProjectivePoint) -> tuple[int, int]:
    """The coprime pair (p, q) with x = p/q, q > 0; infinity is (1, 0)."""
    return (1, 0) if isinstance(x, Infinity) else (x.numerator, x.denominator)


def _pairs(
    matrix: tuple[int, int, int, int, int], x0: ProjectivePoint, n: int
) -> Iterator[tuple[int, int]]:
    """Yield the reduced pair (p, q) of x_k for k = 0..n; q = 0 is infinity.

    The point x_k is p/q, with q of either sign.  M = (A, B; C, D) = L*F,
    from the matrix (A, B, C, D, L) of mobius._integer_matrix, sends
    (p : q) to (p' : q') = (A*p + B*q : C*p + D*q).  One small gcd reduces
    the pair.  Proof: det M = L**2 * det F = L**2, and adj(M)*(p', q') =
    L**2 * (p, q), so every common divisor of p' and q' divides
    L**2 * gcd(p, q) = L**2.  Hence g = gcd(L**2, p', q') is the full
    gcd, taken against a number of fixed size: linear time in the size of
    the pair, not quadratic.  q' = 0 is the pole step to infinity: then
    p' divides L**2, so g = |p'| and the pair is (+-1 : 0), of 1 bit.
    Infinity steps to (A : C) = a/c.

    Raises ValueError for n < 1, and SizeBudgetError at the first entry
    of more than DEFAULT_MAX_BITS bits (numerator plus denominator).
    """
    _require_length(n)
    A, B, C, D, L = matrix
    det = L * L
    p, q = _coordinates(x0)
    yield p, q
    for k in range(1, n + 1):
        p, q = A * p + B * q, C * p + D * q
        g = gcd(det, p, q)
        p, q = p // g, q // g
        bits = p.bit_length() + q.bit_length()
        if bits > DEFAULT_MAX_BITS:
            raise SizeBudgetError(
                f"orbit exceeded size budget: step {k} needs {bits} bits (max {DEFAULT_MAX_BITS})"
            )
        yield p, q


def _progression_valuations(a: int, b: int, count: int, prime: int, top: int) -> list[int | float]:
    """[top - vp(a + k*b) for k in range(count)], for b prime to prime.

    An entry is -inf where a + k*b = 0.  Only the k = k0 (mod prime),
    k0 = -a/b mod prime, have prime | a + k*b, and for k = k0 + prime*j,
    a + k*b = prime*(a1 + j*b) with a1 = (a + k0*b)/prime: the same
    progression with top - 1 and ceil((count - k0)/prime) terms, fewer
    than count when count > 1.  So the recursion ends, after about
    log(count)/log(prime) levels, and fills each level by one slice.
    """
    if count == 1:
        return [top - vp(a, prime)]
    values: list[int | float] = [top] * count
    k0 = -a * pow(b, -1, prime) % prime
    if k0 < count:
        values[k0::prime] = _progression_valuations((a + k0 * b) // prime, b, -((k0 - count) // prime), prime, top - 1)
    return values


def _padic_valuations(
    f: MobiusMap, xi: Fraction, prime: int, n: int
) -> Callable[[int, int], list[int | float | None]]:
    """The reader (p0, q0) -> [vp(x_k - xi) for k = 0..n] at prime, no orbit.

    An entry is None where x_k is infinity and math.inf where x_k = xi.
    The facts of f and xi are computed once, here, and shared by every
    start the reader is given.  Write xi = r/s, c*xi + d = P/Q (from
    _fixed_pair, which rejects a non-fixed xi), M = (A, B; C, D) = L*F,
    and x0 = p0/q0, infinity when q0 = 0.  p0 and q0 need not be coprime:
    every reading below is homogeneous in them.  N0 = p0*s - r*q0 is 0
    exactly at x0 = xi, which f fixes, so every entry is then inf.  The
    roots of C*x**2 + (D - A)*x - B sum to (A - D)/C, so the partner
    fixed point is xi' = (A - D)/C - xi = r2/s2 with r2 = (A - D)*s - C*r
    and s2 = C*s.  Proof of the two readings: f(xi) = xi and det F = 1
    give f(x) - xi = (x - xi)/((c*xi + d)*(c*x + d)), and the same at xi'.

    Fused, xi' = xi.  Then a + d = +-2 and c*xi + d = (a + d)/2 = +-1, so
    1/(f(x) - xi) = (c*xi + d)**2/(x - xi) + c*(c*xi + d) = 1/(x - xi) + K
    with K = c/(c*xi + d) = C*s/P, and 1/(x_k - xi) = 1/(x0 - xi) + k*K =
    s*t_k/(N0*P) with t_k = q0*P + k*C*N0.  Hence vp(x_k - xi) = vp(N0) +
    vp(P) - vp(s) - vp(t_k), and x_k is infinity exactly when t_k = 0.
    When vp(t_0) < vp(C*N0), every t_k has the valuation of t_0; else
    t_k/p**w, w = vp(C*N0), is a progression with a unit step, read by
    _progression_valuations.

    Pair, xi' != xi.  (c*xi + d)*(c*xi' + d) = c**2*xi*xi' + c*d*(xi + xi')
    + d**2 = -b*c + d*(a - d) + d**2 = 1, so g(x) = (x - xi)/(x - xi')
    has g(f(x)) = g(x)*(c*xi' + d)/(c*xi + d) = mu*g(x), with
    mu = f'(xi) = (Q/P)**2, and g(infinity) = 1.  Solving y = g(x) for x
    gives x - xi = (xi - xi')*y/(1 - y), where y = 1 is x = infinity; so
    with y_k = mu**k*g(x0) and v_k = vp(y_k) = k*vp(mu) + vp(g(x0)),
    vp(x_k - xi) = vp(xi - xi') + v_k - vp(1 - y_k).  When v_k != 0,
    vp(1 - y_k) = min(0, v_k), and the entry is vp(xi - xi') + max(0, v_k).
    With N2 = p0*s2 - r2*q0 (0 exactly at x0 = xi', which stays put),
    g(x0) = G/H with G = N0*s2 and H = N2*s.  When vp(mu) != 0, v_k = 0 at
    one k at most, where 1 - y_k = (P**2k*H - Q**2k*G)/(P**2k*H) is
    computed exactly.  When vp(mu) = 0 = vp(g(x0)), every step would need
    it, and the orbit is stepped instead.

    The bit budget holds without an orbit.  |A*p + B*q| and |C*p + D*q|
    are at most G_M*max(|p|, |q|) with G_M = max(|A| + |B|, |C| + |D|), and
    the gcd only shrinks the pair, so the pair of x_k has at most
    2*(bit_length(max(|p0|, |q0|)) + k*bit_length(G_M)) bits, and fewer
    still when p0 and q0 share a factor.  When that fits DEFAULT_MAX_BITS
    at k = n, no step of _pairs could raise; else the orbit is stepped
    through _pairs from the reduced x0, which raises SizeBudgetError at
    the same step as any other reader.  n < 1 raises ValueError.
    """
    _require_length(n)
    matrix = _integer_matrix(f)
    A, B, C, D, _ = matrix
    P, Q = _fixed_pair(f, xi)
    r, s = xi.numerator, xi.denominator
    r2, s2 = (A - D) * s - C * r, C * s
    fused = r2 * s == r * s2
    grow = max(abs(A) + abs(B), abs(C) + abs(D)).bit_length()
    v_P, v_s = _vp_int(P, prime), _vp_int(s, prime)
    if not fused:
        v_mu = 2 * (_vp_int(Q, prime) - v_P)
        v_gap = _vp_int(r * s2 - r2 * s, prime) - v_s - _vp_int(s2, prime)

    def stepped(p0: int, q0: int) -> list[int | float | None]:
        x0 = Fraction(p0, q0) if q0 else INFINITY
        return [
            None if not q else inf if (num := y * s - r * q) == 0 else _vp_int(num, prime) - _vp_int(q * s, prime)
            for y, q in _pairs(matrix, x0, n)
        ]

    def read(p0: int, q0: int) -> list[int | float | None]:
        if 2 * (max(abs(p0), abs(q0)).bit_length() + n * grow) > DEFAULT_MAX_BITS:
            return stepped(p0, q0)
        N0 = p0 * s - r * q0
        if N0 == 0:
            return [inf] * (n + 1)
        if fused:
            base = _vp_int(N0, prime) + v_P - v_s
            t0, m = q0 * P, C * N0
            v_t0, w = vp(t0, prime), _vp_int(m, prime)
            if v_t0 < w:
                return [base - v_t0] * (n + 1)
            unit = prime**w
            values = _progression_valuations(t0 // unit, m // unit, n + 1, prime, base - w)
            k, rem = divmod(-t0, m)
            if rem == 0 and 0 <= k <= n:  # t_k = 0
                values[k] = None
            return values
        N2 = p0 * s2 - r2 * q0
        if N2 == 0:
            return [v_gap] * (n + 1)
        G, H = N0 * s2, N2 * s
        v_H = _vp_int(H, prime)
        v_g = _vp_int(G, prime) - v_H
        if v_mu == 0:
            return [v_gap + max(0, v_g)] * (n + 1) if v_g else stepped(p0, q0)
        values = [v_gap + max(0, v) for v in range(v_g, v_g + (n + 1) * v_mu, v_mu)]
        k, rem = divmod(-v_g, v_mu)
        if rem == 0 and 0 <= k <= n:  # v_k = 0: read 1 - y_k exactly
            num = P ** (2 * k) * H - Q ** (2 * k) * G
            values[k] = None if num == 0 else v_gap - _vp_int(num, prime) + 2 * k * v_P + v_H
        return values

    return read


def run_orbit(f: MobiusMap, x0: ProjectivePoint, n: int) -> OrbitRecord:
    """Iterate f exactly n times from x0, keeping every point.

    The steps are those of _pairs, in integer homogeneous coordinates
    with one gcd against L**2 each; Fraction(p, q) makes the denominator
    positive.  Raises SizeBudgetError at the first entry of more than
    DEFAULT_MAX_BITS bits (numerator plus denominator).

    >>> from .mobius import case_C
    >>> [format_point(x) for x in run_orbit(case_C(Fraction(2), Fraction(1)), Fraction(2), 3).points]
    ['2', '3/2', '4/3', '5/4']
    """
    pairs = _pairs(_integer_matrix(f), x0, n)
    next(pairs)  # x_0 is kept as given
    points = [Fraction(p, q) if q else INFINITY for p, q in pairs]
    return OrbitRecord(initial=x0, points=(x0, *points), length=n)


def distance_trace(
    f: MobiusMap,
    x0: ProjectivePoint,
    xi: Fraction,
    place: Place,
    n: int,
) -> DistanceTrace:
    """Exact |x_k - xi|_v for k = 0..n; xi must be a fixed point of f.

    With xi = r/s and x_k = p/q, an entry is |p*s - r*q|/|q*s| at the
    real place, read off the stepped orbit.  At a prime it is
    p**-vp(x_k - xi), with the valuations of _padic_valuations, where one
    (frozen) NormValue is built per distinct exponent and shared by the
    steps that have it; on a fused map the exponent takes few values.
    The steps at xi share one zero norm; an entry at infinity is None.
    """
    f.require_fixed(xi)
    prime = place.prime
    if prime is None:
        r, s = xi.numerator, xi.denominator
        distances = tuple(
            NormValue(value=Fraction(abs(p * s - r * q), abs(q * s))) if q else None
            for p, q in _pairs(_integer_matrix(f), x0, n)
        )
        return DistanceTrace(place=place, center=xi, values=distances)
    norms: dict[int | float, NormValue] = {inf: NormValue(value=Fraction(0), prime=prime)}
    values: list[NormValue | None] = []
    for v in _padic_valuations(f, xi, prime, n)(*_coordinates(x0)):
        if v is not None and v not in norms:
            norms[v] = NormValue.p_power(prime, -v)
        values.append(None if v is None else norms[v])
    return DistanceTrace(place=place, center=xi, values=tuple(values))


def invariant_sphere_check(
    f: MobiusMap,
    xi: Fraction,
    p: int,
    rho_exponent: int,
    samples: int = 2,
    n: int = 200,
) -> tuple[bool, tuple[Fraction, int] | None]:
    """Test that the sphere |x - xi|_p = p**rho_exponent is f-invariant.

    Initial points xi + u*p**(-rho_exponent) for units u = 1, ...,
    min(samples, p-1) lie on the sphere by construction.  Each orbit is
    read for n steps by _padic_valuations, all of them before any is
    tested, so the bit budget covers every step; the facts of f and xi
    are computed once for all samples.  An iterate x_k leaves the sphere
    when it is infinity or vp(x_k - xi) != -rho_exponent.  A sample
    steps its orbit only around an indifferent pair point, where
    vp(g(x0)) = 0 (see _padic_valuations), or past the bit bound.  Returns
    (True, None) when all stay put, otherwise (False, (x0, k)) for the
    first departing sample and step.  Meant for indifferent fixed
    points, though not every sphere around a repeller is left: by
    f(x) - xi = (x - xi)/((c*xi + d)(cx + d)), when vp(c*xi + d) > 0
    every step stays on the sphere of exponent vp(c) + vp(c*xi + d).
    For 2,0,1,1/2 at p = 2 the repeller xi = 3/2 keeps its sphere of
    exponent 1, while those of exponents 0 and 2 are left at step 1.
    """
    f.require_fixed(xi)
    Place.finite(p)  # rejects a non-prime p
    if samples < 1:
        raise ValueError(f"need at least one sample: got {samples}")
    step = Fraction(p) ** (-rho_exponent)
    valuations = _padic_valuations(f, xi, p, n)
    r, s = xi.numerator, xi.denominator
    on_sphere = [-rho_exponent] * (n + 1)
    for u in range(1, min(samples, p - 1) + 1):
        # x0 = xi + u*step, reduced by Fraction only when it is reported
        p0, q0 = r * step.denominator + u * step.numerator * s, s * step.denominator
        if (trace := valuations(p0, q0)) != on_sphere:  # None (infinity) is off every sphere
            return False, (Fraction(p0, q0), next(k for k, v in enumerate(trace) if v != -rho_exponent))
    return True, None


def basin_sample(
    f: MobiusMap,
    xi: Fraction,
    place: Place,
    grid: list[Fraction],
    n: int = 100,
) -> BasinSample:
    """Convergence verdict for each grid point toward the attractor xi.

    The grid point xi itself converges at step 0.  An orbit that passes
    through the pole is marked and judged on its segment after the last
    pole passage; one that ends at infinity has no segment and does not
    converge.  The distance of x_k from xi is |x_k - xi| at the real
    place, read off x_k - xi = (p*s - r*q)/(q*s) for x_k = p/q and
    xi = r/s, and the exponent -vp(x_k - xi) of |x_k - xi|_p at a finite
    one, from _padic_valuations.
    The orbit converges when the distance falls strictly over the final
    quarter of the segment and its last point meets the bound:
    |x_k - xi| < DEFAULT_REAL_THRESHOLD at the real place, a drop of at
    least DEFAULT_VALUATION_GAIN below the first exponent at a finite
    place.  steps_observed is where the bound is first met (else the
    last step), counted from x_0.  n < 1 raises ValueError whatever the
    grid holds, even when no grid point runs an orbit.
    """
    if classify_at(f, xi, place).verdict is not Verdict.ATTRACTOR:
        raise ValueError("basin undefined for non-attracting point")
    _require_length(n)
    if place.prime is None:
        matrix, r, s = _integer_matrix(f), xi.numerator, xi.denominator

        def distances(x0: Fraction) -> list:
            return [Fraction(abs(p * s - r * q), abs(q * s)) if q else None for p, q in _pairs(matrix, x0, n)]

    else:
        valuations = _padic_valuations(f, xi, place.prime, n)

        def distances(x0: Fraction) -> list:
            return [None if v is None else -v for v in valuations(*_coordinates(x0))]

    tested = []
    for x0 in grid:
        if x0 == xi:  # f is a bijection fixing xi, so no other orbit reaches it
            tested.append(BasinPoint(x0, True, 0, False))
            continue
        orbit = distances(x0)
        poles = [k for k, d in enumerate(orbit) if d is None]
        start = poles[-1] + 1 if poles else 0
        dist = orbit[start:]
        if not dist:  # the orbit ends at infinity
            tested.append(BasinPoint(x0, False, n, True))
            continue
        # integer exponents at a prime: d < bound is a drop of at least the gain
        bound = DEFAULT_REAL_THRESHOLD if place.prime is None else dist[0] - DEFAULT_VALUATION_GAIN + 1
        last = len(dist) - 1
        falling = all(dist[k + 1] < dist[k] for k in range(3 * last // 4, last))
        steps = next((k for k, d in enumerate(dist) if d < bound), last)
        tested.append(BasinPoint(x0, dist[last] < bound and falling, start + steps, bool(poles)))
    return BasinSample(place=place, attractor=xi, tested=tuple(tested))
