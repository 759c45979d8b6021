"""Exact orbit machinery: traces, invariant spheres, basin sampling.

Orbits are sequences of exact projective points; a pole step lands on
the point at infinity and the next step continues at a/c, so nothing is
ever approximated or dropped.  Mat2.apply acts on one point; an orbit
steps in integer homogeneous coordinates instead, a coprime pair (p : q)
under an integer multiple of the map's matrix, reduced each step by one
gcd against a number of fixed size.  Per-place distance traces, the
invariant-sphere test around indifferent points and basin-of-attraction
sampling read |x_k - xi|_v off that pair: with xi = r/s,
x_k - xi = (p*s - r*q)/(q*s), so vp(x_k - xi) = vp(p*s - r*q) - vp(q*s)
at a prime and |x_k - xi| = |p*s - r*q|/|q*s| at the real place, and no
point is built as a Fraction.

Exact entries of matrix powers can grow without bound for hyperbolic
maps, so every orbit runs under the fixed bit-size budget DEFAULT_MAX_BITS
and fails loudly with SizeBudgetError instead of hanging.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .classify import Verdict, classify_at
from .mobius import INFINITY, Infinity, MobiusMap, ProjectivePoint, _integer_matrix, format_point
from .padic import NormValue, Place, vp

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
    p, q = (1, 0) if isinstance(x0, Infinity) else (x0.numerator, x0.denominator)
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
    real place and p**(vp(q*s) - vp(p*s - r*q)) at a prime, where one
    (frozen) NormValue is built per distinct exponent and shared by the
    steps that have it; on a fused map the exponent takes few values.
    The steps at xi share one zero norm; an entry at infinity is None.
    """
    f.require_fixed(xi)
    r, s = xi.numerator, xi.denominator
    pairs = _pairs(_integer_matrix(f), x0, n)
    prime = place.prime
    if prime is None:
        distances = tuple(
            NormValue(value=Fraction(abs(p * s - r * q), abs(q * s))) if q else None for p, q in pairs
        )
        return DistanceTrace(place=place, center=xi, values=distances)
    zero = NormValue(value=Fraction(0), prime=prime)
    norms: dict[int, NormValue] = {}
    values: list[NormValue | None] = []
    for p, q in pairs:
        if not q:
            values.append(None)
        elif (num := p * s - r * q) == 0:
            values.append(zero)
        else:
            e = vp(q * s, prime) - vp(num, prime)
            if e not in norms:
                norms[e] = NormValue.p_power(prime, e)
            values.append(norms[e])
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
    followed for n steps, all of them computed before any is tested, so
    the bit budget covers every step.  With xi = r/s, an iterate
    x_k = y/z leaves the sphere when z = 0 (infinity) or
    vp(x_k - xi) = vp(y*s - r*z) - vp(z*s) != -rho_exponent.  Returns
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
    matrix, r, s = _integer_matrix(f), xi.numerator, xi.denominator
    for u in range(1, min(samples, p - 1) + 1):
        # xi + u*step, with one normalising gcd
        x0 = Fraction(r * step.denominator + u * step.numerator * s, s * step.denominator)
        for k, (y, z) in enumerate(list(_pairs(matrix, x0, n))):
            if z == 0 or vp(y * s - r * z, p) - vp(z * s, p) != -rho_exponent:
                return False, (x0, k)
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
    converge.  The distance of x_k = p/q from xi = r/s is read off
    x_k - xi = (p*s - r*q)/(q*s): it is |x_k - xi| at the real place
    and the exponent -vp(x_k - xi) of |x_k - xi|_p at a finite one.
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
    matrix, r, s = _integer_matrix(f), xi.numerator, xi.denominator
    tested = []
    for x0 in grid:
        if x0 == xi:  # f is a bijection fixing xi, so no other orbit reaches it
            tested.append(BasinPoint(x0, True, 0, False))
            continue
        diffs = [(p * s - r * q, q * s) for p, q in _pairs(matrix, x0, n)]
        poles = [k for k, (_, den) in enumerate(diffs) if den == 0]
        start = poles[-1] + 1 if poles else 0
        tail = diffs[start:]
        if not tail:  # the orbit ends at infinity
            tested.append(BasinPoint(x0, False, n, True))
            continue
        if place.prime is None:
            dist = [Fraction(abs(num), abs(den)) for num, den in tail]
            bound = DEFAULT_REAL_THRESHOLD
        else:  # integer exponents: d < bound is a drop of at least the gain
            dist = [vp(den, place.prime) - vp(num, place.prime) for num, den in tail]
            bound = dist[0] - DEFAULT_VALUATION_GAIN + 1
        last = len(tail) - 1
        falling = all(dist[k + 1] < dist[k] for k in range(3 * last // 4, last))
        steps = next((k for k, d in enumerate(dist) if d < bound), last)
        tested.append(BasinPoint(x0, dist[last] < bound and falling, start + steps, bool(poles)))
    return BasinSample(place=place, attractor=xi, tested=tuple(tested))
