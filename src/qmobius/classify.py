"""Per-place verdicts for rational fixed points and adelic summaries.

A fixed point of f(x) = (ax+b)/(cx+d) is an attractor, repeller or
indifferent at a place according to whether |f'(xi)|_v is below, above
or equal to 1.  Since f'(xi) = 1/(c*xi+d)**2, the finite places with a
non-indifferent verdict are exactly the primes dividing the numerator
or denominator of c*xi + d, so the full adelic picture is one real
verdict plus a finite exceptional list obtained by factoring a single
rational.  No scan over primes ever happens.  Every verdict is read off
the integer pair (P, Q) with c*xi + d = P/Q that mobius._fixed_pair
returns along with its fixed-point test: |f'(xi)|_v = |Q/P|_v**2, so no
derivative is formed as a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .mobius import Infinity, IrrationalPair, MobiusMap, RationalDouble, _fixed_pair, _integer_matrix
from .padic import NormValue, Place, _proven_place, factor_int, principal_profile, vp

__all__ = [
    "AdelicReport",
    "PlaceReport",
    "SiegelRadius",
    "Verdict",
    "adelic_report",
    "check_adelic_image",
    "classify_at",
    "exceptional_primes",
    "in_named_family",
    "siegel_radius",
]


class Verdict(Enum):
    ATTRACTOR = "attractor"
    REPELLER = "repeller"
    INDIFFERENT = "indifferent"

    def dual(self) -> "Verdict":
        """The partner fixed point's verdict, from f'(xi1)*f'(xi2) = 1."""
        if self is Verdict.ATTRACTOR:
            return Verdict.REPELLER
        if self is Verdict.REPELLER:
            return Verdict.ATTRACTOR
        return Verdict.INDIFFERENT

    def __str__(self) -> str:
        return self.value


def _verdict_of(derivative_norm: NormValue) -> Verdict:
    cmp = derivative_norm.cmp_one()
    if cmp < 0:
        return Verdict.ATTRACTOR
    if cmp > 0:
        return Verdict.REPELLER
    return Verdict.INDIFFERENT


@dataclass(frozen=True)
class PlaceReport:
    """Verdict at one place together with the exact derivative norm."""

    place: Place
    derivative_norm: NormValue
    verdict: Verdict


@dataclass(frozen=True)
class AdelicReport:
    """One rational fixed point across every place at once.

    Only the real place and the finitely many exceptional primes are
    enumerated; every prime absent from ``exceptional`` is Indifferent.
    That default is symbolic and exhaustive, not a truncation.
    """

    fixed_point: Fraction
    real_report: PlaceReport
    exceptional: tuple[PlaceReport, ...]

    def verdict_at(self, place: Place) -> Verdict:
        if place.is_real:
            return self.real_report.verdict
        for report in self.exceptional:
            if report.place == place:
                return report.verdict
        return Verdict.INDIFFERENT

    def to_json_dict(self) -> dict:
        return {
            "fixed_point": str(self.fixed_point),
            "real": str(self.real_report.verdict),
            "exceptional": [
                {
                    "p": report.place.prime,
                    "verdict": str(report.verdict),
                    "deriv_norm_exp": report.derivative_norm.exponent,
                }
                for report in self.exceptional
            ],
            "default": str(Verdict.INDIFFERENT),
        }


@dataclass(frozen=True)
class SiegelRadius:
    """Invariant-sphere radius |a|_p / |c|_p = p**radius_exponent.

    The formula is established for the named families (see
    in_named_family); for any other map the number is still computed
    but ``caveat`` is set to flag the extrapolation.
    """

    prime: int
    radius_exponent: int
    caveat: bool

    @property
    def radius(self) -> Fraction:
        return Fraction(self.prime) ** self.radius_exponent


def classify_at(f: MobiusMap, xi: Fraction, place: Place) -> PlaceReport:
    """Exact verdict for the fixed point xi of f at one place.

    >>> from .mobius import MobiusMap
    >>> f = MobiusMap.make(2, 0, 1, Fraction(1, 2))
    >>> classify_at(f, Fraction(0), Place.real()).verdict.value
    'repeller'
    >>> classify_at(f, Fraction(0), Place.finite(2)).verdict.value
    'attractor'
    """
    return _report(place, *_fixed_pair(f, xi))


def _report(place: Place, P: int, Q: int) -> PlaceReport:
    """The report at place for a fixed point with c*xi + d = P/Q (P, Q != 0).

    f'(xi) = 1/(c*xi + d)**2 = (Q/P)**2, so its norm is Q**2/P**2 at the
    real place and p**(2*(vp(P) - vp(Q))) at a prime p.
    """
    prime = place.prime
    if prime is None:
        derivative_norm = NormValue(value=Fraction(Q * Q, P * P))
    else:
        derivative_norm = NormValue.p_power(prime, 2 * (vp(P, prime) - vp(Q, prime)))
    return PlaceReport(place, derivative_norm, _verdict_of(derivative_norm))


def _place_reports(valuations: dict[Place, int]) -> tuple[PlaceReport, ...]:
    """Reports at the places of {place: vp(c*xi+d)}: |f'(xi)|_p = p**(2*v)."""
    norms = {place: NormValue.p_power(place.prime, 2 * v) for place, v in valuations.items()}
    return tuple(PlaceReport(place, n, _verdict_of(n)) for place, n in norms.items())


def _finite_places(profile: dict[int, int]) -> dict[Place, int]:
    """{place: v} for a profile from principal_profile, whose primes factor_int has proven."""
    return {_proven_place(p): v for p, v in profile.items()}


def _rational_fixed_points(f: MobiusMap) -> tuple[Fraction, ...]:
    """The fixed points of f (two, or one if fused); irrational ones raise."""
    result = f.fixed_points()
    if isinstance(result, IrrationalPair):
        raise ValueError("fixed points not rational; out of scope")
    return (result.point,) if isinstance(result, RationalDouble) else (result.point1, result.point2)


def exceptional_primes(f: MobiusMap, xi: Fraction) -> list[PlaceReport]:
    """All finite places where xi is not indifferent, smallest prime first.

    |f'(xi)|_p = p**(2*vp(c*xi+d)) is 1 unless p divides the numerator
    or denominator of c*xi + d, so factoring that rational delivers the
    complete list.  A fixed point is never the pole, hence c*xi + d is
    never zero here.
    """
    P, Q = _fixed_pair(f, xi)
    return list(_place_reports(_finite_places(principal_profile(Fraction(P, Q)))))


def adelic_report(f: MobiusMap) -> tuple[AdelicReport, ...]:
    """One AdelicReport per rational fixed point (two, or one if fused).

    Only c*xi1 + d is factored.  The fixed points are the roots of
    c*x**2 + (d-a)*x - b, so (c*xi1 + d)(c*xi2 + d) = c**2*xi1*xi2 +
    c*d*(xi1 + xi2) + d**2 = -bc + d(a-d) + d**2 = ad - bc = 1: the
    partner's profile is the first one negated, the same primes with
    opposite verdicts, at places built (and proven prime) once for both.
    For a pair, c*xi1 + d = P/Q thus makes c*xi2 + d = Q/P, so both real
    reports come from one integer pair.  Irrational fixed points are out of
    scope and raise.
    """
    points = _rational_fixed_points(f)
    P, Q = _fixed_pair(f, points[0])
    valuations = _finite_places(principal_profile(Fraction(P, Q)))
    partner = {place: -v for place, v in valuations.items()}
    real = Place.real()
    return tuple(
        AdelicReport(xi, _report(real, *pair), _place_reports(xi_valuations))
        for xi, pair, xi_valuations in zip(points, ((P, Q), (Q, P)), (valuations, partner))
    )


def in_named_family(f: MobiusMap) -> bool:
    """True when f belongs to one of the constructor families.

    b = 0 (case A), b = c with d = a (case B), or trace +-2 (cases C
    and D with their subcases, i.e. the fused-fixed-point maps).
    """
    if f.b == 0:
        return True
    if f.b == f.c and f.d == f.a:
        return True
    return f.a + f.d == 2 or f.a + f.d == -2


def siegel_radius(f: MobiusMap, p: int) -> SiegelRadius:
    """Radius exponent vp(c) - vp(a) of the invariant-sphere ball at p."""
    Place.finite(p)  # raises ValueError unless p is prime
    if f.a == 0:
        raise ValueError("radius undefined (|a|_p = 0)")
    exponent = vp(f.c, p) - vp(f.a, p)
    return SiegelRadius(prime=p, radius_exponent=exponent, caveat=not in_named_family(f))


def check_adelic_image(f: MobiusMap, x: Fraction) -> list[int]:
    """Primes p with |f(x)|_p > 1: finite for every rational input.

    A principal point (the same rational at every place) stays adelic
    under f exactly because this list is finite.  In lowest terms
    vp(f(x)) < 0 iff p divides the denominator, so only it is factored:
    the numerator's primes never enter the answer (f(x) = 0 has none).
    With x = r/s and (A, B, C, D) = L*F, f(x) = (A*r + B*s)/(C*r + D*s),
    and gcd(L**2, A*r + B*s, C*r + D*s) is the full gcd of the two (see
    orbit._pairs), so the denominator is |C*r + D*s| over it; x is the
    pole exactly when C*r + D*s = 0.

    >>> from .mobius import MobiusMap
    >>> f = MobiusMap.make(2, 0, 1, Fraction(1, 2))
    >>> check_adelic_image(f, Fraction(1))
    [3]
    """
    A, B, C, D, L = _integer_matrix(f)
    r, s = (1, 0) if isinstance(x, Infinity) else (x.numerator, x.denominator)
    den = C * r + D * s
    if den == 0:
        raise ValueError(f"image of the pole x = {x} is the point at infinity")
    return sorted(factor_int(abs(den) // gcd(L * L, A * r + B * s, den)))
