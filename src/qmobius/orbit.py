"""Exact orbit machinery: traces, invariant spheres, basin sampling.

Orbits are sequences of exact projective points; a pole step lands on
the point at infinity and the next step continues at a/c, so nothing is
ever approximated or dropped.  Per-place distance traces, the
invariant-sphere test around indifferent points and basin-of-attraction
sampling all reduce to exact norm computations along these orbits.

Exact entries of matrix powers can grow without bound for hyperbolic
maps, so every orbit runs under a bit-size budget and fails loudly with
SizeBudgetError instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import Verdict, classify_at
from .mobius import Infinity, MobiusMap, ProjectivePoint, format_point
from .padic import NormValue, Place, format_rational, norm

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
    """An exact orbit entry outgrew the configured bit budget."""


def _bit_size(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


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
        base = {"place": str(self.place), "center": format_rational(self.center)}
        if self.place.is_real:
            base["norms"] = [
                None if v is None else format_rational(v.value) for v in self.values
            ]
            return base
        valuations: list[int | str | None] = []
        for v in self.values:
            if v is None:
                valuations.append(None)
            elif v.is_zero:
                valuations.append("inf")
            else:
                assert v.exponent is not None
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
            "attractor": format_rational(self.attractor),
            "tested": [
                {
                    "x0": format_rational(t.initial),
                    "converged": t.converged,
                    "steps_observed": t.steps_observed,
                    "hit_pole": t.hit_pole,
                }
                for t in self.tested
            ],
        }


def run_orbit(
    f: MobiusMap,
    x0: ProjectivePoint,
    n: int,
    max_bits: int = DEFAULT_MAX_BITS,
) -> OrbitRecord:
    """Iterate f exactly n times from x0, keeping every point.

    >>> from .mobius import case_C
    >>> [format_point(x) for x in run_orbit(case_C(Fraction(2), Fraction(1)), Fraction(2), 3).points]
    ['2', '3/2', '4/3', '5/4']
    """
    if n < 1:
        raise ValueError(f"orbit length must be >= 1: got {n}")
    if max_bits < 1:
        raise ValueError(f"bit budget must be >= 1: got {max_bits}")
    points = [x0]
    x = x0
    for k in range(1, n + 1):
        x = f.apply(x)
        if isinstance(x, Fraction):
            bits = _bit_size(x)
            if bits > max_bits:
                raise SizeBudgetError(
                    f"orbit exceeded size budget: step {k} needs {bits} bits (max {max_bits})"
                )
        points.append(x)
    return OrbitRecord(initial=x0, points=tuple(points), length=n)


def distance_trace(
    f: MobiusMap,
    x0: ProjectivePoint,
    xi: Fraction,
    place: Place,
    n: int,
    max_bits: int = DEFAULT_MAX_BITS,
) -> DistanceTrace:
    """Exact |x_k - xi|_v for k = 0..n; xi must be a fixed point of f."""
    f.require_fixed(xi)
    orbit = run_orbit(f, x0, n, max_bits=max_bits)
    values = tuple(
        None if isinstance(x, Infinity) else norm(x - xi, place) for x in orbit.points
    )
    return DistanceTrace(place=place, center=xi, values=values)


def invariant_sphere_check(
    f: MobiusMap,
    xi: Fraction,
    p: int,
    rho_exponent: int,
    samples: int = 2,
    n: int = 200,
    max_bits: int = DEFAULT_MAX_BITS,
) -> tuple[bool, tuple[Fraction, int] | None]:
    """Test that the sphere |x - xi|_p = p**rho_exponent is f-invariant.

    Initial points xi + s*p**(-rho_exponent) for units s = 1, ...,
    min(samples, p-1) lie on the sphere by construction; each orbit is
    followed for n steps and every exact distance compared against the
    sphere value.  Returns (True, None) when all stay put, otherwise
    (False, (x0, k)) for the first departing sample and step.  Meant for
    indifferent fixed points; around an attractor or repeller the first
    step already leaves the sphere and is duly reported.
    """
    f.require_fixed(xi)
    place = Place.finite(p)
    if samples < 1:
        raise ValueError(f"need at least one sample: got {samples}")
    step = Fraction(p) ** (-rho_exponent)
    for s in range(1, min(samples, p - 1) + 1):
        x0 = xi + s * step
        trace = distance_trace(f, x0, xi, place, n, max_bits=max_bits)
        for k, value in enumerate(trace.values):
            if value is None or value.is_zero or value.exponent != rho_exponent:
                return False, (x0, k)
    return True, None


def _split_pole_tail(
    points: tuple[ProjectivePoint, ...],
) -> tuple[list[Fraction], int, bool]:
    """Finite points after the last pole passage, their offset, pole flag."""
    last_inf = -1
    for i, x in enumerate(points):
        if isinstance(x, Infinity):
            last_inf = i
    tail = [x for x in points[last_inf + 1 :]]
    return tail, last_inf + 1, last_inf >= 0


def _judge_real(
    tail: list[Fraction], xi: Fraction, threshold: Fraction
) -> tuple[bool, int]:
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


def _judge_finite(
    tail: list[Fraction], xi: Fraction, p: int, threshold: int
) -> tuple[bool, int]:
    place = Place.finite(p)
    norms = [norm(x - xi, place) for x in tail]
    for k, nv in enumerate(norms):
        if nv.is_zero:
            return True, k
    w = [-nv.exponent for nv in norms]  # valuations of x_k - xi
    last = len(w) - 1
    first_gained = next((k for k in range(len(w)) if w[k] - w[0] >= threshold), None)
    quarter = 3 * last // 4
    monotone = all(w[k + 1] > w[k] for k in range(quarter, last))
    converged = w[last] - w[0] >= threshold and monotone
    return converged, first_gained if first_gained is not None else last


def basin_sample(
    f: MobiusMap,
    xi: Fraction,
    place: Place,
    grid: list[Fraction],
    n: int = 100,
    threshold: int | Fraction | None = None,
    max_bits: int = DEFAULT_MAX_BITS,
) -> BasinSample:
    """Convergence verdict for each grid point toward the attractor xi.

    At a finite place an orbit converges when the valuation of
    x_k - xi strictly increases over the final quarter of the window
    and gains at least ``threshold`` (default 20) overall; at the real
    place when |x_n - xi| drops below ``threshold`` (default 1/10**6)
    with strict decrease over the final quarter.  An orbit that passes
    through the pole is marked and judged on its post-pole segment.
    """
    report = classify_at(f, xi, place)
    if report.verdict is not Verdict.ATTRACTOR:
        raise ValueError("basin undefined for non-attracting point")
    if threshold is None:
        threshold = DEFAULT_REAL_THRESHOLD if place.is_real else DEFAULT_VALUATION_GAIN
    tested = []
    for x0 in grid:
        orbit = run_orbit(f, x0, n, max_bits=max_bits)
        tail, offset, hit_pole = _split_pole_tail(orbit.points)
        if not tail:
            tested.append(BasinPoint(x0, False, n, hit_pole))
            continue
        if place.is_real:
            converged, steps = _judge_real(tail, xi, Fraction(threshold))
        else:
            assert place.prime is not None
            converged, steps = _judge_finite(tail, xi, place.prime, int(threshold))
        tested.append(BasinPoint(x0, converged, offset + steps, hit_pole))
    return BasinSample(place=place, attractor=xi, tested=tuple(tested))
