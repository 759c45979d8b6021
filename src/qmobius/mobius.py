"""Linear-fractional maps f(x) = (ax+b)/(cx+d) as unimodular 2x2 matrices.

The standing conditions are ad - bc = 1 and c != 0, checked at
construction.  Maps act on the projective line over Q: the pole -d/c
goes to the point at infinity and infinity goes to a/c, so every map is
a total bijection.  Matrix powers, the named one-parameter families with
rational fixed points, their closed-form n-th iterates, the cross-ratio
and projective periodicity all live here.

All values are immutable and all operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import exact_sqrt, parse_rational

__all__ = [
    "INFINITY",
    "CASE_TAGS",
    "FamilyParameter",
    "FixedPointResult",
    "Infinity",
    "IrrationalPair",
    "Mat2",
    "MobiusMap",
    "ProjectivePoint",
    "RationalDouble",
    "RationalPair",
    "case_A",
    "case_B",
    "case_C",
    "case_C_sub",
    "case_D",
    "case_D_sub",
    "closed_iterate",
    "cross_ratio",
    "detect_period",
    "format_point",
    "from_parameter",
    "pair_relations",
    "parse_map",
    "parse_point",
]


class Infinity:
    """The point at infinity on the projective line (a singleton)."""

    _instance: "Infinity | None" = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = Infinity()

ProjectivePoint = Fraction | Infinity


def parse_point(text: str) -> ProjectivePoint:
    text = text.strip()
    if text == "inf":
        return INFINITY
    return parse_rational(text)


def format_point(x: ProjectivePoint) -> str:
    return "inf" if isinstance(x, Infinity) else str(x)


@dataclass(frozen=True)
class Mat2:
    """An invertible 2x2 rational matrix acting projectively; a map power may
    be scalar or lose its pole, so it is a Mat2 rather than a MobiusMap."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        if self.det() == 0:
            raise ValueError("singular matrix has no projective action")

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @property
    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def apply(self, x: ProjectivePoint) -> ProjectivePoint:
        """Evaluate on the projective line; the pole -d/c maps to infinity
        and infinity maps to a/c (to itself when c = 0)."""
        if isinstance(x, Infinity):
            return self.a / self.c if self.c != 0 else INFINITY
        den = self.c * x + self.d
        if den == 0:
            return INFINITY
        return (self.a * x + self.b) / den

    __call__ = apply


@dataclass(frozen=True)
class MobiusMap(Mat2):
    """f(x) = (ax+b)/(cx+d): a Mat2 with ad - bc = 1 and c != 0."""

    def __post_init__(self) -> None:
        det = self.det()
        if det != 1:
            raise ValueError(
                f"determinant != 1: got {det} for "
                f"({self.a}, {self.b}, {self.c}, {self.d})"
            )
        if self.c == 0:
            raise ValueError(f"c = 0: ({self.a}, {self.b}, {self.c}, {self.d}) is affine")

    # The same function object as Mat2.apply, bound here too so that code
    # reading this class's own namespace, such as the wrapper that
    # bench/tracing.py installs via vars(MobiusMap)["apply"], finds it.
    apply = Mat2.apply

    @classmethod
    def make(cls, a, b, c, d) -> "MobiusMap":
        """Build from anything Fraction accepts (ints, strings, Fractions)."""
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """Matrix product: (self.compose(other))(x) == self(other(x)).

        Raises if the product lands outside the c != 0 class, since every
        formula downstream assumes a genuine pole.
        """
        m = self @ other
        if m.c == 0:
            raise ValueError("composition leaves the c != 0 class")
        return MobiusMap(m.a, m.b, m.c, m.d)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def power(self, n: int) -> Mat2:
        """F**n = u_n*F - u_(n-1)*I, from the trace t = a + d alone.

        u_0 = 0, u_1 = 1 and u_(k+1) = t*u_k - u_(k-1).  Proof by induction:
        n = 1 is F itself, and Cayley-Hamilton F**2 = t*F - I (det F = 1)
        gives F**(n+1) = u_n*(t*F - I) - u_(n-1)*F = u_(n+1)*F - u_n*I.
        The sequence doubles as u_2k = u_k*(2*u_(k+1) - t*u_k) and
        u_(2k+1) = u_(k+1)**2 - u_k**2, both by induction on the same
        recurrence, so u_n costs O(log n) products.  The result may be
        scalar (t = 0 or +-1) or have c = 0, so it is a Mat2.
        """
        if n < 1:
            raise ValueError(f"power requires n >= 1: got {n}")
        t = self.a + self.d
        u, u_next = Fraction(1), t  # (u_k, u_(k+1)) for k = 1, the leading bit of n
        for bit in bin(n)[3:]:
            u, u_next = u * (2 * u_next - t * u), u_next * u_next - u * u
            if bit == "1":
                u, u_next = u_next, t * u_next - u
        u_prev = t * u - u_next
        return Mat2(u * self.a - u_prev, u * self.b, u * self.c, u * self.d - u_prev)

    def derivative_at(self, x: Fraction) -> Fraction:
        """f'(x) = 1/(cx+d)^2, exact; undefined at the pole."""
        den = self.c * x + self.d
        if den == 0:
            raise ValueError(f"derivative at pole x = {x}")
        return 1 / den**2

    def fixed_points(self) -> "FixedPointResult":
        """Solve f(x) = x exactly.

        The discriminant (a+d)^2 - 4 decides the branch: a nonzero
        rational square gives an ordered pair (the +root first), zero a
        fused double point, anything else stays irrational and only the
        discriminant is reported.
        """
        trace = self.a + self.d
        disc = trace * trace - 4
        if disc == 0:
            return RationalDouble((self.a - self.d) / (2 * self.c))
        root = exact_sqrt(disc)
        if root is None:
            return IrrationalPair(disc)
        return RationalPair(
            (self.a - self.d + root) / (2 * self.c),
            (self.a - self.d - root) / (2 * self.c),
        )

    def require_fixed(self, x: Fraction) -> None:
        """Raise ValueError unless f(x) == x."""
        if self.apply(x) != x:
            raise ValueError(f"not a fixed point: f({x}) != {x}")

    def __str__(self) -> str:
        return ",".join(str(t) for t in (self.a, self.b, self.c, self.d))


def parse_map(text: str) -> MobiusMap:
    """Parse the "a,b,c,d" coefficient form."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated coefficients: {text!r}")
    return MobiusMap(*(parse_rational(t) for t in parts))


@dataclass(frozen=True)
class RationalPair:
    """Two distinct rational fixed points; point1 takes the positive root."""

    point1: Fraction
    point2: Fraction


@dataclass(frozen=True)
class RationalDouble:
    """A fused (parabolic) rational fixed point."""

    point: Fraction


@dataclass(frozen=True)
class IrrationalPair:
    """Fixed points outside Q; only the non-square discriminant is kept."""

    discriminant: Fraction


FixedPointResult = RationalPair | RationalDouble | IrrationalPair


def pair_relations(f: MobiusMap, r: RationalPair) -> tuple[Fraction, Fraction]:
    """(product of fixed points, product of derivatives) = (-b/c, 1), exact.

    Raises ValueError when r is not the fixed-point pair of f.
    """
    if not isinstance(r, RationalPair):
        raise TypeError(f"pair relations need a RationalPair: got {type(r).__name__}")
    point_product = r.point1 * r.point2
    deriv_product = f.derivative_at(r.point1) * f.derivative_at(r.point2)
    if point_product != -f.b / f.c or deriv_product != 1:
        raise ValueError(f"({r.point1}, {r.point2}) are not the fixed points of {f}")
    return point_product, deriv_product


@dataclass(frozen=True)
class FamilyParameter:
    """Free parameters (t, sign, a, c) of the rational-fixed-point family.

    t sweeps the rational solutions of the trace hyperbola
    (a+d)^2 - 4 = delta^2; sign picks the trace branch; a and c are free
    with c != 0.
    """

    t: Fraction
    sign: int
    a: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        if self.t == 1 or self.t == -1:
            raise ValueError(f"parametrization pole: t = {self.t}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1: got {self.sign}")
        if self.c == 0:
            raise ValueError("c = 0")


def from_parameter(fp: FamilyParameter) -> MobiusMap:
    """Construct the family member: every fixed point comes out rational.

    trace = sign * 2(1+t^2)/(1-t^2), delta = 4t/(1-t^2) satisfy
    trace^2 - 4 = delta^2; then bc = (delta^2 - a^2 - d^2)/2 + 1, which
    equals ad - 1, so det = 1 by construction.  t = 0 collapses delta and
    yields the fused (double) fixed point.
    """
    t, a, c = fp.t, fp.a, fp.c
    one_minus = 1 - t * t
    trace = fp.sign * 2 * (1 + t * t) / one_minus
    delta = 4 * t / one_minus
    d = trace - a
    bc = (delta * delta - a * a - d * d) / 2 + 1
    return MobiusMap(a, bc / c, c, d)


def case_A(a: Fraction, c: Fraction) -> MobiusMap:
    """b = 0 family: (a, 0, c, 1/a)."""
    if a == 0:
        raise ValueError("case A requires a != 0")
    if c == 0:
        raise ValueError("case A requires c != 0")
    return MobiusMap(a, Fraction(0), c, 1 / a)


def case_B(t: Fraction) -> MobiusMap:
    """b = c, d = a family, parametrized so that a^2 - c^2 = 1."""
    if t in (1, -1):
        raise ValueError(f"parametrization pole: t = {t}")
    if t == 0:
        raise ValueError("case B requires t != 0 (c would vanish)")
    one_minus = 1 - t * t
    a = (1 + t * t) / one_minus
    c = 2 * t / one_minus
    return MobiusMap(a, c, c, a)


def case_C(a: Fraction, c: Fraction) -> MobiusMap:
    """d = -a + 2 family; fused fixed point (a-1)/c."""
    if c == 0:
        raise ValueError("case C requires c != 0")
    b = -((a - 1) ** 2) / c
    return MobiusMap(a, b, c, -a + 2)


def case_C_sub(c: Fraction, sign: int) -> MobiusMap:
    """b = -c, d = a - 2c subfamily with (a-c)^2 = 1; fused fixed point 1."""
    if c == 0:
        raise ValueError("case C subcase requires c != 0")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1: got {sign}")
    a = c + sign
    return MobiusMap(a, -c, c, a - 2 * c)


def case_D(a: Fraction, c: Fraction) -> MobiusMap:
    """d = -a - 2 family; fused fixed point (a+1)/c."""
    if c == 0:
        raise ValueError("case D requires c != 0")
    b = -((a + 1) ** 2) / c
    return MobiusMap(a, b, c, -a - 2)


def case_D_sub(c: Fraction, sign: int) -> MobiusMap:
    """b = -c, d = a + 2c subfamily with (a+c)^2 = 1; fused fixed point -1."""
    if c == 0:
        raise ValueError("case D subcase requires c != 0")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1: got {sign}")
    a = -c + sign
    return MobiusMap(a, -c, c, a + 2 * c)


CASE_TAGS = ("C", "C_sub", "D", "D_sub")


def _check_case(tag: str, f: MobiusMap) -> None:
    ok = {
        "C": lambda: f.d == 2 - f.a,
        "C_sub": lambda: f.b == -f.c and f.d == f.a - 2 * f.c,
        "D": lambda: f.d == -2 - f.a,
        "D_sub": lambda: f.b == -f.c and f.d == f.a + 2 * f.c,
    }
    if tag not in ok:
        raise ValueError(f"unknown case tag: {tag!r} (expected one of {CASE_TAGS})")
    if not ok[tag]():
        raise ValueError(f"map {f} does not satisfy the case {tag} constraints")


def closed_iterate(tag: str, f: MobiusMap, x0: ProjectivePoint, n: int) -> ProjectivePoint:
    """Explicit n-th iterate of the four fused-fixed-point families: F**n applied to x0.

    Each family has trace t = 2e with e = +-1, and then the sequence
    u_(k+1) = t*u_k - u_(k-1) of MobiusMap.power is u_n = e**(n-1) * n
    (induction: 2e * e**(k-1) * k - e**(k-2) * (k-1) = e**k * (k+1)).
    So F**n = e**(n-1) * (n*F - e*(n-1)*I), entries linear in n.  With
    xi = (a-d)/(2c) the fused fixed point, c*xi + d = e, and
    f(x) - xi = (x - xi)/((c*xi+d)(cx+d)) says u = 1/(x - xi) moves by
    c/(c*xi + d) at each step on the whole projective line (x = xi is
    u = inf, x = inf is u = 0); F**n is that translation taken n times,
    1/(x_n - xi) = 1/(x0 - xi) + n*c/(c*xi + d).  The map must satisfy
    the tagged case's defining coefficient constraints.
    """
    _check_case(tag, f)
    if n < 1:
        raise ValueError(f"iterate count must be >= 1: got {n}")
    return f.power(n).apply(x0)


def cross_ratio(
    p1: ProjectivePoint,
    p2: ProjectivePoint,
    p3: ProjectivePoint,
    p4: ProjectivePoint,
) -> Fraction:
    """(p1-p3)(p2-p4) / ((p1-p4)(p2-p3)) for four distinct points.

    At most one point may be infinite; the two factors containing it drop
    out (the standard degenerate limit).  Preserved exactly by every
    MobiusMap.
    """
    points = (p1, p2, p3, p4)
    for i in range(4):
        for j in range(i + 1, 4):
            if points[i] == points[j]:
                raise ValueError(f"cross-ratio requires distinct points: {points[i]!r} repeats")
    if isinstance(p1, Infinity):
        return (p2 - p4) / (p2 - p3)
    if isinstance(p2, Infinity):
        return (p1 - p3) / (p1 - p4)
    if isinstance(p3, Infinity):
        return (p2 - p4) / (p1 - p4)
    if isinstance(p4, Infinity):
        return (p1 - p3) / (p2 - p3)
    return ((p1 - p3) * (p2 - p4)) / ((p1 - p4) * (p2 - p3))


def detect_period(f: MobiusMap, k_max: int) -> int | None:
    """Smallest k <= k_max with F**k scalar (projectively the identity), else None.

    The order follows from the trace t = a + d.  By Cayley-Hamilton
    F**2 = t*F - I, so t = 0 gives F**2 = -I and t = +-1 gives F**3 = -+I;
    F is not scalar since c != 0, nor is F**2 = t*F - I when t != 0.
    Conversely, if F**k = +-I the eigenvalues of F are roots of unity, so
    t is a rational algebraic integer with |t| <= 2; and t = +-2 makes
    F = +-(I + N) with N != 0 nilpotent, so F**k = (+-1)**k (I + kN) is
    never scalar.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1: got {k_max}")
    order = {0: 2, 1: 3, -1: 3}.get(f.a + f.d)
    return order if order is not None and order <= k_max else None
