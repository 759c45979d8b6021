"""Exact rational arithmetic at every place of Q.

Rationals are plain ``fractions.Fraction`` values (always in canonical,
gcd-reduced form with positive denominator).  On top of that this module
provides p-adic valuations, exact norms for the real place and every
finite prime, canonical digit expansions, ultrametric ball geometry, and
the valuation profile that certifies the adele/idele finiteness
condition for a rational number.

Norms are never floats: a finite-place norm is carried as an integer
exponent of p, a real-place norm as an exact ``Fraction``, so every
comparison against 1 is an integer sign test or an exact rational
comparison.

Everything here is an immutable value and every function is pure;
concurrent callers need no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "PLUS_INFINITY",
    "FactorizationError",
    "NormValue",
    "PAdicDigits",
    "Place",
    "exact_sqrt",
    "factor_int",
    "in_closed_ball",
    "is_prime",
    "norm",
    "on_sphere",
    "padic_expand",
    "parse_rational",
    "principal_profile",
    "vp",
]

# Valuation of zero.  math.inf compares exactly against any int, so the
# ultrametric min/max algebra below needs no special-casing.
PLUS_INFINITY = math.inf

# Deterministic Miller-Rabin with this witness set is a proven primality
# test for all n below this bound (covers 64-bit inputs with room to spare).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

_TRIAL_DIVISION_BOUND = 10**6


class FactorizationError(RuntimeError):
    """Raised when an integer cannot be factored within the trial-division bound."""


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below ~3.3e24.

    Uses trial division by a few small primes, then Miller-Rabin with a
    fixed witness set that is proven exhaustive below ``_MR_PROVEN_BOUND``.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_PROVEN_BOUND:
        raise ValueError(f"primality check limited to n < {_MR_PROVEN_BOUND}: got {n}")
    r = _vp_int(n - 1, 2)
    d = (n - 1) >> r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Place:
    """The real place (prime is None) or the finite place of a prime p."""

    prime: int | None = None

    def __post_init__(self) -> None:
        if self.prime is not None and not is_prime(self.prime):
            raise ValueError(f"not a prime: {self.prime}")

    @classmethod
    def real(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_real(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "real" if self.prime is None else str(self.prime)


def parse_rational(text: str) -> Fraction:
    """Parse "n", "-n" or "n/d" into a canonical Fraction.

    The denominator may carry a sign ("4/-6" normalizes to -2/3), which
    the Fraction string constructor itself rejects.
    """
    text = text.strip()
    if "/" in text:
        num_text, _, den_text = text.partition("/")
        try:
            num, den = int(num_text), int(den_text)
        except ValueError:
            raise ValueError(f"not a rational: {text!r}") from None
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(num, den)
    try:
        return Fraction(int(text))
    except ValueError:
        raise ValueError(f"not a rational: {text!r}") from None


def _vp_int(n: int, p: int) -> int:
    # n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x: Fraction | int, p: int) -> int | float:
    """p-adic valuation of x: the exponent of p in x, PLUS_INFINITY for 0.

    p is assumed prime (Place construction is the validating entry point);
    p < 2 raises ValueError: stripping powers of 1 or -1 never ends.

    >>> vp(Fraction(4), 2)
    2
    >>> vp(Fraction(5, 12), 2)
    -2
    """
    if p < 2:
        raise ValueError(f"valuation needs a prime p >= 2: got {p}")
    if x == 0:
        return PLUS_INFINITY
    return _vp_int(x.numerator, p) - _vp_int(x.denominator, p)


@dataclass(frozen=True)
class NormValue:
    """An exact absolute value |x|_v.

    At a finite place the norm is p**exponent and comparisons against 1
    are sign tests on the exponent; at the real place it is the exact
    rational magnitude.  Zero has value 0 and no exponent.
    """

    value: Fraction | int
    prime: int | None = None
    exponent: int | None = None

    @classmethod
    def p_power(cls, p: int, exponent: int) -> "NormValue":
        value = Fraction(p**exponent) if exponent >= 0 else Fraction(1, p**-exponent)
        return cls(value=value, prime=p, exponent=exponent)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def cmp_one(self) -> int:
        """-1, 0 or +1 as the norm compares to 1, exactly."""
        if self.is_zero:
            return -1
        if self.exponent is not None:
            return (self.exponent > 0) - (self.exponent < 0)
        return (self.value > 1) - (self.value < 1)

    def __str__(self) -> str:
        if self.exponent is not None:
            return f"{self.prime}^{self.exponent}"
        return str(self.value)


def norm(x: Fraction | int, place: Place) -> NormValue:
    """|x|_v at the real place or a finite prime, exactly.

    >>> str(norm(Fraction(4), Place.finite(2)))
    '2^-2'
    """
    if x == 0:
        return NormValue(value=Fraction(0), prime=place.prime)
    if place.prime is None:
        return NormValue(value=abs(x))
    return NormValue.p_power(place.prime, -vp(x, place.prime))


@dataclass(frozen=True)
class PAdicDigits:
    """The first ``length`` canonical base-p digits of a nonzero rational.

    The represented value is p**valuation * sum(digits[i] * p**i); the
    leading digit is nonzero, and the partial sum agrees with the
    expanded rational modulo p**(valuation + length).
    """

    valuation: int
    digits: tuple[int, ...]
    prime: int
    length: int

    def partial_sum(self) -> Fraction:
        unit = sum(d * self.prime**i for i, d in enumerate(self.digits))
        return Fraction(unit) * Fraction(self.prime) ** self.valuation


def padic_expand(x: Fraction | int, p: int, count: int) -> PAdicDigits:
    """Canonical p-adic digit expansion of a nonzero rational.

    Extracts the valuation, then reduces the unit part modulo p**count
    via the modular inverse of its denominator and reads off base-p
    digits.  Zero has no canonical expansion (its valuation is
    PLUS_INFINITY); it is rejected.
    """
    if count < 1:
        raise ValueError(f"digit count must be positive: {count}")
    if x == 0:
        raise ValueError("zero has no canonical expansion")
    v = vp(x, p)
    unit = x / Fraction(p) ** v
    modulus = p**count
    residue = unit.numerator * pow(unit.denominator, -1, modulus) % modulus
    digits = []
    for _ in range(count):
        residue, digit = divmod(residue, p)
        digits.append(digit)
    return PAdicDigits(valuation=v, digits=tuple(digits), prime=p, length=count)


def in_closed_ball(x: Fraction, center: Fraction, radius_exponent: int, p: int) -> bool:
    """True iff |x - center|_p <= p**radius_exponent."""
    return vp(x - center, p) >= -radius_exponent


def on_sphere(x: Fraction, center: Fraction, radius_exponent: int, p: int) -> bool:
    """True iff |x - center|_p == p**radius_exponent exactly."""
    return vp(x - center, p) == -radius_exponent


def factor_int(n: int) -> dict[int, int]:
    """Factor |n| into primes: trial division to 1e6, then one primality test.

    A composite cofactor beyond the trial bound, or a cofactor too large
    for the proven primality test, raises FactorizationError rather than
    returning a partial answer: downstream "all but finitely many places"
    reports must never rest on a scan cutoff.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    factors: dict[int, int] = {}
    for p in (2, 3):
        v = _vp_int(n, p)
        if v:
            factors[p] = v
            n //= p**v
    q = 5
    while q * q <= n and q <= _TRIAL_DIVISION_BOUND:
        for step in (q, q + 2):
            if n % step == 0:
                v = _vp_int(n, step)
                factors[step] = v
                n //= step**v
        q += 6
    if n >= _MR_PROVEN_BOUND:
        raise FactorizationError(
            f"factorization exceeded bound: cofactor {n} is past the proven primality bound"
        )
    if n > 1:
        if not is_prime(n):
            raise FactorizationError(
                f"factorization exceeded bound: composite cofactor {n}"
            )
        factors[n] = 1
    return factors


def principal_profile(x: Fraction | int, nonzero: bool = False) -> dict[int, int]:
    """Finite map {p: vp(x, p)} over the primes where the valuation is nonzero.

    An empty map certifies that x is a p-adic integer at every prime;
    for x != 0 it further certifies x is a p-adic unit outside the
    returned set, which is the idele finiteness condition.  Zero is a
    valid adele but not an idele, so it is rejected when ``nonzero`` is
    set.
    """
    if x == 0:
        if nonzero:
            raise ValueError("zero is not an idele component")
        return {}
    # Numerator and denominator are coprime, so no prime is in both.
    profile = factor_int(x.numerator)
    profile.update((p, -v) for p, v in factor_int(x.denominator).items())
    return dict(sorted(profile.items()))


def exact_sqrt(x: Fraction) -> Fraction | None:
    """The nonnegative rational square root of x, or None if x is not a
    rational square.  Exact: numerator and denominator of the canonical
    form must both be perfect squares."""
    if x < 0:
        return None
    num_root = math.isqrt(x.numerator)
    den_root = math.isqrt(x.denominator)
    if num_root * num_root != x.numerator or den_root * den_root != x.denominator:
        return None
    return Fraction(num_root, den_root)
