"""Exact rational arithmetic at every place of Q.

Rationals are plain ``fractions.Fraction`` values (always in canonical,
gcd-reduced form with positive denominator).  On top of that this module
provides p-adic valuations, exact norms for the real place and every
finite prime, canonical digit expansions, ultrametric spheres, and
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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "FactorizationError",
    "NormValue",
    "PAdicDigits",
    "Place",
    "exact_sqrt",
    "factor_int",
    "is_prime",
    "norm",
    "on_sphere",
    "padic_expand",
    "parse_rational",
    "principal_profile",
    "vp",
]

# Deterministic Miller-Rabin with the 13 prime bases up to 41 proves n
# prime for every n below psi_13 = 3317044064679887385961981, the least
# strong pseudoprime to all of them (Sorenson and Webster 2017).  The
# first twelve bases are not enough there: psi_12 =
# 318665857834031151167461 = 399165290221 * 798330580441 passes them all.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


def _primes_below(bound: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound, p)))
    return tuple(p for p, flag in enumerate(sieve) if flag)


# factor_int trial-divides by these; a cofactor below _TRIAL_BOUND**2
# with no prime factor below _TRIAL_BOUND is prime without a test.
_TRIAL_BOUND = 1000
_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)

# Brent's rho gives up on one composite after this many steps over all of
# its seeds, about half a second on a 170-bit number.  That splits every
# composite tried whose least prime factor is below 10**11, and few past
# 10**12; past the budget the factorization raises.
_RHO_STEP_BUDGET = 1 << 19
_RHO_BATCH = 128


class FactorizationError(RuntimeError):
    """Raised when the kernel cannot factor a number, or prove it prime,
    within its budget: Brent's rho spends _RHO_STEP_BUDGET steps on one
    composite without splitting it, or a probable prime past the proven
    Miller-Rabin bound has no Lucas n - 1 certificate (n - 1 cannot be
    factored, or no witness is found for one of its primes).

    The one argument is the reason, naming the number left unfinished;
    str() puts "factorization exceeded bound: " before it.
    """

    def __str__(self) -> str:
        return f"factorization exceeded bound: {self.args[0]}"


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin for odd n > 41 with every base in _MR_WITNESSES."""
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


def _lucas_certificate(n: int) -> bool:
    """Prove the probable prime n prime from the factorization of n - 1.

    Brillhart-Lehmer-Selfridge (1975): if for every prime q | n - 1 some
    a has a**(n-1) = 1 and a**((n-1)/q) != 1 (mod n), then n is prime.
    Proof: for a prime r | n the order of that a mod r divides n - 1 but
    not (n - 1)/q, so q**vq(n-1) divides it, and it divides r - 1.  Over
    all q, n - 1 divides r - 1, so r >= n and n = r.  The factors of
    n - 1 come from factor_int, whose primes past the Miller-Rabin bound
    are certified the same way (Pratt 1975).

    Returns False when some a has a**(n-1) != 1, which proves n
    composite; raises FactorizationError, naming n, when n - 1 cannot be
    factored or no small prime is a witness for some q.
    """
    m = n - 1
    try:
        primes = factor_int(m)
    except FactorizationError as exc:
        raise FactorizationError(f"cannot prove {n} prime: {exc.args[0]}") from exc
    for q in primes:
        for a in _SMALL_PRIMES:
            x = pow(a, m // q, n)
            if x != 1:
                break
        else:
            raise FactorizationError(f"no Lucas witness for {q} | {n} - 1")
        if pow(x, q, n) != 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Proven primality test: every verdict is exact or raises.

    Small prime divisors first, then Miller-Rabin with bases 2..41,
    which is a proof below ``_MR_PROVEN_BOUND``.  A probable prime at or
    past that bound is proven by a Lucas n - 1 certificate; if none is
    found, FactorizationError is raised rather than a verdict returned.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if not _strong_probable_prime(n):
        return False
    return n < _MR_PROVEN_BOUND or _lucas_certificate(n)


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


def _proven_place(p: int) -> Place:
    """The finite place of p, which the caller has already proven prime
    (factor_int's primes), built without a second is_prime."""
    place = object.__new__(Place)
    object.__setattr__(place, "prime", p)
    return place


def parse_rational(text: str) -> Fraction:
    """Parse "n", "-n" or "n/d" into a canonical Fraction.

    The denominator may carry a sign ("4/-6" normalizes to -2/3), which
    the Fraction string constructor itself rejects.
    """
    text = text.strip()
    num_text, slash, den_text = text.partition("/")
    try:
        num, den = int(num_text), int(den_text) if slash else 1
    except ValueError:
        raise ValueError(f"not a rational: {text!r}") from None
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def _vp_int(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n.

    p = 2 reads the trailing zero bits.  An odd p past v = 1 is divided
    out in chunks p, p**2, p**4, ... while they divide, starting again
    from p when one does not, so v costs O(log(v)**2) divisions, not v.
    """
    if n % p:
        return 0
    if p == 2:
        return (n & -n).bit_length() - 1
    n //= p
    if n % p:
        return 1
    v, q, e = 1, p, 1
    while True:
        if n % q == 0:
            n //= q
            v += e
            q, e = q * q, e * 2
        elif e == 1:
            return v
        else:
            q, e = p, 1


def vp(x: Fraction | int, p: int) -> int | float:
    """p-adic valuation of x: the exponent of p in x, math.inf for 0.

    math.inf compares exactly against any int, so min/max over valuations
    needs no special case for 0.  p is assumed prime (Place construction
    is the validating entry point); p < 2 raises ValueError: stripping
    powers of 1 or -1 never ends.

    >>> vp(Fraction(4), 2)
    2
    >>> vp(Fraction(5, 12), 2)
    -2
    """
    if p < 2:
        raise ValueError(f"valuation needs a prime p >= 2: got {p}")
    if x == 0:
        return math.inf
    if isinstance(x, int):
        return _vp_int(x, p)
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
    math.inf); it is rejected.
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


def on_sphere(x: Fraction, center: Fraction, radius_exponent: int, p: int) -> bool:
    """True iff |x - center|_p == p**radius_exponent exactly."""
    return vp(x - center, p) == -radius_exponent


def _rho_split(n: int) -> int:
    """A proper divisor of the odd composite n, by Brent's rho (Brent 1980).

    For c = 1, 2, 3, ... iterate y -> y*y + c (mod n) from y = 2, find a
    cycle by doubling the stride, and batch the gcds over _RHO_BATCH
    products of |x - y|; a batch whose gcd is n is replayed one step at
    a time, and a seed that still only finds n gives way to the next.
    All seeds share one budget of _RHO_STEP_BUDGET steps.
    """
    steps = 0
    for c in itertools.count(1):
        y = ys = 2
        q = g = r = 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEP_BUDGET:
                raise FactorizationError(f"rho step budget spent on {n}")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, k) with m = r**k for a prime k, or None.

    m has no prime factor below _TRIAL_BOUND, so r >= _TRIAL_BOUND and
    only the k with _TRIAL_BOUND**k <= m can occur.  Integer Newton steps
    from 2**ceil(bits/k), which is at least the k-th root, decrease to
    its floor exactly, for any size of m.
    """
    for k in _SMALL_PRIMES:
        if _TRIAL_BOUND**k > m:
            break
        r = 1 << -(-m.bit_length() // k)
        while (y := ((k - 1) * r + m // r ** (k - 1)) // k) < r:
            r = y
        if r**k == m:
            return r, k
    return None


def factor_int(n: int) -> dict[int, int]:
    """Factor |n| into proven primes, smallest first.

    Trial division by the primes below _TRIAL_BOUND, then each cofactor
    is tested by is_prime, taken apart as a perfect power r**k (rho's
    cost follows the least prime, however often it divides), or split
    by Brent's rho, until every part is prime.  A composite rho cannot
    split within its budget, or a prime that cannot be proven, raises
    FactorizationError rather than returning a partial answer:
    downstream "all but finitely many places" reports must never rest
    on an unproven factor.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            v = _vp_int(n, p)
            factors[p] = v
            n //= p**v
    cofactors = [(n, 1)] if n > 1 else []  # (m, e): m**e divides n
    while cofactors:
        m, e = cofactors.pop()
        if m < _TRIAL_BOUND**2 or is_prime(m):
            factors[m] = factors.get(m, 0) + e
        elif power := _perfect_power(m):
            cofactors.append((power[0], e * power[1]))
        else:
            d = _rho_split(m)
            cofactors += ((d, e), (m // d, e))
    return dict(sorted(factors.items()))


def principal_profile(x: Fraction | int) -> dict[int, int]:
    """Finite map {p: vp(x, p)} over the primes where the valuation is nonzero.

    An empty map certifies that x is a p-adic integer at every prime;
    for x != 0 it further certifies x is a p-adic unit outside the
    returned set, which is the idele finiteness condition.  Zero, a
    valid adele but not an idele, maps to the empty profile.
    """
    if x == 0:
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
