"""Independent oracles for the benchmark's correctness checks.

Nothing here imports qmobius.  Every expected value is derived from a
closed form or an identity, never from a stored copy of the library's
output:

- fixed points solve a*xi + b = xi*(c*xi + d) directly;
- a hyperbolic orbit is x_n = g^-1(mu^n * g(x0)) with
  g(x) = (x - xi1)/(x - xi2) and mu = f'(xi1) = 1/(c*xi1 + d)^2;
- a fused (parabolic) orbit is 1/(x_n - xi) = 1/(x0 - xi) + n*c/(c*xi + d);
- verdicts follow from |c*xi + d|_v, since f'(xi) = 1/(c*xi + d)^2;
- sphere verdicts follow from f(x) - xi = (x - xi)/((c*xi + d)(c*x + d));
- a finite projective order needs trace 0 (order 2) or trace +-1 (order 3).

A check raises CheckError naming the first disagreement.  The point at
infinity is None throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = None

# Deterministic for n below 3.3e24, far above any prime a check meets (about
# 1e12); above it the answer is a strong probable prime for 20 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


class CheckError(AssertionError):
    """The library's answer disagrees with the oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def miller_rabin(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_prime_cache: dict[int, bool] = {}


def is_prime(n: int) -> bool:
    """Primality by miller_rabin, remembered per n for cross_check_primes.

    sympy is not imported here, so that its memory stays out of the
    measured process's peak_rss_mb.
    """
    if n not in _prime_cache:
        _prime_cache[n] = miller_rabin(n)
    return _prime_cache[n]


def cross_check_primes() -> str:
    """Confirm every verdict is_prime has given with sympy.isprime, when
    sympy can be imported, and name the oracle that decided."""
    try:
        from sympy import isprime
    except ImportError:
        return "miller-rabin (bench/oracles.py)"
    for n, prime in _prime_cache.items():
        require(bool(isprime(n)) == prime, f"miller-rabin and sympy.isprime disagree on {n}")
    return f"miller-rabin, confirmed by sympy.isprime on {len(_prime_cache)} numbers"


def v2(n: int) -> int:
    """2-adic valuation of a nonzero integer by a bit trick."""
    return (n & -n).bit_length() - 1


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, stripping p**(2**k) chunks."""
    n = abs(n)
    if p == 2:
        return v2(n)
    v = 0
    while n % p == 0:
        power, step = p, 1
        while n % (power * power) == 0:
            power *= power
            step *= 2
        n //= power
        v += step
    return v


def vp(x: Fraction, p: int) -> int:
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        return None
    return Fraction(num, den)


def apply(m: tuple, x):
    """(ax+b)/(cx+d) on the projective line."""
    a, b, c, d = m
    if x is INF:
        return a / c
    den = c * x + d
    return INF if den == 0 else (a * x + b) / den


def fixed_points(m: tuple) -> tuple[Fraction, ...]:
    """Rational roots of c*xi^2 + (d - a)*xi - b = 0: (+root, -root), or one."""
    a, b, c, d = m
    disc = (a + d) ** 2 - 4
    root = rational_sqrt(disc)
    require(root is not None, f"map {m} has irrational fixed points")
    points = ((a - d + root) / (2 * c), (a - d - root) / (2 * c))
    for xi in points:
        require(a * xi + b == xi * (c * xi + d), f"oracle fixed point {xi} fails a*xi+b = xi*(c*xi+d)")
    return points[:1] if root == 0 else points


def verdict(norm_exponent_sign: int) -> str:
    """attractor/repeller/indifferent from the sign of log|f'(xi)|."""
    return "attractor" if norm_exponent_sign < 0 else "repeller" if norm_exponent_sign > 0 else "indifferent"


DUAL = {"attractor": "repeller", "repeller": "attractor", "indifferent": "indifferent"}


def real_verdict(m: tuple, xi: Fraction) -> str:
    """|f'(xi)| = 1/(c*xi + d)^2 is below 1 exactly when |c*xi + d| > 1."""
    u = abs(m[2] * xi + m[3])
    return verdict((u < 1) - (u > 1))


def padic_exponent(m: tuple, xi: Fraction, p: int) -> int:
    """e with |f'(xi)|_p = p**e, namely 2*vp(c*xi + d)."""
    return 2 * vp(m[2] * xi + m[3], p)


# --- classify -------------------------------------------------------------


def check_exceptional(m: tuple, xi: Fraction, entries: list[tuple[int, str, int]]) -> None:
    """entries are (p, verdict, deriv_norm_exp), smallest p first.

    prod p**(deriv_norm_exp/2) must equal |c*xi + d| and every p must be
    prime, which by unique factorization makes the list complete.
    """
    primes = [p for p, _, _ in entries]
    require(primes == sorted(set(primes)), f"exceptional primes not strictly increasing: {primes}")
    product = Fraction(1)
    for p, v, e in entries:
        require(is_prime(p), f"listed exceptional place {p} is not prime")
        require(e != 0 and e % 2 == 0, f"deriv_norm_exp {e} at p={p} is not a nonzero even integer")
        require(v == verdict(e), f"verdict {v} at p={p} contradicts exponent {e}")
        product *= Fraction(p) ** (e // 2)
    require(product == abs(m[2] * xi + m[3]),
            f"prod p^(e/2) = {product} != |c*xi+d| = {abs(m[2] * xi + m[3])} at xi={xi}")


def check_reports(m: tuple, reports: list[dict]) -> None:
    """Check adelic reports given as to_json_dict() payloads."""
    expected = fixed_points(m)
    got = tuple(Fraction(r["fixed_point"]) for r in reports)
    require(got == expected, f"fixed points {got} != oracle {expected}")
    for r in reports:
        xi = Fraction(r["fixed_point"])
        require(r["real"] == real_verdict(m, xi), f"real verdict {r['real']} wrong at xi={xi}")
        require(r["default"] == "indifferent", f"default verdict {r['default']}")
        check_exceptional(m, xi, [(e["p"], e["verdict"], e["deriv_norm_exp"]) for e in r["exceptional"]])
    if len(reports) == 2:
        a, b, c, d = m
        x1, x2 = got
        require(x1 * x2 == -b / c, "pair relation xi1*xi2 = -b/c fails")
        require((c * x1 + d) ** 2 * (c * x2 + d) ** 2 == 1, "pair relation f'(xi1)f'(xi2) = 1 fails")
        r1, r2 = reports
        require(r2["real"] == DUAL[r1["real"]], "real verdicts are not dual")
        dual = [(e["p"], DUAL[e["verdict"]], -e["deriv_norm_exp"]) for e in r1["exceptional"]]
        require(dual == [(e["p"], e["verdict"], e["deriv_norm_exp"]) for e in r2["exceptional"]],
                "exceptional lists are not dual")


def check_place_verdict(m: tuple, xi: Fraction, p: int | None, verdict_text: str, norm) -> None:
    """classify_at at one place: verdict and exact derivative norm."""
    if p is None:
        require(norm.value == 1 / (m[2] * xi + m[3]) ** 2, f"real |f'({xi})| = {norm.value} is wrong")
        require(verdict_text == real_verdict(m, xi), f"real verdict {verdict_text} wrong at xi={xi}")
        return
    e = padic_exponent(m, xi, p)
    require(norm.exponent == e, f"|f'({xi})|_{p} exponent {norm.exponent} != {e}")
    require(verdict_text == verdict(e), f"verdict {verdict_text} at p={p} contradicts exponent {e}")


def check_image_primes(m: tuple, x: Fraction, primes: list[int]) -> None:
    """The primes with |f(x)|_p > 1 are exactly those dividing the denominator of f(x)."""
    image = apply(m, x)
    require(image is not INF, f"image of {x} is infinite")
    require(primes == sorted(set(primes)), f"image primes not strictly increasing: {primes}")
    rest = image.denominator
    for p in primes:
        require(is_prime(p), f"listed image prime {p} is not prime")
        require(rest % p == 0, f"{p} does not divide the image denominator {image.denominator}")
        while rest % p == 0:
            rest //= p
    require(rest == 1, f"image denominator {image.denominator} keeps the factor {rest} off the list")


# --- orbits ----------------------------------------------------------------


def hyperbolic_orbit(m: tuple, x0, n: int):
    """x_0..x_n from the conjugacy x_k = g^-1(mu^k * g(x0)), yielded lazily."""
    c, d = m[2], m[3]
    xi1, xi2 = fixed_points(m)
    mu = 1 / (c * xi1 + d) ** 2
    if x0 is INF:
        y = Fraction(1)
    elif x0 == xi2:
        yield from (xi2 for _ in range(n + 1))
        return
    else:
        y = (x0 - xi1) / (x0 - xi2)
    for _ in range(n + 1):
        yield INF if y == 1 else (xi1 - xi2 * y) / (1 - y)
        y *= mu


def hyperbolic_point(m: tuple, x0: Fraction, n: int):
    """x_n alone: one power of mu instead of n steps."""
    c, d = m[2], m[3]
    xi1, xi2 = fixed_points(m)
    if x0 == xi2:
        return xi2
    y = (x0 - xi1) / (x0 - xi2) * (1 / (c * xi1 + d) ** 2) ** n
    return INF if y == 1 else (xi1 - xi2 * y) / (1 - y)


def fused_orbit(m: tuple, x0, n: int):
    """x_0..x_n from 1/(x_k - xi) = 1/(x0 - xi) + k*c/(c*xi + d), lazily."""
    (xi,) = fixed_points(m)
    kappa = m[2] / (m[2] * xi + m[3])
    if x0 == xi:
        yield from (xi for _ in range(n + 1))
        return
    w = Fraction(0) if x0 is INF else 1 / (x0 - xi)
    for _ in range(n + 1):
        yield INF if w == 0 else xi + 1 / w
        w += kappa


def family_map(t: Fraction, sign: int, a: Fraction, c: Fraction) -> tuple:
    """The family member with parameter (t, sign, a, c): trace and
    discriminant root sign*2(1+t^2)/(1-t^2) and 4t/(1-t^2), det 1."""
    trace = sign * 2 * (1 + t * t) / (1 - t * t)
    delta = 4 * t / (1 - t * t)
    d = trace - a
    return a, ((delta * delta - a * a - d * d) / 2 + 1) / c, c, d


def fused_map(family: str, a: Fraction, c: Fraction, sign: int) -> tuple:
    """Coefficients of the named fused families, from their definitions."""
    if family == "C":
        return a, -((a - 1) ** 2) / c, c, 2 - a
    if family == "C_sub":
        a = c + sign
        return a, -c, c, a - 2 * c
    if family == "D":
        return a, -((a + 1) ** 2) / c, c, -a - 2
    a = -c + sign
    return a, -c, c, a + 2 * c


def closed_orbit(m: tuple, x0, n: int):
    return fused_orbit(m, x0, n) if len(fixed_points(m)) == 1 else hyperbolic_orbit(m, x0, n)


def check_orbit(m: tuple, x0, n: int, points) -> None:
    require(len(points) == n + 1, f"orbit has {len(points)} points, expected {n + 1}")
    for k, (got, want) in enumerate(zip(points, closed_orbit(m, x0, n))):
        require(got == want, f"orbit entry {k} differs from the closed form")


def check_trace(m: tuple, x0, xi: Fraction, p: int | None, n: int, values) -> None:
    """values are NormValue-like (value, exponent, is_zero) or None at infinity."""
    require(len(values) == n + 1, f"trace has {len(values)} entries, expected {n + 1}")
    for k, (got, x) in enumerate(zip(values, closed_orbit(m, x0, n))):
        if x is INF:
            require(got is None, f"trace entry {k} should be undefined (orbit at infinity)")
            continue
        dist = x - xi
        require(got is not None, f"trace entry {k} is undefined but x_{k} is finite")
        if p is None:
            require(got.value == abs(dist), f"real trace entry {k} differs from the closed form")
        elif dist == 0:
            require(got.is_zero, f"trace entry {k} should be zero")
        else:
            want = v2(dist.numerator) - v2(dist.denominator) if p == 2 else vp(dist, p)
            require(got.exponent == -want, f"{p}-adic trace entry {k}: valuation {-got.exponent} != {want}")


def basin_verdict(m: tuple, x0: Fraction, xi: Fraction, p: int | None, n: int,
                  threshold) -> tuple[bool, int, bool]:
    """(converged, steps_observed, hit_pole) by the criterion documented on basin_sample.

    Only the segment after the last pole passage is judged.  At a finite
    place it converges when the valuation of x_k - xi gains at least
    ``threshold`` and rises strictly over the final quarter; at the real
    place when |x_n - xi| < threshold and the distance falls strictly over
    the final quarter.  Reaching xi exactly converges at once.  steps is
    where the gain or the distance first meets the threshold (else the
    last step), counted from x_0.
    """
    points = list(closed_orbit(m, x0, n))
    poles = [k for k, x in enumerate(points) if x is INF]
    start = poles[-1] + 1 if poles else 0
    tail = points[start:]
    if not tail:
        return False, n, bool(poles)
    for k, x in enumerate(tail):
        if x == xi:
            return True, start + k, bool(poles)
    if p is None:
        score = [-abs(x - xi) for x in tail]  # larger is closer
        met = [abs(x - xi) < threshold for x in tail]
        final = met[-1]
    else:
        score = [vp(x - xi, p) for x in tail]
        met = [s - score[0] >= threshold for s in score]
        final = met[-1]
    last = len(tail) - 1
    rising = all(score[k + 1] > score[k] for k in range(3 * last // 4, last))
    first = next((k for k, ok in enumerate(met) if ok), last)
    return final and rising, start + first, bool(poles)


def sphere_verdict(m: tuple, xi: Fraction, p: int, e: int) -> tuple[bool, tuple | None]:
    """Invariance of |x - xi|_p = p**e around an indifferent xi.

    With y = x - xi and |c*xi + d|_p = 1, f(x) - xi = y/((c*xi+d)(c*y + c*xi+d)).
    For e < vp(c), |c*y|_p < 1, so every step keeps |y|_p: invariant.  For
    e > vp(c), |c*y|_p > 1, so the first step shrinks |y|_p and the first
    sample xi + p**-e leaves at step 1.
    """
    c, d = m[2], m[3]
    require(vp(c * xi + d, p) == 0, f"{xi} is not indifferent at {p}")
    vc = vp(c, p)
    require(e != vc, "sphere with e = vp(c) has no closed-form verdict")
    if e < vc:
        return True, None
    return False, (xi + Fraction(p) ** (-e), 1)


def projective_period(m: tuple, k_max: int) -> int | None:
    """Smallest k <= k_max with F**k scalar: with c != 0 only traces 0 and +-1 qualify."""
    trace = m[0] + m[3]
    order = 2 if trace == 0 else 3 if abs(trace) == 1 else None
    return order if order is not None and order <= k_max else None


# --- CLI rendering -----------------------------------------------------------


def render_table(payload) -> str:
    """The documented text form of a payload: one "key: value" per line,
    nested blocks indented two spaces, list items prefixed "- ", empty
    containers as "(none)", JSON spellings for null and booleans."""
    return "\n".join(_lines(payload, ""))


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _lines(value, pad: str) -> list[str]:
    out: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                if item:
                    out.append(f"{pad}{key}:")
                    out.extend(_lines(item, pad + "  "))
                else:
                    out.append(f"{pad}{key}: (none)")
            else:
                out.append(f"{pad}{key}: {_scalar(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                nested = _lines(item, pad + "  ")
                out.append(f"{pad}- {nested[0].lstrip()}")
                out.extend(nested[1:])
            else:
                out.append(f"{pad}- {_scalar(item)}")
    else:
        out.append(pad + _scalar(value))
    return out
