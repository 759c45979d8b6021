"""The four workloads: seeded inputs, one round of operations, and checks.

A workload is built in two steps.  ``params`` draws plain rationals from
the seed without touching the library; ``build`` turns them into library
objects and returns one round, a list of Op.  The benchmark repeats whole
rounds, so every run attempts the same operations in the same proportions.

Each Op carries the call to time and a check that compares the result
with bench/oracles.py.  Library functions are looked up when an op runs,
so the wrappers that bench/tracing.py installs are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, NamedTuple

import qmobius as Q

import oracles as O

ROOT = Path(__file__).resolve().parent.parent

@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _rf(rng: random.Random, height: int) -> F:
    return F(rng.randint(-height, height), rng.randint(1, height))


def _rf_nonzero(rng: random.Random, height: int) -> F:
    x = _rf(rng, height)
    while x == 0:
        x = _rf(rng, height)
    return x


def _same_map(f, m: tuple) -> None:
    O.require((f.a, f.b, f.c, f.d) == m, f"map {f} was built with the wrong coefficients (expected {m})")


# --- classify ----------------------------------------------------------------

CLASSIFY_SMALL = 186
CLASSIFY_TAIL = 14
SMALL_HEIGHT = 50
IMAGE_HEIGHT = 10**12
TAIL_PRIME_RANGE = (9 * 10**9, 10**10)
CLASSIFY_PLACES = (None, 2, 3, 5)

_N_SEMI = 1000003 * 1000033
_N_BIG = 2**89 - 1
# Parameters that fail at this commit, independent of the seed.
NAMED_FAILING = (
    ("semiprime-cofactor", F(_N_SEMI - 1, _N_SEMI + 1), 1, F(1), F(1), None),
    ("image-cofactor", F(-1251, 49), 1, F(-1251, 49), F(-1251, 49), F(-807, 23)),
    ("big-prime-cofactor", F(_N_BIG - 1, _N_BIG + 1), 1, F(1), F(1), None),
)


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if O.miller_rabin(n):
            return n


def classify_params(seed: int) -> list[tuple]:
    """(name, t, sign, a, c, x) per op; x is None where no image is checked.

    Small maps follow the acceptance suite (height <= 50) and get a point
    x whose image has height <= 10**12, so factoring it cannot exceed the
    library's trial-division bound.  Tail maps use t = (P-Q)/(P+Q) with P
    a prime in [9e9, 1e10) and Q a small odd number, so c*xi + d = +-P/Q
    and factor_int runs trial division to sqrt(P) on every call.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(CLASSIFY_SMALL):
        t = _rf(rng, SMALL_HEIGHT)
        while abs(t) == 1:
            t = _rf(rng, SMALL_HEIGHT)
        sign, a, c = rng.choice((1, -1)), _rf(rng, SMALL_HEIGHT), _rf_nonzero(rng, SMALL_HEIGHT)
        m = O.family_map(t, sign, a, c)
        while True:
            x = _rf(rng, SMALL_HEIGHT)
            image = O.apply(m, x)
            if image is not O.INF and max(abs(image.numerator), image.denominator) <= IMAGE_HEIGHT:
                break
        out.append(("classify-small", t, sign, a, c, x))
    for _ in range(CLASSIFY_TAIL):
        p, q = _random_prime(rng, *TAIL_PRIME_RANGE), 2 * rng.randint(0, 49) + 1
        out.append(("classify-tail", F(p - q, p + q), rng.choice((1, -1)),
                    _rf(rng, SMALL_HEIGHT), _rf_nonzero(rng, SMALL_HEIGHT), None))
    return out + list(NAMED_FAILING)


def classify_op(name: str, f, m: tuple, places: list, x: F | None) -> Op:
    """adelic_report, classify_at at the real place and 2, 3, 5, and for
    small maps check_adelic_image at a seeded point."""

    def run():
        reports = Q.adelic_report(f)
        at = [(r.fixed_point, place, Q.classify_at(f, r.fixed_point, place))
              for r in reports for place in places]
        image = None if x is None else Q.check_adelic_image(f, x)
        return reports, at, image

    def check(result):
        reports, at, image = result
        _same_map(f, m)
        O.check_reports(m, [r.to_json_dict() for r in reports])
        for xi, place, report in at:
            O.check_place_verdict(m, xi, place.prime, report.verdict.value, report.derivative_norm)
        dual = {(place.prime, str(report.verdict)) for xi, place, report in at if xi == reports[0].fixed_point}
        partner = {(place.prime, O.DUAL[str(report.verdict)]) for xi, place, report in at
                   if xi != reports[0].fixed_point}
        O.require(not partner or partner == dual, "classify_at verdicts are not dual across the pair")
        if x is not None:
            O.check_image_primes(m, x, image)

    return Op(name, run, check)


def _place_line(p: int | None) -> str:
    return f"place {'real' if p is None else p}"


def classify_setup(params: list[tuple]) -> list[str]:
    return ([f"family {t} {sign} {a} {c}" for _, t, sign, a, c, _ in params]
            + [_place_line(p) for p in CLASSIFY_PLACES])


def classify_build(params: list[tuple]) -> list[Op]:
    places = [Q.Place(p) for p in CLASSIFY_PLACES]
    ops = []
    for name, t, sign, a, c, x in params:
        f = Q.from_parameter(Q.FamilyParameter(t=t, sign=sign, a=a, c=c))
        ops.append(classify_op(name, f, O.family_map(t, sign, a, c), places, x))
    return ops


# --- orbits --------------------------------------------------------------------

GROWTH_ORBIT_N = 1500
GROWTH_TRACE_N = 300
# t = +-1/3 gives c*xi + d = +-2 or +-1/2, the multiplier class of the README
# map.  Fixing the class (and drawing a, c with _proper) keeps the bit growth
# per step, hence the cost of each op, nearly the same for every seed.
GROWTH_SEEDED_MAPS = 3
GROWTH_T = F(1, 3)
LONG_N = 1000
LONG_KMAX = 500
LONG_SPHERE_P = 97
LONG_SPHERE_STEPS = 10
LONG_TRACE_PLACES = (2, 3, 5, None)
# basin_sample's documented defaults: distance at the real place, valuation gain at p
BASIN_REAL_THRESHOLD = F(1, 10**6)
BASIN_VALUATION_GAIN = 20


def _avoiding(rng: random.Random, height: int, bad) -> F:
    x = _rf(rng, height)
    while x in bad:
        x = _rf(rng, height)
    return x


def _proper(rng: random.Random) -> F:
    """+-n/d in lowest terms with 2 <= n, d <= 9 and d != 1: a cost class
    that varies little from seed to seed."""
    while True:
        x = F(rng.choice((1, -1)) * rng.randint(2, 9), rng.randint(2, 9))
        if x.denominator != 1:
            return x


def run_orbit_op(f, m: tuple, x0, n: int) -> Op:
    return Op("run_orbit", lambda: Q.run_orbit(f, x0, n),
              lambda rec: O.check_orbit(m, x0, n, [None if isinstance(x, Q.Infinity) else x
                                                   for x in rec.points]))


def power_op(f, m: tuple, x0: F, n: int) -> Op:
    def check(x):
        want = O.hyperbolic_point(m, x0, n)
        O.require((None if isinstance(x, Q.Infinity) else x) == want, f"x_{n} by power differs from the closed form")

    return Op("power", lambda: f.power(n).apply(x0), check)


def trace_op(f, m: tuple, x0, xi: F, place, n: int) -> Op:
    return Op("distance_trace", lambda: Q.distance_trace(f, x0, xi, place, n),
              lambda tr: O.check_trace(m, x0, xi, place.prime, n, tr.values))


def basin_op(f, m: tuple, xi: F, place, grid: list[F], n: int) -> Op:
    threshold = BASIN_REAL_THRESHOLD if place.is_real else BASIN_VALUATION_GAIN

    def check(sample):
        got = [(t.initial, t.converged, t.steps_observed, t.hit_pole) for t in sample.tested]
        want = [(x0, *O.basin_verdict(m, x0, xi, place.prime, n, threshold)) for x0 in grid]
        O.require(got == want, f"basin verdicts {got} != oracle {want}")

    return Op("basin_sample", lambda: Q.basin_sample(f, xi, place, grid, n=n), check)


def period_op(f, m: tuple, k_max: int) -> Op:
    def check(k):
        O.require(k == O.projective_period(m, k_max), f"period {k} != oracle {O.projective_period(m, k_max)}")

    return Op("detect_period", lambda: Q.detect_period(f, k_max), check)


def sphere_op(f, m: tuple, xi: F, p: int, e: int, n: int) -> Op:
    def check(result):
        O.require(result == O.sphere_verdict(m, xi, p, e), f"sphere e={e} at p={p}: {result} != oracle")

    return Op("invariant_sphere_check",
              lambda: Q.invariant_sphere_check(f, xi, p, e, samples=p - 1, n=n), check)


def growth_params(seed: int) -> list[dict]:
    """The README map 2,0,1,1/2 from x0 = 1, then GROWTH_SEEDED_MAPS family maps."""
    rng = random.Random(seed)
    maps = [dict(m=(F(2), F(0), F(1), F(1, 2)), family=None, x0=F(1))]
    for _ in range(GROWTH_SEEDED_MAPS):
        family = (GROWTH_T * rng.choice((1, -1)), rng.choice((1, -1)), _proper(rng), _proper(rng))
        maps.append(dict(m=O.family_map(*family), family=family))
    for spec in maps:
        fixed = O.fixed_points(spec["m"])
        if "x0" not in spec:
            spec["x0"] = _avoiding(rng, 10, fixed)
        spec["grid"] = [_avoiding(rng, 10, fixed) for _ in range(2)]
    return maps


def growth_setup(params: list[dict]) -> list[str]:
    return ([f"map {' '.join(map(str, s['m']))}" if s["family"] is None else f"family {' '.join(map(str, s['family']))}"
             for s in params] + [_place_line(2), _place_line(None)])


def growth_build(params: list[dict]) -> list[Op]:
    ops = []
    for spec in params:
        m, x0, grid = spec["m"], spec["x0"], spec["grid"]
        f = Q.MobiusMap(*m) if spec["family"] is None else Q.from_parameter(Q.FamilyParameter(*spec["family"]))
        c, d = m[2], m[3]
        # attractor at 2: v2(c*xi + d) < 0; at the real place: |c*xi + d| > 1
        at2 = next(xi for xi in O.fixed_points(m) if O.vp(c * xi + d, 2) < 0)
        at_real = next(xi for xi in O.fixed_points(m) if abs(c * xi + d) > 1)
        two, real = Q.Place(2), Q.Place(None)
        ops += [
            run_orbit_op(f, m, x0, GROWTH_ORBIT_N),
            power_op(f, m, x0, GROWTH_ORBIT_N),
            trace_op(f, m, x0, at2, two, GROWTH_TRACE_N),
            trace_op(f, m, x0, at_real, real, GROWTH_TRACE_N),
            basin_op(f, m, at2, two, grid, GROWTH_TRACE_N),
            basin_op(f, m, at_real, real, grid, GROWTH_TRACE_N),
            period_op(f, m, GROWTH_TRACE_N),
        ]
    return ops


def long_params(seed: int) -> list[dict]:
    """One seeded map per fused family, each with a trace place and x0."""
    rng = random.Random(seed)
    maps = []
    for family, place in zip(("C", "C_sub", "D", "D_sub"), LONG_TRACE_PLACES):
        a, c, sign = _proper(rng), _proper(rng), rng.choice((1, -1))
        m = O.fused_map(family, a, c, sign)
        (xi,) = O.fixed_points(m)
        maps.append(dict(family=family, a=a, c=c, sign=sign, m=m, place=place, x0=xi + _proper(rng)))
    return maps


def long_setup(params: list[dict]) -> list[str]:
    return ([f"case {s['family']} {s['a']} {s['c']}" if s["family"] in ("C", "D") else
             f"case {s['family']} {s['c']} {s['sign']}" for s in params]
            + [_place_line(s["place"]) for s in params])


def long_build(params: list[dict]) -> list[Op]:
    build = {"C": lambda s: Q.case_C(s["a"], s["c"]), "C_sub": lambda s: Q.case_C_sub(s["c"], s["sign"]),
             "D": lambda s: Q.case_D(s["a"], s["c"]), "D_sub": lambda s: Q.case_D_sub(s["c"], s["sign"])}
    ops = []
    for spec in params:
        f, m, x0 = build[spec["family"]](spec), spec["m"], spec["x0"]
        (xi,) = O.fixed_points(m)
        vc = O.vp(m[2], LONG_SPHERE_P)
        ops += [
            run_orbit_op(f, m, x0, LONG_N),
            trace_op(f, m, x0, xi, Q.Place(spec["place"]), LONG_N),
            sphere_op(f, m, xi, LONG_SPHERE_P, vc - 1, LONG_SPHERE_STEPS),
            sphere_op(f, m, xi, LONG_SPHERE_P, vc + 1, LONG_SPHERE_STEPS),
            period_op(f, m, LONG_KMAX),
        ]
    return ops


# --- cli ---------------------------------------------------------------------

GOLDEN = ROOT / "tests" / "golden"
# The README examples, then the golden scenarios that the README does not
# already cover (classify --map 2,0,1,1/2 is both).
CLI_COMMANDS = (
    ("classify", "--map", "2,0,1,1/2"),
    ("fixed-points", "--map", "2,0,1,1/2"),
    ("orbit", "--map", "2,-1,1,0", "--x0", "2", "--n", "10"),
    ("trace", "--map", "2,0,1,1/2", "--x0", "1", "--xi", "0", "--place", "2", "--n", "30"),
    ("sphere-check", "--map", "2,-1,1,0", "--xi", "1", "--p", "3", "--rho-exp=-1", "--n", "200"),
    ("basin", "--map", "2,0,1,1/2", "--xi", "0", "--place", "2", "--grid", "1,3,1/3,5", "--n", "30"),
    ("period", "--map", "0,-1,1,0", "--kmax", "24"),
    ("cross-ratio", "--points", "0,1,2,3"),
    ("generate", "--t", "1/2", "--a", "2", "--c", "1"),
    ("preset", "--case", "C", "--a", "2", "--c", "1"),
    ("orbit", "--map", "2,-1,1,0", "--x0", "2", "--n", "3"),
    ("sphere-check", "--map", "2,-1,1,0", "--xi", "1", "--p", "3", "--rho-exp=-1", "--n", "50"),
)
GOLDEN_COMMANDS = {CLI_COMMANDS[0]: "classify", CLI_COMMANDS[10]: "orbit", CLI_COMMANDS[11]: "sphere"}
CLI_CHILD = "from qmobius.cli import run; run()"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _options(argv: tuple) -> dict:
    opts, rest = {}, list(argv[1:])
    while rest:
        key = rest.pop(0)
        if "=" in key:
            key, value = key.split("=", 1)
        else:
            value = rest.pop(0)
        opts[key[2:]] = value
    return opts


def _fixed_points_payload(f) -> dict:
    r = f.fixed_points()
    if isinstance(r, Q.RationalPair):
        return {"kind": "pair", "points": [str(r.point1), str(r.point2)]}
    if isinstance(r, Q.RationalDouble):
        return {"kind": "double", "point": str(r.point)}
    return {"kind": "irrational", "discriminant": str(r.discriminant)}


def library_payload(argv: tuple) -> dict:
    """What the library itself answers for a CLI command, field by field."""
    cmd, o = argv[0], _options(argv)
    f = Q.parse_map(o["map"]) if "map" in o else None
    if cmd == "fixed-points":
        return {"map": str(f), "fixed_points": _fixed_points_payload(f)}
    if cmd == "classify":
        return {"map": str(f), "reports": [r.to_json_dict() for r in Q.adelic_report(f)]}
    if cmd == "orbit":
        return {"map": str(f), **Q.run_orbit(f, Q.parse_point(o["x0"]), int(o["n"])).to_json_dict()}
    if cmd == "trace":
        x0 = Q.parse_point(o["x0"])
        tr = Q.distance_trace(f, x0, F(o["xi"]), Q.Place(None if o["place"] == "real" else int(o["place"])),
                              int(o["n"]))
        return {"map": str(f), "x0": Q.format_point(x0), **tr.to_json_dict()}
    if cmd == "sphere-check":
        xi, p, e, samples, n = F(o["xi"]), int(o["p"]), int(o["rho-exp"]), int(o.get("samples", 2)), int(o["n"])
        ok, witness = Q.invariant_sphere_check(f, xi, p, e, samples=samples, n=n)
        radius = Q.siegel_radius(f, p)
        return {"map": str(f), "xi": str(xi), "p": p, "rho_exponent": e, "samples": samples, "n": n,
                "invariant": ok, "siegel_exponent": radius.radius_exponent, "siegel_caveat": radius.caveat,
                "witness": None if witness is None else {"x0": str(witness[0]), "step": witness[1]}}
    if cmd == "basin":
        place = Q.Place(None if o["place"] == "real" else int(o["place"]))
        sample = Q.basin_sample(f, F(o["xi"]), place, [F(t) for t in o["grid"].split(",")], n=int(o["n"]))
        return {"map": str(f), "n": int(o["n"]), **sample.to_json_dict()}
    if cmd == "period":
        return {"map": str(f), "kmax": int(o["kmax"]), "period": Q.detect_period(f, int(o["kmax"]))}
    if cmd == "cross-ratio":
        points = [Q.parse_point(t) for t in o["points"].split(",")]
        return {"points": [Q.format_point(x) for x in points], "value": str(Q.cross_ratio(*points))}
    if cmd == "generate":
        fp = Q.FamilyParameter(t=F(o["t"]), sign=int(o.get("sign", 1)), a=F(o["a"]), c=F(o["c"]))
        g = Q.from_parameter(fp)
        return {"t": str(fp.t), "sign": fp.sign, "map": str(g), "fixed_points": _fixed_points_payload(g)}
    if cmd == "preset" and o["case"] == "C":
        g = Q.case_C(F(o["a"]), F(o["c"]))
        return {"case": "C", "map": str(g), "fixed_points": _fixed_points_payload(g)}
    raise ValueError(f"no payload rule for {argv}")


def check_cli_output(argv: tuple, as_json: bool, result: tuple) -> None:
    """Exit 0, nothing on stderr, the library's payload, and the golden file where one exists."""
    code, out, err = result
    O.require(code == 0 and err == "", f"{' '.join(argv)}: exit {code}, stderr {err!r}")
    payload = library_payload(argv)
    if as_json:
        O.require(json.loads(out) == payload, f"{' '.join(argv)} --json differs from the library's answer")
    else:
        O.require(out == O.render_table(payload) + "\n", f"{' '.join(argv)}: text differs from the payload")
    golden = GOLDEN_COMMANDS.get(argv)
    if golden is not None:
        want = (GOLDEN / f"{golden}.{'json' if as_json else 'txt'}").read_text()
        O.require(out == want, f"{' '.join(argv)}: output differs from tests/golden/{golden}")


class CliRun(NamedTuple):
    code: int
    out: str
    err: str
    rss_kb: int = 0  # the child's peak resident set; 0 when run in-process


def subprocess_cli(argv: list[str]) -> CliRun:
    """Run one command in a fresh interpreter through qmobius.cli.run."""
    proc = subprocess.Popen([sys.executable, "-c", CLI_CHILD, *argv], cwd=ROOT, env=cli_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.stdout.read(), proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(proc.returncode, out, err, usage.ru_maxrss)


def inprocess_cli(argv: list[str]) -> CliRun:
    """main(argv) in this process with stdout and stderr captured."""
    import qmobius.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qmobius.cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def cli_op(argv: tuple, as_json: bool, runner: Callable) -> Op:
    full = list(argv) + (["--json"] if as_json else [])
    return Op(argv[0] + (" --json" if as_json else ""), lambda: runner(full),
              lambda result: check_cli_output(argv, as_json, result[:3]))


def cli_params(seed: int) -> tuple:
    """The commands are fixed; the seed only shuffles their order."""
    commands = [(argv, as_json) for argv in CLI_COMMANDS for as_json in (False, True)]
    random.Random(seed).shuffle(commands)
    return tuple(commands)


def cli_build(params: tuple, runner: Callable = subprocess_cli) -> list[Op]:
    import qmobius.cli  # noqa: F401  (the import is part of this workload's set-up)

    return [cli_op(argv, as_json, runner) for argv, as_json in params]


def cli_setup(params: tuple) -> list[str]:
    return ["cli"]


PARAMS = {"classify": classify_params, "orbit-growth": growth_params, "orbit-long": long_params,
          "cli": cli_params}
BUILD = {"classify": classify_build, "orbit-growth": growth_build, "orbit-long": long_build,
         "cli": cli_build}
# What a fresh interpreter builds to measure setup_s (bench/setup_probe.py).
SETUP = {"classify": classify_setup, "orbit-growth": growth_setup, "orbit-long": long_setup,
         "cli": cli_setup}
