"""Command-line frontend: construction, classification, orbits, periodicity.

Every subcommand builds one payload dictionary and prints it either as
an indented text table (default) or as a single JSON document (--json),
so the two modes can never disagree about values.

Two tables declare the interface.  _FLAGS states each flag once: its
argparse keywords and, for text the library parses, its parser.
_COMMANDS states each command once: its handler, its help and its flags.
The parser, the dispatch and the usage line are all built from them, and
a handler takes the parsed values as keywords and returns the payload.

Exit codes: 0 success; 2 invalid input, with a diagnostic naming the
violated invariant; 3 resource-budget aborts (orbit bit budget,
factorization bound); 64 unknown or missing subcommand.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from fractions import Fraction

from .classify import _rational_fixed_points, adelic_report, classify_at, siegel_radius
from .mobius import (
    MobiusMap,
    ProjectivePoint,
    RationalDouble,
    RationalPair,
    cross_ratio,
    detect_period,
    case_A,
    case_B,
    case_C,
    case_C_sub,
    case_D,
    case_D_sub,
    FamilyParameter,
    format_point,
    from_parameter,
    parse_map,
    parse_point,
)
from .orbit import (
    DEFAULT_MAX_BITS,
    SizeBudgetError,
    basin_sample,
    distance_trace,
    invariant_sphere_check,
    run_orbit,
)
from .padic import FactorizationError, Place, parse_rational

__all__ = ["main", "run"]


def _parse_place(text: str) -> Place:
    text = text.strip()
    if text == "real":
        return Place.real()
    try:
        p = int(text)
    except ValueError:
        raise ValueError(f"place must be 'real' or a prime: got {text!r}") from None
    return Place.finite(p)


def _parse_grid(text: str) -> list[Fraction]:
    return [parse_rational(t) for t in text.split(",")]


def _parse_points(text: str) -> list[ProjectivePoint]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated points: {text!r}")
    return [parse_point(t) for t in parts]


def _fixed_points_payload(f: MobiusMap) -> dict:
    result = f.fixed_points()
    if isinstance(result, RationalPair):
        return {"kind": "pair", "points": [str(result.point1), str(result.point2)]}
    if isinstance(result, RationalDouble):
        return {"kind": "double", "point": str(result.point)}
    return {"kind": "irrational", "discriminant": str(result.discriminant)}


def _cmd_fixed_points(map: MobiusMap) -> dict:
    return {"map": str(map), "fixed_points": _fixed_points_payload(map)}


def _cmd_classify(map: MobiusMap, place: Place | None) -> dict:
    if place is None:
        return {"map": str(map), "reports": [r.to_json_dict() for r in adelic_report(map)]}
    reports = []
    for xi in _rational_fixed_points(map):
        r = classify_at(map, xi, place)
        reports.append(
            {"fixed_point": str(xi), "verdict": str(r.verdict), "derivative_norm": str(r.derivative_norm)}
        )
    return {"map": str(map), "place": str(place), "reports": reports}


def _cmd_orbit(map: MobiusMap, x0: ProjectivePoint, n: int, max_bits: int) -> dict:
    return {"map": str(map), **run_orbit(map, x0, n, max_bits=max_bits).to_json_dict()}


def _cmd_trace(
    map: MobiusMap, x0: ProjectivePoint, xi: Fraction, place: Place, n: int, max_bits: int
) -> dict:
    trace = distance_trace(map, x0, xi, place, n, max_bits=max_bits)
    return {"map": str(map), "x0": format_point(x0), **trace.to_json_dict()}


def _cmd_sphere_check(
    map: MobiusMap, xi: Fraction, p: int, rho_exp: int, samples: int, n: int, max_bits: int
) -> dict:
    ok, witness = invariant_sphere_check(map, xi, p, rho_exp, samples=samples, n=n, max_bits=max_bits)
    payload = {
        "map": str(map),
        "xi": str(xi),
        "p": p,
        "rho_exponent": rho_exp,
        "samples": samples,
        "n": n,
        "invariant": ok,
    }
    if map.a != 0:
        radius = siegel_radius(map, p)
        payload["siegel_exponent"] = radius.radius_exponent
        payload["siegel_caveat"] = radius.caveat
    payload["witness"] = None if witness is None else {"x0": str(witness[0]), "step": witness[1]}
    return payload


def _cmd_basin(
    map: MobiusMap, place: Place, grid: list[Fraction], xi: Fraction, n: int, max_bits: int
) -> dict:
    sample = basin_sample(map, xi, place, grid, n=n, max_bits=max_bits)
    return {"map": str(map), "n": n, **sample.to_json_dict()}


def _cmd_period(map: MobiusMap, kmax: int) -> dict:
    return {"map": str(map), "kmax": kmax, "period": detect_period(map, kmax)}


def _cmd_cross_ratio(points: list[ProjectivePoint]) -> dict:
    return {"points": [format_point(x) for x in points], "value": str(cross_ratio(*points))}


def _cmd_generate(t: str, sign: int, a: str, c: str) -> dict:
    fp = FamilyParameter(t=parse_rational(t), sign=sign, a=parse_rational(a), c=parse_rational(c))
    f = from_parameter(fp)
    return {"t": str(fp.t), "sign": fp.sign, "map": str(f), "fixed_points": _fixed_points_payload(f)}


def _cmd_preset(case: str, a: str | None, c: str | None, t: str | None, sign: int) -> dict:
    names, build = _PRESETS[case]
    given = {"a": a, "c": c, "t": t}
    missing = ", ".join(f"--{name}" for name in names if given[name] is None)
    if missing:
        raise ValueError(f"case {case} requires {missing}")
    f = build(*(parse_rational(given[name]) for name in names), sign)
    return {"case": case, "map": str(f), "fixed_points": _fixed_points_payload(f)}


# case -> (flags the family needs, constructor called with them and --sign)
_PRESETS = {
    "A": (("a", "c"), lambda a, c, sign: case_A(a, c)),
    "B": (("t",), lambda t, sign: case_B(t)),
    "C": (("a", "c"), lambda a, c, sign: case_C(a, c)),
    "C2": (("c",), case_C_sub),
    "D": (("a", "c"), lambda a, c, sign: case_D(a, c)),
    "D2": (("c",), case_D_sub),
}

# dest -> (argparse keywords, library parser of the flag's text).  main runs
# the parser inside its error handling: as argparse's type= it would lose a
# ValueError's text and let FactorizationError escape.  None where argparse
# reads the value (type=int) or the handler parses it: preset parses only the
# flags its case takes.
_FLAGS = {
    "map": (dict(required=True, metavar="a,b,c,d", help="coefficients, det = 1"), parse_map),
    "x0": (dict(required=True, help="initial point (rational or inf)"), parse_point),
    "xi": (dict(required=True, help="fixed point"), parse_rational),
    "place": (dict(required=True, help="real or a prime"), _parse_place),
    "grid": (dict(required=True, help="comma-separated initial points"), _parse_grid),
    "points": (dict(required=True, metavar="p1,p2,p3,p4", help="points, at most one inf"), _parse_points),
    "p": (dict(type=int, required=True, help="prime"), None),
    "rho_exp": (dict(type=int, required=True, help="sphere radius exponent e: |x-xi|_p = p**e"), None),
    "samples": (dict(type=int, default=2, help="sphere samples (default %(default)s)"), None),
    "n": (dict(type=int, default=100, help="steps per orbit (default %(default)s)"), None),
    "max_bits": (dict(type=int, default=DEFAULT_MAX_BITS,
                      help="abort when an orbit entry outgrows this bit size (default %(default)s)"), None),
    "kmax": (dict(type=int, default=24, help="search bound (default %(default)s)"), None),
    "case": (dict(required=True, choices=tuple(_PRESETS)), None),
    "t": (dict(required=True, help="rational parameter, t != +-1"), None),
    "a": (dict(required=True, help="free coefficient a"), None),
    "c": (dict(required=True, help="free coefficient c, nonzero"), None),
    "sign": (dict(type=int, choices=(1, -1), default=1, help="trace branch"), None),
}

# command -> (handler, help, flags in --help order).  A flag is a key of
# _FLAGS, or (key, keywords that replace some of _FLAGS's for this command).
# main parses the flags in the order the handler takes them, which keeps the
# first bad value each command reports: basin lists --xi before --place but
# parses it last, where trace parses --xi before --place.
_COMMANDS = {
    "fixed-points": (_cmd_fixed_points, "solve f(x) = x exactly", ("map",)),
    "classify": (_cmd_classify, "per-place verdicts for every rational fixed point",
                 ("map", ("place", dict(required=False, help="restrict to one place: real or a prime")))),
    "orbit": (_cmd_orbit, "iterate the map exactly", ("map", "x0", "n", "max_bits")),
    "trace": (_cmd_trace, "per-step exact distances to a fixed point",
              ("map", "x0", "xi", "place", "n", "max_bits")),
    "sphere-check": (_cmd_sphere_check, "verify a sphere around a fixed point is invariant",
                     ("map", "xi", "p", "rho_exp", "samples", "n", "max_bits")),
    "basin": (_cmd_basin, "test grid points for convergence to an attractor",
              ("map", "xi", "place", "grid", "n", "max_bits")),
    "period": (_cmd_period, "smallest k with f**k = identity on the projective line", ("map", "kmax")),
    "cross-ratio": (_cmd_cross_ratio, "Mobius-invariant of four distinct points", ("points",)),
    "generate": (_cmd_generate, "build a map with rational fixed points from (t, sign, a, c)",
                 ("t", "sign", "a", "c")),
    "preset": (_cmd_preset, "one of the named families", (
        "case",
        ("a", dict(required=False, help="coefficient a (cases A, C, D)")),
        ("c", dict(required=False, help="coefficient c (all but B)")),
        ("t", dict(required=False, help="parameter t (case B)")),
        ("sign", dict(help="branch (cases C2, D2)")),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmobius",
        description="Exact real and p-adic dynamics of maps (ax+b)/(cx+d) with ad-bc = 1, c != 0.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        for flag in flags:
            key, keywords = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument("--" + key.replace("_", "-"), **{**_FLAGS[key][0], **keywords})
    return parser


def _scalar(value: object) -> str:
    return json.dumps(value) if value is None or isinstance(value, bool) else str(value)


def _table_lines(value: object, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_table_lines(item, indent + 1))
            elif isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}: (none)")
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                sub = _table_lines(item, indent + 1)
                lines.append(f"{pad}- {sub[0].lstrip()}")
                lines.extend(sub[1:])
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def render_table(payload: dict) -> str:
    return "\n".join(_table_lines(payload, 0))


# Joins "--flag -3,-4,1,1" into "--flag=-3,-4,1,1": argparse takes a token that
# starts with "-" for an option unless it reads as a number like -3 or -1.5, and
# no option here starts with "-" and a digit.
def _attach_signed_values(argv: list[str]) -> list[str]:
    joined: list[str] = []
    for arg in argv:
        prev = joined[-1] if joined else ""
        if prev.startswith("--") and "=" not in prev and arg[:1] == "-" and arg[1:2].isdecimal():
            joined[-1] = f"{prev}={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    argv = _attach_signed_values(sys.argv[1:] if argv is None else argv)
    first_positional = next((a for a in argv if not a.startswith("-")), None)
    asks_help = first_positional is None and any(a in ("-h", "--help") for a in argv)
    if first_positional not in _COMMANDS and not asks_help:
        if first_positional is not None:
            print(f"unknown command: {first_positional!r}", file=sys.stderr)
        print("usage: qmobius <command> [options]; commands: " + ", ".join(_COMMANDS), file=sys.stderr)
        return 64

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    handler = _COMMANDS[args.command][0]
    try:
        values = {}
        for dest in inspect.signature(handler).parameters:  # the parse order, see _COMMANDS
            text, parse = getattr(args, dest), _FLAGS[dest][1]
            values[dest] = text if text is None or parse is None else parse(text)
        payload = handler(**values)
    except (ValueError, SizeBudgetError, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3
    print(json.dumps(payload, indent=2) if args.json else render_table(payload))
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
