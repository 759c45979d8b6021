"""Command-line frontend: construction, classification, orbits, periodicity.

Every subcommand builds one payload dictionary and prints it either as
an indented text table (default) or as a single JSON document (--json),
so the two modes can never disagree about values.

Exit codes: 0 success; 2 invalid input, with a diagnostic naming the
violated invariant; 3 resource-budget aborts (orbit bit budget,
factorization bound); 64 unknown or missing subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import adelic_report, classify_at, siegel_radius
from .mobius import (
    IrrationalPair,
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


def _fixed_points_payload(f: MobiusMap) -> dict:
    result = f.fixed_points()
    if isinstance(result, RationalPair):
        return {
            "kind": "pair",
            "points": [str(result.point1), str(result.point2)],
        }
    if isinstance(result, RationalDouble):
        return {"kind": "double", "point": str(result.point)}
    return {"kind": "irrational", "discriminant": str(result.discriminant)}


def _cmd_fixed_points(args: argparse.Namespace) -> dict:
    f = parse_map(args.map)
    return {"map": str(f), "fixed_points": _fixed_points_payload(f)}


def _cmd_classify(args: argparse.Namespace) -> dict:
    f = parse_map(args.map)
    if args.place is None:
        return {"map": str(f), "reports": [r.to_json_dict() for r in adelic_report(f)]}
    place = _parse_place(args.place)
    result = f.fixed_points()
    if isinstance(result, IrrationalPair):
        raise ValueError("fixed points not rational; out of scope")
    points = [result.point] if isinstance(result, RationalDouble) else [result.point1, result.point2]
    reports = []
    for xi in points:
        r = classify_at(f, xi, place)
        reports.append(
            {
                "fixed_point": str(xi),
                "verdict": str(r.verdict),
                "derivative_norm": str(r.derivative_norm),
            }
        )
    return {"map": str(f), "place": str(place), "reports": reports}


def _cmd_orbit(args: argparse.Namespace) -> dict:
    f = parse_map(args.map)
    record = run_orbit(f, parse_point(args.x0), args.n, max_bits=args.max_bits)
    return {"map": str(f), **record.to_json_dict()}


def _cmd_trace(args: argparse.Namespace) -> dict:
    f = parse_map(args.map)
    x0 = parse_point(args.x0)
    trace = distance_trace(
        f,
        x0,
        parse_rational(args.xi),
        _parse_place(args.place),
        args.n,
        max_bits=args.max_bits,
    )
    return {"map": str(f), "x0": format_point(x0), **trace.to_json_dict()}


def _cmd_sphere_check(args: argparse.Namespace) -> dict:
    f = parse_map(args.map)
    xi = parse_rational(args.xi)
    ok, witness = invariant_sphere_check(
        f, xi, args.p, args.rho_exp, samples=args.samples, n=args.n, max_bits=args.max_bits
    )
    payload = {
        "map": str(f),
        "xi": str(xi),
        "p": args.p,
        "rho_exponent": args.rho_exp,
        "samples": args.samples,
        "n": args.n,
        "invariant": ok,
    }
    if f.a != 0:
        radius = siegel_radius(f, args.p)
        payload["siegel_exponent"] = radius.radius_exponent
        payload["siegel_caveat"] = radius.caveat
    payload["witness"] = (
        None if witness is None else {"x0": str(witness[0]), "step": witness[1]}
    )
    return payload


def _cmd_basin(args: argparse.Namespace) -> dict:
    f = parse_map(args.map)
    place = _parse_place(args.place)
    grid = [parse_rational(t) for t in args.grid.split(",")]
    sample = basin_sample(f, parse_rational(args.xi), place, grid, n=args.n, max_bits=args.max_bits)
    return {"map": str(f), "n": args.n, **sample.to_json_dict()}


def _cmd_period(args: argparse.Namespace) -> dict:
    f = parse_map(args.map)
    return {"map": str(f), "kmax": args.kmax, "period": detect_period(f, args.kmax)}


def _cmd_cross_ratio(args: argparse.Namespace) -> dict:
    parts = args.points.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated points: {args.points!r}")
    points: list[ProjectivePoint] = [parse_point(t) for t in parts]
    value = cross_ratio(*points)
    return {
        "points": [format_point(x) for x in points],
        "value": str(value),
    }


def _cmd_generate(args: argparse.Namespace) -> dict:
    fp = FamilyParameter(
        t=parse_rational(args.t),
        sign=args.sign,
        a=parse_rational(args.a),
        c=parse_rational(args.c),
    )
    f = from_parameter(fp)
    return {
        "t": str(fp.t),
        "sign": fp.sign,
        "map": str(f),
        "fixed_points": _fixed_points_payload(f),
    }


def _require(args: argparse.Namespace, case: str, names: tuple[str, ...]) -> list[str]:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise ValueError(f"case {case} requires {flags}")
    return [getattr(args, n) for n in names]


def _cmd_preset(args: argparse.Namespace) -> dict:
    names, build = _PRESETS[args.case]
    values = [parse_rational(v) for v in _require(args, args.case, names)]
    f = build(*values, args.sign)
    return {"case": args.case, "map": str(f), "fixed_points": _fixed_points_payload(f)}


# case -> (flags the family needs, constructor called with them and --sign)
_PRESETS = {
    "A": (("a", "c"), lambda a, c, sign: case_A(a, c)),
    "B": (("t",), lambda t, sign: case_B(t)),
    "C": (("a", "c"), lambda a, c, sign: case_C(a, c)),
    "C2": (("c",), case_C_sub),
    "D": (("a", "c"), lambda a, c, sign: case_D(a, c)),
    "D2": (("c",), case_D_sub),
}

_HANDLERS = {
    "fixed-points": _cmd_fixed_points,
    "classify": _cmd_classify,
    "orbit": _cmd_orbit,
    "trace": _cmd_trace,
    "sphere-check": _cmd_sphere_check,
    "basin": _cmd_basin,
    "period": _cmd_period,
    "cross-ratio": _cmd_cross_ratio,
    "generate": _cmd_generate,
    "preset": _cmd_preset,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmobius",
        description="Exact real and p-adic dynamics of maps (ax+b)/(cx+d) with ad-bc = 1, c != 0.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        return p

    def add_map(p: argparse.ArgumentParser) -> None:
        p.add_argument("--map", required=True, metavar="a,b,c,d", help="coefficients, det = 1")

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-bits",
            type=int,
            default=DEFAULT_MAX_BITS,
            help="abort when an orbit entry outgrows this bit size (default %(default)s)",
        )

    p = add("fixed-points", "solve f(x) = x exactly")
    add_map(p)

    p = add("classify", "per-place verdicts for every rational fixed point")
    add_map(p)
    p.add_argument("--place", help="restrict to one place: real or a prime")

    p = add("orbit", "iterate the map exactly")
    add_map(p)
    p.add_argument("--x0", required=True, help="initial point (rational or inf)")
    p.add_argument("--n", type=int, default=100, help="steps (default %(default)s)")
    add_budget(p)

    p = add("trace", "per-step exact distances to a fixed point")
    add_map(p)
    p.add_argument("--x0", required=True, help="initial point (rational or inf)")
    p.add_argument("--xi", required=True, help="fixed point")
    p.add_argument("--place", required=True, help="real or a prime")
    p.add_argument("--n", type=int, default=100, help="steps (default %(default)s)")
    add_budget(p)

    p = add("sphere-check", "verify a sphere around a fixed point is invariant")
    add_map(p)
    p.add_argument("--xi", required=True, help="fixed point")
    p.add_argument("--p", type=int, required=True, help="prime")
    p.add_argument("--rho-exp", type=int, required=True, help="sphere radius exponent e: |x-xi|_p = p**e")
    p.add_argument("--samples", type=int, default=2, help="sphere samples (default %(default)s)")
    p.add_argument("--n", type=int, default=100, help="steps per sample (default %(default)s)")
    add_budget(p)

    p = add("basin", "test grid points for convergence to an attractor")
    add_map(p)
    p.add_argument("--xi", required=True, help="attracting fixed point")
    p.add_argument("--place", required=True, help="real or a prime")
    p.add_argument("--grid", required=True, help="comma-separated initial points")
    p.add_argument("--n", type=int, default=100, help="steps (default %(default)s)")
    add_budget(p)

    p = add("period", "smallest k with f**k = identity on the projective line")
    add_map(p)
    p.add_argument("--kmax", type=int, default=24, help="search bound (default %(default)s)")

    p = add("cross-ratio", "Mobius-invariant of four distinct points")
    p.add_argument("--points", required=True, metavar="p1,p2,p3,p4", help="points, at most one inf")

    p = add("generate", "build a map with rational fixed points from (t, sign, a, c)")
    p.add_argument("--t", required=True, help="rational parameter, t != +-1")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1, help="trace branch")
    p.add_argument("--a", required=True, help="free coefficient a")
    p.add_argument("--c", required=True, help="free coefficient c, nonzero")

    p = add("preset", "one of the named families")
    p.add_argument("--case", required=True, choices=tuple(_PRESETS))
    p.add_argument("--a", help="coefficient a (cases A, C, D)")
    p.add_argument("--c", help="coefficient c (all but B)")
    p.add_argument("--t", help="parameter t (case B)")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1, help="branch (cases C2, D2)")

    return parser


def _scalar(value: object) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    first_positional = next((a for a in argv if not a.startswith("-")), None)
    asks_help = first_positional is None and any(a in ("-h", "--help") for a in argv)
    if first_positional not in _HANDLERS and not asks_help:
        if first_positional is not None:
            print(f"unknown command: {first_positional!r}", file=sys.stderr)
        print("usage: qmobius <command> [options]; commands: " + ", ".join(_HANDLERS), file=sys.stderr)
        return 64

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        payload = _HANDLERS[args.command](args)
    except (SizeBudgetError, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_table(payload))
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
