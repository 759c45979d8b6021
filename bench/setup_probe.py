"""Set-up probe: a fresh interpreter imports qmobius and builds a workload's inputs.

    python3 bench/setup_probe.py SRC_DIR < specs

Each line of stdin names one library object, with its parameters drawn
beforehand by the benchmark:

    family T SIGN A C     from_parameter(FamilyParameter(T, SIGN, A, C))
    map A B C D           MobiusMap(A, B, C, D)
    case NAME X Y         case_NAME(X, Y); an integer Y is a sign
    place P               Place(P), with P = real for the real place
    cli                   import qmobius.cli

The probe prints time.monotonic() when the last object is built.  It
imports nothing of the benchmark, so the time from spawning it to that
print covers only interpreter start, the library's import and the
construction of its inputs.
"""

import sys
import time
from fractions import Fraction

sys.path.insert(0, sys.argv[1])
import qmobius as Q  # noqa: E402


def build(line: str):
    kind, *args = line.split()
    if kind == "family":
        t, sign, a, c = args
        return Q.from_parameter(Q.FamilyParameter(t=Fraction(t), sign=int(sign), a=Fraction(a), c=Fraction(c)))
    if kind == "map":
        return Q.MobiusMap(*map(Fraction, args))
    if kind == "case":
        name, x, y = args
        return getattr(Q, f"case_{name}")(Fraction(x), int(y) if name.endswith("_sub") else Fraction(y))
    if kind == "place":
        return Q.Place(None if args[0] == "real" else int(args[0]))
    if kind == "cli":
        import qmobius.cli

        return qmobius.cli
    raise ValueError(f"unknown set-up line {line!r}")


objects = [build(line) for line in sys.stdin.read().splitlines()]
print(time.monotonic(), flush=True)
