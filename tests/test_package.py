"""The package namespace re-exports exactly the public names of its modules,
imports only the standard library, and runs the README's examples as shown."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import qmobius
from qmobius import classify, mobius, orbit, padic
from qmobius.cli import main

MODULES = (padic, mobius, classify, orbit)


def test_all_is_the_union_of_the_module_lists():
    assert sorted(qmobius.__all__) == sorted(name for m in MODULES for name in m.__all__)


# The public surface, written out so that adding or removing an export is a
# visible edit here.
PUBLIC_NAMES = [
    "AdelicReport", "BasinPoint", "BasinSample", "DEFAULT_MAX_BITS",
    "DEFAULT_REAL_THRESHOLD", "DEFAULT_VALUATION_GAIN", "DistanceTrace",
    "FactorizationError", "FamilyParameter", "FixedPointResult", "INFINITY",
    "Infinity", "IrrationalPair", "Mat2", "MobiusMap", "NormValue",
    "OrbitRecord", "PAdicDigits", "Place", "PlaceReport", "ProjectivePoint",
    "RationalDouble", "RationalPair", "SiegelRadius", "SizeBudgetError",
    "Verdict", "adelic_report", "basin_sample", "case_A", "case_B", "case_C",
    "case_C_sub", "case_D", "case_D_sub", "check_adelic_image", "classify_at",
    "closed_iterate", "cross_ratio", "detect_period", "distance_trace",
    "exact_sqrt", "exceptional_primes", "factor_int", "format_point",
    "from_parameter", "in_named_family", "invariant_sphere_check", "is_prime",
    "norm", "on_sphere", "padic_expand", "pair_relations", "parse_map",
    "parse_point", "parse_rational", "principal_profile", "run_orbit",
    "siegel_radius", "vp",
]


def test_public_surface_is_pinned():
    assert sorted(qmobius.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(qmobius, name) is getattr(m, name)


def test_library_imports_only_the_standard_library():
    """Importing the package and its CLI loads no third-party module.

    Compared against the modules already loaded at start-up, since a
    site-packages .pth file may import third-party code before any of ours.
    """
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qmobius, qmobius.cli\n"
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))\n"
    )
    src = str(Path(__file__).parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "qmobius" in loaded
    assert loaded - {"qmobius"} <= sys.stdlib_module_names


README = Path(__file__).parents[1] / "README.md"


def readme_blocks(language):
    """The bodies of the README's fenced code blocks in one language."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_example_prints_what_it_says():
    (code,) = readme_blocks("python")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # each dict the example shows as a comment, "# {...}" over several lines
    shown, pending = [], ""
    for line in code.splitlines():
        if line.startswith("# {") or (pending and line.startswith("#  ")):
            pending += line[1:]
            if pending.count("{") == pending.count("}"):
                shown.append(ast.literal_eval(pending.strip()))
                pending = ""
    printed = [ast.literal_eval(out) for out in done.stdout.splitlines() if out.startswith("{")]
    assert len(shown) == 2
    assert printed == shown
    assert "2 3/2 4/3 5/4" in done.stdout.splitlines()


def test_readme_commands_exit_zero(capsys):
    commands = [line for block in readme_blocks("sh") for line in block.splitlines()
                if line.startswith("qmobius ")]
    assert commands
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
