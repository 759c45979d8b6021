"""CLI tests: exit codes, golden outputs, JSON/table consistency."""

import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qmobius.cli import _COMMANDS, _build_parser, main, render_table
from qmobius.mobius import parse_map, parse_point
from qmobius.orbit import run_orbit
from qmobius.padic import parse_rational

GOLDEN = Path(__file__).parent / "golden"

# Three pinned scenarios, each holding a table and a JSON golden file.
SCENARIOS = {
    "classify": ["classify", "--map", "2,0,1,1/2"],
    "orbit": ["orbit", "--map", "2,-1,1,0", "--x0", "2", "--n", "3"],
    "sphere": [
        "sphere-check",
        "--map", "2,-1,1,0",
        "--xi", "1",
        "--p", "3",
        "--rho-exp=-1",
        "--n", "50",
    ],
}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_table(capsys, name):
    code, out, _ = run_cli(capsys, SCENARIOS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_json(capsys, name):
    code, out, _ = run_cli(capsys, SCENARIOS[name] + ["--json"])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def _leaves(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _leaves(v)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_table_and_json_agree(capsys, name):
    """Every scalar in the JSON document appears verbatim in the table."""
    code, json_out, _ = run_cli(capsys, SCENARIOS[name] + ["--json"])
    assert code == 0
    payload = json.loads(json_out)
    table = render_table(payload)
    for leaf in _leaves(payload):
        if leaf is None:
            assert "null" in table
        elif leaf is True:
            assert "true" in table
        elif leaf is False:
            assert "false" in table
        else:
            assert str(leaf) in table


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_emitted_rationals_reparse_canonically(capsys, name):
    code, json_out, _ = run_cli(capsys, SCENARIOS[name] + ["--json"])
    assert code == 0
    for leaf in _leaves(json.loads(json_out)):
        if not isinstance(leaf, str):
            continue
        try:
            value = parse_rational(leaf)
        except ValueError:
            continue  # verdicts, map strings, "inf", place names
        assert str(value) == leaf


def test_exit_code_unknown_command(capsys):
    code, _, err = run_cli(capsys, ["frobnicate"])
    assert code == 64
    assert "usage" in err


def test_exit_code_missing_command(capsys):
    code, _, err = run_cli(capsys, [])
    assert code == 64
    assert "usage" in err


@pytest.mark.parametrize("argv", [[], ["frobnicate"]])
def test_usage_names_every_command(capsys, argv):
    _, _, err = run_cli(capsys, argv)
    usage = err.splitlines()[-1]
    assert usage.split("commands: ")[1].split(", ") == list(_COMMANDS)


def test_exit_code_invalid_map(capsys):
    code, _, err = run_cli(capsys, ["classify", "--map", "2,0,1,1"])
    assert code == 2
    assert "determinant" in err


def test_exit_code_affine_map(capsys):
    code, _, err = run_cli(capsys, ["classify", "--map", "2,0,0,1/2"])
    assert code == 2
    assert "affine" in err


def test_exit_code_bad_rational(capsys):
    code, _, err = run_cli(capsys, ["orbit", "--map", "2,0,1,1/2", "--x0", "zebra", "--n", "3"])
    assert code == 2
    assert "zebra" in err


def test_exit_code_size_budget(capsys):
    A = 2**3000  # 904 digits; numerator and denominator each gain about 6000 bits a step
    code, _, err = run_cli(capsys, ["orbit", "--map", f"{A},0,1,1/{A}", "--x0", "1", "--n", "100"])
    assert code == 3
    assert err == "error: orbit exceeded size budget: step 84 needs 1005002 bits (max 1000000)\n"


# The product of two primes of 25 and 26 digits: no factor below 1000, and
# factors that rho cannot separate within its step budget.
UNSPLITTABLE = 1000000000000000000000007 * 10000000000000000000000013


def test_exit_code_rho_budget(capsys):
    # c*xi + d = UNSPLITTABLE at xi = 0
    n = UNSPLITTABLE
    code, _, err = run_cli(capsys, ["classify", "--map", f"1/{n},0,1,{n}"])
    assert code == 3
    assert err == f"error: factorization exceeded bound: rho step budget spent on {n}\n"


@pytest.mark.parametrize("argv", [
    ["orbit", "--map", "1000001,0,1,1/1000001", "--x0", "1", "--n", "400"],  # 4,800-digit entries
    ["orbit", "--map", "2,-1,1,0", "--x0", "7" * 4400, "--n", "1"],  # a 4,400-digit input
], ids=["long-output", "long-input"])
def test_numbers_past_python_digit_limit(capsys, argv):
    """Python limits int/str conversion to 4300 digits by default; the CLI
    lifts that limit, since the orbit bit budget already bounds every entry."""
    code, out, _ = run_cli(capsys, argv + ["--json"])
    assert code == 0
    f, x0, n = parse_map(argv[2]), parse_point(argv[4]), int(argv[6])
    assert parse_point(json.loads(out)["points"][-1]) == run_orbit(f, x0, n).points[-1]


# A prime past the proven Miller-Rabin bound whose n - 1 = 30 * UNSPLITTABLE
# is out of reach of the rho budget: no Lucas certificate, so no verdict.
UNPROVABLE_PRIME = 30 * UNSPLITTABLE + 1


def test_exit_code_unprovable_prime_cofactor(capsys):
    # c*xi + d = UNPROVABLE_PRIME at xi = 0: prime, but it cannot be proven
    p = UNPROVABLE_PRIME
    code, _, err = run_cli(capsys, ["classify", "--map", f"1/{p},0,1,{p}"])
    assert code == 3
    assert err.count("factorization exceeded bound") == 1
    assert str(p) in err


@pytest.mark.parametrize("argv", [
    ["classify", "--map", "2,0,1,1/2", "--place", str(UNPROVABLE_PRIME)],
    ["sphere-check", "--map", "2,0,1,1/2", "--xi", "0", "--p", str(UNPROVABLE_PRIME), "--rho-exp", "0"],
], ids=["classify", "sphere-check"])
def test_exit_code_unprovable_prime_place(capsys, argv):
    # a place must be proven prime; a prime without a certificate is an exceeded budget
    code, _, err = run_cli(capsys, argv)
    assert code == 3
    assert err.count("factorization exceeded bound") == 1
    assert str(UNPROVABLE_PRIME) in err


@pytest.mark.parametrize("n, primes", [
    (2**89 - 1, [2**89 - 1]),  # prime past the Miller-Rabin bound, certified
    (1000003 * 1000033, [1000003, 1000033]),  # both factors past trial division
    # strong pseudoprime to every prime base up to 37
    (399165290221 * 798330580441, [399165290221, 798330580441]),
], ids=["big-prime", "semiprime", "psi12"])
def test_classify_exceptional_primes_past_trial_division(capsys, n, primes):
    code, out, _ = run_cli(capsys, ["classify", "--map", f"1/{n},0,1,{n}", "--json"])
    assert code == 0
    for report in json.loads(out)["reports"]:
        assert [e["p"] for e in report["exceptional"]] == primes


@pytest.mark.parametrize("argv", [
    ["classify", "--map", "2,0,1,1/2", "--place", str(2**89 - 1)],
    ["sphere-check", "--map", "2,0,1,1/2", "--xi", "0", "--p", str(2**89 - 1), "--rho-exp", "0"],
], ids=["classify", "sphere-check"])
def test_certified_prime_place(capsys, argv):
    assert run_cli(capsys, argv)[0] == 0


def test_exit_code_irrational_fixed_points(capsys):
    code, _, err = run_cli(capsys, ["classify", "--map", "1,-1,1,0"])
    assert code == 2
    assert "not rational" in err


def test_help_exits_zero(capsys):
    for argv in [[], *([command] for command in _COMMANDS)]:
        code, out, _ = run_cli(capsys, argv + ["--help"])
        assert code == 0
        assert out.startswith(" ".join(["usage: qmobius", *argv]))


M = "2,0,1,1/2"
# command -> (its required flags with values, the namespace they parse to
# with every other dest at its default, the optional flags with values, and
# the dests those set).  Each literal pins the flags, dests, types and
# defaults of one command.
SURFACE = {
    "fixed-points": (["--map", M], {"map": M}, [], {}),
    "classify": (["--map", M], {"map": M, "place": None}, ["--place", "2"], {"place": "2"}),
    "orbit": (
        ["--map", M, "--x0", "1"], {"map": M, "x0": "1", "n": 100},
        ["--n", "5"], {"n": 5},
    ),
    "trace": (
        ["--map", M, "--x0", "1", "--xi", "0", "--place", "2"],
        {"map": M, "x0": "1", "xi": "0", "place": "2", "n": 100},
        ["--n", "5"], {"n": 5},
    ),
    "sphere-check": (
        ["--map", M, "--xi", "0", "--p", "3", "--rho-exp", "0"],
        {"map": M, "xi": "0", "p": 3, "rho_exp": 0, "samples": 2, "n": 100},
        ["--samples", "3", "--n", "5"], {"samples": 3, "n": 5},
    ),
    "basin": (
        ["--map", M, "--xi", "0", "--place", "2", "--grid", "1,3"],
        {"map": M, "xi": "0", "place": "2", "grid": "1,3", "n": 100},
        ["--n", "5"], {"n": 5},
    ),
    "period": (["--map", M], {"map": M, "kmax": 24}, ["--kmax", "5"], {"kmax": 5}),
    "cross-ratio": (["--points", "0,1,2,3"], {"points": "0,1,2,3"}, [], {}),
    "generate": (
        ["--t", "1/2", "--a", "2", "--c", "1"], {"t": "1/2", "sign": 1, "a": "2", "c": "1"},
        ["--sign=-1"], {"sign": -1},
    ),
    "preset": (
        ["--case", "C"], {"case": "C", "a": None, "c": None, "t": None, "sign": 1},
        ["--a", "2", "--c", "1", "--t", "3", "--sign=-1"], {"a": "2", "c": "1", "t": "3", "sign": -1},
    ),
}


def test_surface_covers_every_command():
    assert list(SURFACE) == list(_COMMANDS)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_handler_takes_every_flag_of_its_command(command):
    """main passes a handler the values its parameters name: a flag the
    table lists but the handler does not take would be parsed and dropped."""
    handler, _, flags = _COMMANDS[command]
    dests = [flag if isinstance(flag, str) else flag[0] for flag in flags]
    assert sorted(inspect.signature(handler).parameters) == sorted(dests)


@pytest.mark.parametrize("command", list(SURFACE))
def test_cli_surface(capsys, command):
    required, namespace, optional, set_by_optional = SURFACE[command]
    parser = _build_parser()
    base = {"command": command, "json": False, **namespace}
    assert vars(parser.parse_args([command, *required])) == base
    assert vars(parser.parse_args([command, *required, *optional, "--json"])) == {
        **base, **set_by_optional, "json": True,
    }
    for i in range(0, len(required), 2):
        assert run_cli(capsys, [command, *required[:i], *required[i + 2:]])[0] == 2


@pytest.mark.parametrize("command", ["orbit", "trace", "sphere-check", "basin"])
def test_orbit_bit_budget_is_not_an_option(capsys, command):
    code, _, err = run_cli(capsys, [command, *SURFACE[command][0], "--max-bits", "64"])
    assert code == 2
    assert "unrecognized arguments: --max-bits 64" in err


@pytest.mark.parametrize("argv", [
    ["generate", "--t", "1/2", "--a", "2", "--c", "1", "--sign", "2"],
    ["preset", "--case", "E"],
    ["preset", "--case", "C2", "--c", "3", "--sign", "0"],
])
def test_choices_are_enforced(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "invalid choice" in err


@pytest.mark.parametrize("argv, code, message", [
    # preset reads only the flags its case takes, and missing ones before bad ones
    (["preset", "--case", "B", "--t", "1/2", "--a", "zebra"], 0, ""),
    (["preset", "--case", "C", "--a", "zebra"], 2, "requires --c"),
    # basin parses --place before --xi, trace --xi before --place
    (["basin", "--map", M, "--xi", "zz", "--place", "zz", "--grid", "1", "--n", "5"], 2, "place must be"),
    (["trace", "--map", M, "--x0", "1", "--xi", "zz", "--place", "zz", "--n", "5"], 2, "not a rational: 'zz'"),
], ids=["preset-unused-flag", "preset-missing-first", "basin-place-first", "trace-xi-first"])
def test_first_error_reported(capsys, argv, code, message):
    got, _, err = run_cli(capsys, argv)
    assert got == code
    assert message in err


def test_fixed_points_command(capsys):
    code, out, _ = run_cli(capsys, ["fixed-points", "--map", "2,0,1,1/2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["fixed_points"] == {"kind": "pair", "points": ["3/2", "0"]}

    code, out, _ = run_cli(capsys, ["fixed-points", "--map", "1,1,1,2", "--json"])
    assert code == 0
    assert json.loads(out)["fixed_points"] == {"kind": "irrational", "discriminant": "5"}


def test_classify_single_place(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--map", "2,0,1,1/2", "--place", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    verdicts = {r["fixed_point"]: r["verdict"] for r in doc["reports"]}
    assert verdicts == {"3/2": "repeller", "0": "attractor"}


def test_period_command(capsys):
    code, out, _ = run_cli(capsys, ["period", "--map", "0,-1,1,0", "--kmax", "10"])
    assert code == 0
    assert "period: 2" in out

    code, out, _ = run_cli(capsys, ["period", "--map", "2,-1,1,0", "--kmax", "24", "--json"])
    assert code == 0
    assert json.loads(out)["period"] is None


def test_preset_command(capsys):
    code, out, _ = run_cli(capsys, ["preset", "--case", "C", "--a", "2", "--c", "1"])
    assert code == 0
    assert "map: 2,-1,1,0" in out
    assert "point: 1" in out


def test_preset_requires_case_arguments(capsys):
    code, _, err = run_cli(capsys, ["preset", "--case", "C", "--a", "2"])
    assert code == 2
    assert "--c" in err


def test_preset_rejects_c_zero(capsys):
    code, _, err = run_cli(capsys, ["preset", "--case", "C", "--a", "2", "--c", "0"])
    assert code == 2
    assert "c != 0" in err


def test_module_form_runs_the_cli():
    """`python -m qmobius.cli` prints what `main` prints and exits with its code."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}

    def module_run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qmobius.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    done = module_run(*SCENARIOS["classify"])
    assert done.returncode == 0
    assert done.stdout == (GOLDEN / "classify.txt").read_text()
    assert module_run("classify", "--map", "2,0,1,1").returncode == 2


def test_preset_all_cases(capsys):
    for argv in (
        ["preset", "--case", "A", "--a", "3", "--c", "2"],
        ["preset", "--case", "B", "--t", "1/2"],
        ["preset", "--case", "C2", "--c", "3", "--sign", "-1"],
        ["preset", "--case", "D", "--a", "2", "--c", "1"],
        ["preset", "--case", "D2", "--c", "3"],
    ):
        code, out, _ = run_cli(capsys, argv + ["--json"])
        assert code == 0
        doc = json.loads(out)
        f = [parse_rational(t) for t in doc["map"].split(",")]
        assert f[0] * f[3] - f[1] * f[2] == 1


def test_cross_ratio_command(capsys):
    code, out, _ = run_cli(capsys, ["cross-ratio", "--points", "0,1,2,3", "--json"])
    assert code == 0
    assert json.loads(out)["value"] == "4/3"

    code, _, err = run_cli(capsys, ["cross-ratio", "--points", "0,0,2,3"])
    assert code == 2
    assert "distinct" in err

    code, _, err = run_cli(capsys, ["cross-ratio", "--points", "0,1,2"])
    assert code == 2
    assert "4 comma-separated points" in err


@pytest.mark.parametrize("points, shown", [
    ("0,1,2,0", "0"), ("1/2,inf,1/2,3", "1/2"), ("inf,1,inf,0", "inf"),
])
def test_cross_ratio_repeat_names_the_point_as_written(capsys, points, shown):
    code, out, err = run_cli(capsys, ["cross-ratio", "--points", points])
    assert code == 2
    assert out == ""
    assert err == f"error: cross-ratio requires distinct points: {shown} repeats\n"


def test_sphere_check_reports_the_samples_it_tests(capsys):
    """At p = 2 the sphere has one unit class, so one of five samples is tested."""
    code, out, _ = run_cli(capsys, ["sphere-check", "--map", "2,-1,1,0", "--xi", "1", "--p", "2",
                                    "--rho-exp=-1", "--samples", "5", "--n", "5", "--json"])
    assert code == 0
    assert json.loads(out)["samples"] == 1


def test_basin_command(capsys):
    code, out, _ = run_cli(
        capsys,
        ["basin", "--map", "2,0,1,1/2", "--xi", "0", "--place", "2",
         "--grid", "1,3,1/3,5", "--n", "30", "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert all(t["converged"] for t in doc["tested"])


def test_basin_rejects_non_attractor(capsys):
    code, _, err = run_cli(
        capsys,
        ["basin", "--map", "2,0,1,1/2", "--xi", "0", "--place", "real", "--grid", "1", "--n", "10"],
    )
    assert code == 2
    assert "basin undefined" in err


@pytest.mark.parametrize("grid", ["0", "1"])
@pytest.mark.parametrize("n", ["0", "-5"])
def test_basin_rejects_bad_length(capsys, grid, n):
    """The grid point 0 is the attractor and runs no orbit, yet --n is still checked."""
    code, out, err = run_cli(
        capsys,
        ["basin", "--map", "2,0,1,1/2", "--xi", "0", "--place", "2", "--grid", grid, f"--n={n}"],
    )
    assert code == 2
    assert out == ""
    assert f"orbit length must be >= 1: got {n}" in err


def test_generate_command(capsys):
    code, out, _ = run_cli(
        capsys, ["generate", "--t", "1/2", "--a", "2", "--c", "1", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["map"] == "2,5/3,1,4/3"
    assert doc["fixed_points"]["points"] == ["5/3", "-1"]


def test_trace_command(capsys):
    code, out, _ = run_cli(
        capsys,
        ["trace", "--map", "2,-1,1,0", "--x0", "4", "--xi", "1", "--place", "3", "--n", "4", "--json"],
    )
    assert code == 0
    assert json.loads(out)["valuations"] == [1, 1, 1, 1, 1]

    # 0 -> inf -> 2 -> 3/2: the distance to infinity has no valuation
    code, out, _ = run_cli(
        capsys,
        ["trace", "--map", "2,-1,1,0", "--x0", "0", "--xi", "1", "--place", "3", "--n", "3", "--json"],
    )
    assert code == 0
    assert json.loads(out)["valuations"] == [0, None, 0, 0]


def test_bad_place_is_input_error(capsys):
    code, _, err = run_cli(
        capsys,
        ["trace", "--map", "2,-1,1,0", "--x0", "4", "--xi", "1", "--place", "6", "--n", "4"],
    )
    assert code == 2
    assert "prime" in err

    code, _, err = run_cli(capsys, ["classify", "--map", "2,0,1,1/2", "--place", "x"])
    assert code == 2
    assert "'real' or a prime" in err


def test_preset_map_reads_back_into_classify(capsys):
    """A map the CLI prints, negative coefficients included, is valid --map input."""
    code, out, _ = run_cli(capsys, ["preset", "--case", "D", "--a", "-3", "--c", "1", "--json"])
    assert code == 0
    printed = json.loads(out)["map"]
    assert printed == "-3,-4,1,1"
    code, out, _ = run_cli(capsys, ["classify", "--map", printed, "--json"])
    assert code == 0
    assert json.loads(out)["map"] == printed


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--map", "-3,-4,1,1"],
        ["classify", "--map", "-3,-4,1,1", "--place", "2", "--json"],
        ["orbit", "--map", "-1/2,3,1/2,-5", "--x0", "-7/3", "--n", "4"],
        ["basin", "--map", "2,0,1,1/2", "--xi", "0", "--place", "2", "--grid", "-1/3,5", "--n", "30"],
    ],
)
def test_separate_and_joined_values_agree(capsys, argv):
    joined = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--") and joined[-1].startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    assert joined != argv
    separate = run_cli(capsys, argv)
    assert separate[0] == 0
    assert separate == run_cli(capsys, joined)


def test_negative_initial_point(capsys):
    code, out, _ = run_cli(capsys, ["orbit", "--map", "2,0,1,1/2", "--x0", "-1/2", "--n", "3", "--json"])
    assert code == 0
    assert json.loads(out)["points"] == ["-1/2", "inf", "2", "8/5"]


def test_negative_grid_point(capsys):
    code, out, _ = run_cli(
        capsys,
        ["basin", "--map", "2,0,1,1/2", "--xi", "0", "--place", "2", "--grid", "-1/3,5", "--n", "30", "--json"],
    )
    assert code == 0
    assert [t["x0"] for t in json.loads(out)["tested"]] == ["-1/3", "5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--map", "-3,-4,1,2"], "determinant"),
        (["orbit", "--map", "2,0,1,1/2", "--x0", "-zebra", "--n", "3"], "--x0"),
        (["orbit", "--map", "2,0,1,1/2", "--x0", "-1/0", "--n", "3"], "zero denominator"),
        (["orbit", "--map", "2,0,1,1/2", "--n", "3", "--x0"], "--x0"),
        (["classify", "--json", "-3"], "--json"),
    ],
)
def test_signed_input_errors_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err
