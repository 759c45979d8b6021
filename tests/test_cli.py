"""CLI tests: exit codes, golden outputs, JSON/table consistency."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qmobius.cli import _HANDLERS, main, render_table
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
    assert usage.split("commands: ")[1].split(", ") == list(_HANDLERS)


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
    code, _, err = run_cli(
        capsys,
        ["orbit", "--map", "2,0,1,1/2", "--x0", "7", "--n", "100", "--max-bits", "50"],
    )
    assert code == 3
    assert "size budget" in err


def test_exit_code_unprovable_prime_cofactor(capsys):
    # c*xi + d = 2**89 - 1 at xi = 0: prime, but past the proven primality bound
    p = 2**89 - 1
    code, _, err = run_cli(capsys, ["classify", "--map", f"1/{p},0,1,{p}"])
    assert code == 3
    assert "factorization" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--map", "2,0,1,1/2", "--place", str(2**89 - 1)],
    ["sphere-check", "--map", "2,0,1,1/2", "--xi", "0", "--p", str(2**89 - 1), "--rho-exp", "0"],
], ids=["classify", "sphere-check"])
def test_exit_code_unprovable_prime_place(capsys, argv):
    # a place must be proven prime; past the proven bound that is an exceeded budget
    code, _, err = run_cli(capsys, argv)
    assert code == 3
    assert "factorization" in err


def test_exit_code_irrational_fixed_points(capsys):
    code, _, err = run_cli(capsys, ["classify", "--map", "1,-1,1,0"])
    assert code == 2
    assert "not rational" in err


def test_help_exits_zero(capsys):
    assert run_cli(capsys, ["--help"])[0] == 0
    assert run_cli(capsys, ["classify", "--help"])[0] == 0


def test_fixed_points_command(capsys):
    code, out, _ = run_cli(capsys, ["fixed-points", "--map", "2,0,1,1/2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["fixed_points"] == {"kind": "pair", "points": ["3/2", "0"]}


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


def test_bad_place_is_input_error(capsys):
    code, _, err = run_cli(
        capsys,
        ["trace", "--map", "2,-1,1,0", "--x0", "4", "--xi", "1", "--place", "6", "--n", "4"],
    )
    assert code == 2
    assert "prime" in err


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
