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


def test_readme_commands_exit_zero(capsys):
    commands = [line for block in readme_blocks("sh") for line in block.splitlines()
                if line.startswith("qmobius ")]
    assert commands
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
