"""The package namespace re-exports exactly the public names of its modules."""

import os
import subprocess
import sys
from pathlib import Path

import qmobius
from qmobius import classify, mobius, orbit, padic

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
