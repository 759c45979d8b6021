"""The package namespace re-exports exactly the public names of its modules."""

import qmobius
from qmobius import classify, mobius, orbit, padic

MODULES = (padic, mobius, classify, orbit)


def test_all_is_the_union_of_the_module_lists():
    assert sorted(qmobius.__all__) == sorted(name for m in MODULES for name in m.__all__)


def test_every_exported_name_resolves():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(qmobius, name) is getattr(m, name)
