"""Every name a ``wqlang`` module exports in ``__all__`` exists. A deletion
that leaves a stale entry behind fails here, not only under ``import *``."""

import importlib
import pkgutil

import pytest

import wqlang

MODULES = ["wqlang"] + [
    info.name for info in pkgutil.walk_packages(wqlang.__path__, "wqlang.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_packages_declare_all():
    # the two package namespaces are what ``from wqlang import *`` reads
    for name in ("wqlang", "wqlang.slpsearch"):
        assert importlib.import_module(name).__all__


@pytest.mark.parametrize("name", ["wqlang", "wqlang.slpsearch", "wqlang.formats", "wqlang.automata"])
def test_star_import_binds_every_name_and_dir_lists_it(name):
    # the packages and ``formats`` resolve their exports on first access,
    # and ``automata`` re-exports ``nfa``'s, so ``import *`` and ``dir``
    # must still see every one
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(module.__all__) <= namespace.keys()
    assert set(module.__all__) <= set(dir(module))
