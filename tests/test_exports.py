"""Every name a deplen module exports is defined there: tools that look
the exports up by name (`getattr(module, name)`) must not find a stale one."""

import importlib
import pkgutil

import pytest

import deplen

MODULES = sorted(m.name for m in pkgutil.iter_modules(deplen.__path__))


def test_every_module_is_checked():
    assert {"analysis", "constituency", "features", "seeding", "stats", "treebank",
            "variants"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined_in_their_module(name):
    module = importlib.import_module(f"deplen.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    for attr in exported:
        assert hasattr(module, attr), f"deplen.{name}.__all__ names missing {attr!r}"
        assert getattr(getattr(module, attr), "__module__", None) == module.__name__, \
            f"deplen.{name}.{attr} is defined in another module"
