"""Every name a deplen module exports is defined there, so tools that look
the exports up by name (`getattr(module, name)`) find no stale one, and is
used by something other than the tests."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import deplen

MODULES = sorted(m.name for m in pkgutil.iter_modules(deplen.__path__))
ROOT = Path(deplen.__file__).parents[2]


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


def _reads(path: Path) -> set:
    """(definer, name) for every name and attribute that the file's code
    reads, the definer being the top-level function or class it is read in
    (None outside one)."""
    return {(getattr(stmt, "name", None), node.id if isinstance(node, ast.Name) else node.attr)
            for stmt in ast.parse(path.read_text()).body for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_used_outside_the_tests(name):
    """An exported name is read by `src/` outside its own definition, by a
    demo, or by a README code block: an API that only tests call belongs in
    the tests."""
    module = importlib.import_module(f"deplen.{name}")
    own = Path(module.__file__)
    files = [*(ROOT / "src" / "deplen").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    used = {read for path in files for definer, read in _reads(path)
            if not (path == own and definer == read)}
    readme = "\n".join(re.findall(r"```\w*\n(.*?)```", (ROOT / "README.md").read_text(), re.S))
    for attr in getattr(module, "__all__", []):
        assert attr in used or re.search(rf"\b{attr}\b", readme), \
            f"deplen.{name}.{attr} is exported, but only the tests use it"


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "deplen").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statement(path):
    """`python -O` strips assert statements, so `src/` checks what it must
    with an explicit raise."""
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts on lines {lines}"
