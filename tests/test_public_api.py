"""The package's top-level names are the ones its programs use.

``ratsep.__all__`` is kept to what users call; stage functions and
scalar helpers stay importable from their own modules.  The scripts
and the benchmark are the package's own users: every ``from ratsep
import X`` and every ``ratsep.X`` attribute they contain must resolve
on the package, read from their source with ``ast``.  Every module's
``__all__`` must resolve too, so a name moved out of a module leaves it.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import ratsep

ROOT = Path(__file__).resolve().parents[1]
USERS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")])
MODULES = sorted(m.name for m in pkgutil.iter_modules(ratsep.__path__, "ratsep."))


def resolves(name: str) -> bool:
    """A package attribute, or a submodule that ``import ratsep.<name>`` loads."""
    return hasattr(ratsep, name) or importlib.util.find_spec(f"ratsep.{name}") is not None


def package_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ratsep" and not node.level:
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ratsep"
        ):
            names.add(node.attr)
    return names


def test_the_users_are_found():
    assert any(p.parent.name == "perfbench" for p in USERS)
    assert any(p.parent.name == "scripts" for p in USERS)


@pytest.mark.parametrize("path", USERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_names_used_by_scripts_and_benchmark_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    missing = sorted(n for n in package_names(tree) if not resolves(n))
    assert missing == []


def test_all_resolves():
    assert len(ratsep.__all__) == len(set(ratsep.__all__))
    assert [n for n in ratsep.__all__ if not hasattr(ratsep, n)] == []


def test_the_modules_are_found():
    assert {"ratsep.linalg", "ratsep.scalars", "ratsep.separation", "ratsep.sets"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
