"""The package's top-level names are the ones its programs use.

``ratsep.__all__`` is kept to what users call; stage functions and
scalar helpers stay importable from their own modules.  The scripts
and the benchmark are the package's own users: every ``from ratsep
import X`` and every ``ratsep.X`` attribute they contain must resolve
on the package, read from their source with ``ast``.  Every module's
``__all__`` must resolve too, so a name moved out of a module leaves it,
and every name a module of the package, the scripts or the tests imports
must be used there or exported, so a deletion leaves no import behind.
The JSON input format's shape checks live in one place: in
``serialization`` and ``cli`` only the array reader tests for a list, and
only the object reader and ``parse_coord``'s number dispatch for a dict.
The package holds no code that only tests call: every private function
or method is read somewhere else in the package, and every public method
or property of a public class, and every function or class a module's
``__all__`` lists that the package does not export, is read by the
package, the scripts, the layer benchmarks or the benchmark.
"""

import ast
import importlib
import importlib.util
import pkgutil
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

import ratsep
from ratsep import Surd, Vector

ROOT = Path(__file__).resolve().parents[1]
USERS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")])
MODULES = sorted(m.name for m in pkgutil.iter_modules(ratsep.__path__, "ratsep."))
SOURCES = sorted(
    [*ROOT.glob("src/ratsep/*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("tests/*.py")]
)
PACKAGE = sorted(ROOT.glob("src/ratsep/*.py"))
CALLERS = sorted(
    [*PACKAGE, *ROOT.glob("scripts/*.py"), *ROOT.glob("bench/*.py"), *ROOT.glob("perfbench/*.py")]
)


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


def listed(tree: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists, read from its source."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import (``from __future__`` aside) that no name
    in the module reads and that its ``__all__`` does not list."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - listed(tree))


def test_the_sources_are_found():
    assert {p.parent.name for p in SOURCES} == {"ratsep", "scripts", "tests"}


def test_unused_imports_are_caught():
    source = "import os.path\nfrom x import a, b as c\nfrom y import d\n__all__ = ['d']\nos.sep\n"
    tree = ast.parse(source)
    assert unused_imports(tree) == ["a", "c"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


SHAPE_CHECKERS = {"list": {"_array"}, "dict": {"_object", "parse_coord"}}
FORMAT_SOURCES = [ROOT / "src/ratsep/serialization.py", ROOT / "src/ratsep/cli.py"]


def stray_shape_checks(tree: ast.Module) -> list[str]:
    """"function: type" for each ``isinstance(x, list)`` or ``isinstance(x,
    dict)``, alone or in a tuple of types, in a function that
    ``SHAPE_CHECKERS`` does not allow to make it."""
    stray = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                continue
            types = node.args[1]
            for t in types.elts if isinstance(types, ast.Tuple) else [types]:
                allowed = SHAPE_CHECKERS.get(getattr(t, "id", None))
                if allowed is not None and func.name not in allowed:
                    stray.add(f"{func.name}: {t.id}")
    return sorted(stray)


def test_stray_shape_checks_are_caught():
    source = (
        "def _array(x):\n    return isinstance(x, list)\n"
        "def parse_coord(x):\n    return isinstance(x, dict) or isinstance(x, (str, int))\n"
        "def parse_grid(x):\n    return isinstance(x, (list, tuple))\n"
        "def main(x):\n    return isinstance(x, str) or isinstance(x, dict)\n"
    )
    assert stray_shape_checks(ast.parse(source)) == ["main: dict", "parse_grid: list"]


@pytest.mark.parametrize("path", FORMAT_SOURCES, ids=lambda p: p.name)
def test_shape_checks_live_in_the_two_readers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert stray_shape_checks(tree) == []


def test_vector_surface_read_by_the_programs():
    # perfbench reads c.r and c.k off the coordinates a vector yields, and
    # as_fractions, field_k and dim off the vector; the CLI, the SVG writer
    # and the serializer iterate and index it
    v = Vector([Fraction(1, 2), Surd(Fraction(1, 3), Fraction(-2, 5), 2), 3])
    assert type(v.coords) is tuple and tuple(v) == v.coords
    assert all(type(c) is Surd for c in v) and v[1] == v.coords[1] and v[-1] == 3
    assert [(c.r, c.s, c.k) for c in v] == [
        (Fraction(1, 2), 0, 1),
        (Fraction(1, 3), Fraction(-2, 5), 2),
        (3, 0, 1),
    ]
    assert all(type(c.r) is Fraction and type(c.s) is Fraction for c in v)
    assert v.field_k == 2 and v.dim == len(v) == 3
    with pytest.raises(ValueError):
        v.as_fractions()
    w = Vector([Fraction(-3, 4), 2])
    assert w.as_fractions() == (Fraction(-3, 4), Fraction(2))
    assert all(type(f) is Fraction for f in w.as_fractions())
    assert w.field_k == 1 and Vector.zero(2).as_fractions() == (0, 0)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parsed(paths) -> dict[str, ast.Module]:
    return {
        f"{p.parent.name}/{p.name}": ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for p in paths
    }


def private_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """Every function and method whose name starts with an underscore,
    dunders aside."""
    return [
        f for f in ast.walk(tree)
        if isinstance(f, FUNCTIONS)
        and f.name.startswith("_")
        and not (f.name.startswith("__") and f.name.endswith("__"))
    ]


def public_methods(tree: ast.Module) -> list[ast.FunctionDef]:
    """Every method or property, dunders aside, whose name and whose
    class's name start with a letter."""
    return [
        f for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and not c.name.startswith("_")
        for f in c.body if isinstance(f, FUNCTIONS) and not f.name.startswith("_")
    ]


def unreferenced(defined: dict[str, ast.Module], callers: dict[str, ast.Module], pick) -> list[str]:
    """"file:name" for each function ``pick`` finds in a ``defined`` tree
    whose name no bare name or attribute of a ``callers`` tree reads
    outside the function's own lines."""
    reads = defaultdict(set)
    for path, tree in callers.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads[node.id].add((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads[node.attr].add((path, node.lineno))
    return sorted(
        f"{path}:{f.name}"
        for path, tree in defined.items()
        for f in pick(tree)
        if all(p == path and f.lineno <= line <= f.end_lineno for p, line in reads[f.name])
    )


def listed_unexported(exported: set[str]):
    """A ``pick`` for ``unreferenced``: every module-level function or
    class that its module's ``__all__`` lists and ``exported`` does not."""
    def pick(tree: ast.Module) -> list[ast.AST]:
        names = listed(tree) - exported
        return [f for f in tree.body if isinstance(f, (*FUNCTIONS, ast.ClassDef)) and f.name in names]
    return pick


# Names a module lists that the package does not export and no program
# reads, each with the reason it stays.
LISTED_FOR_USERS = {
    "ratsep/scalars.py:sqrt_enclosure": (
        "perfbench/tracer.py's LAYER_SPANS names it only as a string, to wrap it, "
        "until program-side stats replace the binding tracer"
    ),
    "ratsep/serialization.py:parse_trace": "the reader of the trace that separate writes",
}


def test_uncalled_private_functions_are_caught():
    source = (
        "def _used():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def __dunder__():\n    pass\n"
        "class A:\n"
        "    def _helper(self):\n        return self._called()\n"
        "    def _called(self):\n        return _used()\n"
    )
    package = {"ratsep/m.py": ast.parse(source)}
    assert unreferenced(package, package, private_functions) == [
        "ratsep/m.py:_helper", "ratsep/m.py:_recursive"
    ]


def test_public_methods_only_tests_call_are_caught():
    source = (
        "class V:\n"
        "    def used(self):\n        return self.kept\n"
        "    @property\n    def kept(self):\n        return 1\n"
        "    def unused(self):\n        return self.unused()\n"
        "    def __len__(self):\n        return 0\n"
        "class _Hidden:\n"
        "    def alone(self):\n        pass\n"
    )
    package = {"ratsep/m.py": ast.parse(source)}
    callers = {**package, "scripts/s.py": ast.parse("from ratsep.m import V\nV().used()\n")}
    assert unreferenced(package, callers, public_methods) == ["ratsep/m.py:unused"]


def test_listed_names_only_tests_call_are_caught():
    source = (
        "__all__ = ['exported', 'used', 'Used', 'alone', 'Alone']\n"
        "def exported():\n    pass\n"
        "def used():\n    return 1\n"
        "class Used:\n    pass\n"
        "def alone(n):\n    return alone(n - 1)\n"
        "class Alone:\n    pass\n"
        "def unlisted():\n    pass\n"
    )
    package = {"ratsep/m.py": ast.parse(source)}
    callers = {**package, "scripts/s.py": ast.parse("from ratsep.m import used, Used\nused(Used)\n")}
    found = unreferenced(package, callers, listed_unexported({"exported"}))
    assert found == ["ratsep/m.py:Alone", "ratsep/m.py:alone"]


def test_every_private_function_is_called_in_the_package():
    package = parsed(PACKAGE)
    assert unreferenced(package, package, private_functions) == []


def test_every_public_method_is_called_outside_the_tests():
    assert {p.parent.name for p in CALLERS} == {"ratsep", "scripts", "bench", "perfbench"}
    assert unreferenced(parsed(PACKAGE), parsed(CALLERS), public_methods) == []


def test_every_listed_name_is_exported_or_called_outside_the_tests():
    found = unreferenced(parsed(PACKAGE), parsed(CALLERS), listed_unexported(set(ratsep.__all__)))
    assert found == sorted(LISTED_FOR_USERS)
