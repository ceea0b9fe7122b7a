"""Every name a module imports is used by that module, and every private
helper and module-level constant of the package is used somewhere in it."""

import ast
from pathlib import Path

import pytest

import lmbr

SOURCES = sorted(Path(lmbr.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of the module
    reads; ``__future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from itertools import combinations, product\n"
              "x = np.zeros(2)\n"
              "y = list(product([1], [2]))\n")
    assert unused_imports(source) == ["combinations (line 3)"]


def private_definitions(tree: ast.AST) -> set[str]:
    """Functions, methods and classes whose names start with one underscore
    (dunder methods are called by the language, not by name)."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def orphaned_privates(sources: list[str]) -> list[str]:
    """Private definitions that no name or attribute in any of the sources
    refers to; a definition is not a reference to itself."""
    trees = [ast.parse(source) for source in sources]
    defined = set().union(*(private_definitions(tree) for tree in trees))
    return sorted(defined - read_names(trees))


def read_names(trees: list[ast.AST]) -> set[str]:
    """Every name, and every attribute name, that some node of the trees
    reads (assignment targets are not reads)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_every_private_helper_is_referenced():
    sources = [path.read_text() for path in SOURCES]
    assert any(private_definitions(ast.parse(source)) for source in sources)
    assert orphaned_privates(sources) == []


def test_orphaned_private_is_reported():
    lib = ("def _used(x):\n"
           "    return x\n"
           "def _orphan():\n"
           "    return 0\n"
           "class Box:\n"
           "    def __init__(self):\n"
           "        self._attr = 1\n"
           "    def _method(self):\n"
           "        return self._attr\n"
           "    def _unused_method(self):\n"
           "        return 2\n")
    user = "from lib import _used\ny = _used(Box()._method())\n"
    assert orphaned_privates([lib, user]) == ["_orphan", "_unused_method"]


def module_constants(tree: ast.AST) -> set[str]:
    """UPPER_CASE names bound by the module's own top-level assignments."""
    targets = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets += stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets.append(stmt.target)
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and node.id.isupper()}


def unread_constants(sources: list[str]) -> list[str]:
    """Module constants that no name or attribute in any of the sources
    reads; the assignment that binds a constant is not a read."""
    trees = [ast.parse(source) for source in sources]
    defined = set().union(*(module_constants(tree) for tree in trees))
    return sorted(defined - read_names(trees))


def test_every_constant_is_read():
    sources = [path.read_text() for path in SOURCES]
    assert any(module_constants(ast.parse(source)) for source in sources)
    assert unread_constants(sources) == []


def test_unread_constant_is_reported():
    lib = ("CAP = 1 << 22\n"
           "LIMIT: int = 5\n"
           "USED = 3\n"
           "_PRIVATE = 4\n"
           "lower = 2\n"
           "class Box:\n"
           "    INNER = 1\n"
           "def f():\n"
           "    LOCAL = 7\n"
           "    return USED + LOCAL\n")
    user = "import lib\nx = lib._PRIVATE\n"
    assert unread_constants([lib, user]) == ["CAP", "LIMIT"]


#: The field's Frobenius matrix and its table windows: the Moore map's layout.
FIELD_INTERNALS = {"_frob", "_basis_mul"}


def field_internal_readers(source: str) -> set[str]:
    """Top-level definitions of a module that read the field's Frobenius
    matrix or its table windows (``<module>`` for other statements)."""
    return {getattr(stmt, "name", "<module>") for stmt in ast.parse(source).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and node.attr in FIELD_INTERNALS}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "galois.py"],
                         ids=lambda p: p.name)
def test_moore_layout_stays_in_galois(path):
    """Outside galois only a linearized polynomial's own matrix reads the
    field's internals; every Moore matrix comes from ExtField.moore."""
    allowed = {"linpoly.py": {"LinearizedPoly"}}.get(path.name, set())
    assert field_internal_readers(path.read_text()) <= allowed


def test_field_internal_reader_is_reported():
    source = ("class Poly:\n"
              "    def power(self, f):\n"
              "        return f._frob\n"
              "def solve(f):\n"
              "    return f._basis_mul\n"
              "def order(f):\n"
              "    return f.q\n"
              "TABLE = field._basis_mul\n")
    assert field_internal_readers(source) == {"Poly", "solve", "<module>"}
