"""Every name a module imports is used by that module, every private
helper and module-level constant of the package is used somewhere in it,
and every cross-reference in a docstring names something of the package."""

import ast
import re
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


#: The field's Frobenius matrix and its multiplication matrices of the
#: power basis: the Moore map's layout.
FIELD_INTERNALS = {"_frob", "_basis_mul"}

#: Outside galois, the one reader of a field internal: a linearized
#: polynomial's matrix takes F from the field and its M(u_i) from
#: ``ExtField.mul_matrices``.
ALLOWED_INTERNAL_READS = {"linpoly.py": {("LinearizedPoly", "_frob")}}


def field_internal_reads(source: str) -> set[tuple[str, str]]:
    """The field internals a module reads, each with the top-level
    definition that reads it (``<module>`` for other statements)."""
    return {(getattr(stmt, "name", "<module>"), node.attr)
            for stmt in ast.parse(source).body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute) and node.attr in FIELD_INTERNALS}


def unallowed_internal_reads(name: str, source: str) -> set[tuple[str, str]]:
    return field_internal_reads(source) - ALLOWED_INTERNAL_READS.get(name, set())


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "galois.py"],
                         ids=lambda p: p.name)
def test_moore_layout_stays_in_galois(path):
    """Outside galois only a linearized polynomial's own matrix reads a
    field internal, and only the Frobenius matrix; every Moore matrix comes
    from ExtField.moore and every multiplication matrix from
    ExtField.mul_matrices."""
    assert unallowed_internal_reads(path.name, path.read_text()) == set()


def test_field_internal_reader_is_reported():
    source = ("class Poly:\n"
              "    def power(self, f):\n"
              "        return f._frob\n"
              "def solve(f):\n"
              "    return f._basis_mul\n"
              "def order(f):\n"
              "    return f.q\n"
              "TABLE = field._basis_mul\n")
    assert field_internal_reads(source) == {
        ("Poly", "_frob"), ("solve", "_basis_mul"), ("<module>", "_basis_mul")}
    linpoly = ("class LinearizedPoly:\n"
               "    def __init__(self, f):\n"
               "        self.frob = f._frob\n"
               "        self.table = f._basis_mul\n")
    assert unallowed_internal_reads("linpoly.py", linpoly) == {
        ("LinearizedPoly", "_basis_mul")}
    assert unallowed_internal_reads("lrc.py", linpoly) == {
        ("LinearizedPoly", "_frob"), ("LinearizedPoly", "_basis_mul")}


#: What only galois does: build a field element, or check two fields.
GALOIS_ONLY_CALLS = {"FieldElement", "_require_same"}


def galois_only_calls(source: str) -> list[int]:
    """Lines that construct a ``FieldElement`` or call a field's
    ``_require_same``, by name or as an attribute."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in GALOIS_ONLY_CALLS)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "galois.py"],
                         ids=lambda p: p.name)
def test_element_coefficient_bridge_stays_in_galois(path):
    """Outside galois, elements and coefficient rows are converted only by
    galois.coefficients and galois.as_elements."""
    assert galois_only_calls(path.read_text()) == []


def test_galois_only_call_is_reported():
    source = ("from .galois import FieldElement, as_elements, galois\n"
              "def wrap(f, row):\n"
              "    return FieldElement(f, tuple(row))\n"
              "def check(f, e):\n"
              "    f._require_same(e.field)\n"
              "    return galois.FieldElement(f, e.coeffs)\n"
              "def fine(f, e, rows):\n"
              "    ok = isinstance(e, FieldElement) and f.element([1])\n"
              "    return ok, as_elements(f, rows), f._require_same\n")
    assert galois_only_calls(source) == [3, 5, 6]


#: A Sphinx cross-reference: its role and its target, ``~`` dropped.
CROSS_REFERENCE = re.compile(r":(?:func|class|meth|attr|mod):`~?([\w.]+)`")


def bound_names(stmt: ast.stmt, package: bool) -> list[str]:
    """Names a top-level or class-level statement defines or assigns; in
    the package's ``__init__`` also the names it imports."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)]
    if package and isinstance(stmt, ast.ImportFrom):
        return [alias.asname or alias.name for alias in stmt.names]
    return []


def class_members(cls: ast.ClassDef) -> set[str]:
    """A class's methods and class-level names, and the attributes its
    methods assign on ``self``."""
    members = {name for stmt in cls.body for name in bound_names(stmt, False)}
    return members | {node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"}


def package_names(sources: dict[str, str]) -> set[str]:
    """Every target a docstring may name, keyed by module name (``__init__``
    is the package): modules, their top-level names and their classes'
    members, bare and qualified by class, module and ``lmbr``."""
    names = {"lmbr"}
    for module, source in sources.items():
        package = module == "__init__"
        prefixes = ["", "lmbr."] if package else ["", f"{module}.",
                                                  f"lmbr.{module}."]
        if not package:
            names |= {module, f"lmbr.{module}"}
        for stmt in ast.parse(source).body:
            for name in bound_names(stmt, package):
                names |= {prefix + name for prefix in prefixes}
            if isinstance(stmt, ast.ClassDef):
                for member in class_members(stmt):
                    names.add(member)
                    names |= {f"{prefix}{stmt.name}.{member}"
                              for prefix in prefixes}
    return names


def documentation(source: str) -> list[str]:
    """The module's docstrings and its ``#:`` doc-comment lines."""
    docs = [ast.get_docstring(node) or ""
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]
    return docs + [line for line in source.splitlines()
                   if line.lstrip().startswith("#:")]


def dangling_references(sources: dict[str, str]) -> list[str]:
    """``module: target`` for every cross-reference in a docstring or
    doc-comment whose target is no definition, assigned attribute or module
    of the sources."""
    known = package_names(sources)
    return sorted({f"{module}: {target}"
                   for module, source in sources.items()
                   for doc in documentation(source)
                   for target in CROSS_REFERENCE.findall(doc)
                   if target not in known})


def test_every_docstring_reference_resolves():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert any(CROSS_REFERENCE.search(source) for source in sources.values())
    assert dangling_references(sources) == []


def test_dangling_reference_is_reported():
    lib = ('"""See :func:`helper`, :mod:`lmbr.lib` and :func:`lib.gone`."""\n'
           "def helper():\n"
           '    """Calls :func:`_removed` and :meth:`Box.size`."""\n'
           "class Box:\n"
           '    """Has :attr:`width`, :attr:`~lmbr.lib.Box.height` and\n'
           '    :class:`Box`, but no :attr:`depth`."""\n'
           "    #: Not :class:`Lid`.\n"
           "    height = 2\n"
           "    def __init__(self):\n"
           "        self.width = 1\n"
           "    def size(self):\n"
           '        """Not :meth:`Box.area`."""\n'
           "        return 0\n")
    assert dangling_references({"lib": lib}) == [
        "lib: Box.area", "lib: Lid", "lib: _removed", "lib: depth",
        "lib: lib.gone"]


#: The local families: their modules and their code classes.
FAMILY_MODULES = {"mbr", "frlocal"}
FAMILY_CLASSES = {"MbrCode", "FrCode"}


def family_imports(source: str) -> list[str]:
    """``module (line n)`` for every import of a local-family module, or
    of a name from one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module not in (None,
                                                                    "lmbr"):
            modules = [node.module]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{module.split('.')[-1]} (line {node.lineno})"
                  for module in modules
                  if module.split(".")[-1] in FAMILY_MODULES]
    return sorted(found)


def family_type_tests(source: str) -> list[int]:
    """Lines of the ``isinstance`` and ``issubclass`` calls whose class
    argument names a local-family class."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("isinstance", "issubclass")
        and len(node.args) == 2
        and FAMILY_CLASSES & {n.id if isinstance(n, ast.Name) else n.attr
                              for n in ast.walk(node.args[1])
                              if isinstance(n, (ast.Name, ast.Attribute))})


#: Modules and the local-family modules each may not import: the composed
#: code and the bounds reach a local code only through the contract the
#: README's "Local codes" paragraph names, and neither family imports the
#: other.
FAMILY_FREE = {"lrc.py": FAMILY_MODULES, "bounds.py": FAMILY_MODULES,
               "mbr.py": {"frlocal"}, "frlocal.py": {"mbr"}}


def forbidden_family_imports(name: str, source: str) -> list[str]:
    """The imports :data:`FAMILY_FREE` forbids module ``name``."""
    return [found for found in family_imports(source)
            if found.split()[0] in FAMILY_FREE[name]]


def test_lrc_imports_no_local_family():
    """lrc and bounds import no local family, and no family the other."""
    paths = {path.name: path for path in MODULES}
    assert set(FAMILY_FREE) <= set(paths)
    for name in FAMILY_FREE:
        assert forbidden_family_imports(name, paths[name].read_text()) == [], \
            name


def test_forbidden_family_import_is_reported():
    """A name imported from the MBR module, as bounds and frlocal once
    imported its profile class, is reported in both; a family is reported
    only for importing the other."""
    source = ("from .errors import ParameterError\n"
              "from .mbr import RankProfile\n"
              "from . import frlocal\n")
    assert forbidden_family_imports("bounds.py", source) == [
        "frlocal (line 3)", "mbr (line 2)"]
    assert forbidden_family_imports("frlocal.py", source) == ["mbr (line 2)"]
    assert forbidden_family_imports("mbr.py", source) == ["frlocal (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_type_test_on_a_local_family(path):
    assert family_type_tests(path.read_text()) == []


def test_local_family_branch_is_reported():
    source = ("from .mbr import MbrCode\n"
              "from . import frlocal, galois\n"
              "import lmbr.mbr as m\n"
              "from .galois import field\n"
              "def repair(local):\n"
              "    if isinstance(local, MbrCode):\n"
              "        return 1\n"
              "    if isinstance(local, (int, frlocal.FrCode)):\n"
              "        return 2\n"
              "    if issubclass(type(local), m.MbrCode):\n"
              "        return 3\n"
              "    return isinstance(local, dict)\n")
    assert family_imports(source) == [
        "frlocal (line 2)", "mbr (line 1)", "mbr (line 3)"]
    assert family_type_tests(source) == [6, 8, 10]
