"""Checks on the package source itself."""

import ast
from pathlib import Path

import fkplump
from fkplump import cli, solver

#: Imported names that no code of their module uses: perfbench reads them
#: as attributes of the module (perfbench/selftest.py).
RE_EXPORTS = {("solver", "fft2"), ("symbols", "_frozen_array")}


def unused_imports(path):
    """The names a module imports and never reads (names in __all__ count as read)."""
    tree = ast.parse(path.read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported - used - all_entries(tree)


def all_entries(tree):
    """The names a module lists in __all__."""
    return {
        entry.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for entry in node.value.elts
    }


def test_no_dead_imports():
    modules = sorted(Path(fkplump.__file__).parent.glob("*.py"))
    assert modules
    dead = {(path.stem, name) for path in modules for name in unused_imports(path)}
    assert dead <= RE_EXPORTS


def imports_scipy_special(path):
    """Whether a module imports scipy.special or anything from it, in any spelling."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("scipy.special") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module.startswith("scipy.special"):
                return True
            if node.module == "scipy" and any(alias.name == "special" for alias in node.names):
                return True
    return False


def test_no_scipy_special():
    # scipy.fft loads scipy.special itself, so sys.modules cannot tell:
    # the symbol probes integrate |symbol|^p directly, with no special function
    modules = sorted(Path(fkplump.__file__).parent.glob("*.py"))
    assert [path.stem for path in modules if imports_scipy_special(path)] == []


def int_constants(tree):
    """The module-level names a module binds to an int literal."""
    return {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        and type(node.value.value) is int
        for target in node.targets if isinstance(target, ast.Name)
    }


def unbounded_caches(source):
    """The functions a module decorates with a functools cache other than
    lru_cache(maxsize=N), N an int literal or a module-level name bound to one."""
    tree = ast.parse(source)
    local = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names}
    bounds = int_constants(tree)

    def cache_kind(node):
        if isinstance(node, ast.Name):
            return local.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr if node.value.id == "functools" else None
        return None

    def bounded(node):
        sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] if not node.args else []
        return len(sizes) == 1 and (
            isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int
            or isinstance(sizes[0], ast.Name) and sizes[0].id in bounds)

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                kind = cache_kind(call.func if call else decorator)
                if kind == "cache" or kind == "lru_cache" and not (call and bounded(call)):
                    found.add(node.name)
    return found


def test_every_cache_is_bounded():
    # a cache that holds arrays grows without limit unless its size is fixed
    modules = sorted(Path(fkplump.__file__).parent.glob("*.py"))
    assert {(path.stem, name) for path in modules
            for name in unbounded_caches(path.read_text())} == set()
    examples = """
import functools
from functools import cache, lru_cache as memo
SIZE = 4
@functools.cache
def a(): pass
@functools.lru_cache
def b(): pass
@memo(maxsize=None)
def c(): pass
@cache
def d(): pass
@memo(4)
def e(): pass
@functools.lru_cache(maxsize=SIZE * 2)
def f(): pass
@memo(maxsize=4)
def ok(): pass
@functools.lru_cache(maxsize=SIZE)
def ok_too(): pass
"""
    assert unbounded_caches(examples) == set("abcdef")


def public_functions(tree):
    """The public functions a module defines at its top level."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }


def read_names(tree):
    """The names a module reads: bare names, attributes and __all__ entries."""
    read = all_entries(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_no_uncalled_functions():
    # a public function that no module of the package reads is dead code or
    # exists only for the tests, whose oracles (tests/oracles.py) hold those
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(fkplump.__file__).parent.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    defined = {(stem, name) for stem, tree in trees.items() for name in public_functions(tree)}
    assert {(stem, name) for stem, name in defined if name not in read} == set()


def test_no_imports_in_functions():
    # every import stands at the top of its module, so that a cycle or a
    # missing module shows when the package loads, not on one code path
    nested = {
        (path.stem, node.name)
        for path in sorted(Path(fkplump.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(inner, (ast.Import, ast.ImportFrom)) for inner in ast.walk(node))
    }
    assert nested == set()


def solver_exceptions():
    """The exception classes solver.py defines, by name."""
    return {
        name: value for name, value in vars(solver).items()
        if isinstance(value, type) and issubclass(value, BaseException)
        and value.__module__ == solver.__name__
    }


def test_cli_names_no_solver_exception():
    # solve ends every failed iteration in a status with a reason, and exit 3
    # comes from that status alone: a solver exception caught in the CLI
    # would be a second failure path
    errors = set(solver_exceptions())
    assert errors
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert (read_names(tree) | imported) & errors == set()


def test_solver_has_one_exception():
    # a failed step raises DivergenceError and nothing else: a second class,
    # or a subclass of it anywhere in the package, is a second failure path
    assert solver_exceptions() == {"DivergenceError": solver.DivergenceError}
    for path in sorted(Path(fkplump.__file__).parent.glob("*.py")):
        bases = {base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ClassDef) for base in node.bases}
        assert "DivergenceError" not in bases, path.stem
