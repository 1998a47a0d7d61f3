"""Checks on the package source itself."""

import ast
from pathlib import Path

import fkplump

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
