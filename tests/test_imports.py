"""Every module-level import in the package, its tests and its demos is
used by its file, and every local variable a package function assigns
is read."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rnlie"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the package's modules by name, then the tests and demos by their path
LINTED = MODULES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", LINTED, ids=lambda p: (
    p.name if p.parent == SRC else str(p.relative_to(ROOT))))
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _own_scope(fn):
    """The nodes of fn's body, without the bodies of nested functions,
    lambdas and classes."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _unread_locals(path):
    """Names a function assigns in its own scope that nothing in it, or in
    the functions nested in it, reads.  Loop and unpack targets starting
    with an underscore are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        read |= {name for node in ast.walk(fn)
                 if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
        exempt = set()
        for node in _own_scope(fn):
            targets = ([node.target] if isinstance(node, (ast.For, ast.AsyncFor,
                                                          ast.comprehension)) else
                       [t for t in getattr(node, "targets", ())
                        if isinstance(t, (ast.Tuple, ast.List))])
            exempt |= {n.id for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name) and n.id.startswith("_")}
        for node in _own_scope(fn):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id not in read and node.id not in exempt):
                found.append(f"{path.name}:{node.lineno} {fn.name}.{node.id}")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_locals(path):
    assert _unread_locals(path) == []


def _unreferenced_private_names():
    """Module-level private names (functions, classes and constants whose
    name starts with one underscore) in the package that no module of it
    reads, as a name or as an attribute."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                sides = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for side in sides for n in ast.walk(side)
                           if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(name, node.lineno, t) for t in targets
                        if t.startswith("_") and not t.startswith("__")]
    return sorted(f"{name}:{line} {target}" for name, line, target in defined
                  if target not in read)


def test_no_unreferenced_private_names():
    assert _unreferenced_private_names() == []


def _imported_modules(path):
    """The top-level names of the modules a file imports, relative
    imports written with their leading dot (`from . import m` as .m)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add("." * node.level + node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            names |= {"." * node.level + alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("name", ["_exactlp.py", "_hull.py", "_rational.py"])
def test_exact_kernel_imports_only_the_standard_library(name):
    """The exact LP, hull and rational kernels import the standard
    library, each other and the error types, nothing else: no numpy or
    scipy behind an exact answer."""
    allowed = set(sys.stdlib_module_names) | {"._exactlp", "._rational", ".errors"}
    assert _imported_modules(SRC / name) - allowed == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_no_scipy(path):
    """scipy is a test-only dependency: no module of the package imports
    it, at module level or inside a function."""
    assert "scipy" not in _imported_modules(path)
