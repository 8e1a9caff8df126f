"""Every module-level import in the package, its tests and its demos is
used by its file, every local variable a package function assigns is
read, and so is every field of the package's dataclasses."""

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


def _unread_dataclass_fields(defining, readers):
    """The annotated fields of each @dataclass class in the files
    `defining` that no file of `readers` reads as an attribute."""
    read = set()
    for path in readers:
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}

    def is_dataclass(deco):
        deco = deco.func if isinstance(deco, ast.Call) else deco
        return getattr(deco, "id", getattr(deco, "attr", None)) == "dataclass"

    found = []
    for path in defining:
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef) and any(map(is_dataclass, cls.decorator_list)):
                found += [f"{path.name}:{node.lineno} {cls.name}.{node.target.id}"
                          for node in cls.body if isinstance(node, ast.AnnAssign)
                          and isinstance(node.target, ast.Name)
                          and node.target.id not in read]
    return sorted(found)


def test_every_dataclass_field_is_read():
    """A field that neither the package, its tests, its demos nor the
    benchmark reads is state that no answer depends on."""
    readers = sorted(SRC.glob("*.py")) + sorted(
        path for folder in ("tests", "demos", "bench") for path in ROOT.glob(f"{folder}/*.py"))
    assert _unread_dataclass_fields(sorted(SRC.glob("*.py")), readers) == []


def test_unread_dataclass_fields_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n    read: int\n    unread: int = 0\n"
        "    def total(self):\n        return self.read\n"
        "@dataclasses.dataclass\nclass B:\n    written: int\n"
        "class Plain:\n    ignored: int\n"
        "def store(b):\n    b.written = 1\n")
    assert _unread_dataclass_fields([probe], [probe]) == [
        "probe.py:11 B.written", "probe.py:6 A.unread"]


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


def _private_numpy_names(path):
    """The dotted names under numpy with a private part (one leading
    underscore, as in numpy.linalg._umath_linalg) that a file imports,
    or reaches as an attribute of a name bound to a numpy module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    bound.add(alias.asname or "numpy")
                    found.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            if node.module.split(".")[0] == "numpy":
                found |= {f"{node.module}.{alias.name}" for alias in node.names}
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            found.add(".".join(["numpy"] + chain))
    return sorted(name for name in found
                  if any(part.startswith("_") and not part.startswith("__")
                         for part in name.split(".")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_uses_public_numpy_only(path):
    """The evaluator's speed comes from the public numpy API alone
    (np.linalg.eigvalsh, one call per stack), not from numpy's private
    modules such as numpy.linalg._umath_linalg; no module of the package
    imports or reaches one."""
    assert _private_numpy_names(path) == []


def test_private_numpy_names_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nfrom numpy.linalg import _umath_linalg\n"
                     "import numpy._core.umath\n"
                     "w = np.linalg._umath_linalg.eigvalsh_lo\nv = np.__version__\n"
                     "x = np.linalg.eigvalsh\n")
    assert _private_numpy_names(probe) == [
        "numpy._core.umath", "numpy.linalg._umath_linalg",
        "numpy.linalg._umath_linalg.eigvalsh_lo"]


def _unbounded_caches(path):
    """Process-wide caches that can grow without bound: a functools
    lru_cache at module level (on a function, a method of a module-level
    class, or called in a module-level statement) that is not given an
    int maxsize, and a functools cache there on anything but a function
    without parameters.  A cache made inside a function lives as long as
    what holds it, and is not counted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {}   # local name -> "lru_cache" or "cache"
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update({alias.asname or alias.name: alias.name for alias in node.names})

    def kind(node):
        if isinstance(node, ast.Call):
            node = node.func
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            return node.attr
        return names.get(node.id) if isinstance(node, ast.Name) else None

    def bounded(node):
        """An lru_cache(...) call whose maxsize is an int literal."""
        if not isinstance(node, ast.Call):
            return False
        given = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
        return any(isinstance(v, ast.Constant) and type(v.value) is int for v in given)

    functions = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        functions += [n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for fn in functions:
        a = fn.args
        takes = a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg
        for deco in fn.decorator_list:
            if ((kind(deco) == "lru_cache" and not bounded(deco))
                    or (kind(deco) == "cache" and takes)):
                found.append((deco.lineno, fn.name))
    statements = [n for n in tree.body if not isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for stmt in statements:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and (
                    (kind(node) == "lru_cache" and not bounded(node))
                    or kind(node) == "cache"):
                found.append((node.lineno, "<module>"))
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unbounded_process_wide_cache(path):
    """Every module-level lru_cache of the package passes an int maxsize,
    and a module-level functools.cache sits only on a function without
    parameters (cli.build_parser), so the memory a long-running process
    holds in caches stays bounded."""
    assert _unbounded_caches(path) == []


def test_unbounded_caches_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import functools\nfrom functools import lru_cache as lru, cache\n"
        "@functools.lru_cache(maxsize=8)\ndef ok(a):\n    return a\n"
        "@functools.cache\ndef ok_too():\n    return 1\n"
        "@functools.lru_cache\ndef bare(a):\n    return a\n"
        "@lru(None)\ndef unbounded(a):\n    return a\n"
        "@functools.lru_cache(maxsize=True)\ndef flag(a):\n    return a\n"
        "@cache\ndef keyed(a):\n    return a\n"
        "class K:\n    @functools.cache\n    def method(self):\n        return 1\n"
        "held = functools.cache(lambda: 1)\n"
        "def inner(a):\n    return functools.cache(lambda x: x + a)\n")
    assert _unbounded_caches(probe) == [
        "probe.py:9 bare", "probe.py:12 unbounded", "probe.py:15 flag",
        "probe.py:18 keyed", "probe.py:22 method", "probe.py:25 <module>"]
