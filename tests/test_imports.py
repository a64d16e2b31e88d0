"""The package depends at run time on the standard library and `mpmath` alone,
and only `zsystem` imports `mpmath`, for the roots of `factor_roots`.

`numpy` and `sympy` may be installed next to it, but they are not declared,
so an import of either (or of anything else) in `src/` fails here.  So does
an imported name that nothing in `src/` reads, since no linter runs on it,
a module-level function or class of `src/` that only tests name (a name that
exists for its tests belongs in `tests/`), a public method of a class of
`src/` that only tests call, a module other than `coprime` that
names a private slot of Fraction, and a module that takes another one's
underscore name outside a short allow-list.  The package's `__all__` lists
exactly the public names it binds.
"""

import ast
import re
import sys
import types
from collections import Counter
from pathlib import Path

import cluster_painleve

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cluster_painleve"
ALLOWED = sys.stdlib_module_names | {"mpmath"}


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_only_the_stdlib_and_mpmath():
    files = sorted(SRC.glob("*.py"))
    bad = [f"{path.name}: {name}" for path in files
           for name in _absolute_imports(ast.parse(path.read_text(), str(path)))
           if name.partition(".")[0] not in ALLOWED]
    assert len(files) > 10 and bad == []


def test_the_scan_sees_function_level_imports():
    tree = ast.parse("def f():\n    import numpy.linalg\n    from sympy import S\n"
                     "    from . import laurent\n")
    assert list(_absolute_imports(tree)) == ["numpy.linalg", "sympy"]


def _mpmath_importers(trees):
    """Each module of the trees other than `zsystem` that imports `mpmath`."""
    return sorted(stem for stem, tree in trees.items() if stem != "zsystem" and any(
        name.partition(".")[0] == "mpmath" for name in _absolute_imports(tree)))


def test_only_zsystem_imports_mpmath():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    assert len(trees) > 10 and _mpmath_importers(trees) == []


def test_the_scan_sees_mpmath_imports():
    trees = {name: ast.parse(text) for name, text in {
        "zsystem": "def f():\n    import mpmath\n",
        "a": "def g():\n    from mpmath.libmp import NoConvergence\n",
        "b": "import mpmathx\nfrom . import mpmath\n",
        "c": "import os, mpmath as mp\n",
    }.items()}
    assert _mpmath_importers(trees) == ["a", "c"]


def _unused_imports(trees):
    """``module: name`` for each name a module imports that neither the module
    itself reads nor another one reads as ``module.name``.  ``__future__``
    imports are skipped, and so is ``__init__``, whose imports are exports."""
    attrs = {(node.value.id, node.attr) for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in loads and (stem, name) not in attrs:
                        yield f"{stem}: {name}"


def test_src_reads_every_name_it_imports():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    assert len(trees) > 10 and list(_unused_imports(trees)) == []


def test_the_scan_sees_unused_imports():
    trees = {name: ast.parse(text) for name, text in {
        "a": "from __future__ import annotations\nimport os.path\nfrom .b import f, g as h\n"
             "def k(x: h):\n    from .c import m\n    return os.path.join(x)\n",
        "b": "from .a import k\nfrom .c import n\n",
        "c": "from . import b\nb.n()\n",
        "__init__": "from .a import k\n",
    }.items()}
    assert sorted(_unused_imports(trees)) == ["a: f", "a: m", "b: k"]


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(tree):
    """Each identifier a tree names: as a name, an attribute, an imported
    name, or a part of a string that spells a dotted name (for getattr,
    monkeypatch and the tracer's target table)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield from node.value.split(".")


def _unreferenced_defs(src_trees, other_trees):
    """``module: name`` for each module-level function or class of the
    `src_trees` that no tree names outside its own definition.  A function
    registered by an ``@_criterion(...)`` decorator counts as used."""
    counts = Counter(name for tree in [*src_trees.values(), *other_trees]
                     for name in _names(tree))
    for stem, tree in src_trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_criterion"
                   for d in node.decorator_list):
                continue
            if counts[node.name] == sum(name == node.name for name in _names(node)):
                yield f"{stem}: {node.name}"


def test_src_defines_nothing_unreferenced():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    # the package's callers; tests do not count as one
    others = [ast.parse(path.read_text(), str(path)) for folder in ("perfbench", "scripts")
              for path in (ROOT / folder).glob("*.py")]
    assert len(trees) > 10 and len(others) > 5
    assert list(_unreferenced_defs(trees, others)) == []


def test_the_scan_sees_unreferenced_defs():
    trees = {name: ast.parse(text) for name, text in {
        "a": "def dead(n):\n    return dead(n - 1)\n"
             "@_criterion(1, 'title', 1.0)\ndef _c01():\n    pass\n"
             "class Traced:\n    def step(self):\n        pass\n"
             "def imported():\n    'imported'\n",
        "b": "from .a import imported\nclass Unused(ValueError):\n    pass\n",
    }.items()}
    other = ast.parse("TARGETS = [('a', 'Traced.step')]\n# dead\nx = 'dead code'\n")
    assert sorted(_unreferenced_defs(trees, [other])) == ["a: dead", "b: Unused"]


def _attribute_names(tree):
    """Each name a tree reads as an attribute or spells in a dotted string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "." in node.value and DOTTED.fullmatch(node.value)):
            yield from node.value.split(".")


def _unreferenced_methods(src_trees, other_trees):
    """``module: Class.name`` for each public method of a class of the
    `src_trees` whose name no tree reads as an attribute or spells in a
    dotted string outside the method itself."""
    counts = Counter(name for tree in [*src_trees.values(), *other_trees]
                     for name in _attribute_names(tree))
    for stem, tree in src_trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and counts[node.name] == sum(
                            name == node.name for name in _attribute_names(node))):
                    yield f"{stem}: {cls.name}.{node.name}"


def test_src_defines_no_method_that_only_tests_call():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    others = [ast.parse(path.read_text(), str(path)) for folder in ("perfbench", "scripts")
              for path in (ROOT / folder).glob("*.py")]
    assert len(trees) > 10 and len(others) > 5
    assert list(_unreferenced_methods(trees, others)) == []


def test_the_scan_sees_unreferenced_methods():
    trees = {name: ast.parse(text) for name, text in {
        "a": "class P:\n"
             "    def used(self):\n        return self.walk\n"
             "    def walk(self):\n        return self.walk()\n"
             "    def rec(self):\n        return self.rec()\n"
             "    def traced(self):\n        pass\n"
             "    def named(self):\n        pass\n"
             "    def stored(self):\n        pass\n"
             "    def _private(self):\n        pass\n"
             "    def __len__(self):\n        return 0\n",
        "b": "def f(p):\n    p.stored = 1\n    class Q:\n"
             "        def gen(self):\n            pass\n    return p.used()\n",
    }.items()}
    other = ast.parse("TARGETS = [('a', 'P.traced')]\ngetattr(p, 'named')\n")
    assert sorted(_unreferenced_methods(trees, [other])) == [
        "a: P.named", "a: P.rec", "a: P.stored", "b: Q.gen"]


def test_all_lists_each_public_name_the_package_binds():
    public = {name for name, value in vars(cluster_painleve).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(cluster_painleve.__all__) == sorted(public | {"__version__"})


FRACTION_SLOTS = {"_numerator", "_denominator"}


def _slot_names(tree):
    """Line numbers where the tree names a Fraction slot: as an attribute, a
    bare name or a string (for getattr and setattr)."""
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute) else
                node.id if isinstance(node, ast.Name) else
                node.value if isinstance(node, ast.Constant) else None)
        if name in FRACTION_SLOTS:
            yield node.lineno


def test_only_coprime_touches_fraction_internals():
    files = sorted(SRC.glob("*.py"))
    bad = [f"{path.name}:{line}" for path in files if path.stem != "coprime"
           for line in _slot_names(ast.parse(path.read_text(), str(path)))]
    assert len(files) > 10 and bad == []


def test_the_scan_sees_fraction_slots():
    tree = ast.parse("x = f._numerator\nsetattr(f, '_denominator', 1)\n"
                     "_numerator = 2\ny = f.numerator, '_numerators'\n")
    assert sorted(_slot_names(tree)) == [1, 2, 3]


# the underscore names that one module of `src/` may take from another
PRIVATE_IMPORTS = {"quiver._pos", "quiver._sgn", "coprime._from_coprime_ints"}


def _private_imports(trees):
    """``module: source._name`` for each underscore name a module takes from
    another module of the package: by ``from .source import _name``, or as
    ``source._name`` after ``from . import source``."""
    for stem, tree in trees.items():
        mods = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        mods[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        yield f"{stem}: {node.module}.{alias.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in mods and node.attr.startswith("_")):
                yield f"{stem}: {mods[node.value.id]}.{node.attr}"


def test_src_takes_private_names_only_from_the_allow_list():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    found = list(_private_imports(trees))
    assert len(trees) > 10 and found
    assert [f for f in found if f.partition(": ")[2] not in PRIVATE_IMPORTS] == []


def test_the_scan_sees_private_imports():
    trees = {name: ast.parse(text) for name, text in {
        "a": "from __future__ import annotations\nfrom .b import _f, g\n"
             "from . import c as cc, d\nx = cc._h(d.k, d.__name__)\n",
        "b": "def f():\n    from .c import _m\n    return _m, self._n\n",
    }.items()}
    assert sorted(_private_imports(trees)) == [
        "a: b._f", "a: c._h", "a: d.__name__", "b: c._m"]
