"""The package depends at run time on the standard library and `mpmath` alone.

`numpy` and `sympy` may be installed next to it, but they are not declared,
so an import of either (or of anything else) in `src/` fails here.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cluster_painleve"
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
