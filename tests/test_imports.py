"""Every imported name in the package, the tests and the demos is used.

A name counts as used when it is read anywhere in its module.  The
package's __init__.py imports names to re-export them, and __future__
imports change the compiler, so both are exempt; a name that __init__.py
exports is read in a demo or in a package module other than its own.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/pgconics", "tests", "demos")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names that source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import os, sys as system\nfrom a.b import c, d as e\nimport x.y\nprint(c, x)\n"
    assert unused_imports(source) == ["os", "system", "e"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def names_read(source):
    return {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}


def test_exports_are_read_outside_their_module():
    init = ast.parse((ROOT / "src/pgconics/__init__.py").read_text())
    exports = [(node.module, a.name) for node in init.body
               if isinstance(node, ast.ImportFrom) for a in node.names]
    read = {p.stem: names_read(p.read_text()) for p in MODULES if p.parent.name != "tests"}
    unread = [name for module, name in exports
              if not any(name in names for stem, names in read.items() if stem != module)]
    assert exports and unread == []
