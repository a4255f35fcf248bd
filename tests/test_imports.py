"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kposim"


def unused_imports(source):
    """Names imported in ``source`` that it never reads.

    A name counts as read when it appears as a bare name anywhere in the
    module (an attribute chain ``np.linalg.eigh`` reads ``np``) or is
    listed in ``__all__``.  ``from __future__`` imports are directives,
    not names.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_checker_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import numpy as np\nimport os.path\n"
           "from .units import TWO_PI, ns_to_us\nfrom . import model\n"
           "__all__ = ['model']\n"
           "def f():\n    return np.pi * TWO_PI + os.path.sep.count('/')\n")
    assert unused_imports(src) == [(4, "ns_to_us")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
