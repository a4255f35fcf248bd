"""Every name a package module imports is used in that module, and every
``SystemParams`` field is read somewhere in the package."""

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


def unread_fields(sources, class_name):
    """Annotated fields of ``class_name`` that no source reads as an attribute.

    A field counts as read when some ``obj.field`` is loaded outside the
    class body; the class's own validation does not count.
    """
    fields, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                fields |= {n.target.id for n in node.body
                           if isinstance(n, ast.AnnAssign)}
                inside |= {id(n) for n in ast.walk(node)}
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.ctx, ast.Load) and id(n) not in inside}
    return sorted(fields - read)


def test_checker_flags_an_unread_field():
    cls = ("class P:\n    a: int\n    b: int = 0\n"
           "    def check(self):\n        return self.b > 0\n")
    use = "def f(p):\n    p.b = 1\n    return p.a\n"
    assert unread_fields([cls, use], "P") == ["b"]


def test_every_system_params_field_is_read():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    assert unread_fields(sources, "SystemParams") == []
