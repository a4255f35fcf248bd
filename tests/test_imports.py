"""Every name a package module imports is used in that module, every
dataclass field is read somewhere, every function reads its parameters,
every exported error class is raised somewhere, only one function opens a
file for writing, no source uses a NumPy name newer than the declared
floor, and every function the benchmark's tracer wraps exists."""

import ast
import importlib.util
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "kposim"


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


def unread_dataclass_fields(package_sources, reader_sources):
    """``Class.field`` for every ``@dataclass`` field that no source loads.

    Fields are the annotated names in the body of each class of
    ``package_sources`` decorated with ``dataclass`` (bare or called).  A
    field counts as read when some ``obj.field`` is loaded anywhere in
    either source list, the class's own methods included, except as the
    value of a same-named keyword (``field=obj.field``), which only copies
    it forward.  The match goes by name, so a field that shares its name
    with an attribute read elsewhere passes unseen.
    """
    def is_dataclass(node):
        heads = (d.func if isinstance(d, ast.Call) else d
                 for d in node.decorator_list)
        return any(isinstance(h, ast.Name) and h.id == "dataclass"
                   for h in heads)

    fields, read = [], set()
    for source in package_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                fields += [(node.name, n.target.id) for n in node.body
                           if isinstance(n, ast.AnnAssign)]
    for source in list(package_sources) + list(reader_sources):
        tree = ast.parse(source)
        copied = {id(k.value) for k in ast.walk(tree)
                  if isinstance(k, ast.keyword)
                  and isinstance(k.value, ast.Attribute)
                  and k.value.attr == k.arg}
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)
                 and isinstance(n.ctx, ast.Load) and id(n) not in copied}
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


def test_checker_flags_an_unread_dataclass_field():
    cls = ("from dataclasses import dataclass\n"
           "@dataclass(frozen=True)\nclass P:\n    a: int\n    b: int = 0\n"
           "    def total(self):\n        return self.a\n"
           "@dataclass\nclass Q:\n    c: int\n"
           "class R:\n    d: int\n")
    use = "def f(q):\n    q.b = 1\n    return q\n"
    assert unread_dataclass_fields([cls], [use]) == ["P.b", "Q.c"]


def test_checker_does_not_count_a_field_copied_forward_as_read():
    cls = ("from dataclasses import dataclass\n"
           "@dataclass\nclass P:\n    a: int\n    b: int\n")
    use = ("def shift(p):\n    return P(a=p.a + 1, b=p.b)\n"
           "def g(p):\n    return f(c=p.b)\n")
    assert unread_dataclass_fields([cls], [use]) == []
    assert unread_dataclass_fields([cls], [use.replace("c=p.b", "b=p.b")]) == ["P.b"]


def test_every_dataclass_field_is_read():
    package = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    tests = [p.read_text(encoding="utf-8") for p in TESTS.glob("*.py")]
    assert unread_dataclass_fields(package, tests) == []


def unused_parameters(source):
    """``function(parameter)`` for each parameter its function never reads.

    Covers module-level and nested functions; methods (functions defined
    directly in a class body) are exempt, since an override keeps the
    signature of the interface it implements.  A parameter counts as read
    when its bare name is loaded anywhere in the function, nested
    functions included.
    """
    tree = ast.parse(source)
    methods = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for n in c.body}
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or id(node) in methods):
            continue
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}({name})" for name in names
                  if name not in loaded]
    return found


def test_checker_flags_an_unused_parameter():
    src = ("def f(a, b, *args, c=0, **kw):\n"
           "    def g(x, y):\n        return a + x\n"
           "    return g(c, 1) + len(kw)\n"
           "class E:\n    def value(self, t):\n        return 0\n")
    assert unused_parameters(src) == ["f(b)", "f(args)", "g(y)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_function_reads_every_parameter(module):
    assert unused_parameters((PACKAGE / module).read_text(encoding="utf-8")) == []


def unraised_errors(errors_source, package_sources):
    """Names in ``__all__`` of ``errors_source`` that no package source raises.

    A class counts as raised when some ``raise`` statement's exception is
    the bare name or a call of it (``raise E`` or ``raise E(...)``).  The
    base class ``KposimError`` is exempt: callers catch it, nothing raises
    it directly.
    """
    tree = ast.parse(errors_source)
    exported = next(
        [e.value for e in node.value.elts] for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets))
    raised = set()
    for source in package_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return [name for name in exported
            if name != "KposimError" and name not in raised]


def test_checker_flags_an_unraised_error():
    errors = ('__all__ = ["KposimError", "AError", "BError", "CError"]\n'
              "class KposimError(Exception):\n    pass\n")
    use = ("def f(x):\n    if x:\n        raise AError('a')\n"
           "    raise BError\n"
           "def g():\n    return CError('built, never raised')\n")
    assert unraised_errors(errors, [use]) == ["CError"]


def test_every_exported_error_has_a_raise_site():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    errors = (PACKAGE / "errors.py").read_text(encoding="utf-8")
    assert unraised_errors(errors, sources) == []


#: private names that one package module may still load from another, as
#: ``(reader, "module._name")``
PRIVATE_READS_ALLOWED = {
    ("spectral", "model._qubit_pair"),
    ("tomography", "fockspace._readonly"),
}


def private_reads(source):
    """``module._name`` for each private name ``source`` loads from a sibling.

    Siblings are the modules bound by ``from . import m [as alias]``, at any
    depth; a private name counts when it is imported with
    ``from .m import _name`` or loaded as ``alias._name``.  Dunder names are
    not private.
    """
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif private(alias.name):
                    found.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add(f"{aliases[node.value.id]}.{node.attr}")
    return sorted(found)


def test_checker_flags_a_private_read():
    src = ("from . import model as md\nfrom .fockspace import _readonly, ok\n"
           "def f(dim):\n    from . import dynamics\n"
           "    return md._blocks(dim), dynamics._freeze, md.__name__, md.x\n")
    assert private_reads(src) == ["dynamics._freeze", "fockspace._readonly",
                                  "model._blocks"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_module_reads_no_private_name_of_another(module):
    reader = module[:-len(".py")]
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert [name for name in private_reads(source)
            if (reader, name) not in PRIVATE_READS_ALLOWED] == []


def file_writers(source):
    """``(line, function)`` for each call of the builtin ``open`` in
    ``source`` that may write.

    A call may write when its mode, the second positional argument or
    ``mode=``, holds ``w``, ``a``, ``x`` or ``+``, or is not a string
    literal.  ``function`` is the innermost enclosing function, None at
    module level.
    """
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "open"):
                mode = (child.args[1] if len(child.args) > 1 else
                        next((k.value for k in child.keywords
                              if k.arg == "mode"), None))
                if mode is not None and not (
                        isinstance(mode, ast.Constant)
                        and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda f: f[0])


def test_checker_flags_a_second_writer():
    src = ("def _write_text(path, text):\n"
           "    with open(path, 'w') as fh:\n        fh.write(text)\n"
           "def read(path):\n"
           "    return open(path).read(), open(path, mode='rb'), fh.open('w')\n"
           "def append(path, mode):\n"
           "    return open(path, 'a'), open(path, mode=mode)\n"
           "    def inner(p):\n        return open(p, 'r+')\n"
           "LOG = open('log', 'x')\n")
    assert file_writers(src) == [(2, "_write_text"), (7, "append"),
                                 (7, "append"), (9, "inner"), (10, None)]


def test_only_write_text_opens_a_file_for_writing():
    # every artifact reaches the disk through fileio._write_text, which
    # creates the file's directory; a second writer would bypass it
    found = [(path.stem, function)
             for path in sorted(PACKAGE.glob("*.py"))
             for _, function in file_writers(path.read_text(encoding="utf-8"))]
    assert found == [("fileio", "_write_text")]


#: names NumPy added in 2.0 or later, absent from the ``numpy>=1.24`` that
#: pyproject.toml declares; ``ndarray.mT`` is matched on any object
NUMPY2_NAMES = {f"numpy.{n}" for n in (
    "trapezoid", "concat", "permute_dims", "matrix_transpose", "unstack",
    "cumulative_sum", "cumulative_prod", "isdtype", "vecdot", "astype",
    "pow", "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh",
    "bitwise_left_shift", "bitwise_right_shift", "bitwise_invert")} | {
    f"numpy.linalg.{n}" for n in (
        "matrix_norm", "vector_norm", "svdvals", "matrix_transpose", "vecdot",
        "diagonal", "trace", "outer", "cross", "matmul", "tensordot")}


def numpy2_names(source):
    """``(line, name)`` for each use in ``source`` of a name in NUMPY2_NAMES.

    A use is ``from numpy[.linalg] import name``, or an attribute chain
    whose root is bound by ``import numpy [as np]`` or
    ``import numpy.linalg as la``, such as ``np.linalg.vecdot``; any
    ``.mT`` counts as ``.mT``.  The same name from another module, such as
    ``scipy.integrate.trapezoid``, is not flagged.
    """
    tree = ast.parse(source)
    roots, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    roots[alias.asname or "numpy"] = (
                        alias.name if alias.asname else "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module in (
                "numpy", "numpy.linalg"):
            found += [(node.lineno, f"{node.module}.{a.name}")
                      for a in node.names
                      if f"{node.module}.{a.name}" in NUMPY2_NAMES]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr == "mT":
            found.append((node.lineno, ".mT"))
        chain, head = [node.attr], node.value
        while isinstance(head, ast.Attribute):
            chain.append(head.attr)
            head = head.value
        if isinstance(head, ast.Name) and head.id in roots:
            name = ".".join([roots[head.id]] + chain[::-1])
            if name in NUMPY2_NAMES:
                found.append((node.lineno, name))
    return sorted(found)


def test_checker_flags_a_numpy2_name():
    src = ("import numpy as np\nimport numpy.linalg as la\nimport numpy\n"
           "from numpy import concat, pi\n"
           "from scipy.integrate import trapezoid\n"
           "def f(x):\n"
           "    y = np.trapezoid(x) + trapezoid(x) + numpy.unstack(x)\n"
           "    return (la.vecdot(x, x), np.linalg.matrix_norm(x), x.mT,\n"
           "            x.T, np.linalg.norm(x), x.trace(), np.trace(x))\n")
    assert numpy2_names(src) == [
        (4, "numpy.concat"), (7, "numpy.trapezoid"), (7, "numpy.unstack"),
        (8, ".mT"), (8, "numpy.linalg.matrix_norm"),
        (8, "numpy.linalg.vecdot")]


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(TESTS.parent))
    for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]))
def test_source_uses_no_numpy2_name(path):
    assert numpy2_names((TESTS.parent / path).read_text(encoding="utf-8")) == []


def test_every_traced_target_resolves():
    # perfbench/spans.py wraps each (module, attribute) of TARGETS by name
    # and only counts one that is gone, in the benchmark's trace record
    path = TESTS.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    absent = [f"{module}.{attr}" for module, attr, _ in spans.TARGETS
              if getattr(importlib.import_module(f"kposim.{module}"), attr,
                         None) is None]
    assert spans.TARGETS and absent == []
