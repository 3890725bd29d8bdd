"""Source guards over the sidforge package: no module reads a private
(underscore) name of a sibling module, since what modules share is public;
only datamodel.atomic_open opens a file for writing; no module keeps an
unused import; every function, class and method is read by the package
or the benchmark, not by tests alone; and generating inputs loads none of
the fitting or pipeline code."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import sidforge

PACKAGE_DIR = Path(sidforge.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
PERFBENCH_DIR = TESTS_DIR.parent / "perfbench"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str) -> list[str]:
    """`module._name` reads and `from .module import _name` imports of
    sibling modules in one module's source (sidforge imports its siblings
    relatively)."""
    tree = ast.parse(source)
    siblings: set[str] = set()  # local names bound by `from . import module`
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    found.append(f"from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _is_private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


def test_detector_sees_both_forms():
    source = "from . import pipeline as p\nfrom .rq import _nearest\np._write_json_atomic(1, 2)\n"
    assert private_reads(source) == ["from .rq import _nearest", "p._write_json_atomic (line 3)"]


def test_no_module_reads_a_siblings_private_names():
    found = {
        path.name: private_reads(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    assert {name: reads for name, reads in found.items() if reads} == {}


def _opens_for_writing(call: ast.Call) -> bool:
    """A `.write_text`/`.write_bytes` call, or an `open`/`.open` call given a
    write mode or a mode that is not a constant. `open` takes the mode second;
    `Path.open` takes it first, so a method call's first two arguments are
    checked."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    builtin = isinstance(func, ast.Name) and func.id == "open"
    if not (builtin or isinstance(func, ast.Attribute) and func.attr == "open"):
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    # A mode that is not a constant counts as a write mode, except among a
    # method's positional arguments, where it may be the path.
    strict = bool(modes) or builtin
    if not modes:
        modes = call.args[1:2] if builtin else call.args[:2]
    for mode in modes:
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            if re.fullmatch(r"[rwaxbt+]+", mode.value) and set(mode.value) & set("wax+"):
                return True
        elif strict:
            return True
    return False


def write_opens(source: str) -> list[str]:
    """`function:line` of every call in one module's source that opens a file
    for writing; calls outside any function are named `<module>`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call) and _opens_for_writing(child):
                found.append(f"{scope}:{child.lineno}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (`from __future__` aside)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_write_detector_sees_every_form():
    source = (
        "import os\n"
        "def reader(p):\n    return open(p), open(p, 'rb'), p.open(mode='r'), gz.open('a.txt')\n"
        "def writer(p, m):\n    open(p, 'w'); p.open('ab'); open(p, mode=m)\n"
        "    p.write_text('x')\n"
        "open('log', 'x')\n"
    )
    assert write_opens(source) == [
        "writer:5", "writer:5", "writer:5", "writer:6", "<module>:7"
    ]
    assert unused_imports(source) == ["os (line 1)"]
    assert unused_imports("from . import rq as q\nfrom .rq import a, b\nq.x(a)\n") == ["b (line 2)"]


def test_only_atomic_open_opens_files_for_writing():
    found = {
        path.name: write_opens(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }
    found = {name: opens for name, opens in found.items() if opens}
    assert set(found) == {"datamodel.py"}
    assert [site.split(":")[0] for site in found["datamodel.py"]] == ["atomic_open"]


def test_no_unused_imports():
    """Neither the package's modules nor the tests import a name they never
    read."""
    found = {
        f"{path.parent.name}/{path.name}": unused_imports(path.read_text(encoding="utf-8"))
        for path in [*sorted(PACKAGE_DIR.glob("*.py")), *sorted(TESTS_DIR.glob("*.py"))]
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _reads(tree: ast.AST) -> list[tuple[str, frozenset[int]]]:
    """(name, ids of the enclosing definitions) of every read in a module: a
    loaded name or attribute, an imported name, or each part of a string
    constant that is a dotted name."""
    found = []

    def visit(node, enclosing):
        if isinstance(node, _DEFINITIONS):
            enclosing = enclosing | {id(node)}
        names = ()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = (node.id,)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = (node.name.rsplit(".", 1)[-1],)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED_NAME.fullmatch(node.value):
                names = node.value.split(".")
        found.extend((name, enclosing) for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def unread_definitions(defined: dict[str, str], readers: dict[str, str]) -> list[str]:
    """`module:name` of each function, class and method (dunders aside) in
    the `defined` sources that no read in `defined` or `readers` names from
    outside the definition itself."""
    trees = {name: ast.parse(source) for name, source in {**readers, **defined}.items()}
    reads: dict[str, list[frozenset[int]]] = {}
    for tree in trees.values():
        for name, enclosing in _reads(tree):
            reads.setdefault(name, []).append(enclosing)
    return sorted(
        f"{module}:{node.name}"
        for module in defined
        for node in ast.walk(trees[module])
        if isinstance(node, _DEFINITIONS) and not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(id(node) not in enclosing for enclosing in reads.get(node.name, ()))
    )


def test_unread_detector_sees_each_kind_of_read():
    defined = {"m.py": (
        "def used(): pass\n"
        "def recursive(): return recursive()\n"
        "def by_string(): pass\n"
        "class C:\n    def method(self): return self.method()\n    def __len__(self): return 0\n"
        "    def called(self): pass\n"
        "def shadowed(): pass\n"
        "x = used\n"
        "C().called()\n"
        "shadowed = 1\n"
    )}
    readers = {"b.py": "from m import C\nwrap('m.by_string')\n"}
    assert unread_definitions(defined, readers) == ["m.py:method", "m.py:recursive", "m.py:shadowed"]
    assert unread_definitions(defined, {}) == [
        "m.py:by_string", "m.py:method", "m.py:recursive", "m.py:shadowed"]


def test_every_definition_is_read_outside_the_tests():
    """A member that only tests read is dead code: delete it with its tests.
    perfbench/ counts as a reader, since it wraps and reads members by name."""
    defined = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE_DIR.glob("*.py"))}
    readers = {
        f"perfbench/{path.name}": path.read_text(encoding="utf-8")
        for path in sorted(PERFBENCH_DIR.glob("*.py"))
        if not path.name.startswith("test_")
    }
    assert unread_definitions(defined, readers) == []


def attribute_readers(source: str, attr: str) -> list[str]:
    """Names of the functions in a module's source that read `<anything>.attr`,
    each read counted toward its innermost enclosing function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.Attribute) and child.attr == attr and isinstance(child.ctx, ast.Load):
                found.append(scope)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sorted(set(found))


def test_only_split_rows_reads_a_splits_users():
    """Which items make a user's history, and which users are evaluated, is
    decided in one place: recommender.split_rows turns a split into
    assignment rows, and every other stage-5 function reads those. Reading
    a split's columns means reading its `ends`, which no other object in the
    module has."""
    source = "def f(s):\n    def g():\n        return s.ends\n    return g, s.ends_x\nx = y.ends\n"
    assert attribute_readers(source, "ends") == ["<module>", "g"]
    source = (PACKAGE_DIR / "recommender.py").read_text(encoding="utf-8")
    assert attribute_readers(source, "ends") == ["split_rows"]


def test_generating_inputs_loads_no_fit_or_pipeline_code():
    """Making a synthetic catalog and log (the benchmark's set-up) imports
    datamodel and synthgen only: neither may pull in rq, the pipeline, or the
    thread-pool and hashing modules those load."""
    heavy = ("sidforge.rq", "sidforge.pipeline", "concurrent.futures", "hashlib")
    code = f"import sidforge.datamodel, sidforge.synthgen, sys; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
