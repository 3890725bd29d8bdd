"""No sidforge module reads a private (underscore) name of a sibling module;
what modules share is public."""

from __future__ import annotations

import ast
from pathlib import Path

import sidforge

PACKAGE_DIR = Path(sidforge.__file__).resolve().parent


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
