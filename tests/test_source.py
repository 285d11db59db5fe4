"""Checks on the source of src/ghbound itself.

* Code with no caller is deleted: every module-level private function or
  class (one leading underscore) is referenced somewhere in src/ghbound
  outside its own definition, by name, as an attribute, or in an import.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ghbound

SRC = Path(ghbound.__file__).parent


def _private_definitions_and_references() -> tuple[dict[str, str], set[str]]:
    defined: dict[str, str] = {}  # name -> module
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defined, used


def test_every_private_function_and_class_has_a_caller():
    defined, used = _private_definitions_and_references()
    assert len(defined) > 30  # the walk found the modules
    assert {name: module for name, module in defined.items() if name not in used} == {}
