"""Checks on the source of src/ghbound itself.

* Code with no caller is deleted: every module-level private function or
  class (one leading underscore) is referenced somewhere in src/ghbound
  outside its own definition, by name, as an attribute, or in an import.
* The same holds inside classes: every private method of a class is
  referenced somewhere in src/ghbound, and every private attribute stored
  through self._x = ... is read (loaded or deleted) somewhere.
* Every name a module-level import binds is used in its own module, except
  in __init__.py, for __future__ imports, and for the names in BENCH_HOOKS,
  which bench/spans.py patches by name on cli.
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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_members() -> tuple[dict[str, str], dict[str, str], set[str]]:
    """Private methods (name -> class), private attributes stored on self
    (name -> module) and every attribute name read."""
    methods: dict[str, str] = {}
    stored: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                methods.update((f.name, node.name) for f in node.body
                               if isinstance(f, ast.FunctionDef) and _private(f.name))
            elif not isinstance(node, ast.Attribute):
                continue
            elif not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif (isinstance(node.value, ast.Name) and node.value.id == "self"
                  and _private(node.attr)):
                stored[node.attr] = path.name
    return methods, stored, read


def test_every_private_method_has_a_caller():
    methods, _, _ = _private_members()
    _, used = _private_definitions_and_references()
    assert len(methods) > 5  # the walk found the classes
    assert {name: cls for name, cls in methods.items() if name not in used} == {}


def test_every_private_attribute_stored_on_self_is_read():
    _, stored, read = _private_members()
    assert len(stored) > 3  # the walk found the stores
    assert {name: module for name, module in stored.items() if name not in read} == {}


# names imported into a module only for bench/spans.py to patch there
BENCH_HOOKS = {"cli.py": {"cross_distances", "distortion", "fundamental_class_survives"}}


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_every_module_level_import_is_used_in_its_module():
    unused = {path.name: names for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py" and (names := _unused_imports(path))}
    assert len(list(SRC.glob("*.py"))) > 5  # the walk found the modules
    assert unused == BENCH_HOOKS
