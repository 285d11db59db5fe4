"""Checks on the source of src/ghbound itself.

* Code with no caller is deleted: every module-level private function or
  class (one leading underscore) is referenced somewhere in src/ghbound
  outside its own definition, by name, as an attribute, or in an import.
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
