"""The package and its tests import only what pyproject.toml declares.

stegolink depends on numpy alone and its tests on pytest; anything else
installed where the tests run (hypothesis, scipy, ...) must not creep in.
Every module is parsed, not imported, so an import inside a function counts.
"""

import ast
import sys

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARED = {"numpy", "pytest", "stegolink"}


def test_only_declared_dependencies_are_imported():
    outside = []
    for path in sorted([*(ROOT / "src" / "stegolink").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative imports stay inside
                names = [node.module]
            else:
                continue
            outside += [f"{path.relative_to(ROOT)}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | DECLARED]
    assert outside == []


def test_every_imported_name_is_used():
    # a name a module imports and never reads; __init__.py's imports are its
    # re-exports, and the __future__ import changes the compiler, binding nothing
    unused = []
    for path in sorted((ROOT / "src" / "stegolink").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unused == []
