"""Import hygiene: every name a library module imports is read in it.

No linter ships with the toolchain, so this stands in for the one check
a removal most often leaves behind. `__init__.py` is left out: its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ahrskit"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """`name (line n)` for each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math, os.path\nfrom x import y as z\n" \
             "os.sep\n"
    assert unused_imports(source) == ["math (line 2)", "z (line 3)"]


def test_every_module_is_checked():
    assert {path.name for path in MODULES} >= {"pipeline.py", "logio.py", "simulate.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
