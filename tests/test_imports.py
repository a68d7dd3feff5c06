"""Import and local hygiene: every name a library module imports, and
every name one of its functions binds, is read.

No linter ships with the toolchain, so this stands in for the two checks
a removal most often leaves behind: an import, and a local alias, that
nothing reads any more. `__init__.py` is left out of the import check:
its imports are the package's re-exports. A last test checks that every
module the benchmark's tracer imports by name still exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ahrskit"
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(func):
    """The nodes of `func`'s body, not descending into nested scopes."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list:
    """`function: name (line n)` for each name a function binds (by
    assignment, a loop, `with`, `except ... as` or a nested `def`) that
    no expression in it reads, its nested functions included. Parameters
    are an interface and `_` is the throwaway name; neither is checked.
    A name declared `nonlocal` or `global` is bound in another scope."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, unchecked = {}, {"_"}
        for node in _own_scope(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                unchecked.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                   ast.ExceptHandler)) and node.name:
                bound.setdefault(node.name, node.lineno)
        read = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)  # `n += 1` reads n
        found += [f"{func.name}: {name} (line {line})"
                  for name, line in sorted(bound.items(), key=lambda item: item[1])
                  if name not in read and name not in unchecked]
    return found


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math, os.path\nfrom x import y as z\n" \
             "os.sep\n"
    assert unused_imports(source) == ["math (line 2)", "z (line 3)"]


def test_finds_an_unused_local():
    source = """
def outer(a, unused_param):
    alias, kept = a.x, a.y
    count = 0
    seen = 1
    _, total = a
    def inner():
        nonlocal count
        count += kept
        spare = seen
        return count
    def never_called():
        pass
    try:
        pass
    except ValueError as exc:
        pass
    for i in range(3):
        pass
    return inner, total
"""
    assert unused_locals(source) == [
        "outer: alias (line 3)", "outer: never_called (line 12)",
        "outer: exc (line 16)", "outer: i (line 18)", "inner: spare (line 10)"]


def test_every_module_is_checked():
    assert {path.name for path in MODULES} >= {"pipeline.py", "logio.py", "simulate.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda path: path.name)
def test_no_unused_local(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def test_benchmark_traced_modules_import():
    """Every module the benchmark's tracer patches imports: the tracer
    imports each by name, so a removed module would fail the benchmark
    run. `SITES` is read from the tracer's source, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    sites, = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "SITES" for t in node.targets)]
    for site in sites:
        importlib.import_module(site)
