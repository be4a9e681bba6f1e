"""The package's import graph: every import sits at module top."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latticeramsey"


def test_no_import_inside_a_function():
    # An import deferred into a function hides a module cycle; at module top
    # a cycle fails at import time instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_no_unused_import():
    # A name imported but never read is left over from deleted code; every
    # caller imports a name from the module that defines it, so no module
    # imports a name only to re-export it.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.partition(".")[0]) not in used
                ]
    assert found == []
