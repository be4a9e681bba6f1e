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
