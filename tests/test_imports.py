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


def _bound_names(stmt: ast.stmt) -> set[str]:
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {node.id for t in targets if t is not None for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_no_unused_private_name():
    # A module-level _name that no module reads is left over from deleted
    # code.  Names read only inside their own definition (a recursive call)
    # do not count as read.
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            bound = _bound_names(stmt)
            defined += [
                (name, f"{path.name}:{stmt.lineno}")
                for name in bound
                if name.startswith("_") and not name.startswith("__")
            ]
            nodes = list(ast.walk(stmt))
            read |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} - bound
            read |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    assert [f"{where} {name}" for name, where in defined if name not in read] == []


def test_verifier_takes_only_the_record_type_from_the_embedder():
    # The certifier re-derives what it checks: it must not borrow the
    # embedder's level machinery (its cube bitsets, reach or byte spreads).
    tree = ast.parse((SRC / "verifier.py").read_text(encoding="utf-8"))
    taken = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("embedder")
        for alias in node.names
    ]
    plain = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.endswith("embedder")
    ]
    assert taken == ["EmbedRecord"] and plain == []
