"""Read arrays get their -1s in one place.

A read array holds -1 where nothing was measured, and ``Streams.read`` is
the one method that builds one.  This guard fails on any
``np.full(..., -1, ...)`` in ``src/`` outside it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {("attacks.py", "Streams.read")}


def _fills_minus_one(node: ast.Call) -> bool:
    """``np.full`` (or ``numpy.full``) with the fill value -1."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "full"):
        return False
    if not (isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")):
        return False
    fills = node.args[1:2] + [k.value for k in node.keywords if k.arg == "fill_value"]
    return any(isinstance(fill, (ast.Constant, ast.UnaryOp)) and ast.literal_eval(fill) == -1 for fill in fills)


def minus_one_fills(source: str, name: str) -> list[tuple[str, str, int]]:
    """(file name, enclosing qualified name, line) of every -1 fill."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Call) and _fills_minus_one(node):
            found.append((name, ".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_guard_finds_fills():
    source = "\n".join(
        [
            "import numpy as np",
            "class A:",
            "    def f(self, n):",
            "        return np.full(n, -1), np.full(n, fill_value=-1), np.full(n, 0), np.zeros(n)",
        ]
    )
    assert minus_one_fills(source, "a.py") == [("a.py", "A.f", 4), ("a.py", "A.f", 4)]


def test_only_streams_read_fills_minus_one():
    fills = [
        fill for path in sorted(SRC.rglob("*.py")) for fill in minus_one_fills(path.read_text(encoding="utf-8"), path.name)
    ]
    assert [f"{name}:{line} in {scope}" for name, scope, line in fills if (name, scope) not in ALLOWED] == []
    assert {(name, scope) for name, scope, _ in fills} == ALLOWED
