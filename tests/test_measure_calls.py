"""Every measurement goes through ``Streams.read``.

``Streams.read`` is the one method that turns a draw site into uniforms
and calls a register measurement.  This guard fails on any reference to
a ``measure_*`` method or function in ``src/`` outside it and outside
``kernel.py``, which defines them: an attribute (``register.measure_z``,
``kernel.measure_x``), a call of an imported name (``measure_bell(...)``),
a ``getattr`` of a ``measure_*`` name, and any call of what ``getattr``
returns, since a name held in a variable may name a measurement.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {("attacks.py", "Streams.read")}
DEFINES = "kernel.py"


def _is_getattr(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"


def _measures(node) -> bool:
    """A reference to a measurement, or a call that may dispatch to one by name."""
    if isinstance(node, ast.Attribute):
        return node.attr.startswith("measure_")
    if _is_getattr(node):
        name = node.args[1] if len(node.args) > 1 else None
        return isinstance(name, ast.Constant) and str(name.value).startswith("measure_")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id.startswith("measure_")
    return isinstance(node, ast.Call) and _is_getattr(node.func)


def measure_calls(source: str, name: str) -> list[tuple[str, str, int]]:
    """(file name, enclosing qualified name, line) of every measurement
    reference and every call of a ``getattr`` result."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        if _measures(node):
            found.append((name, ".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_guard_finds_measurements():
    source = "\n".join(
        [
            "from .kernel import measure_bell",
            "def f(register, op, args, name, streams):",
            "    register.measure_z(0, u)",
            "    getattr(register, op)(0, u)",
            "    read = getattr(register, 'measure_x')",
            "    measure_bell(state, 0, 1, rng)",
            "    sift_measure_resend(photons, sift, streams)",
            "    streams.read(register, 'measure_z', 'tp_z', rows, 0)",
            "    return getattr(args, name)",
        ]
    )
    assert measure_calls(source, "a.py") == [("a.py", "f", 3), ("a.py", "f", 4), ("a.py", "f", 5), ("a.py", "f", 6)]


def test_only_streams_read_measures():
    calls = [
        call
        for path in sorted(SRC.rglob("*.py"))
        if path.name != DEFINES
        for call in measure_calls(path.read_text(encoding="utf-8"), path.name)
    ]
    assert [f"{name}:{line} in {scope}" for name, scope, line in calls if (name, scope) not in ALLOWED] == []
    assert {(name, scope) for name, scope, _ in calls} == ALLOWED
