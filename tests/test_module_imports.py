"""Every import in ``sqpc`` sits at module level.

An import inside a function body is how a cycle between modules gets
dodged instead of removed; this guard keeps the module graph acyclic and
visible from each file's header.  Imports under a module-level
``if TYPE_CHECKING:`` are fine.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sqpc"


def function_imports(path: Path) -> list[str]:
    """``file:line`` of every import inside a function or method body."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{inner.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_imports_inside_functions(path):
    assert function_imports(path) == []
