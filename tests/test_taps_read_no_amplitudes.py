"""Taps never read amplitudes.

Everything an attacker knows must come from its own measurement
outcomes, so ``attacks`` reaches a register only through its gate,
measurement and size methods.  This guard fails on any ``.amps``
attribute in the module, read or write.
"""

import ast
from pathlib import Path

ATTACKS = Path(__file__).resolve().parent.parent / "src" / "sqpc" / "attacks.py"


def amps_accesses(path: Path) -> list[str]:
    """``file:line`` of every ``.amps`` attribute access."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "amps"
    ]


def test_attacks_never_touch_amps():
    assert amps_accesses(ATTACKS) == []
