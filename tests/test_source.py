"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "pathideal"


def test_no_result_is_guarded_only_by_assert():
    # `python -O` strips assert statements, so a check must raise instead
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
    assert len(list(SOURCE.glob("*.py"))) > 5
