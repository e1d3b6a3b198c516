import ast
from pathlib import Path

import qcsp

SOURCES = sorted(Path(qcsp.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # invariants must hold under `python -O`, which strips assert statements
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
