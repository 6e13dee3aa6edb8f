"""Checks on the package source itself."""

import ast
from pathlib import Path

import fogfed

SRC = Path(fogfed.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # invariants must be explicit raises: ``python -O`` strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
