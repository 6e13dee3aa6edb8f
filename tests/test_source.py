"""Checks on the package source itself."""

import ast
import sys
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


def test_package_imports_only_stdlib_numpy_and_itself():
    # start-up stays numpy-only: no scipy, networkx or other third party
    allowed = sys.stdlib_module_names | {"numpy", "fogfed"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {root}"
                for root in roots
                if root not in allowed
            ]
    assert found == []
