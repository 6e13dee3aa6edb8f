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


# the engine's per-arrival, per-decision and per-run path, by file: before
# CPython 3.12 every comprehension there is a nested function call
HOT_PATH = {
    "sim.py": (
        "_queue_snapshot",
        "_plan_for",
        "_allocate",
        "_on_arrival",
        "_on_transfer",
        "_dispatch",
        "_on_exec_done",
        "_decide_mr",
        "_decide_mect",
        "_decide_mcc",
        "_decide_nofed",
        "run",
        "_report",
        "generate_workload",
        "_decision_line",
    ),
    "alloc.py": (
        "candidate",
        "allocate_mr",
        "allocate_mect",
        "allocate_mcc",
        "allocate_no_federation",
        "validate_mr_decision",
    ),
    "dist.py": ("sample",),
}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_hot_path_builds_no_comprehension():
    found = []
    seen = set()
    for name, funcs in HOT_PATH.items():
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in funcs:
                seen.add((name, node.name))
                found += [
                    f"{name}:{inner.lineno} in {node.name}"
                    for inner in ast.walk(node)
                    if isinstance(inner, COMPREHENSIONS)
                ]
    # a renamed function must be renamed here too, not silently unchecked
    assert seen == {(n, f) for n, funcs in HOT_PATH.items() for f in funcs}
    assert found == []


def test_package_never_calls_builtin_sum():
    # from CPython 3.12 ``sum()`` of floats compensates its rounding, so
    # totals that reach a result go through ``dist.left_sum``
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
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
