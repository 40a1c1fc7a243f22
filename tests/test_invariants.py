"""Invariant checks in the package must survive `python -O`."""

import ast
from pathlib import Path

import germcontract

PACKAGE = Path(germcontract.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # `assert` is stripped under -O; invariants raise InvariantViolationError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
