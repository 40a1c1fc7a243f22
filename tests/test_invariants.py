"""Invariant checks in the package must survive `python -O`."""

import ast
from pathlib import Path

import pytest

from oracles import semigroup_member_bruteforce

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


def test_oracle_asserts_run_under_python_O():
    # tests/conftest.py has pytest rewrite the asserts of the oracles module
    with pytest.raises(AssertionError):
        semigroup_member_bruteforce(3, [0, 2])
