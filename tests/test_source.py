"""Rules the source of nhswe keeps, read from its syntax trees (the project
runs no linter): invariants raise typed errors, not asserts, which vanish
under python -O; and the package prints nothing, its callers report."""

import ast
from pathlib import Path

import pytest

import nhswe

MODULES = sorted(Path(nhswe.__file__).parent.glob("*.py"))


def test_the_package_has_modules():
    assert {path.stem for path in MODULES} >= {"core", "projection", "timeloop", "verify"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statement_and_no_print_call(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        )
    ]
    assert not found
