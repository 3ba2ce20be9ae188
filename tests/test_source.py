"""Source-level guards over the package modules."""

import ast
from pathlib import Path

import stablenorm

SOURCES = sorted(Path(stablenorm.__file__).parent.glob("*.py"))


def _ast_nodes():
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield f"{path.name}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise
    found = [where for where, node in _ast_nodes() if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_raised_assertion_errors():
    # a failed self-check raises InvariantError, which the CLI maps to
    # exit 4 with a structured error instead of a traceback
    found = [where for where, node in _ast_nodes() if _raises_assertion_error(node)]
    assert SOURCES and not found, found
