"""Source-level guards over the package modules."""

import ast
from pathlib import Path

import stablenorm

SOURCES = sorted(Path(stablenorm.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert SOURCES and not found, found
