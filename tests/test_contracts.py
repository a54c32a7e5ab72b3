"""Contracts are exceptions, so they hold under ``python -O`` too."""

import ast
from pathlib import Path

import fullerkit

SOURCES = sorted(Path(fullerkit.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
