"""Package-wide source contracts.

Contracts are exceptions, so they hold under ``python -O`` too, and every
public name says what it is.
"""

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


def test_public_names_have_docstrings():
    missing = [name for name in fullerkit.__all__
               if not (getattr(fullerkit, name).__doc__ or "").strip()]
    assert missing == []
