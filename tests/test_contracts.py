"""Package-wide source contracts.

Contracts are exceptions, so they hold under ``python -O`` too, and every
public name says what it is.
"""

import ast
from pathlib import Path

import pytest

import fullerkit
from fullerkit.growth import rules_by_id, seed_dodecahedron
from fullerkit.maps import CombMap
from fullerkit.patterns import B, MatchResult, PatchPattern
from fullerkit.surgery import TruncationSpec

SOURCES = sorted(Path(fullerkit.__file__).parent.glob("*.py"))
TOOLS = sorted((Path(__file__).parent.parent / "tools").rglob("*.py"))


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


def test_only_truncate_calls_the_map_constructor_directly():
    # CombMap.__init__ trusts its fields; outside maps.py only the
    # truncation patch path may call it, and it builds valid maps only
    calls = []
    for path in SOURCES:
        if path.name == "maps.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):  # outer functions first: innermost wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        calls += ["%s:%s" % (path.name, owner.get(node, "<module>"))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "CombMap"]
    assert calls == ["surgery.py:truncate"]


def test_no_function_local_package_imports():
    # an import inside a function hides a module cycle from the top of the
    # file; every package import sits at module level
    def in_package(module):
        return module == "fullerkit" or module.startswith("fullerkit.")

    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    local = node.level > 0 or in_package(node.module)
                elif isinstance(node, ast.Import):
                    local = any(in_package(a.name) for a in node.names)
                else:
                    local = False
                if local:
                    found.append("%s:%s" % (path.name, fn.name))
    assert found == []


def test_tools_import_only_public_package_names():
    # a private name is no interface: the package may change it freely
    found = []
    for path in TOOLS:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "fullerkit"):
                names = node.module.split(".") + [a.name for a in node.names]
                found += ["%s:%s" % (path.name, name) for name in names
                          if name.startswith("_")]
    assert TOOLS
    assert found == []


def test_comb_map_slots_are_set_in_init_and_read_elsewhere():
    # a slot that nothing reads outside the constructor holds a fact that
    # is stored but never used
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES}
    cls = next(node for node in trees["maps.py"].body
               if isinstance(node, ast.ClassDef) and node.name == "CombMap")
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__")
    in_init = set(map(id, ast.walk(init)))
    assigned = set()
    for node in ast.walk(init):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        assigned |= {t.attr for t in targets
                     if isinstance(t, ast.Attribute)
                     and isinstance(t.value, ast.Name)
                     and t.value.id == "self"}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in in_init}
    assert assigned == set(CombMap.__slots__)
    assert set(CombMap.__slots__) - read == set()


@pytest.mark.parametrize("build,text", [
    (seed_dodecahedron, "CombMap(f0=20, f1=30, f2=12)"),
    (lambda: PatchPattern({"P": ["Q", B, B, B, B], "Q": ["P", B, B, B, B]}),
     "PatchPattern(2 faces)"),
    (lambda: MatchResult({"P": 0, "Q": 3}, {"P": 1, "Q": 7}, True),
     "MatchResult({'P': 0, 'Q': 3}, mirrored=True)"),
    (lambda: rules_by_id("g")[1], "GrowthRule(g1_2)"),
    (lambda: TruncationSpec(seed_dodecahedron(), 0, 1),
     "TruncationSpec(s=1, k=5; t0=5, t1=5)"),
], ids=["CombMap", "PatchPattern", "MatchResult", "GrowthRule",
        "TruncationSpec"])
def test_reprs_name_the_class_and_its_key_facts(build, text):
    assert repr(build()) == text
