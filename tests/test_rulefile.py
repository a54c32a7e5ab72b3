import importlib.util
import os
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerkit import rulefile
from fullerkit.rulefile import (RuleFileError, format_pattern_block,
                                format_rules, parse_file)

CAP = """
pattern cap
  C 5 R0 R4 R3 R2 R1   # centre pentagon
  R0 5 C R1 B B R4
  R1 5 C R2 B B R0
  R2 5 C R3 B B R1
  R3 5 C R4 B B R2
  R4 5 C R0 B B R3
end
"""


def shipped_text():
    return (resources.files("fullerkit") / "data" / "rules.txt").read_text()


GEN_RULES = os.path.join(os.path.dirname(__file__), "..", "tools",
                         "gen_rules.py")


def load_gen_rules():
    spec = importlib.util.spec_from_file_location("gen_rules", GEN_RULES)
    gen_rules = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_rules)
    return gen_rules


def test_generator_reproduces_shipped_file():
    gen_rules = load_gen_rules()
    shipped = (resources.files("fullerkit") / "data" / "rules.txt").read_bytes()
    assert gen_rules.catalog_text().encode() == shipped


def test_generator_checks_survive_optimised_python():
    # with every host left unrestored by its inverse script, the catalog
    # must fail even where ``python -O`` strips asserts
    script = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("gen_rules", sys.argv[1])
gen_rules = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen_rules)
gen_rules.CombMap.is_isomorphic = lambda self, other: False
gen_rules.catalog_text()
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script, GEN_RULES],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "inverse script failed to restore host" in proc.stderr


def test_generator_checks_raise_catalog_errors():
    gen_rules = load_gen_rules()
    B = gen_rules.B
    assert gen_rules._named_arc([B, "X", "Y", B]) == ["X", "Y"]
    with pytest.raises(gen_rules.CatalogError, match="not contiguous"):
        gen_rules._named_arc(["X", B, "Y", B])
    with pytest.raises(gen_rules.CatalogError, match="no_such_host"):
        gen_rules.host_map("no_such_host")


@pytest.mark.parametrize("arg,code", [("--help", 0), ("--no-such-option", 2)])
def test_generator_arguments_write_nothing(arg, code):
    path = resources.files("fullerkit") / "data" / "rules.txt"
    before = (path.read_bytes(), os.stat(path).st_mtime_ns)
    proc = subprocess.run([sys.executable, GEN_RULES, arg],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert "usage" in proc.stdout + proc.stderr
    assert (path.read_bytes(), os.stat(path).st_mtime_ns) == before


def test_parse_pattern_with_comments():
    patterns, rules = parse_file(CAP)
    assert rules == []
    assert set(patterns) == {"cap"}
    assert len(patterns["cap"].faces) == 6


def test_shipped_file_parses():
    patterns, rules = parse_file(shipped_text())
    assert len(rules) == 15
    assert len(patterns) == 7


def test_pattern_roundtrip():
    patterns, _ = parse_file(CAP)
    text = "pattern cap\n" + "\n".join(
        format_pattern_block(patterns["cap"])) + "\nend\n"
    again, _ = parse_file(text)
    assert again["cap"].faces == patterns["cap"].faces


def test_rules_roundtrip():
    _, rules = parse_file(shipped_text())
    text = format_rules(rules)
    _, again = parse_file(text)
    assert [r.key for r in again] == [r.key for r in rules]
    for a, b in zip(again, rules):
        assert a.lhs.faces == b.lhs.faces
        assert a.rhs.faces == b.rhs.faces
        assert a.script == b.script
        assert a.inverse_script == b.inverse_script


@pytest.mark.parametrize("text,line", [
    ("pattern\n  A 5 B B B B B\nend\n", 1),       # missing name
    ("pattern p\n  A 5 B B B\nend\n", 2),         # size/entry mismatch
    ("pattern p\n  A x B B B B B\nend\n", 2),     # bad size token
    ("pattern p\n  A 5 B B B B B\n", 1),          # missing end
    ("pattern p\n  A 5 B B B B B\n  A 5 B B B B B\nend\n", 3),  # dup face
    ("bogus\n", 1),                               # unknown section
    ("rule z\nlhs\n  A 5 B B B B B\nend\n", 1),   # bad rule id
    ("rule c\n  A 5 B B B B B\nend\n", 2),        # content before section
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(RuleFileError) as e:
        parse_file(text)
    assert e.value.line_no == line
    assert "line %d:" % line in str(e.value)


@pytest.mark.parametrize("text,line", [
    ("pattern p\nend\n", 1),
    ("# lhs left empty\nrule c\nlhs\nrhs\n  A 5 B B B B B\nscript\n"
     "inverse\nend\n", 3),
    ("rule c\nlhs\n  A 5 B B B B B\nrhs\nscript\ninverse\nend\n", 4),
], ids=["pattern", "lhs", "rhs"])
def test_empty_block_reports_its_header_line(text, line):
    with pytest.raises(RuleFileError, match="empty pattern block") as e:
        parse_file(text)
    assert e.value.line_no == line


@pytest.mark.parametrize("text,line", [
    ("pattern p\n  A * B B B B B\nend\n", 1),
    ("rule c\nlhs\n  A 5 B B B B B\nrhs\n  A * C B B\n  C * A B\n"
     "script\ninverse\nend\n", 4),
], ids=["pattern", "rhs"])
def test_all_wildcard_block_reports_its_header_line(text, line):
    with pytest.raises(RuleFileError, match="needs a face of fixed size") as e:
        parse_file(text)
    assert e.value.line_no == line


@pytest.mark.parametrize("text,line,message", [
    ("rule c\nlhs\n  A 5 B B B B B\nrhs\n  A 5 B B B B B\n"
     "script\ninverse\nend\n", 1, "rhs must gain hexagons"),
    ("# five boundary edges become six\nrule c\nlhs\n  A 5 B B B B B\n"
     "rhs\n  H 6 B B B B B B\nscript\ninverse\nend\n", 2,
     "boundary contact mismatch"),
], ids=["no_new_hexagon", "contact_mismatch"])
def test_rule_checks_report_the_rule_header_line(text, line, message):
    with pytest.raises(RuleFileError, match=message) as e:
        parse_file(text)
    assert e.value.line_no == line


def shipped_block(header):
    """The lines of one shipped rule, header to ``end``."""
    lines = shipped_text().splitlines()
    start = lines.index(header)
    return lines[start:lines.index("end", start) + 1]


RULE_C = shipped_block("rule c")


@pytest.mark.parametrize("lines,line,message", [
    (CAP.splitlines()[1:] * 2, 9, "duplicate pattern 'cap'"),
    (RULE_C * 2, len(RULE_C) + 1, "duplicate rule c"),
    (RULE_C[:1] + ["lhs", "  X 5 B B B B B"] + RULE_C[1:], 4,
     "duplicate section 'lhs'"),
], ids=["pattern", "rule", "section"])
def test_repeats_are_refused_at_the_repeating_line(lines, line, message):
    with pytest.raises(RuleFileError) as e:
        parse_file("\n".join(lines))
    assert str(e.value) == "line %d: %s" % (line, message)


def test_a_fault_in_the_pattern_code_is_no_file_error(monkeypatch):
    # only PatternError reports the file as at fault
    def broken(faces, wildcard):
        raise KeyError("not a file error")
    monkeypatch.setattr(rulefile, "PatchPattern", broken)
    with pytest.raises(KeyError, match="not a file error"):
        parse_file(CAP)


def test_bad_script_line_rejected():
    text = ("rule c\nlhs\n  A 5 B B B B B\nrhs\n  A 5 B B B B B\n"
            "script\n  TRUNC A 0\ninverse\nend\n")
    with pytest.raises(RuleFileError) as e:
        parse_file(text)
    assert e.value.line_no == 7


FUZZ = settings(max_examples=300, derandomize=True, database=None,
                deadline=None)
LINES = shipped_text().splitlines()
VOCAB = sorted({t for line in LINES for t in line.split()} | {"pattern", "#"})
WORDS = st.sampled_from(VOCAB) | st.text(max_size=6)


def parse_or_documented_error(text):
    try:
        parse_file(text)
    except RuleFileError:
        pass


@FUZZ
@given(st.text(max_size=200)
       | st.lists(WORDS | st.just("\n"), max_size=60).map(" ".join))
def test_fuzz_arbitrary_text(text):
    parse_or_documented_error(text)


@FUZZ
@given(st.integers(0, len(LINES) - 1),
       st.lists(WORDS, max_size=8).map(" ".join))
def test_fuzz_replaced_line(i, line):
    parse_or_documented_error("\n".join(LINES[:i] + [line] + LINES[i + 1:]))


@FUZZ
@given(st.sampled_from([i for i, line in enumerate(LINES) if line.split()]),
       st.integers(0, 7), WORDS)
def test_fuzz_replaced_token(i, pos, word):
    tok = LINES[i].split()
    tok[pos % len(tok)] = word
    lines = LINES[:i] + [" ".join(tok)] + LINES[i + 1:]
    parse_or_documented_error("\n".join(lines))


@FUZZ
@given(st.integers(0, len(LINES)), st.integers(0, len(LINES)))
def test_fuzz_cut_and_dropped_line(end, drop):
    lines = LINES[:end]
    del lines[drop:drop + 1]
    parse_or_documented_error("\n".join(lines))
