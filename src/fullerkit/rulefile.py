"""Line-oriented text format for patterns and growth rules.

A file holds any number of sections:

    pattern NAME            # a standalone patch pattern
      <face lines>
    end

    rule ID [PARAMS...]     # a growth rule
    lhs
      <face lines>
    rhs
      <face lines>
    script
      TRUNC face run-start run-length small-name big-name
      ...
    inverse
      STRAIGHTEN face slot merged-name
      ...
    end

A face line is ``name size entry entry ...`` where size is an integer or
``*`` (wildcard: the entries are a contiguous arc and the size is free) and
each entry is a face name or ``B`` for a boundary edge.  ``#`` starts a
comment; blank lines are ignored.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .patterns import PatchPattern


class RuleFileError(Exception):
    """Parse or validation failure; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


def _logical_lines(text: str) -> List[Tuple[int, List[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line.split()))
    return out


def _build_pattern(header_ln: int,
                   face_lines: List[Tuple[int, List[str]]]) -> PatchPattern:
    """The pattern of one block; ``header_ln`` is the line of its header."""
    if not face_lines:
        raise RuleFileError(header_ln, "empty pattern block")
    faces: Dict[str, List[str]] = {}
    wild = set()
    for ln, tok in face_lines:
        if len(tok) < 3:
            raise RuleFileError(ln, "face line needs name, size, entries")
        name, size = tok[0], tok[1]
        entries = tok[2:]
        if name in faces:
            raise RuleFileError(ln, "duplicate face %r" % name)
        if size == "*":
            wild.add(name)
        else:
            try:
                sz = int(size)
            except ValueError:
                raise RuleFileError(ln, "bad size %r" % size)
            if sz != len(entries):
                raise RuleFileError(
                    ln, "face %r: size %d but %d entries"
                    % (name, sz, len(entries)))
        faces[name] = entries
    try:
        return PatchPattern(faces, wildcard=wild)
    except Exception as exc:
        raise RuleFileError(header_ln, "invalid pattern: %s" % exc)


def parse_file(text: str) -> Tuple[Dict[str, PatchPattern], List["GrowthRule"]]:
    """Parse a pattern/rule file; returns (named patterns, growth rules)."""
    from .growth import GrowthRule
    lines = _logical_lines(text)
    patterns: Dict[str, PatchPattern] = {}
    rules: List[GrowthRule] = []
    i = 0
    while i < len(lines):
        ln, tok = lines[i]
        if tok[0] == "pattern":
            if len(tok) != 2:
                raise RuleFileError(ln, "pattern line needs exactly one name")
            name = tok[1]
            i += 1
            block = []
            while i < len(lines) and lines[i][1][0] != "end":
                block.append(lines[i])
                i += 1
            if i == len(lines):
                raise RuleFileError(ln, "pattern %r missing 'end'" % name)
            i += 1
            patterns[name] = _build_pattern(ln, block)
        elif tok[0] == "rule":
            if len(tok) < 2 or tok[1] not in "abcdefg" or len(tok[1]) != 1:
                raise RuleFileError(ln, "rule line needs an id a-g")
            rule_id = tok[1]
            try:
                params = tuple(int(t) for t in tok[2:])
            except ValueError:
                raise RuleFileError(ln, "rule parameters must be integers")
            i += 1
            sections: Dict[str, List[Tuple[int, List[str]]]] = {}
            headers: Dict[str, int] = {}
            current: Optional[str] = None
            while i < len(lines) and lines[i][1][0] != "end":
                ln2, tok2 = lines[i]
                if tok2[0] in ("lhs", "rhs", "script", "inverse"):
                    if len(tok2) != 1:
                        raise RuleFileError(ln2, "bad section header")
                    current = tok2[0]
                    sections[current] = []
                    headers[current] = ln2
                elif current is None:
                    raise RuleFileError(ln2, "content before any section")
                else:
                    sections[current].append((ln2, tok2))
                i += 1
            if i == len(lines):
                raise RuleFileError(ln, "rule %s missing 'end'" % rule_id)
            i += 1
            for req in ("lhs", "rhs", "script", "inverse"):
                if req not in sections:
                    raise RuleFileError(ln, "rule %s missing section %r"
                                        % (rule_id, req))
            lhs = _build_pattern(headers["lhs"], sections["lhs"])
            rhs = _build_pattern(headers["rhs"], sections["rhs"])
            script = []
            for ln2, tok2 in sections["script"]:
                if tok2[0] != "TRUNC" or len(tok2) != 6:
                    raise RuleFileError(
                        ln2, "script line must be: TRUNC face start len small big")
                try:
                    script.append(("TRUNC", tok2[1], int(tok2[2]),
                                   int(tok2[3]), tok2[4], tok2[5]))
                except ValueError:
                    raise RuleFileError(ln2, "bad TRUNC numbers")
            inverse = []
            for ln2, tok2 in sections["inverse"]:
                if tok2[0] != "STRAIGHTEN" or len(tok2) != 4:
                    raise RuleFileError(
                        ln2, "inverse line must be: STRAIGHTEN face slot merged")
                try:
                    inverse.append(("STRAIGHTEN", tok2[1], int(tok2[2]), tok2[3]))
                except ValueError:
                    raise RuleFileError(ln2, "bad STRAIGHTEN slot")
            try:
                rules.append(GrowthRule(rule_id, params, lhs, rhs,
                                        script, inverse))
            except ValueError as exc:
                raise RuleFileError(ln, str(exc))
        else:
            raise RuleFileError(ln, "expected 'pattern' or 'rule', got %r"
                                % tok[0])
    return patterns, rules


def format_pattern_block(pat: PatchPattern) -> List[str]:
    out = []
    for name, cyc in pat.faces.items():
        size = "*" if pat.is_wild(name) else str(len(cyc))
        out.append(" ".join([name, size] + list(cyc)))
    return out


def format_rules(rules: List["GrowthRule"]) -> str:
    out: List[str] = []
    for r in rules:
        head = "rule %s" % r.id
        if r.params:
            head += " " + " ".join(str(p) for p in r.params)
        out.append(head)
        out.append("lhs")
        out.extend(format_pattern_block(r.lhs))
        out.append("rhs")
        out.extend(format_pattern_block(r.rhs))
        out.append("script")
        for (_, name, slot, rl, small, big) in r.script:
            out.append("TRUNC %s %d %d %s %s" % (name, slot, rl, small, big))
        out.append("inverse")
        for (_, name, slot, merged) in r.inverse_script:
            out.append("STRAIGHTEN %s %d %s" % (name, slot, merged))
        out.append("end")
        out.append("")
    return "\n".join(out)
