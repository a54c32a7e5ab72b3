"""Generate the packaged growth-rule catalog (src/fullerkit/data/rules.txt).

Run ``python tools/gen_rules.py``; it takes no options and rewrites the
file (``--help`` prints usage and writes nothing).

Each rule is defined by its left-hand-side pattern and truncation script;
the right-hand-side pattern and the inverse straightening script are derived
mechanically by running the script at a sample match on a host map and are
verified there (the inverse derivation checks that it restores the host).
Every check raises CatalogError, so it holds under ``python -O`` too.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fullerkit.growth import (apply_rule, run_script, seed_barrel,
                              seed_dodecahedron, seed_family_one)
from fullerkit.maps import CombMap
from fullerkit.patterns import B, MatchResult, PatchPattern, match_pattern
from fullerkit.rulefile import (GrowthRule, StraightenStep, TruncStep,
                                format_pattern_block, format_rules, parse_file)

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "fullerkit",
                        "data", "rules.txt")


class CatalogError(Exception):
    """A derived rule or the catalog text fails one of its checks."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CatalogError(message)


def derive_inverse_script(m: CombMap, rule_lhs: PatchPattern,
                          script: List[TruncStep],
                          at: MatchResult) -> List[StraightenStep]:
    """Compute the straightening script undoing ``script`` at a sample site.

    The forward script is run, then each truncation is undone in reverse
    order by straightening the edge between its two result faces; the slot
    addresses recorded are site-independent because the rewrite region is
    isomorphic at every match.  The derived script is verified to restore
    the original map.
    """
    _, out, origins = run_script(m, at, script)
    inverse: List[StraightenStep] = []
    for (_, merged, _, _, small, big) in reversed(script):
        fbig = out.face_of[origins[big]]
        walk = out.face_walk(origins[small],
                             out.face_size(out.face_of[origins[small]]))
        slots = [i for i, d in enumerate(walk) if out.face_of[out.twin[d]] == fbig]
        _check(bool(slots), "result faces of a script step are not adjacent")
        step = ("STRAIGHTEN", small, slots[0], merged)
        inverse.append(step)
        _, out, origins = run_script(out, MatchResult({}, origins, False), [step])
    _check(out.is_isomorphic(m), "inverse script failed to restore host")
    return inverse


def rhs_pattern(m: CombMap, rule_lhs: PatchPattern, script: List[TruncStep],
                at: MatchResult) -> PatchPattern:
    """Extract the RHS pattern by running the script at a sample site.

    Wildcard faces of the LHS stay wildcards: their extracted cycles are cut
    down to the contiguous arc of named neighbours.
    """
    _, out, origins = run_script(m, at, script)
    wild = {n for n in rule_lhs.faces if rule_lhs.is_wild(n)}
    name_of = {out.face_of[d]: n for n, d in origins.items()}
    faces: Dict[str, List[str]] = {}
    for n, d in origins.items():
        walk = out.face_walk(d, out.face_size(out.face_of[d]))
        faces[n] = [name_of.get(out.face_of[out.twin[w]], B) for w in walk]
    for n in wild:
        faces[n] = _named_arc(faces[n])
    # deterministic order: sized faces first so the anchor is sized
    ordered = {n: faces[n] for n in sorted(faces) if n not in wild}
    ordered.update({n: faces[n] for n in sorted(wild)})
    return PatchPattern(ordered, wildcard=wild)


def _named_arc(cyc: List[str]) -> List[str]:
    """Rotate a cycle so its named entries form a leading contiguous arc."""
    k = len(cyc)
    named = [i for i, g in enumerate(cyc) if g != B]
    _check(bool(named), "wildcard face with no named neighbours")
    # find the rotation where all named entries are contiguous from 0
    for r in range(k):
        rot = cyc[r:] + cyc[:r]
        span = max(i for i, g in enumerate(rot) if g != B) + 1
        if span == len(named) and all(g != B for g in rot[:span]):
            return rot[:span]
    raise CatalogError("named neighbours of wildcard face are not contiguous")


def road_lhs(k):
    """Straight chain of k hexagons with a pentagon at each end."""
    faces = {"P0": ["H1", B, B, B, B]}
    for i in range(1, k + 1):
        prev = "P0" if i == 1 else "H%d" % (i - 1)
        nxt = "P1" if i == k else "H%d" % (i + 1)
        faces["H%d" % i] = [prev, B, B, nxt, B, B]
    faces["P1"] = ["H%d" % k, B, B, B, B]
    return PatchPattern(faces)


def road_script(k):
    steps = [("TRUNC", "H1", 0, 4, "H1a", "H1b")]
    for i in range(2, k + 1):
        steps.append(("TRUNC", "H%d" % i, 1, 4, "H%da" % i, "H%db" % i))
    return steps


def bent_lhs(k1, k2):
    """Chain of k1 hexagons, a corner hexagon, then k2 hexagons."""
    faces = {"P0": ["L1", B, B, B, B]}
    for i in range(1, k1 + 1):
        prev = "P0" if i == 1 else "L%d" % (i - 1)
        nxt = "C" if i == k1 else "L%d" % (i + 1)
        faces["L%d" % i] = [prev, B, B, nxt, B, B]
    faces["C"] = ["L%d" % k1, B, "R1", B, B, B]
    for i in range(1, k2 + 1):
        prev = "C" if i == 1 else "R%d" % (i - 1)
        nxt = "P1" if i == k2 else "R%d" % (i + 1)
        faces["R%d" % i] = [prev, B, B, nxt, B, B]
    faces["P1"] = ["R%d" % k2, B, B, B, B]
    return PatchPattern(faces)


def bent_script(k1, k2):
    # the chain before the corner is cut toward the corner (run starting at
    # the far edge, slot 4 of the 7-gon), so the corner step finds a
    # pentagon at its run start; after the corner the cuts run as in the
    # straight road (slot 1, pentagon at the run start)
    steps = [("TRUNC", "L1", 0, 4, "L1a", "L1b")]
    for i in range(2, k1 + 1):
        steps.append(("TRUNC", "L%d" % i, 4, 4, "L%da" % i, "L%db" % i))
    steps.append(("TRUNC", "C", 0, 4, "Ca", "Cb"))
    for i in range(1, k2 + 1):
        steps.append(("TRUNC", "R%d" % i, 1, 4, "R%da" % i, "R%db" % i))
    return steps


DEFS = []

# a: a pentagon with its full ring of five pentagons (a dodecahedral cap)
DEFS.append(("a", (), PatchPattern({
    "C":  ["R0", "R1", "R2", "R3", "R4"],
    "R0": ["R4", B, B, "R1", "C"],
    "R1": [B, B, "R2", "C", "R0"],
    "R2": ["R1", B, B, "R3", "C"],
    "R3": ["R2", B, B, "R4", "C"],
    "R4": ["C", "R3", B, B, "R0"],
}), [
    ("TRUNC", "C", 4, 3, "Q1", "C"),
    ("TRUNC", "C", 0, 3, "Q2", "C"),
    ("TRUNC", "C", 0, 3, "Q3", "C"),
    ("TRUNC", "C", 3, 3, "Q4", "C"),
    ("TRUNC", "Q1", 1, 4, "Q1a", "Q1b"),
], "dodecahedron"))

# b: three pentagons around a vertex, alternating with their three notches
DEFS.append(("b", (), PatchPattern({
    "A1": ["A3", "B3", B, "B1", "A2"],
    "A2": ["A1", "B1", B, "B2", "A3"],
    "A3": ["A2", "B2", B, "B3", "A1"],
    "B1": [B, B, B, "A2", "A1"],
    "B2": ["A2", B, B, B, "A3"],
    "B3": [B, B, B, "A1", "A3"],
}), [
    ("TRUNC", "A1", 3, 3, "Q", "A1"),
    ("TRUNC", "A1", 0, 3, "Q2", "A1"),
    ("TRUNC", "A3", 4, 4, "A3a", "A3b"),
], "dodecahedron"))

# c: pentagon - hexagon - pentagon in a straight line
DEFS.append(("c", (), road_lhs(1), road_script(1), "barrel"))

# d: two triples of faces around the ends of an edge, one flanked pentagon;
# the two context faces are wildcards so the rule fires at any face sizes
DEFS.append(("d", (), PatchPattern({
    "T0": ["F", B, "P", B, "G"],
    "P":  ["T0", B, B, B, B],
    "T2": ["F", "G", B, B, B],
    "F":  ["T0", "G", "T2"],
    "G":  ["T2", "F", "T0"],
}, wildcard={"F", "G"}), [
    ("TRUNC", "F", 0, 3, "Q", "F"),
    ("TRUNC", "T0", 0, 4, "T0a", "T0b"),
], "dodecahedron"))

# e: straight road of two hexagons between pentagons
DEFS.append(("e", (), road_lhs(2), road_script(2), "family_one_2"))

# f_k: straight road of k hexagons between pentagons, k >= 3
for k in range(3, 7):
    DEFS.append(("f", (k,), road_lhs(k), road_script(k), "family_one_%d" % k))

# g_{k1,k2}: bent road; (k2,k1) is the mirror image, so only k1 <= k2 ships
for k1, k2 in [(1, 1), (1, 2), (1, 3), (2, 2), (1, 4), (2, 3)]:
    DEFS.append(("g", (k1, k2), bent_lhs(k1, k2), bent_script(k1, k2),
                 "family_one_%d" % (k1 + k2 + 1)))


def host_map(tag):
    if tag == "dodecahedron":
        return seed_dodecahedron()
    if tag == "barrel":
        return seed_barrel()
    if tag.startswith("family_one_"):
        return seed_family_one(int(tag.rsplit("_", 1)[1]))
    raise CatalogError("unknown host map %r" % tag)


def catalog_text():
    """Derive every rule from DEFS and return the text of rules.txt.

    The text is parsed back and compared with the derived rules before it
    is returned.
    """
    rules = []
    for rule_id, params, lhs, script, host_tag in DEFS:
        host = host_map(host_tag)
        matches = [mt for mt in match_pattern(host, lhs) if not mt.mirrored]
        _check(bool(matches), "no sample match for rule %s%r on %s" % (
            rule_id, params, host_tag))
        at = matches[0]
        rhs = rhs_pattern(host, lhs, script, at)
        inverse = derive_inverse_script(host, lhs, script, at)
        rule = GrowthRule(rule_id, params, lhs, rhs, script, inverse)
        grown = apply_rule(host, rule, at)
        _check(grown.is_fullerene(),
               "rule %s grows a non-fullerene on %s" % (rule.key, host_tag))
        rules.append(rule)
        print("rule %-5s host %-13s lhs %2d faces, rhs %2d faces, dp6 %d"
              % (rule.key, host_tag, len(lhs.faces), len(rhs.faces),
                 rule.delta_p6))
    # guaranteed-fragment catalog: every fullerene other than the
    # dodecahedron contains one of these (the operation result fragments);
    # the first four cover fullerenes with adjacent pentagons, the last
    # three (representative chain lengths) cover those without
    by_key = {r.key: r for r in rules}
    catalog = [("adjacent_pentagons_1", "a"), ("adjacent_pentagons_2", "b"),
               ("adjacent_pentagons_3", "c"), ("adjacent_pentagons_4", "d"),
               ("isolated_pentagons_1", "e"), ("isolated_pentagons_2", "f3"),
               ("isolated_pentagons_3", "g1_2")]
    cat_lines = []
    for cname, rkey in catalog:
        cat_lines.append("pattern %s" % cname)
        cat_lines.extend(format_pattern_block(by_key[rkey].rhs))
        cat_lines.append("end")
        cat_lines.append("")
    text = ("# Growth-rule catalog. Generated by tools/gen_rules.py;"
            " do not edit by hand.\n" + format_rules(rules)
            + "\n".join(cat_lines))
    # round-trip check
    pats, parsed = parse_file(text)
    _check(len(pats) == len(catalog) and len(parsed) == len(rules),
           "round trip changed the number of patterns or rules")
    for r1, r2 in zip(rules, parsed):
        _check(r1.key == r2.key and r1.lhs.faces == r2.lhs.faces
               and r1.rhs.faces == r2.rhs.faces and r1.script == r2.script
               and r1.inverse_script == r2.inverse_script,
               "rule %s does not survive the round trip" % r1.key)
    return text


def main():
    argparse.ArgumentParser(
        description="Regenerate src/fullerkit/data/rules.txt from the rule "
        "definitions.").parse_args()
    text = catalog_text()
    with open(OUT_PATH, "w") as fh:
        fh.write(text)
    print("wrote %s (round-trip ok)" % OUT_PATH)


if __name__ == "__main__":
    main()
