"""Seed fullerenes, the seven growth operations, and the enumeration engine.

Each growth operation is a patch rewrite given by data: a left-hand-side
pattern, a script of permitted truncations realizing the rewrite, the
resulting right-hand-side pattern, and an inverse script of straightenings.
Applying an operation runs its truncation script at a matched site; the
patch replacement and the script composition are therefore the same thing by
construction.  Inverting an operation runs the straightening script at a
matched right-hand-side site.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .belts import NotFullerene
from .maps import CombMap, MapError
from .patterns import MatchResult, PatchPattern, _embeddings, match_pattern
from .spiral import wind
from .surgery import TruncationSpec, straighten, truncate
from .winding import PatchBuilder


class NegativeParameter(Exception):
    """A seed size or an enumeration bound is below zero."""


class NotAMatch(Exception):
    """The given site is not a match of the rule's pattern in this map."""


class ResultNotFullerene(Exception):
    """Internal bug sentinel: a growth operation left the fullerene class."""


# Truncation signatures that growth scripts may use: (s, k or None, {t0, t1}).
# For s = 1 the cut is determined by its middle edge alone, so k is free.
PERMITTED_SIGNATURES = (
    (1, None, (4, 5)),
    (1, None, (5, 5)),
    (2, 6, (4, 5)),
    (2, 6, (5, 5)),
    (2, 6, (5, 6)),
    (2, 7, (5, 5)),
    (2, 7, (5, 6)),
)


def signature_key(sig: Tuple[int, int, int, int]) -> Tuple[int, Optional[int], Tuple[int, int]]:
    s, k, t0, t1 = sig
    return (s, None if s == 1 else k, tuple(sorted((t0, t1))))


def is_permitted(sig: Tuple[int, int, int, int]) -> bool:
    return signature_key(sig) in PERMITTED_SIGNATURES


# -- seeds ------------------------------------------------------------------

def seed_dodecahedron() -> CombMap:
    """C20, the dodecahedron: twelve pentagons and no hexagon."""
    return wind([5] * 12)


def seed_barrel() -> CombMap:
    """C24, the barrel: two hexagons separated by a ring of pentagons."""
    return wind([6] + [5] * 12 + [6])


def seed_family_one(k: int) -> CombMap:
    """Two pentagon caps joined by k rings of five hexagons."""
    if k < 0:
        raise NegativeParameter("k must be >= 0")
    m = wind([5] * 6 + [6] * (5 * k) + [5] * 6)
    if m is None:
        raise MapError("the family-one spiral does not close for k=%d" % k)
    return m


def seed_family_two(k: int) -> CombMap:
    """Two three-pentagon caps joined by k screw steps of three hexagons."""
    if k < 0:
        raise NegativeParameter("k must be >= 0")
    pb = PatchBuilder(5)                      # A1
    a = [0, pb.glue(5, 0, 1)]                 # A2 over one edge of A1
    a.append(_glue_on(pb, 5, [a[0], a[1]]))   # A3 over the A1/A2 corner
    s = [a[0], a[1], a[2]]
    t = []
    for i in range(3):
        t.append(_glue_on(pb, 5, [s[i], s[(i + 1) % 3]]))   # notch B_i
    for _ in range(k):
        nt = []
        for i in range(3):
            nt.append(_glue_on(pb, 6, [t[i], s[(i + 1) % 3], t[(i + 1) % 3]]))
        s, t = t, nt
    bp = []
    for i in range(3):
        bp.append(_glue_on(pb, 5, [t[i], s[(i + 1) % 3], t[(i + 1) % 3]]))
    a1 = _glue_on(pb, 5, [bp[0], t[1], bp[1]])
    _glue_on(pb, 5, [a1, bp[1], t[2], bp[2]])
    pb.close(5)
    return pb.to_map()


def _glue_on(pb: PatchBuilder, size: int, faces: Sequence[int]) -> int:
    """Glue a face over the elementary run consisting of the given faces."""
    want = list(faces)
    for start, length in pb.runs():
        if length == len(want):
            got = pb.run_faces(start, length)
            if got == want or got == want[::-1]:
                return pb.glue(size, start, length)
    raise ValueError("no elementary run over faces %r" % (want,))


def seed(which: str, k: int = 0) -> CombMap:
    """The named seed: 'dodecahedron', 'barrel', 'family_one' or
    'family_two'; ``k`` sizes the two families and is ignored otherwise."""
    if which == "dodecahedron":
        return seed_dodecahedron()
    if which == "barrel":
        return seed_barrel()
    if which == "family_one":
        return seed_family_one(k)
    if which == "family_two":
        return seed_family_two(k)
    raise ValueError("unknown seed %r" % which)


# -- script engine ----------------------------------------------------------

class ScriptState:
    """A map plus named handles (face origin darts) evolving under a script."""

    def __init__(self, m: CombMap, origins: Dict[str, int]) -> None:
        self.map = m
        self.origins = dict(origins)

    def face_of(self, name: str) -> int:
        return self.map.face_of[self.origins[name]]

    def dart_at(self, name: str, slot: int) -> int:
        """Dart at the given slot; negative slots walk backwards, so scripts
        can address runs relative to slot 0 independently of face size."""
        return self.map.face_walk(self.origins[name], abs(slot) + 1,
                                  slot < 0)[-1]


def run_trunc_step(state: ScriptState, name: str, slot: int, run_len: int,
                   small_name: str, big_name: str) -> Tuple[ScriptState, TruncationSpec]:
    m = state.map
    start = state.dart_at(name, slot)
    spec = TruncationSpec(m, start, run_len - 2)
    res = truncate(m, spec)
    origins = dict(state.origins)
    del origins[name]
    origins[small_name] = res.new_edge
    origins[big_name] = res.map.twin[res.new_edge]
    return ScriptState(res.map, origins), spec


def run_straighten_step(state: ScriptState, name: str, slot: int,
                        merged_name: str) -> ScriptState:
    m = state.map
    d = state.dart_at(name, slot)
    other = m.face_of[m.twin[d]]
    # name of the face on the other side of the edge, if it has one
    other_names = [n for n in state.origins
                   if n != name and state.face_of(n) == other]
    # two darts past the edge the walk has left both of its ends, so this
    # dart survives the straightening
    keep = state.dart_at(name, (slot + 2) % m.face_size(state.face_of(name)))
    res = straighten(m, d)
    origins: Dict[str, int] = {}
    for n, dart in state.origins.items():
        if n in other_names or n == name:
            continue
        nd = res.map_dart(dart)
        if nd is not None:
            origins[n] = nd
    origins[merged_name] = res.map_dart(keep)
    return ScriptState(res.map, origins)


def unmirror(m: CombMap, match: MatchResult) -> Tuple[CombMap, Dict[str, int]]:
    """Host and origins with the match expressed in forward orientation."""
    if not match.mirrored:
        return m, dict(match.origin)
    mm = m.mirror()
    # a dart with the face on its left becomes, in the mirror map, the
    # reversed dart (the twin) re-indexed through the reversed rotation
    origins = {}
    for n, d in match.origin.items():
        t = m.twin[d]
        origins[n] = 3 * (t // 3) + (2 - t % 3)
    return mm, origins

# -- growth rules -----------------------------------------------------------

TruncStep = Tuple[str, str, int, int, str, str]       # TRUNC name slot len small big
StraightenStep = Tuple[str, str, int, str]            # STRAIGHTEN name slot merged


class GrowthRule:
    """One growth operation: patterns plus the scripts realizing them.

    Attributes:
        id: operation letter a-g.
        params: chain-length parameters (empty, (k,) or (k1, k2)).
        lhs, rhs: patch patterns before and after the operation.
        script: truncation steps rewriting an LHS match into the RHS.
        inverse_script: straightening steps rewriting an RHS match back.
    """

    def __init__(self, rule_id: str, params: Tuple[int, ...],
                 lhs: PatchPattern, rhs: PatchPattern,
                 script: List[TruncStep],
                 inverse_script: List[StraightenStep]) -> None:
        self.id = rule_id
        self.params = params
        self.lhs = lhs
        self.rhs = rhs
        self.script = script
        self.inverse_script = inverse_script
        self._validate()

    @property
    def key(self) -> str:
        if self.params:
            return "%s%s" % (self.id, "_".join(str(p) for p in self.params))
        return self.id

    @property
    def delta_p6(self) -> int:
        return len(self.script)

    def _validate(self) -> None:
        def hexes(pat: PatchPattern) -> int:
            return sum(1 for n in pat.faces if pat.sizes[n] == 6)
        if not hexes(self.rhs) > hexes(self.lhs):
            raise ValueError("rule %s: rhs must gain hexagons" % self.key)
        lw = any(self.lhs.is_wild(n) for n in self.lhs.faces)
        rw = any(self.rhs.is_wild(n) for n in self.rhs.faces)
        if not lw and not rw:
            a = self.lhs.contact_sequence()
            b = self.rhs.contact_sequence()
            # the walks start at arbitrary slots: compare up to rotation
            same = len(a) == len(b) and any(
                b[r:] + b[:r] == a for r in range(len(b)))
            if not same:
                raise ValueError(
                    "rule %s: lhs/rhs boundary contact mismatch" % self.key)

    def __repr__(self) -> str:
        return "GrowthRule(%s)" % self.key


def apply_rule(m: CombMap, rule: GrowthRule, at: MatchResult) -> CombMap:
    """Replace the matched LHS patch by the rule's RHS patch.

    Implemented as the rule's truncation script; every step signature is
    checked against the permitted seven, and the result is checked to be a
    fullerene with p6 increased by the script length.
    """
    _check_match(m, rule.lhs, at)
    st = _initial_state(m, at)
    for (_, name, slot, rl, small, big) in rule.script:
        st, spec = run_trunc_step(st, name, slot, rl, small, big)
        if not is_permitted(spec.signature):
            raise ResultNotFullerene(
                "script step signature %r not permitted" % (spec.signature,))
    out = st.map
    if not out.is_fullerene():
        raise ResultNotFullerene("rule %s output is not a fullerene" % rule.key)
    if out.face_vector().get(6, 0) != m.face_vector().get(6, 0) + rule.delta_p6:
        raise ResultNotFullerene("rule %s: unexpected hexagon delta" % rule.key)
    return out


def decompose_rule(m: CombMap, rule: GrowthRule,
                   at: MatchResult) -> List[Tuple[CombMap, TruncationSpec]]:
    """The intermediate polytopes of the rule's script, with bound specs.

    Folding ``surgery.truncate`` over the returned pairs reproduces
    ``apply_rule(m, rule, at)``.
    """
    _check_match(m, rule.lhs, at)
    st = _initial_state(m, at)
    out: List[Tuple[CombMap, TruncationSpec]] = []
    for (_, name, slot, rl, small, big) in rule.script:
        before = st.map
        st, spec = run_trunc_step(st, name, slot, rl, small, big)
        out.append((before, spec))
    return out


def invert_rule(m: CombMap, rule: GrowthRule, at_rhs: MatchResult) -> CombMap:
    """Run the rule's straightening script at an RHS match."""
    _check_match(m, rule.rhs, at_rhs)
    st = _initial_state(m, at_rhs)
    for (_, name, slot, merged) in rule.inverse_script:
        st = run_straighten_step(st, name, slot, merged)
    out = st.map
    if not out.is_fullerene():
        raise ResultNotFullerene("rule %s inverse left the class" % rule.key)
    return out


def _initial_state(m: CombMap, at: MatchResult) -> ScriptState:
    return ScriptState(*unmirror(m, at))


def _check_match(m: CombMap, pat: PatchPattern, at: MatchResult) -> None:
    anchor = pat.first
    if anchor not in at.origin:
        raise NotAMatch("match does not bind face %r" % anchor)
    d0 = at.origin[anchor]
    if not 0 <= d0 < len(m.face_of):
        raise NotAMatch("dart %d is not a dart of this map" % d0)
    found = _embeddings(m, pat, anchor, [d0], at.mirrored)
    if not found or found[0].origin != at.origin:
        raise NotAMatch("not a match of this pattern at the given site")


# -- rule catalog ------------------------------------------------------------

_RULES: Optional[List[GrowthRule]] = None
_CATALOG: Optional[Dict[str, PatchPattern]] = None


def _load_data() -> None:
    global _RULES, _CATALOG
    if _RULES is not None:
        return
    from importlib import resources
    from .rulefile import parse_file
    text = (resources.files("fullerkit") / "data" / "rules.txt").read_text()
    _CATALOG, _RULES = parse_file(text)


def load_rules() -> List[GrowthRule]:
    """The packaged growth-rule catalog (rules a-g, chain rules per length)."""
    _load_data()
    return list(_RULES)


def load_fragment_catalog() -> Dict[str, PatchPattern]:
    """Named guaranteed-fragment patterns shipped alongside the rules."""
    _load_data()
    return dict(_CATALOG)


def rules_by_id(rule_id: str) -> List[GrowthRule]:
    """The catalog rules of one operation letter, in catalog order."""
    return [r for r in load_rules() if r.id == rule_id]


def detect_growth_rules(m: CombMap) -> List[Tuple[GrowthRule, MatchResult]]:
    """All right-hand-side fragment occurrences of the growth operations.

    Returns (rule, match) pairs; a nonempty result means some operation
    can be inverted at the reported site.  Faces of each reported fragment
    are pairwise distinct: the matcher never binds a face twice.
    """
    if not m.is_fullerene():
        raise NotFullerene("growth-site detection expects a fullerene")
    out: List[Tuple[GrowthRule, MatchResult]] = []
    for rule in load_rules():
        out.extend((rule, at) for at in match_pattern(m, rule.rhs))
    return out


# -- enumeration -------------------------------------------------------------

def enumerate_maps(max_p6: int) -> Dict[bytes, CombMap]:
    """The closure of the dodecahedron under the rules, up to max_p6 hexagons.

    Works generation by generation: each generation applies one rule, at
    every LHS site, to every map of the previous generation, skipping rules
    that would pass max_p6.  A generation is not a p6 level, since rules add
    one or more hexagons.  The result maps canonical code to the first map
    produced with that code; its order is the order of discovery, starting
    with the dodecahedron.
    """
    if max_p6 < 0:
        raise NegativeParameter("max_p6 must be >= 0")
    start = seed_dodecahedron()
    seen: Dict[bytes, CombMap] = {start.canonical_code(): start}
    frontier: List[CombMap] = [start]
    rules = load_rules()
    while frontier:
        parents, frontier = frontier, []
        for m in parents:
            p6 = m.face_vector().get(6, 0)
            for rule in rules:
                if p6 + rule.delta_p6 > max_p6:
                    continue
                for at in match_pattern(m, rule.lhs):
                    child = apply_rule(m, rule, at)
                    code = child.canonical_code()
                    if code not in seen:
                        seen[code] = child
                        frontier.append(child)
    return seen
