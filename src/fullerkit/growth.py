"""Seed fullerenes, the seven growth operations, and the enumeration engine.

Each growth operation is a patch rewrite given by data: a left-hand-side
pattern, a script of permitted truncations realizing the rewrite, the
resulting right-hand-side pattern, and an inverse script of straightenings.
Applying, decomposing and inverting an operation run one checked rewrite,
forwards or backwards, so the patch replacement and the script composition
are the same thing by construction.
"""

from __future__ import annotations

from importlib import resources
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .belts import NotFullerene
from .maps import CombMap, IsomerSet, MapError, _check_int
from .patterns import (MatchResult, PatchPattern, _embeddings, _match_result,
                       match_pattern)
from .rulefile import GrowthRule, StraightenStep, TruncStep, parse_file
from .spiral import wind
from .surgery import TruncationSpec, straighten, truncate


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


def is_permitted(sig: Tuple[int, int, int, int]) -> bool:
    s, k, t0, t1 = sig
    return ((s, None if s == 1 else k, tuple(sorted((t0, t1))))
            in PERMITTED_SIGNATURES)


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
    """Two three-pentagon caps joined by k screw steps of three hexagons.

    Wound from one of its face spirals, not the smallest (Fowler and
    Manolopoulos, *An Atlas of Fullerenes*, 1995).  With
    C = [5, 5, 5, 5, 6, 5, 6, 5, 6] it is [5] * 12 for k = 0,
    C + [6] * (3k - 3) + [5] * 6 for odd k, and
    C + [6] * (3k - 5) + [5, 6, 5, 6, 5, 5, 5, 5] for even k >= 2.

    The tests match it to the member glued by hand for k = 0..39 (254
    vertices, the canonical code's limit).  Past that, by periodicity: all
    that ``_next_run``, ``glue`` and ``close`` read before a glue is, per
    open edge, the degree of its first vertex and the age of its face
    relative to the newest face.  Once eight faces are glued this repeats
    every six hexagons (two screw steps), and the spiral of k + 2 is that
    of k with six hexagons more after C, so the suffix that closes k closes
    k + 2.  A spiral that ``wind`` still rejected would raise MapError.
    """
    if k < 0:
        raise NegativeParameter("k must be >= 0")
    c = [5, 5, 5, 5, 6, 5, 6, 5, 6]
    m = wind([5] * 12 if k == 0
             else c + [6] * (3 * k - 3) + [5] * 6 if k % 2
             else c + [6] * (3 * k - 5) + [5, 6, 5, 6, 5, 5, 5, 5])
    if m is None:
        raise MapError("the family-two spiral does not close for k=%d" % k)
    return m


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


# -- script runner ----------------------------------------------------------

# per step of a script, the map before it and its TruncationSpec (None for a
# straightening)
Steps = List[Tuple[CombMap, Optional[TruncationSpec]]]

def run_script(m: CombMap, at: MatchResult,
               script: Sequence[Union[TruncStep, StraightenStep]]
               ) -> Tuple[Steps, CombMap, Dict[str, int]]:
    """Run TRUNC and STRAIGHTEN steps at a site: the one script runner.

    Handles name faces by an origin dart with the face on its left; they
    start as ``at.origin``, carried to ``m.mirror()`` at a mirrored site.
    A step acts at the dart ``slot`` steps along its face, backwards for a
    negative slot.  TRUNC cuts a run of ``run_len`` edges there, of a
    permitted signature, and names the two pieces.  STRAIGHTEN deletes the
    edge there and names the merged face; handles on the face across it,
    or leaving a removed vertex, are dropped.

    Returns the steps, then the final map and handles.
    """
    if at.mirrored:
        # a dart with the face on its left becomes, in the mirror map, the
        # reversed dart (the twin) re-indexed through the reversed rotation
        origins = {n: 3 * (m.twin[d] // 3) + 2 - m.twin[d] % 3
                   for n, d in at.origin.items()}
        m = m.mirror()
    else:
        origins = dict(at.origin)
    steps = []
    for step in script:
        name, slot = step[1], step[2]
        d = m.face_walk(origins.pop(name), abs(slot) + 1, slot < 0)[-1]
        if step[0] == "TRUNC":
            spec = TruncationSpec(m, d, step[3] - 2)
            if not is_permitted(spec.signature):
                raise ResultNotFullerene(
                    "script step signature %r not permitted" % (spec.signature,))
            res = truncate(m, spec)
            origins[step[4]] = res.new_edge
            origins[step[5]] = res.map.twin[res.new_edge]
        else:
            spec = None
            across = m.face_of[m.twin[d]]
            # two darts past the edge the walk has left both of its ends, so
            # this dart survives the straightening
            keep = m.face_walk(d, 3)[-1]
            res = straighten(m, d)
            origins = {n: nd for n, x in origins.items()
                       if m.face_of[x] != across
                       and (nd := res.map_dart(x)) is not None}
            origins[step[3]] = res.map_dart(keep)
        steps.append((m, spec))
        m = res.map
    return steps, m, origins


# -- growth rules -----------------------------------------------------------

def apply_rule(m: CombMap, rule: GrowthRule, at: MatchResult) -> CombMap:
    """Replace the matched LHS patch by the rule's RHS patch.  Raises
    NotFullerene if ``m`` is none, NotAMatch if ``at`` is no LHS site."""
    return _rewrite(m, rule, at, False)[1]


def decompose_rule(m: CombMap, rule: GrowthRule,
                   at: MatchResult) -> List[Tuple[CombMap, TruncationSpec]]:
    """The intermediate polytopes of the rule's script, with bound specs.

    Folding ``surgery.truncate`` over the returned pairs reproduces
    ``apply_rule(m, rule, at)``, checked alike.
    """
    return _rewrite(m, rule, at, False)[0]


def invert_rule(m: CombMap, rule: GrowthRule, at_rhs: MatchResult) -> CombMap:
    """Replace the matched RHS patch by the rule's LHS patch.  Raises
    NotFullerene if ``m`` is none, NotAMatch if ``at_rhs`` is no RHS site."""
    return _rewrite(m, rule, at_rhs, True)[1]


def _rewrite(m: CombMap, rule: GrowthRule, at: MatchResult,
             inverse: bool) -> Tuple[Steps, CombMap]:
    """The one checked rewrite: the rule's script, or its inverse script,
    run at ``at``.

    ``m`` must be a fullerene (else NotFullerene) and ``at`` a site of the
    LHS pattern, or of the RHS pattern if ``inverse`` (else NotAMatch).
    The result must be a fullerene with ``rule.delta_p6`` hexagons more,
    or fewer if ``inverse``; on a fullerene p6 = f2 - 12.
    """
    _require_fullerene(m, rule.key, inverse)
    _check_match(m, rule.rhs if inverse else rule.lhs, at)
    steps, out, _ = run_script(
        m, at, rule.inverse_script if inverse else rule.script)
    delta = -rule.delta_p6 if inverse else rule.delta_p6
    if not out.is_fullerene() or out.f2 != m.f2 + delta:
        raise ResultNotFullerene(
            "rule %s%s output is not a fullerene with p6 %+d"
            % (rule.key, " inverse" if inverse else "", delta))
    return steps, out


def _require_fullerene(m: CombMap, rule: str, inverse: bool) -> None:
    """The input check of every rewrite, naming the rule and direction."""
    if not m.is_fullerene():
        raise NotFullerene("rule %s%s expects a fullerene"
                           % (rule, " inverse" if inverse else ""))


def _check_match(m: CombMap, pat: PatchPattern, at: MatchResult) -> None:
    anchor = pat.first
    if anchor not in at.origin:
        raise NotAMatch("match does not bind face %r" % anchor)
    d0 = at.origin[anchor]
    if not 0 <= d0 < len(m.face_of):
        raise NotAMatch("dart %d is not a dart of this map" % d0)
    found = (_embeddings(m, pat, anchor, 0, [d0], at.mirrored)
             if m.face_size(m.face_of[d0]) == pat.sizes[anchor] else [])
    if (not found or _match_result(m, pat, found[0], at.mirrored).origin
            != at.origin):
        raise NotAMatch("not a match of this pattern at the given site")


# -- rule catalog ------------------------------------------------------------

_RULES: Optional[List[GrowthRule]] = None


def load_rules() -> List[GrowthRule]:
    """The packaged growth-rule catalog (rules a-g, chain rules per length)."""
    global _RULES
    if _RULES is None:
        path = resources.files("fullerkit") / "data" / "rules.txt"
        _RULES = parse_file(path.read_text())[1]
    return list(_RULES)


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
    every LHS site up to symmetry (see :func:`_one_site_per_orbit`), to
    every map of the previous generation, skipping rules that would pass
    max_p6.  A generation is not a p6 level, since rules add one or more
    hexagons.  The result maps canonical code to the first map produced
    with that code; its order is the order of discovery, starting with the
    dodecahedron.

    Skipping sites leaves the result as it would be with every site
    applied.  A skipped site gives a child isomorphic, perhaps by a
    reflection, to the child of a site of the same rule applied before it,
    since an automorphism of the parent, orientation preserving or not,
    maps the one site onto the other (up to a self-symmetry of the pattern
    that the rule's script respects).  So the skipped child's code was
    already seen, and it would neither have been kept nor have been walked.

    A child repeats a kept map exactly when the BFS word from the first
    root of its forward rarest colour class is one of the class-root
    words of a kept map, in either orientation (see :class:`IsomerSet`).
    So a repeat pays for one BFS word, and only a new child for its class
    words, which also give its canonical code and the automorphisms,
    orientation preserving and reversing, that it skips sites by as a
    parent.  ``max_p6`` must be an int (a bool counts as one).
    """
    _check_int(max_p6, "max_p6")
    if max_p6 < 0:
        raise NegativeParameter("max_p6 must be >= 0")
    found = [seed_dodecahedron()]
    kept = IsomerSet()
    kept.add(found[0])
    rules = load_rules()
    for m in found:  # found grows while it is walked
        p6 = m.f2 - 12
        for rule in rules:
            if p6 + rule.delta_p6 > max_p6:
                continue
            for at in _one_site_per_orbit(m, rule):
                child = apply_rule(m, rule, at)
                if kept.add(child):
                    found.append(child)
    return {m.canonical_code(): m for m in found}


# Rules whose script gives one child, up to isomorphism, at every embedding
# of one face set; see _one_site_per_orbit
FACE_KEYED = frozenset({"a", "b", "c", "d", "g1_1", "g2_2"})


def _one_site_per_orbit(m: CombMap, rule: GrowthRule) -> Iterator[MatchResult]:
    """The sites of ``match_pattern(m, rule.lhs)``, in order, less every
    site whose key an automorphism of ``m`` maps from the key of a site
    yielded before it.

    An automorphism ``psi`` of ``m``, orientation preserving or reversing,
    carries an embedding of the LHS pattern to another.  ``apply_rule`` is
    built from ``twin``/``next`` and dart walks alone, so the child at the
    image is ``psi`` of the child, an isomorphic map (mirror images count
    as isomorphic).  But ``match_pattern`` lists one embedding per face
    set, and the one it lists for ``psi(F)`` may differ from ``psi`` of
    the one for ``F`` by a self-symmetry of the pattern.  The key says when
    that does not matter.

    For a rule of ``FACE_KEYED`` a site is keyed by its face set.  Two
    embeddings with one face set differ by a self-symmetry of the LHS
    pattern, and for these rules the script gives isomorphic children at
    both; so the site listed for ``psi(F)`` gives a child isomorphic to
    that of ``psi`` of the site listed for ``F``.  ``tests/test_growth.py``
    checks this rule by rule on every face set with several embeddings in
    its hosts: it holds for a, b, c, d, g1_1 and g2_2, and fails for the
    roads e and f3..f6, which an embedding and its reflection lay
    differently.  g1_2, g1_3, g1_4 and g2_3 have no such face set there.

    Every other rule keys a site by its orientation and its origin darts
    in pattern face order.  An orientation-preserving ``psi`` maps the key
    ``(mirrored, origins)`` to ``(mirrored, psi(origins))``.  A reversing
    one turns an origin dart, which has its face on the left, into a dart
    with the image face on the right, and reverses the face walks, so it
    maps the key to ``(not mirrored, twin(psi(origins)))``.  So on the
    straight roads e and f3..f6 reflections skip nothing: their LHS is
    achiral, every site listed is unmirrored, and a reflection's key is a
    mirrored one.  At p6 <= 8, e keeps 74 of 108 sites with and without
    them; the bent roads g1_2..g2_3 do get reflection skips.

    The images come from :meth:`CombMap.dart_images`, at O(1) per origin
    dart and automorphism.
    """
    names = tuple(rule.lhs.faces)
    by_faces = rule.key in FACE_KEYED
    twin, face_of = m.twin, m.face_of
    covered: Set[object] = set()
    for at in match_pattern(m, rule.lhs):
        origins = [at.origin[n] for n in names]
        if by_faces:
            key: object = frozenset(at.faces.values())
        else:
            key = (at.mirrored, tuple(origins))
        if key in covered:
            continue
        for rev, img in m.dart_images(origins):
            if by_faces:
                covered.add(frozenset([face_of[twin[d]] for d in img] if rev
                                      else [face_of[d] for d in img]))
            elif rev:
                covered.add((not at.mirrored, tuple([twin[d] for d in img])))
            else:
                covered.add((at.mirrored, img))
        yield at
