"""k-loops and k-belts.

A k-loop is a cyclic sequence of faces in which consecutive faces share an
edge.  A k-belt is a k-loop whose faces are pairwise distinct and in which
non-consecutive faces do not intersect at all (for k = 3 the condition is
that the three faces have no common vertex).  Faces at a common vertex of
a cubic map share an edge there, so a k-belt is a chordless k-cycle of the
dual graph, for k = 3 one not around a vertex (a cyclic k-edge cut, Doslic
2003).  The three faces at a vertex of a face f are f and the faces across
two consecutive edges of f, so a dual triangle on f is a vertex exactly
when its other two faces are consecutive in f's row, the faces across its
darts in orbit order; a vertex lies between two consecutive edges of each
of its faces on any map, 3-connected or not.

:func:`find_k_belts` writes a belt as s, c1, ..., c(k-1) from its smallest
face s, in the direction with c1 < c(k-1), so its two ends are a pair
a < b of neighbours of s above s, adjacent and not consecutive in s's row
for k = 3 (the vertex rule above), not adjacent for k >= 4.  The inner
faces c2 .. c(k-2) then form a path from a above s, and each ci shares no
edge with s or with any placed face but its predecessor: it lies in
N(c(i-1)) and outside N(s) | N(c1) | ... | N(c(i-2)), N(f) being the
neighbour set of f.  Every inner face but the last also lies outside
N(b), and the last lies in N(b).  These set tests say exactly that
non-consecutive faces are disjoint, so every sequence found is a belt, and
every belt is found once, at its one rotation and direction.  They also
keep the faces distinct: every placed face but s lies in the neighbour set
of the face before it, which is part of the union, b lies in N(s), and s
is not above itself.

For k >= 4 the search fixes a, extends c2 .. c(k-3) once for every b, and
picks b last.  "Inner face outside N(b)" is the same test as "b outside
N(inner face)", since sharing an edge is symmetric, so the ends still open
after c(k-3) are one mask: N(s) above a, less N(a) | N(c2) | ... |
N(c(k-3)).  Each b in it comes with its last faces: N(c(k-3)) & N(b), less
N(s) | N(c1) | ... | N(c(k-4)) and the faces not above s.  The set of
tests is the one above, only in another order, so the same argument holds.
Partial paths deeper than c(k-3) wait on an explicit stack, not in
recursion, and the level that reaches c(k-3) is closed where it is reached,
so k = 4 and 5 never use the stack.

Each N(f) is an int bit mask, bit g set for face g
(:meth:`CombMap.face_neighbor_masks`), and so is "above s": union,
intersection and difference are ``|``, ``&`` and ``& ~``, and the faces
of a candidate mask are read off its set bits in increasing order.  For
k = 3, the b that pair with a are the ends of s above a in N(a), less
the faces next to a in s's row wherever a occurs there (a face may
border s twice).  Each face y next to a there is the third face at an
end of an s-a edge, so y lies in N(s) & N(a): the three faces at a vertex
pairwise share its edges.  A b left over is a common face too, and not
next to a.  On a 3-connected map the faces next to a are two, the faces
at the ends of the one s-a edge, so a b needs three common faces (and a
third one makes a 3-belt with s and a, so on a flag map no pair has
three).  On any map a b needs three: with at most two, a would have one
face y next to it at every place in s's row, and no case leaves a b:

- y = a: then a fills s's row, and N(s) = {a} holds no b.
- y = s: at each end of an s-a edge the third face is s, so the next edge
  of a borders s too.  Going round a, every edge of a borders s, and
  N(a) = {s} holds no b.
- otherwise y borders s on both sides of an s-a edge.  A closed curve
  through s and y, crossing those two edges, cuts the sphere in two; a
  lies on one side, and there s has only the s-a edge.  b borders a and
  is neither s nor y, so it lies on a's side too and can border s only
  across that edge: b = a.

So the search reads s's row off its darts only where N(s) & N(a) holds
three faces or more, and needs no check that s's row repeats no face.

On a 3-connected map a belt region is an annulus: its two boundary
edge-cycles cut the rest of the sphere into two sides.  Cutting the sphere
along a cycle, and the loop arithmetic on either side of the cut, live
with the tests in ``tests/paper_lemmas.py``.

Every belt face touches both boundary cycles, so a side that is a single
face has exactly the belt as its neighbour set; conversely a face off the
belt with that neighbour set is its whole side.  So :func:`enclosed_faces`
reads enclosure off neighbour sets on any map, with no flood of the sphere.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .maps import CombMap, _check_int
from .patterns import path_turns


class NotFullerene(Exception):
    """The operation requires a fullerene input."""


class FiveBeltReport:
    """The 5-belts of a fullerene, each with its kind ('pentagon',
    'hexagon ring' or None); ``kinds[i]`` belongs to ``belts[i]``."""

    def __init__(self, belts: List[List[int]],
                 kinds: List[Optional[str]]) -> None:
        self.belts = belts
        self.kinds = kinds

    @property
    def count(self) -> int:
        return len(self.belts)


def find_k_belts(m: CombMap, k: int) -> List[List[int]]:
    """All k-belts, one representative per dihedral class, sorted.

    A belt is returned as the face sequence rotated to start at its smallest
    face id, in the direction that minimizes the sequence.  The search
    picks the belt's near end a next to that face first, then the inner
    path from a, one level per inner face, each level one ``&`` and ``& ~``
    of the map's neighbour bit masks, and the far end b last, off the mask
    of ends still open; the module docstring states why it finds each belt
    exactly once.  It runs once per map and k; every call returns fresh
    lists.  ``k`` must be an int (a bool counts as one).
    """
    _check_int(k, "k")
    if k < 3:
        return []
    found = m._belts.get(k)
    if found is None:
        found = m._belts[k] = tuple(map(tuple, _search_k_belts(m, k)))
    return [list(belt) for belt in found]


def _search_k_belts(m: CombMap, k: int) -> List[List[int]]:
    faces, face_of, twin = m.faces, m.face_of, m.twin
    nbrs = m.face_neighbor_masks()
    out: List[List[int]] = []
    stack: List[tuple] = []     # partial paths still to extend, k >= 6
    for s, ns in enumerate(nbrs):
        above = -1 << s + 1                 # the faces above s
        rest = ns & above
        while rest & (rest - 1):            # b > a: a is not the top end
            a = (rest & -rest).bit_length() - 1
            rest &= rest - 1                # now the ends above a
            if k == 3:
                # with two common neighbours or fewer the row rule
                # leaves no b (module docstring)
                common = nbrs[a] & ns
                pair = common & rest
                if common.bit_count() > 2 and pair:
                    # b must not be next to a in s's row: s, a, b would
                    # be the faces at a vertex
                    row = [face_of[twin[d]] for d in faces[s]]
                    for i, g in enumerate(row):
                        if g == a:
                            pair &= ~(1 << row[i - 1]
                                      | 1 << row[(i + 1) % len(row)])
                    if pair:
                        out += [[s, a, b] for b in _faces(pair)]
                continue
            na = nbrs[a]
            ends = rest & ~na               # the far ends b still open
            if not ends:
                continue
            # a partial path, the union of its faces' masks and the
            # candidates for its next face: for k = 4 that face is a
            path, blocked, tips = (([s], ns, 1 << a) if k == 4 else
                                   ([s, a], ns | na, na & ~ns & above))
            while True:
                while tips:
                    c = (tips & -tips).bit_length() - 1
                    tips &= tips - 1
                    nc = nbrs[c]
                    e = ends & ~nc
                    cand = e and nc & ~blocked & above  # c's successors
                    if not cand:
                        continue
                    if len(path) < k - 3:   # c is not yet c(k-3)
                        stack.append((path + [c], blocked | nc, cand, e))
                        continue
                    while e:                # b last, with its last faces
                        b = (e & -e).bit_length() - 1
                        e &= e - 1
                        last = cand & nbrs[b]
                        if last:
                            out += [path + [c, g, b] for g in _faces(last)]
                if not stack:
                    break
                path, blocked, tips, ends = stack.pop()
    out.sort()
    return out


def _faces(mask: int) -> List[int]:
    """The faces whose bits are set in ``mask``, in increasing order."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def enclosed_faces(m: CombMap, belt: Sequence[int]) -> List[int]:
    """The faces that are a whole side of the belt, in increasing order:
    those off the belt whose neighbour mask is exactly the belt (module
    docstring).  There are none, one or, as on the cube, two."""
    region = 0
    for f in belt:
        region |= 1 << f
    if not region:
        return []       # no face has an empty neighbour mask
    nbrs = m.face_neighbor_masks()
    return [g for g in _faces(nbrs[belt[0]] & ~region) if nbrs[g] == region]


def classify_five_belts(m: CombMap) -> FiveBeltReport:
    """Count 5-belts of a fullerene and sort them into the two kinds.

    Kinds: 'pentagon' (the belt surrounds a single pentagon) and 'hexagon
    ring' (a nanotube ring of five hexagons meeting neighbours along
    opposite edges, so a walk round it never turns).  A belt of neither
    kind, which no fullerene has, gets the kind None.  Like the belts, the
    kinds are found once per map; every call returns fresh lists.
    """
    if not m.is_fullerene():
        raise NotFullerene("input is not a fullerene")
    belts = find_k_belts(m, 5)
    if m._five_kinds is None:
        m._five_kinds = tuple(_five_belt_kind(m, belt) for belt in belts)
    return FiveBeltReport(belts, list(m._five_kinds))


def _five_belt_kind(m: CombMap, belt: List[int]) -> Optional[str]:
    """The kind of a 5-belt, or None for neither kind.  On a fullerene the
    None guard is the paper's 5-belt statement: every 5-belt surrounds a
    pentagon or is a hexagon ring, so only a counterexample reaches it;
    maps with cuts reach it."""
    if any(m.face_size(g) == 5 for g in enclosed_faces(m, belt)):
        return "pentagon"
    if (all(m.face_size(f) == 6 for f in belt)
            and path_turns(m, belt + belt[:2]) == 0):
        return "hexagon ring"
    return None
