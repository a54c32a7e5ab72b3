"""Disk patterns (fragments) and anchored matching inside cubic maps.

A pattern is a disk-shaped combinatorial map fragment: named faces with
fixed sizes and cyclic neighbour lists in which ``B`` marks a boundary edge
(an edge to a face outside the fragment).  Matching anchors one slot of a
pattern face on a map dart and extends deterministically through the
rotation structure, in both orientations; an achiral pattern is searched
unmirrored only unless every embedding is asked for, since a reflection of
the pattern turns each mirrored embedding into an unmirrored one of the
same faces.  A pattern builds its face graph when it is made, and
compiles from it, on first use of an anchor face, one flat program per
orientation: a step per internal pattern edge, binding the most
constrained face first and checking every edge that binds no face after
the last bind, then one check per run of ``B`` slots along one outside
face.  A run addresses darts by their position in the face orbit, read
from the matcher's view of the map, which holds each dart's position and
each orbit twice over, so an attempt builds no list or dict and wraps no
index.  The anchor is the slot whose partial dart colour, the face sizes
``(left, right, back, ahead)`` that the pattern fixes around it, has the
fewest darts in the map (see :meth:`CombMap.colour_classes`), and only
those darts are tried.  On a fullerene a pattern with two adjacent
pentagons tries at most the darts between two pentagons, and none at all
when the pentagons are isolated.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, product
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .maps import CombMap

B = "B"


class PatternError(Exception):
    """The pattern is not a valid disk fragment."""


class PatchPattern:
    """Named faces with sizes and cyclic neighbour lists ('B' = boundary).

    A face may instead have a wildcard size: its entry list is then a
    contiguous arc of its cycle (not cyclic), its actual size is free, and
    edges outside the arc are unconstrained.  Wildcard faces express context
    ("some face here, any size") around the faces a rewrite changes.

    Attributes:
        faces: name -> cyclic entry list (face names and 'B' marks), or the
            arc for wildcard faces.
        sizes: name -> face size; None for wildcard faces.
        first: the first fixed-size face; matches are listed in order of
            its origin dart.
    """

    def __init__(self, faces: Dict[str, Sequence[str]],
                 wildcard: Optional[Iterable[str]] = None) -> None:
        self.faces: Dict[str, Tuple[str, ...]] = {
            name: tuple(cyc) for name, cyc in faces.items()}
        wild = set(wildcard or ())
        unknown = wild - set(self.faces)
        if unknown:
            raise PatternError("wildcard names %r not in pattern" % sorted(unknown))
        self.sizes: Dict[str, Optional[int]] = {
            name: (None if name in wild else len(cyc))
            for name, cyc in self.faces.items()}
        # the face graph: each face's pattern neighbours
        self._nbrs: Dict[str, List[str]] = {
            name: [g for g in cyc if g != B]
            for name, cyc in self.faces.items()}
        self._check()
        self.first = next(n for n in self.faces if not self.is_wild(n))
        # what every match program shares: the face indices, and the faces
        # in breadth-first order from first as (name, index), which is the
        # key order of MatchResult.faces and .origin
        self._index = {name: i for i, name in enumerate(self.faces)}
        self._order = tuple((name, self._index[name])
                            for name in _bfs(self._nbrs, [self.first]))
        # anchor name -> match programs, see _compile
        self._programs: Dict[str, _Compiled] = {}
        # mirrored -> anchor slots by partial colour, see _anchors
        self._anchors: Dict[bool, Tuple[Tuple[_Partial, str, int], ...]] = {}
        # whether a reflection maps the pattern to itself, see _achiral
        self._achiral: Optional[bool] = None

    def is_wild(self, name: str) -> bool:
        return self.sizes[name] is None

    def _check(self) -> None:
        for name, nbrs in self._nbrs.items():
            seen: Set[str] = set()
            for g in nbrs:
                if g not in self.faces:
                    raise PatternError("face %r lists unknown face %r"
                                       % (name, g))
                if g == name:
                    raise PatternError("face %r borders itself" % name)
                if g in seen:
                    raise PatternError("faces %r and %r share two edges"
                                       % (name, g))
                seen.add(g)
        for name, nbrs in self._nbrs.items():
            for g in nbrs:
                if name not in self.faces[g]:
                    raise PatternError("face %r lists %r but not conversely"
                                       % (name, g))
        if not self.faces:
            raise PatternError("empty pattern")
        if all(self.is_wild(n) for n in self.faces):
            raise PatternError("pattern needs a face of fixed size")
        if len(_bfs(self._nbrs, [next(iter(self.faces))])) < len(self.faces):
            raise PatternError("pattern is not connected")
        if not any(self.is_wild(n) for n in self.faces):
            self.boundary_walk()  # raises unless the B edges form one cycle

    def slot_of(self, name: str, nbr: str) -> int:
        return self.faces[name].index(nbr)

    def boundary_walk(self) -> List[Tuple[str, int]]:
        """Boundary B-slots in cyclic walk order with the disk on the left.

        Raises PatternError unless all B slots lie on one closed walk, or
        when more than ``3 * len(faces)`` inside edges meet at one boundary
        vertex.

        A step goes from a B slot to the next slot of its face, then, while
        that slot holds a face Y, over the edge to Y and on to the next
        slot there: round the vertex at the end of the B edge, to the next
        B slot.  The slot before each slot entered is the B slot the step
        began at, or the slot of Y that holds the face it came from, which
        is not B; so, walking back, the B slot a step reaches fixes the one
        it began at.  The walk from ``bslots[0]`` therefore comes back to
        it before it meets any other B slot twice.
        """
        if any(self.is_wild(n) for n in self.faces):
            raise PatternError("boundary walk undefined for wildcard patterns")
        bslots = [(n, i) for n, cyc in self.faces.items()
                  for i, g in enumerate(cyc) if g == B]
        if not bslots:
            raise PatternError("pattern has no boundary (it is a sphere)")
        walk = [bslots[0]]
        while True:
            name, i = walk[-1]
            # step to the next edge around the boundary vertex after slot i
            n2, j = name, (i + 1) % self.sizes[name]
            guard = 0
            while self.faces[n2][j] != B:
                g = self.faces[n2][j]
                n2, j = g, (self.slot_of(g, n2) + 1) % self.sizes[g]
                guard += 1
                if guard > 3 * len(self.faces):
                    raise PatternError("boundary walk does not close")
            if (n2, j) == walk[0]:
                break
            walk.append((n2, j))
        if len(walk) != len(bslots):
            raise PatternError("boundary edges form more than one cycle")
        return walk

    def contact_sequence(self) -> List[int]:
        """Per-boundary-face runs of consecutive boundary edges."""
        walk = self.boundary_walk()
        faces = [n for n, _ in walk]
        runs: List[int] = []
        names: List[str] = []
        for f in faces:
            if names and names[-1] == f:
                runs[-1] += 1
            else:
                names.append(f)
                runs.append(1)
        if len(names) > 1 and names[0] == names[-1]:
            runs[0] += runs.pop()
            names.pop()
        return runs

    def __repr__(self) -> str:
        return "PatchPattern(%d faces)" % len(self.faces)


class MatchResult:
    """An embedding of a pattern into a map.

    Attributes:
        faces: pattern name -> map face id.
        origin: pattern name -> map dart aligned with slot 0 of the face.
        mirrored: True if the embedding reverses orientation.
    """

    def __init__(self, faces: Dict[str, int], origin: Dict[str, int],
                 mirrored: bool) -> None:
        self.faces = faces
        self.origin = origin
        self.mirrored = mirrored

    def dart_at(self, m: CombMap, name: str, slot: int) -> int:
        """Map dart corresponding to the given pattern face slot."""
        d = self.origin[name]
        orbit = m.faces[m.face_of[d]]
        i = orbit.index(d) + (-slot if self.mirrored else slot)
        return orbit[i % len(orbit)]

    def __repr__(self) -> str:
        return "MatchResult(%r, mirrored=%s)" % (self.faces, self.mirrored)


def match_pattern(m: CombMap, pat: PatchPattern,
                  all_embeddings: bool = False) -> List[MatchResult]:
    """Embeddings of the pattern in the map, both orientations.

    By default one representative is returned per occurrence (per matched
    face set), so a symmetric pattern counts each site once.  With
    ``all_embeddings`` every distinct correspondence is returned, including
    the pattern's self-symmetries.  Embeddings are listed unmirrored first,
    then by the origin dart of ``pat.first``; the representative of an
    occurrence is the first of its embeddings in that order.

    Which anchor the search starts from changes neither the list nor its
    order.  An embedding puts the anchor slot on exactly one map dart, and
    that dart's colour agrees with the slot's partial colour, so every
    embedding is found once from any anchor.  Two embeddings of one
    orientation with the same origin for ``pat.first`` are the same
    embedding, since every other face is bound from it; so the sort key is
    unique, and the first of an occurrence is the same whatever the anchor.

    Unless ``all_embeddings`` is set, an achiral pattern is searched
    unmirrored only.  It has an orientation-reversing self-symmetry sigma
    (see :func:`_achiral`), and for each mirrored embedding phi, phi after
    sigma is an unmirrored embedding of the same face set.  Unmirrored
    embeddings come first, so every mirrored one would be dropped as a
    repeat.  The search gives raw records, and a :class:`MatchResult` is
    built only for an embedding that is returned.
    """
    table = _partial_classes(m)[0]
    one_pass = not all_embeddings and _achiral(pat)
    results: List[MatchResult] = []
    seen_sites: Set[FrozenSet[int]] = set()
    for mirrored in (False,) if one_pass else (False, True):
        best = None
        for colour, name, slot in _anchors(pat, mirrored):
            n, darts = table.get(colour, _ABSENT)
            if best is None or n < best[0]:
                best = (n, darts, name, slot)
                if not n:
                    break
        n, darts, name, slot = best
        if not n:
            continue
        found = _embeddings(m, pat, name, slot, chain.from_iterable(darts),
                            mirrored)
        found.sort(key=itemgetter(0))
        for rec in found:
            if all_embeddings or rec[1] not in seen_sites:
                seen_sites.add(rec[1])
                results.append(_match_result(m, pat, rec, mirrored))
    return results


# A partial dart colour: (left, right, back, ahead) face sizes, as in
# CombMap.colour_classes, with None where the pattern leaves a size free.
_Partial = Tuple[int, Optional[int], Optional[int], Optional[int]]
_Classes = Dict[_Partial, Tuple[int, Tuple[array, ...]]]
# The matcher's view of a map, see _partial_classes
_View = Tuple[_Classes, Tuple[Tuple[int, ...], ...], List[int]]


_ABSENT: Tuple[int, Tuple[array, ...]] = (0, ())


@lru_cache(maxsize=1)
def _partial_classes(m: CombMap) -> _View:
    """The matcher's one view of a map.  First, per partial colour that
    some dart of the map has, the number of such darts and their colour
    classes (see :meth:`CombMap.colour_classes`).  Second, per face, its
    orbit written twice, ``o + o``.  Third, per dart, its position in its
    face's orbit: ``d`` is ``faces[face_of[d]][pos[d]]``.

    In a doubled orbit, entry ``p + i`` is the dart ``i`` steps along the
    face from position ``p`` whenever ``-len(o) <= p + i < 2 * len(o)``
    (a negative index counts from the end), and every index that a match
    program makes lies there; so a step needs no ``%`` and no ``len``.

    Kept for the last map only: callers match one map against a list of
    patterns in turn, and a map keeps no view once it is done with.
    """
    lists: Dict[_Partial, List[array]] = {}
    for (a, b, c, d), darts in m.colour_classes().items():
        for key in product((a,), (b, None), (c, None), (d, None)):
            lists.setdefault(key, []).append(darts)
    pos = [0] * len(m.face_of)
    for orbit in m.faces:
        for i, d in enumerate(orbit):
            pos[d] = i
    return ({key: (sum(map(len, classes)), tuple(classes))
             for key, classes in lists.items()},
            tuple(o + o for o in m.faces), pos)


def _anchors(pat: PatchPattern, mirrored: bool
             ) -> Tuple[Tuple[_Partial, str, int], ...]:
    """Per partial colour of a fixed-face slot in the given orientation, the
    first (face, slot) that has it; built on first use.

    The slot ``s`` of a ``k``-gon whose entries have sizes ``e`` lies on a
    map dart of colour ``(k, e[s], e[s - 1], e[s + 1])``, or with back and
    ahead swapped when the embedding is mirrored.  ``B`` and wildcard
    entries fix no size.
    """
    anchors = pat._anchors.get(mirrored)
    if anchors is None:
        sizes = pat.sizes
        seen: Dict[_Partial, Tuple[str, int]] = {}
        for name, cyc in pat.faces.items():
            k = sizes[name]
            if k is None:
                continue
            e = [None if g == B else sizes[g] for g in cyc]
            for s in range(k):
                back, ahead = e[s - 1], e[(s + 1) % k]
                if mirrored:
                    back, ahead = ahead, back
                seen.setdefault((k, e[s], back, ahead), (name, s))
        anchors = pat._anchors[mirrored] = tuple(
            (colour, name, s) for colour, (name, s) in seen.items())
    return anchors


def _achiral(pat: PatchPattern) -> bool:
    """Whether the pattern has an orientation-reversing self-symmetry;
    decided on first use.

    Such a symmetry sigma maps each face X to a face of its size, and
    slot ``i`` of X to slot ``c - i`` of sigma(X) for some offset ``c``,
    so that ``B`` entries go to ``B`` entries and face entries to their
    images.  The pattern is connected, so sigma follows from the image of
    ``pat.first`` and its offset, and every choice of the two is tried.
    A pattern with a wildcard face counts as chiral: its arcs are not
    cycles.
    """
    if pat._achiral is None:
        faces = pat.faces
        pat._achiral = not any(map(pat.is_wild, faces)) and any(
            _reflects(faces, {pat.first: (y, c)})
            for y in faces for c in range(len(faces[y])))
    return pat._achiral


def _reflects(faces: Dict[str, Tuple[str, ...]],
              sigma: Dict[str, Tuple[str, int]]) -> bool:
    """Whether the one face -> (image, offset) pair in ``sigma`` extends
    to an orientation-reversing self-symmetry; ``sigma`` is filled in."""
    queue = list(sigma)
    for x in queue:  # queue grows while it is walked
        y, c = sigma[x]
        if len(faces[x]) != len(faces[y]):
            return False
        for i, g in enumerate(faces[x]):
            h = faces[y][(c - i) % len(faces[y])]
            if B in (g, h):
                if g != h:
                    return False
                continue
            # the slot of x in g goes to the slot of y in h
            image = (h, (faces[g].index(x) + faces[h].index(y))
                     % len(faces[g]))
            if g not in sigma:
                queue.append(g)
            if sigma.setdefault(g, image) != image:
                return False
    return len({y for y, _ in sigma.values()}) == len(sigma)


# One step per pattern edge that is bound or checked (see _compile):
# (source face, slot, target face, back-slot, size).  Faces are pattern
# indices and slots are signed by the orientation.  A size of 0 checks that
# the target, already bound, has its back-slot on the twin of the source
# slot's dart.  Otherwise the target is bound so that it does, and the
# doubled orbit of its map face must have that length, or at least minus
# that length when the size is negative: twice a wildcard's arc length.
# Then each (face, slot) of the B list must lead off the matched set.
_Step = Tuple[int, int, int, int, int]
_Slots = Tuple[Tuple[int, int], ...]
_Program = Tuple[Tuple[_Step, ...], _Slots]
_Compiled = Tuple[_Program, _Program]
# An embedding as the search gives it (see _embeddings): the origin dart of
# pat.first, the map faces covered, and per pattern face its doubled orbit
# and the position of its origin dart in that orbit.
_Record = Tuple[int, FrozenSet[int], Tuple[Tuple[int, ...], ...],
                Tuple[int, ...]]


def _compile(pat: PatchPattern, anchor: str) -> _Compiled:
    """The program from ``anchor``, unmirrored and mirrored; built on first
    use.

    Faces are bound one at a time, each over an edge from a bound face,
    most constrained first: the face nearest to another face of the
    anchor's size (to another pentagon, when the anchor is one), then the
    one with the most bound neighbours, then the first in breadth-first
    order from the anchor.  Of a face's edges to the faces bound before
    it, the first binds it and each other one is checked after every face
    is bound, so a wrong face size, which is how most attempts fail, is met
    before any check.
    """
    compiled = pat._programs.get(anchor)
    if compiled is None:
        faces, sizes, nbrs, index = pat.faces, pat.sizes, pat._nbrs, pat._index
        rank = {n: i for i, n in enumerate(_bfs(nbrs, [anchor]))}
        others = [n for n in faces
                  if n != anchor and sizes[n] == sizes[anchor]]
        dist = _bfs(nbrs, others or [anchor])
        bound: Set[str] = set()
        frontier: Dict[str, int] = {}  # unbound face -> bound neighbours
        steps: List[_Step] = []
        rest: List[Tuple[int, int, int, int]] = []
        g = anchor
        while True:
            bound.add(g)
            for h in nbrs[g]:
                if h not in bound:
                    frontier[h] = frontier.get(h, 0) + 1
            if not frontier:
                break
            g = min(frontier, key=lambda h: (dist[h], -frontier[h], rank[h]))
            del frontier[g]
            edges = [(index[h], faces[h].index(g), index[g], j)
                     for j, h in enumerate(faces[g]) if h != B and h in bound]
            k = 2 * len(faces[g])
            steps.append(edges[0] + (-k if pat.is_wild(g) else k,))
            rest.extend(edges[1:])
        steps.extend(edge + (0,) for edge in rest)
        bslots = _b_slots(pat)
        compiled = pat._programs[anchor] = (
            (tuple(steps), bslots),
            (tuple((src, -i, dst, -j, k) for src, i, dst, j, k in steps),
             tuple((f, -i) for f, i in bslots)))
    return compiled


def _b_slots(pat: PatchPattern) -> _Slots:
    """The unmirrored B slots to check: the first slot of each run of B
    slots along one outside face.

    Corner ``i`` of a face X is the vertex v between its entries
    Z = X[i - 1] and X[i]; a wildcard face has corners inside its arc
    only.  Let Z be a face, with X at its slot ``l``.  Then Z's slot
    ``l - 1`` is its edge at v that X does not have.  If X[i] and
    Z[l - 1] are both B, the two slots lead to one face, the third at v.
    At a cubic vertex, the dart after one into v along its face is the
    next dart out of v in rotation.  X's slot ``i`` follows its slot
    ``i - 1``, and Z's slot ``l``, the twin of X's slot ``i - 1``, follows
    Z's slot ``l - 1``.  So the dart after the twin of X's slot ``i`` is
    the third dart e out of v, and Z's slot ``l - 1`` is the twin of e:
    the faces across both slots hold e.  So each run of B slots along one
    outside face needs one check, of its first slot.  This holds once the
    X-Z edge is verified, which a program has done before its B checks.
    """
    faces = pat.faces

    def entry(name: str, s: int) -> Optional[str]:
        cyc = faces[name]
        return (cyc[s % len(cyc)] if pat.sizes[name] or 0 <= s < len(cyc)
                else None)

    bslots = [(x, i) for x, cyc in faces.items()
              for i, g in enumerate(cyc) if g == B]
    first = {s: s for s in bslots}  # B slot -> first slot of its face
    for x, i in bslots:
        z = entry(x, i - 1)
        if z is None or z == B:
            continue
        l = faces[z].index(x) - 1
        if entry(z, l) == B:
            keep, drop = sorted((first[x, i], first[z, l % len(faces[z])]),
                                key=bslots.index)
            first = {s: keep if r == drop else r for s, r in first.items()}
    return tuple((pat._index[x], i) for x, i in bslots
                 if first[x, i] == (x, i))


def _bfs(nbrs: Dict[str, List[str]], roots: List[str]) -> Dict[str, int]:
    """Face -> distance from the nearest of ``roots``, in breadth-first
    order."""
    depth = dict.fromkeys(roots, 0)
    order = list(depth)
    for name in order:  # order grows while it is walked
        for g in nbrs[name]:
            if g not in depth:
                depth[g] = depth[name] + 1
                order.append(g)
    return depth


def _embeddings(m: CombMap, pat: PatchPattern, anchor: str, slot: int,
                darts: Iterable[int], mirrored: bool) -> List[_Record]:
    """Embeddings with slot ``slot`` of ``anchor`` on one of the given
    darts, which must lie on faces of the anchor's size.

    Each dart yields at most one embedding: the program binds every other
    face from the anchor's position.  A face's origin is kept as its
    doubled orbit (see :func:`_partial_classes`) and the position of the
    origin dart in it, so slot ``i`` of the face is entry ``position + i``,
    ``- i`` when mirrored.  An embedding is returned as a raw record, for
    :func:`_match_result` to make a :class:`MatchResult` of.
    """
    steps, bslots = _compile(pat, anchor)[mirrored]
    a, x0 = pat._index[anchor], pat._order[0][1]
    shift = -slot if mirrored else slot
    face_of, twin = m.face_of, m.twin
    _, orbits, pos = _partial_classes(m)
    # per pattern face: its orbit and origin position, both overwritten by
    # every attempt before they are read
    orb: List[Tuple[int, ...]] = [()] * len(pat.faces)
    org = [0] * len(pat.faces)
    out: List[_Record] = []
    for d0 in darts:
        f = face_of[d0]
        orb[a], org[a] = orbits[f], pos[d0] - shift
        used = {f}
        for src, i, dst, j, k in steps:
            t = twin[orb[src][org[src] + i]]
            if k:
                g = face_of[t]
                go = orbits[g]
                kg = len(go)
                if (kg != k if k > 0 else kg < -k) or g in used:
                    break
                used.add(g)
                orb[dst], org[dst] = go, pos[t] - j
            elif orb[dst][org[dst] + j] != t:
                break
        else:
            for src, i in bslots:
                if face_of[twin[orb[src][org[src] + i]]] in used:
                    break
            else:
                out.append((orb[x0][org[x0]], frozenset(used), tuple(orb),
                            tuple(org)))
    return out


def _match_result(m: CombMap, pat: PatchPattern, rec: _Record,
                  mirrored: bool) -> MatchResult:
    """The :class:`MatchResult` of a record of :func:`_embeddings`."""
    _, _, orb, org = rec
    face_of = m.face_of
    return MatchResult({n: face_of[orb[x][0]] for n, x in pat._order},
                       {n: orb[x][org[x]] for n, x in pat._order}, mirrored)


def path_turns(m: CombMap, path: List[int]) -> int:
    """Number of interior faces where the path does not go straight.

    A path goes straight through a face only when the face is an even-gon
    and it enters and leaves by opposite edges; every pass through an odd
    face is a turn.

    Raises:
        ValueError: two consecutive faces of the path are not adjacent.
    """
    cycles = m.face_cycles()
    turns = 0
    for a, f, b in zip(path, path[1:], path[2:]):
        cyc = cycles[f]
        for g in (a, b):
            if g not in cyc:
                raise ValueError("faces %d and %d are not adjacent" % (g, f))
        size = len(cyc)
        if size % 2 or (cyc.index(b) - cyc.index(a)) % size != size // 2:
            turns += 1
    return turns
