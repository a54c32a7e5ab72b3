"""Disk patterns (fragments) and anchored matching inside cubic maps.

A pattern is a disk-shaped combinatorial map fragment: named faces with
fixed sizes and cyclic neighbour lists in which ``B`` marks a boundary edge
(an edge to a face outside the fragment).  Matching anchors one slot of a
pattern face on a map dart and extends deterministically through the
rotation structure, in both orientations.  A pattern builds its face graph
when it is made, and compiles from it, on first use of an anchor face, one
flat program per orientation: one step per internal pattern edge, binding
the most constrained face first, then the ``B`` slots to check.  A run
addresses darts by their position in the face orbit
(:meth:`CombMap.face_positions`), so an attempt builds no list or dict.
The anchor is the slot whose partial dart colour, the face sizes
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
        # what every match program shares: the face indices, the faces in
        # breadth-first order from first as (name, index), which is the key
        # order of MatchResult.faces and .origin, and the B slots as (face
        # index, slot) unmirrored and mirrored
        self._index = {name: i for i, name in enumerate(self.faces)}
        self._order = tuple((name, self._index[name])
                            for name in _bfs(self._nbrs, [self.first]))
        self._bslots: Tuple[_Slots, _Slots] = tuple(
            tuple((self._index[name], sgn * i)
                  for name, cyc in self.faces.items()
                  for i, g in enumerate(cyc) if g == B)
            for sgn in (1, -1))
        # anchor name -> match programs, see _compile
        self._programs: Dict[str, _Compiled] = {}
        # mirrored -> anchor slots by partial colour, see _anchors
        self._anchors: Dict[bool, Tuple[Tuple[_Partial, str, int], ...]] = {}

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

        Raises PatternError unless all B slots lie on one closed walk.
        """
        if any(self.is_wild(n) for n in self.faces):
            raise PatternError("boundary walk undefined for wildcard patterns")
        bslots = [(n, i) for n, cyc in self.faces.items()
                  for i, g in enumerate(cyc) if g == B]
        if not bslots:
            raise PatternError("pattern has no boundary (it is a sphere)")
        walk = [bslots[0]]
        seen = {bslots[0]}
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
            if (n2, j) in seen:
                raise PatternError("boundary walk revisits an edge")
            walk.append((n2, j))
            seen.add((n2, j))
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
        i = m.face_positions()[d] + (-slot if self.mirrored else slot)
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
    """
    table = _partial_classes(m)
    found: List[MatchResult] = []
    for mirrored in (False, True):
        best = None
        for colour, name, slot in _anchors(pat, mirrored):
            n, darts = table.get(colour, _ABSENT)
            if best is None or n < best[0]:
                best = (n, darts, name, slot)
                if not n:
                    break
        n, darts, name, slot = best
        if n:
            found += _embeddings(m, pat, name, slot,
                                 chain.from_iterable(darts), mirrored)
    first = pat.first
    found.sort(key=lambda res: (res.mirrored, res.origin[first]))
    if all_embeddings:
        return found
    results: List[MatchResult] = []
    seen_sites: Set[FrozenSet[int]] = set()
    for res in found:
        site = frozenset(res.faces.values())
        if site not in seen_sites:
            seen_sites.add(site)
            results.append(res)
    return results


# A partial dart colour: (left, right, back, ahead) face sizes, as in
# CombMap.colour_classes, with None where the pattern leaves a size free.
_Partial = Tuple[int, Optional[int], Optional[int], Optional[int]]


_ABSENT: Tuple[int, Tuple[array, ...]] = (0, ())


@lru_cache(maxsize=1)
def _partial_classes(m: CombMap
                     ) -> Dict[_Partial, Tuple[int, Tuple[array, ...]]]:
    """Per partial colour that some dart of the map has, the number of such
    darts and their colour classes (see :meth:`CombMap.colour_classes`).

    Kept for the last map only: callers match one map against a list of
    patterns in turn, and a map keeps no table once it is done with.
    """
    lists: Dict[_Partial, List[array]] = {}
    for (a, b, c, d), darts in m.colour_classes().items():
        for key in product((a,), (b, None), (c, None), (d, None)):
            lists.setdefault(key, []).append(darts)
    return {key: (sum(map(len, classes)), tuple(classes))
            for key, classes in lists.items()}


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


# One step per internal pattern edge, binds first (see _compile):
# (source face, slot, target face, back-slot, size).  Faces are pattern
# indices and slots are signed by the orientation.  A size of 0 checks that
# the target, already bound, has its back-slot on the twin of the source
# slot's dart.  Otherwise the target is bound so that it does, and its map
# face must have that size, or at least minus that many darts when the size
# is negative: a wildcard's arc length.  Then each (face, slot) of the B list
# must lead off the matched set.
_Step = Tuple[int, int, int, int, int]
_Slots = Tuple[Tuple[int, int], ...]
_Program = Tuple[Tuple[_Step, ...], _Slots]
_Compiled = Tuple[_Program, _Program]


def _compile(pat: PatchPattern, anchor: str) -> _Compiled:
    """The program from ``anchor``, unmirrored and mirrored; built on first
    use.

    Faces are bound one at a time, each over an edge from a bound face,
    most constrained first: the face nearest to a face of the anchor's
    size (to a pentagon, when the anchor is one), then the one with the
    most bound neighbours, then the first in breadth-first order from the
    anchor.  Of a face's edges to the faces bound before it, the first
    binds it and the others are checked after every face is bound, so each
    internal edge is emitted once and a wrong face size, which is how most
    attempts fail, is met before any check.
    """
    compiled = pat._programs.get(anchor)
    if compiled is None:
        faces, sizes, nbrs, index = pat.faces, pat.sizes, pat._nbrs, pat._index
        rank = {n: i for i, n in enumerate(_bfs(nbrs, [anchor]))}
        dist = _bfs(nbrs, [n for n in faces if sizes[n] == sizes[anchor]])
        bound: Set[str] = set()
        frontier: Dict[str, int] = {}  # unbound face -> bound neighbours
        binds: List[_Step] = []
        checks: List[_Step] = []
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
            k = len(faces[g])
            binds.append(edges[0] + (-k if pat.is_wild(g) else k,))
            checks.extend(e + (0,) for e in edges[1:])
        steps = binds + checks
        compiled = pat._programs[anchor] = (
            (tuple(steps), pat._bslots[0]),
            (tuple((src, -i, dst, -j, k) for src, i, dst, j, k in steps),
             pat._bslots[1]))
    return compiled


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
                darts: Iterable[int], mirrored: bool) -> List[MatchResult]:
    """Embeddings with slot ``slot`` of ``anchor`` on one of the given darts.

    Each dart yields at most one embedding: the program binds every other
    face from the anchor's position.  A face's origin is kept as its orbit
    tuple and the position of the origin dart in it, so slot ``i`` of the
    face is ``orbit[(position + i) % len(orbit)]``, ``- i`` when mirrored.
    """
    steps, bslots = _compile(pat, anchor)[mirrored]
    order, a = pat._order, pat._index[anchor]
    size = pat.sizes[anchor]
    shift = -slot if mirrored else slot
    faces, face_of, twin = m.faces, m.face_of, m.twin
    pos = m.face_positions()
    # per pattern face: its orbit and origin position, both overwritten by
    # every attempt before they are read
    orb: List[Tuple[int, ...]] = [()] * len(order)
    org = [0] * len(order)
    out: List[MatchResult] = []
    for d0 in darts:
        f = face_of[d0]
        o = faces[f]
        if len(o) != size:
            continue
        orb[a], org[a] = o, pos[d0] - shift
        used = {f}
        for src, i, dst, j, k in steps:
            so = orb[src]
            t = twin[so[(org[src] + i) % len(so)]]
            if k:
                g = face_of[t]
                go = faces[g]
                kg = len(go)
                if (kg != k if k > 0 else kg < -k) or g in used:
                    break
                used.add(g)
                orb[dst], org[dst] = go, pos[t] - j
            else:
                do = orb[dst]
                if do[(org[dst] + j) % len(do)] != t:
                    break
        else:
            for src, i in bslots:
                so = orb[src]
                if face_of[twin[so[(org[src] + i) % len(so)]]] in used:
                    break
            else:
                out.append(MatchResult(
                    {n: face_of[orb[x][0]] for n, x in order},
                    {n: orb[x][org[x] % len(orb[x])] for n, x in order},
                    mirrored))
    return out


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
