"""Disk patterns (fragments) and anchored matching inside cubic maps.

A pattern is a disk-shaped combinatorial map fragment: named faces with
fixed sizes and cyclic neighbour lists in which ``B`` marks a boundary edge
(an edge to a face outside the fragment).  Matching anchors one pattern face
on a map dart and extends deterministically through the rotation structure,
in both orientations.  Each pattern compiles, once per anchor face and
orientation, into a flat program: one step per internal pattern edge in
breadth-first order, then the ``B`` slots to check.  A run addresses darts
by their position in the face orbit (:meth:`CombMap.face_positions`), so an
attempt builds no list or dict.  The anchor is the fixed-size pattern face
whose size has the fewest darts in the map, and only those darts are tried:
on a fullerene, a pattern with a pentagon tries at most the 60 pentagon
darts in each orientation, whatever the size of the map.
"""

from __future__ import annotations

from collections import deque
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
        self._check()
        self.first = next(n for n in self.faces if not self.is_wild(n))
        # anchor name -> match programs, see _compile
        self._programs: Dict[str, _Compiled] = {}

    def is_wild(self, name: str) -> bool:
        return self.sizes[name] is None

    def _check(self) -> None:
        names = set(self.faces)
        for name, cyc in self.faces.items():
            seen: Set[str] = set()
            for g in cyc:
                if g == B:
                    continue
                if g not in names:
                    raise PatternError("face %r lists unknown face %r"
                                       % (name, g))
                if g in seen:
                    raise PatternError("faces %r and %r share two edges"
                                       % (name, g))
                seen.add(g)
        for name, cyc in self.faces.items():
            for g in cyc:
                if g != B and name not in self.faces[g]:
                    raise PatternError("face %r lists %r but not conversely"
                                       % (name, g))
        if not self.faces:
            raise PatternError("empty pattern")
        if all(self.is_wild(n) for n in self.faces):
            raise PatternError("pattern needs a face of fixed size")
        # connectivity over internal adjacencies
        start = next(iter(self.faces))
        seen2 = {start}
        stack = [start]
        while stack:
            f = stack.pop()
            for g in self.faces[f]:
                if g != B and g not in seen2:
                    seen2.add(g)
                    stack.append(g)
        if seen2 != set(self.faces):
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
        return m.face_walk(self.origin[name], slot + 1, self.mirrored)[-1]

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
    """
    count = m.face_vector()
    anchor = min((n for n in pat.faces if not pat.is_wild(n)),
                 key=lambda n: pat.sizes[n] * count.get(pat.sizes[n], 0))
    size = pat.sizes[anchor]
    if size not in count:
        return []
    darts = [d for orbit in m.faces if len(orbit) == size for d in orbit]
    found = (_embeddings(m, pat, anchor, darts, False)
             + _embeddings(m, pat, anchor, darts, True))
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


# One step per internal pattern edge, in breadth-first order from the anchor:
# (source face, slot, target face, back-slot, size, wild?, new?).  Faces are
# pattern indices and slots are signed by the orientation.  The target's map
# face must have the given size, or at least that many darts when it is a
# wildcard (its arc length).  A new target is bound so that its back-slot
# lies on the twin of the source slot's dart; an old one must already sit
# there.  Then each (face, slot) of the B list must lead off the matched set.
_Step = Tuple[int, int, int, int, int, bool, bool]
_Program = Tuple[Tuple[_Step, ...], Tuple[Tuple[int, int], ...]]
_Compiled = Tuple[Tuple[Tuple[str, int], ...], _Program, _Program]


def _compile(pat: PatchPattern, anchor: str) -> _Compiled:
    """The faces in breadth-first order from ``anchor`` as (name, index)
    pairs, then its program unmirrored and mirrored; built on first use."""
    compiled = pat._programs.get(anchor)
    if compiled is None:
        index = {n: i for i, n in enumerate(pat.faces)}
        order = [anchor]
        steps = []
        for name in order:  # order grows while it is walked
            for i, g in enumerate(pat.faces[name]):
                if g == B:
                    continue
                new = g not in order
                if new:
                    order.append(g)
                steps.append((index[name], i, index[g],
                              pat.faces[g].index(name), len(pat.faces[g]),
                              pat.is_wild(g), new))
        bslots = [(index[n], i) for n, cyc in pat.faces.items()
                  for i, g in enumerate(cyc) if g == B]
        forward, backward = (
            (tuple((src, sgn * i, dst, sgn * j, k, wild, new)
                   for src, i, dst, j, k, wild, new in steps),
             tuple((src, sgn * i) for src, i in bslots))
            for sgn in (1, -1))
        compiled = pat._programs[anchor] = (
            tuple((n, index[n]) for n in order), forward, backward)
    return compiled


def _embeddings(m: CombMap, pat: PatchPattern, anchor: str,
                darts: Iterable[int], mirrored: bool) -> List[MatchResult]:
    """Embeddings with slot 0 of ``anchor`` on one of the given darts.

    Each dart yields at most one embedding: the program binds every other
    face from the anchor's position.  A face's origin is kept as its
    orbit tuple and the position of the origin dart in it, so slot ``i``
    of the face is ``orbit[(position + i) % len(orbit)]``, ``- i`` when
    mirrored.
    """
    from_anchor, forward, backward = _compile(pat, anchor)
    steps, bslots = backward if mirrored else forward
    a = from_anchor[0][1]
    size = pat.sizes[anchor]
    order = _compile(pat, pat.first)[0]
    faces, face_of, twin = m.faces, m.face_of, m.twin
    pos = m.face_positions()
    # per pattern face: map face, its orbit, origin position; overwritten by
    # every attempt before they are read
    fid = [0] * len(order)
    orb: List[Tuple[int, ...]] = [()] * len(order)
    org = [0] * len(order)
    out: List[MatchResult] = []
    for d0 in darts:
        f = face_of[d0]
        o = faces[f]
        if len(o) != size:
            continue
        fid[a], orb[a], org[a] = f, o, pos[d0]
        used = {f}
        for src, i, dst, j, k, wild, new in steps:
            so = orb[src]
            t = twin[so[(org[src] + i) % len(so)]]
            g = face_of[t]
            go = faces[g]
            kg = len(go)
            if (kg < k) if wild else (kg != k):
                break
            if new:
                if g in used:
                    break
                used.add(g)
                fid[dst], orb[dst], org[dst] = g, go, (pos[t] - j) % kg
            elif fid[dst] != g or (org[dst] + j) % kg != pos[t]:
                break
        else:
            for src, i in bslots:
                so = orb[src]
                if face_of[twin[so[(org[src] + i) % len(so)]]] in used:
                    break
            else:
                out.append(MatchResult({n: fid[x] for n, x in order},
                                       {n: orb[x][org[x]] for n, x in order},
                                       mirrored))
    return out


def extract_patch(m: CombMap, face_ids: Sequence[int],
                  names: Optional[Dict[int, str]] = None) -> PatchPattern:
    """Pattern describing the given faces of a map, with 'B' marks outside.

    Face cycles are read in the map's orientation starting from an arbitrary
    slot (deterministic: each face starts at its lowest dart id, as
    :meth:`CombMap.face_cycles` does).
    """
    idset = set(face_ids)
    if names is None:
        names = {f: "F%d" % f for f in face_ids}
    cycles = m.face_cycles()
    return PatchPattern({names[f]: [names[g] if g in idset else B
                                    for g in cycles[f]] for f in face_ids})


def shortest_thick_path(m: CombMap, a: int, b: int) -> List[int]:
    """A shortest dual-graph path from face a to face b, min-turn preferred.

    Among all shortest face paths the one minimizing the number of turns is
    returned (a turn at an interior face is an entry/exit edge pair that is
    not opposite in an even-gon); ties break toward lexicographically small
    face ids.
    """
    if a == b:
        return [a]
    best = _all_shortest_paths(m, a, b)
    scored = sorted((path_turns(m, p), p) for p in best)
    return scored[0][1]


def _all_shortest_paths(m: CombMap, a: int, b: int) -> List[List[int]]:
    dist = {a: 0}
    q = deque([a])
    while q:
        f = q.popleft()
        if f == b:
            break
        for g in m.face_neighbors(f):
            if g not in dist:
                dist[g] = dist[f] + 1
                q.append(g)
    out: List[List[int]] = []

    def back(path: List[int]) -> None:
        f = path[-1]
        if f == a:
            out.append(path[::-1])
            return
        for g in m.face_neighbors(f):
            if dist.get(g, -1) == dist[f] - 1:
                back(path + [g])

    back([b])
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
