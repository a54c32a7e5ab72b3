"""Disk patterns (fragments) and anchored matching inside cubic maps.

A pattern is a disk-shaped combinatorial map fragment: named faces with
fixed sizes and cyclic neighbour lists in which ``B`` marks a boundary edge
(an edge to a face outside the fragment).  Matching anchors one pattern dart
on a map dart and extends deterministically through the rotation structure,
in both orientations, so each anchor costs time linear in the pattern size.
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
    the pattern's self-symmetries: each (anchor dart, orientation) pair
    yields at most one.
    """
    first = next(n for n in pat.faces if not pat.is_wild(n))
    results: List[MatchResult] = []
    seen_sites: Set[FrozenSet[int]] = set()
    for mirrored in (False, True):
        for d0 in range(3 * m.f0):
            res = _try_match(m, pat, first, d0, mirrored)
            if res is None:
                continue
            site = frozenset(res.faces.values())
            if not all_embeddings:
                if site in seen_sites:
                    continue
                seen_sites.add(site)
            results.append(res)
    return results


def _try_match(m: CombMap, pat: PatchPattern, first: str, d0: int,
               mirrored: bool) -> Optional[MatchResult]:
    if m.face_size(m.face_of[d0]) != pat.sizes[first]:
        return None
    origin: Dict[str, int] = {first: d0}
    faces: Dict[str, int] = {first: m.face_of[d0]}
    used: Set[int] = {m.face_of[d0]}
    queue = deque([first])
    done: Set[str] = set()
    while queue:
        name = queue.popleft()
        if name in done:
            continue
        done.add(name)
        cyc = pat.faces[name]
        walk = m.face_walk(origin[name], len(cyc), mirrored)
        for i, g in enumerate(cyc):
            if g == B:
                continue
            d = walk[i]
            t = m.twin[d]
            gf = m.face_of[t]
            if pat.is_wild(g):
                if m.face_size(gf) < len(pat.faces[g]):
                    return None
            elif m.face_size(gf) != pat.sizes[g]:
                return None
            j = pat.slot_of(g, name)
            if g in origin:
                if faces[g] != gf:
                    return None
                if m.face_walk(origin[g], j + 1, mirrored)[j] != t:
                    return None
            else:
                if gf in used:
                    return None
                # align g so that its slot j sits on dart t
                origin[g] = m.face_walk(t, j + 1, not mirrored)[j]
                faces[g] = gf
                used.add(gf)
                queue.append(g)
    # boundary edges must lead outside the matched face set (for wildcard
    # faces only the listed arc is constrained)
    for name, cyc in pat.faces.items():
        walk = m.face_walk(origin[name], len(cyc), mirrored)
        for i, g in enumerate(cyc):
            if g == B and m.face_of[m.twin[walk[i]]] in used:
                return None
    return MatchResult(faces, origin, mirrored)


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
