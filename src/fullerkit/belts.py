"""k-loops, k-belts, and splitting the sphere along simple edge-cycles.

A k-loop is a cyclic sequence of faces in which consecutive faces share an
edge.  A k-belt is a k-loop whose faces are pairwise distinct and in which
non-consecutive faces do not intersect at all (for k = 3 the condition is
that the three faces have no common vertex).  Faces at a common vertex of
a cubic map share an edge there, so a k-belt is a chordless k-cycle of the
dual graph, for k = 3 one not around a vertex (a cyclic k-edge cut, Doslic
2003).  Cutting the sphere along a simple edge-cycle leaves two disks; the
faces met while walking round the cycle on either side form the bordering
loops, whose lengths obey ``l_alpha = sum(a_r_beta - 1)`` over the contact
counts of the other side.

Every belt face touches both boundary cycles, so a side that is a single
face has exactly the belt as its neighbour set; conversely a face off the
belt with that neighbour set is its whole side.  So :func:`enclosed_faces`
reads enclosure off neighbour sets on any map, with no flood of the sphere.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from .maps import CombMap


class NotSimpleCycle(Exception):
    """The dart sequence does not form a simple closed cycle."""


class NotFullerene(Exception):
    """The operation requires a fullerene input."""


class FaceLoop:
    """Cyclic face sequence with consecutive edge-contacts."""

    def __init__(self, faces: Sequence[int], contacts: Sequence[int]) -> None:
        self.faces = list(faces)
        self.contacts = list(contacts)

    def __len__(self) -> int:
        return len(self.faces)

    @property
    def simple(self) -> bool:
        return len(set(self.faces)) == len(self.faces)

    def __repr__(self) -> str:
        return "FaceLoop(%r, contacts=%r)" % (self.faces, self.contacts)


class RegionSplit:
    """Result of cutting the sphere along a simple edge-cycle."""

    def __init__(self, cycle_darts: Sequence[int], side1: Set[int],
                 side2: Set[int], loop1: FaceLoop, loop2: FaceLoop) -> None:
        self.cycle_darts = list(cycle_darts)
        self.side1 = side1
        self.side2 = side2
        self.loop1 = loop1
        self.loop2 = loop2


class BeltAnalysis:
    """Boundary data of a belt: loop lengths, gon census, contact counts."""

    def __init__(self, belt: Sequence[int], b: Dict[int, int], loop1: FaceLoop,
                 loop2: FaceLoop, side1: Set[int], side2: Set[int],
                 alpha: List[int], beta: List[int], kind: str) -> None:
        self.belt = list(belt)
        self.b = b
        self.loop1 = loop1
        self.loop2 = loop2
        self.side1 = side1
        self.side2 = side2
        self.alpha = alpha
        self.beta = beta
        self.kind = kind


class FiveBeltReport:
    """The 5-belts of a fullerene, each with its kind ('pentagon' or
    'hexagon ring'); ``kinds[i]`` belongs to ``belts[i]``."""

    def __init__(self, belts: List[List[int]], kinds: List[str]) -> None:
        self.belts = belts
        self.kinds = kinds

    @property
    def count(self) -> int:
        return len(self.belts)


def find_k_belts(m: CombMap, k: int) -> List[List[int]]:
    """All k-belts, one representative per dihedral class, sorted.

    A belt is returned as the face sequence rotated to start at its smallest
    face id, in the direction that minimizes the sequence.  The search
    walks chordless dual k-cycles from their smallest face (module docstring).
    """
    if k < 3:
        return []
    nbrs: List[Set[int]] = [set(cyc) for cyc in m.face_cycles()]
    corners = ({frozenset(m.face_of[3 * v:3 * v + 3]) for v in range(m.f0)}
               if k == 3 else set())
    out: List[List[int]] = []

    def extend(path: List[int]) -> None:
        last = path[-1]
        if len(path) == k:
            # each cycle is walked both ways; keep the minimal direction
            if (path[0] in nbrs[last] and path[1] < last
                    and frozenset(path) not in corners):
                out.append(path)
            return
        # no chords; path[0] is a neighbour of the face closing the cycle
        placed = path[1:-1] if len(path) + 1 == k else path[:-1]
        for g in nbrs[last]:
            if g > path[0] and g not in path and nbrs[g].isdisjoint(placed):
                extend(path + [g])

    for f in range(m.f2):
        extend([f])
    out.sort()
    return out


def enclosed_faces(m: CombMap, belt: Sequence[int]) -> List[int]:
    """The faces that are a whole side of the belt, in increasing order:
    those off the belt whose neighbour set is exactly the belt (module
    docstring).  There are none, one or, as on the cube, two."""
    region = set(belt)
    cycles = m.face_cycles()
    return sorted(g for g in set(cycles[belt[0]]) - region
                  if set(cycles[g]) == region)


def split_by_cycle(m: CombMap, darts: Sequence[int]) -> RegionSplit:
    """Cut the sphere along a simple closed dart cycle.

    ``darts`` must be consecutive (head of each is tail of the next) and
    visit no vertex twice.  Side 1 is to the left of the darts as given.
    """
    n = len(darts)
    if n < 3:
        raise NotSimpleCycle("cycle too short")
    verts = [m.tail(d) for d in darts]
    if len(set(verts)) != n:
        raise NotSimpleCycle("cycle revisits a vertex")
    for i, d in enumerate(darts):
        if m.head(d) != m.tail(darts[(i + 1) % n]):
            raise NotSimpleCycle("darts are not consecutive")
    cycle_edges = set()
    for d in darts:
        cycle_edges.add(d)
        cycle_edges.add(m.twin[d])

    def flood(seed: int) -> Set[int]:
        seen = {seed}
        stack = [seed]
        while stack:
            f = stack.pop()
            for d in m.faces[f]:
                if d in cycle_edges:
                    continue
                g = m.face_of[m.twin[d]]
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        return seen

    side1 = flood(m.face_of[darts[0]])
    side2 = flood(m.face_of[m.twin[darts[0]]])
    loop1 = _border_loop([m.face_of[d] for d in darts])
    loop2 = _border_loop([m.face_of[m.twin[d]] for d in reversed(darts)])
    return RegionSplit(darts, side1, side2, loop1, loop2)


def _border_loop(face_seq: List[int]) -> FaceLoop:
    """Collapse cyclically-consecutive duplicates into faces + contacts."""
    faces: List[int] = []
    contacts: List[int] = []
    for f in face_seq:
        if faces and faces[-1] == f:
            contacts[-1] += 1
        else:
            faces.append(f)
            contacts.append(1)
    if len(faces) > 1 and faces[0] == faces[-1]:
        contacts[0] += contacts.pop()
        faces.pop()
    return FaceLoop(faces, contacts)


def belt_boundary_cycles(m: CombMap, belt: Sequence[int]) -> List[List[int]]:
    """The boundary edge-cycles of the closed belt region, as dart lists.

    Darts are oriented with the belt region on the left.  A k-belt region is
    an annulus, so exactly two cycles are returned.
    """
    region = set(belt)
    bdarts = set()
    for f in belt:
        for d in m.faces[f]:
            if m.face_of[m.twin[d]] not in region:
                bdarts.add(d)
    cycles = []
    left = set(bdarts)
    while left:
        d0 = min(left)
        cyc = [d0]
        left.discard(d0)
        d = d0
        while True:
            # next boundary dart out of head(d), region still on the left
            e = m.twin[d]
            for _ in range(3):
                e = m.next_dart(e)
                if e in bdarts:
                    break
            if e == d0:
                break
            cyc.append(e)
            left.discard(e)
            d = e
        cycles.append(cyc)
    return cycles


def border_loops(m: CombMap, belt: Sequence[int]) -> BeltAnalysis:
    """Boundary loops and belt arithmetic for a verified k-belt.

    Raises:
        NotSimpleCycle: the faces do not form an annulus, i.e. their region
            is not bounded by exactly two edge-cycles.
    """
    region = set(belt)
    cycles = belt_boundary_cycles(m, belt)
    if len(cycles) != 2:
        raise NotSimpleCycle("belt region has %d boundary cycles, not 2"
                             % len(cycles))
    g1, g2 = cycles
    dual = m.face_cycles()
    loops = []
    sides = []
    for cyc in (g1, g2):
        outside = [m.face_of[m.twin[d]] for d in cyc]
        loops.append(_border_loop(outside))
        # flood the outside region from any face across the boundary
        seen = set()
        stack = [outside[0]]
        while stack:
            f = stack.pop()
            if f in seen or f in region:
                continue
            seen.add(f)
            stack.extend(dual[f])
        sides.append(seen)
    b: Dict[int, int] = {}
    for f in belt:
        s = m.face_size(f)
        b[s] = b.get(s, 0) + 1
    # per-face contacts on each boundary cycle
    alpha = []
    beta = []
    c1: Dict[int, int] = {}
    c2: Dict[int, int] = {}
    for d in g1:
        c1[m.face_of[d]] = c1.get(m.face_of[d], 0) + 1
    for d in g2:
        c2[m.face_of[d]] = c2.get(m.face_of[d], 0) + 1
    for f in belt:
        alpha.append(c1.get(f, 0))
        beta.append(c2.get(f, 0))
    if len(sides[0]) == 1:
        kind = "surrounds-facet"
    elif len(sides[1]) == 1:
        kind = "surrounds-facet"
    else:
        kind = "borders-loop"
    return BeltAnalysis(belt, b, loops[0], loops[1], sides[0], sides[1],
                        alpha, beta, kind)


def classify_five_belts(m: CombMap) -> FiveBeltReport:
    """Count 5-belts of a fullerene and sort them into the two kinds.

    Kinds: 'pentagon' (the belt surrounds a single pentagon) and 'hexagon
    ring' (a nanotube ring of five hexagons meeting neighbours along
    opposite edges).
    """
    if not m.is_fullerene():
        raise NotFullerene("input is not a fullerene")
    belts = find_k_belts(m, 5)
    kinds = ["pentagon" if enclosed_faces(m, belt) else "hexagon ring"
             for belt in belts]
    return FiveBeltReport(belts, kinds)
