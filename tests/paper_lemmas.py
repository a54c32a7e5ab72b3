"""The paper's analyses that only the tests check: sphere cuts, thick paths,
the two nanotube families and flagness across an edge merge; and reference
constructions that the package's faster ones must agree with.

Cutting the sphere along a simple edge-cycle leaves two disks; the faces
met while walking round the cycle on either side form the bordering loops,
whose lengths obey ``l_alpha = sum(a_r_beta - 1)`` over the contact counts
of the other side.  On a 3-connected map a k-belt region is an annulus,
bounded by two such cycles, and the side beyond each is one disk.
"""

from collections import deque
from importlib import resources
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Set, Tuple

from fullerkit.belts import NotFullerene, find_k_belts
from fullerkit.growth import rules_by_id, seed_family_one, seed_family_two
from fullerkit.maps import CombMap, MapError
from fullerkit.patterns import B, PatchPattern, match_pattern, path_turns
from fullerkit.rulefile import parse_file
from fullerkit.surgery import edge_faces, is_flag, straighten
from fullerkit.winding import PatchBuilder


# -- cutting the sphere -------------------------------------------------------

class NotSimpleCycle(Exception):
    """The dart sequence does not form a simple closed cycle."""


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


def belt_sides(m: CombMap, belt: Sequence[int]) -> List[Set[int]]:
    """The faces beyond each boundary cycle of a verified k-belt.

    Raises:
        NotSimpleCycle: the faces do not form an annulus, i.e. their region
            is not bounded by exactly two edge-cycles, or a cycle revisits a
            vertex.
    """
    cycles = belt_boundary_cycles(m, belt)
    if len(cycles) != 2:
        raise NotSimpleCycle("belt region has %d boundary cycles, not 2"
                             % len(cycles))
    # each cycle has the belt on its left, so side 2 is the side beyond it
    return [split_by_cycle(m, c).side2 for c in cycles]


# -- patches and thick paths --------------------------------------------------

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


# -- nanotube families --------------------------------------------------------

class FamilyReport:
    """Nanotube-family classification.

    family_one_k / family_two_k hold the ring or screw-step count when the
    map belongs to the family, else None.  The dodecahedron is the k = 0
    member of both families, so both fields are 0 for it.
    """

    def __init__(self, family_one_k: Optional[int],
                 family_two_k: Optional[int]) -> None:
        self.family_one_k = family_one_k
        self.family_two_k = family_two_k

    @property
    def kind(self) -> str:
        if self.family_one_k is not None and self.family_two_k is not None:
            return "both"
        if self.family_one_k is not None:
            return "family_one"
        if self.family_two_k is not None:
            return "family_two"
        return "none"

    def __repr__(self) -> str:
        return "FamilyReport(one=%r, two=%r)" % (self.family_one_k,
                                                 self.family_two_k)


def classify_nanotube(m: CombMap) -> FamilyReport:
    """Detect membership in the two nanotube families.

    Family one members carry a pentagon fully surrounded by pentagons (the
    cap); family two members carry three pentagons around a vertex
    alternating with three more.  A fragment hit is cross-checked by the
    hexagon count (5k resp. 3k) and by isomorphism with the constructed
    member, which rebuilds the map layer by layer from the fragment.
    """
    if not m.is_fullerene():
        raise NotFullerene("nanotube classification expects a fullerene")
    p6 = m.face_vector().get(6, 0)
    one_k: Optional[int] = None
    two_k: Optional[int] = None
    cap = rules_by_id("a")[0].lhs
    if p6 % 5 == 0 and match_pattern(m, cap):
        k = p6 // 5
        if m.is_isomorphic(seed_family_one(k)):
            one_k = k
    screw = rules_by_id("b")[0].lhs
    if p6 % 3 == 0 and match_pattern(m, screw):
        k = p6 // 3
        if m.is_isomorphic(seed_family_two(k)):
            two_k = k
    return FamilyReport(one_k, two_k)


def runs(pb: PatchBuilder) -> List[Tuple[int, int]]:
    """The elementary runs of a builder's boundary as (start position, edge
    count) pairs, delimited by its degree-2 vertices.  If no boundary
    vertex has degree 2 the whole boundary is a single cyclic run, reported
    as (0, len(owners))."""
    b = len(pb.owners)
    starts = [i for i in range(b) if pb.vdeg[i] == "2"]
    if not starts:
        return [(0, b)]
    out = []
    for idx, p in enumerate(starts):
        q = starts[(idx + 1) % len(starts)]
        out.append((p, (q - p) % b or b))
    return out


def run_faces(pb: PatchBuilder, start: int, length: int) -> List[int]:
    """The faces that own the run's edges, in boundary order."""
    b = len(pb.owners)
    return [ord(pb.owners[(start + i) % b]) for i in range(length)]


def _glue_on(pb: PatchBuilder, size: int, faces: Sequence[int]) -> int:
    """Glue a face over the elementary run consisting of the given faces."""
    want = list(faces)
    for start, length in runs(pb):
        if length == len(want):
            got = run_faces(pb, start, length)
            if got == want or got == want[::-1]:
                return pb.glue(size, start, length)
    raise ValueError("no elementary run over faces %r" % (want,))


def screw_family_two(k: int) -> CombMap:
    """Reference for ``seed_family_two``: the member glued face by face.

    The cap is three pentagons round a vertex and one more in each notch
    between two of them.  Each of the k screw steps glues three hexagons,
    each over a run of three boundary edges: one on a face of the newest
    ring, one on the older face that follows it round the boundary and one
    on the next face of the newest ring.  The far cap is three pentagons
    glued the same way, two more and the closing one.  ``_glue_on`` finds each
    run by the faces it crosses, through ``runs`` and ``run_faces``, so the
    construction shares no run rule with ``spiral._next_run``.
    """
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


# -- flagness across an edge merge --------------------------------------------

class FlagReport:
    """Flagness before and after one merge, and the 4-belts through both of
    the merged faces."""

    def __init__(self, input_flag: bool, output_flag: bool,
                 four_belts_through_pair: List[List[int]]) -> None:
        self.input_flag = input_flag
        self.output_flag = output_flag
        self.four_belts_through_pair = four_belts_through_pair


def flag_effects(m: CombMap, dart: int) -> FlagReport:
    """Straighten along the edge and report flagness on both sides.

    Also collects the 4-belts containing both faces of the edge, so that the
    relation between their existence and output flagness can be tabulated
    empirically.
    """
    f1, f2 = edge_faces(m, dart)
    belts4 = [belt for belt in find_k_belts(m, 4)
              if f1 in belt and f2 in belt]
    out = straighten(m, dart).map
    return FlagReport(is_flag(m), is_flag(out), belts4)


# -- relabelling, the reference dual constructor and the fragment catalog -----

def reference_from_face_cycles(cycles: Sequence[Sequence[int]]) -> CombMap:
    """Reference for ``CombMap.from_face_cycles``: the corner walk that
    follows each orbit of ``prev o twin`` dart by dart, marking as it goes,
    with ``prev`` found from each dart's face and offset.  Raises MapError
    as the package does."""
    nf = len(cycles)
    offs = list(accumulate(map(len, cycles), initial=0))
    owner: List[int] = []
    twin: List[int] = []
    for f, cyc in enumerate(cycles):
        if len(set(cyc)) != len(cyc):
            raise MapError("face %d lists a neighbour twice" % f)
        owner.extend([f] * len(cyc))
        for g in cyc:
            if not 0 <= g < nf:
                raise MapError("face %d lists unknown face %d" % (f, g))
            try:
                twin.append(offs[g] + cycles[g].index(f))
            except ValueError:
                raise MapError("face %d lists %d but not conversely"
                               % (f, g)) from None
    deg = [len(cyc) for cyc in cycles]
    corner_of = [-1] * len(twin)
    corners = []
    for d0 in range(len(twin)):
        if corner_of[d0] >= 0:
            continue
        orbit = []
        d = d0
        while corner_of[d] < 0:
            corner_of[d] = len(corners)
            orbit.append(d)
            t = twin[d]
            f = owner[t]
            d = offs[f] + (t - offs[f] - 1) % deg[f]
        if len(orbit) != 3:
            raise MapError("corner orbit of length %d; map is not cubic"
                           % len(orbit))
        corners.append(orbit)
    return CombMap.from_rotations(
        [tuple(corner_of[twin[d]] for d in orbit) for orbit in corners])


def relabel(m: CombMap, perm: Sequence[int]) -> CombMap:
    """New map with vertex ``v`` renamed ``perm[v]``."""
    rot = [(0, 0, 0)] * m.f0
    for v, nbrs in enumerate(m.rotations):
        rot[perm[v]] = tuple(perm[w] for w in nbrs)
    return CombMap.from_rotations(rot)


def fragment_catalog() -> Dict[str, PatchPattern]:
    """Named guaranteed-fragment patterns shipped alongside the rules."""
    text = (resources.files("fullerkit") / "data" / "rules.txt").read_text()
    return parse_file(text)[0]
