"""Edge-cut surgery on cubic maps: truncation along a run, and its inverse.

An (s,k)-truncation cuts a k-gonal face along a run of s + 2 consecutive
boundary edges: the first and last run edges are subdivided by midpoints and
the midpoints are joined by a new edge, splitting the face into an
(s+3)-gon and a (k-s+1)-gon.  The faces across the two subdivided edges each
gain one edge; nothing else changes.  Straightening along an edge is the
inverse: the edge is deleted and the two resulting degree-2 vertices are
smoothed away, merging the edge's two faces.  Straightening is defined
exactly when the two faces have disjoint neighbour sets, away from the
edge's ends.  On a 3-connected map the two faces meet only in the edge, so
a common neighbour g closes a dual triangle with no common vertex, a 3-belt;
hence this means no 3-belt passes through both, with no belt search needed.
Off 3-connected maps the merge must also be checked to stay simple.

Both cuts keep rotation slots, so darts ``3 * v + i`` (:mod:`maps`) carry
over: truncation keeps every old dart's index and left face, and
straightening sends ``3 * v + i`` to ``3 * vertex_map[v] + i`` for v not an
end of the edge.  Face correspondences are read off these rules.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .belts import find_k_belts
from .maps import CombMap, MapError


class InvalidRun(Exception):
    """The truncation run does not lie on the stated face."""


class SpecOutOfRange(Exception):
    """s is outside 0..k-2."""


class NotDefined(Exception):
    """Straightening along this edge is not defined."""


class IsSimplex(Exception):
    """The tetrahedron admits no straightening."""


class TruncationSpec:
    """A run of s+2 consecutive edges on a face, given by its first dart.

    The first dart must have the face on its left; the run follows the face
    traversal.  The derived signature is (s, k; t0, t1) where k is the face
    size and t0, t1 are the sizes of the faces across the first and last run
    edges.
    """

    def __init__(self, m: CombMap, start_dart: int, s: int) -> None:
        face = m.face_of[start_dart]
        k = m.face_size(face)
        if not 0 <= s <= k - 2:
            raise SpecOutOfRange("s=%d outside 0..%d" % (s, k - 2))
        self.start_dart = start_dart
        self.s = s
        self.face = face
        self.k = k
        self.run = run = m.face_walk(start_dart, s + 2)
        self.t0 = m.face_size(m.face_of[m.twin[run[0]]])
        self.t1 = m.face_size(m.face_of[m.twin[run[-1]]])

    @property
    def signature(self) -> Tuple[int, int, int, int]:
        return (self.s, self.k, self.t0, self.t1)

    def __repr__(self) -> str:
        return "TruncationSpec(s=%d, k=%d; t0=%d, t1=%d)" % self.signature


class TruncationResult:
    """New map plus handles into it; old darts keep their indices.

    Attributes:
        map: the truncated map.
        new_edge: dart of the added edge, oriented with the (s+3)-gon on
            its left.
        small_face, big_face: ids of the (s+3)-gon and the (k-s+1)-gon.
        face_map: old face id -> tuple of new face ids (the cut face maps to
            (small_face, big_face); every other face to the 1-tuple of the
            face left of its first dart).  Computed on each access.
    """

    def __init__(self, m: CombMap, new_edge: int, small_face: int,
                 big_face: int, source: CombMap, cut_face: int) -> None:
        self.map = m
        self.new_edge = new_edge
        self.small_face = small_face
        self.big_face = big_face
        self._source = source
        self._cut_face = cut_face

    @property
    def face_map(self) -> Dict[int, Tuple[int, ...]]:
        face_of = self.map.face_of
        fm = {f: (face_of[orbit[0]],)
              for f, orbit in enumerate(self._source.faces)}
        fm[self._cut_face] = (self.small_face, self.big_face)
        return fm


class StraighteningResult:
    """New map plus handles into it.

    Attributes:
        map: the straightened map.
        vertex_map: old vertex id -> new vertex id (the two removed vertices
            are absent).
        merged_face: id of the united face in the new map.
    """

    def __init__(self, m: CombMap, vertex_map: Dict[int, int],
                 merged_face: int) -> None:
        self.map = m
        self.vertex_map = vertex_map
        self.merged_face = merged_face

    def map_dart(self, d: int) -> Optional[int]:
        """The new index of old dart ``d``: ``3 * v + i`` goes to
        ``3 * vertex_map[v] + i``; None for a dart leaving a removed end."""
        v = self.vertex_map.get(d // 3)
        return None if v is None else 3 * v + d % 3


def truncate(m: CombMap, spec: TruncationSpec) -> TruncationResult:
    """Cut the face of ``spec`` along its run.  Returns fresh handles."""
    if m.face_of[spec.start_dart] != spec.face:
        raise InvalidRun("start dart not on the stated face")
    n = m.f0
    d0 = spec.run[0]
    d1 = spec.run[-1]
    u0, v0 = m.tail(d0), m.head(d0)
    u1, v1 = m.tail(d1), m.head(d1)
    m0, m1 = n, n + 1
    rot: List[List[int]] = [list(r) for r in m.rotations]
    rot[u0][rot[u0].index(v0)] = m0
    rot[v0][rot[v0].index(u0)] = m0
    rot[u1][rot[u1].index(v1)] = m1
    rot[v1][rot[v1].index(u1)] = m1
    # the run has the face on its left; the new edge closes the (s+3)-gon
    # on the side of the run interior (v0 .. u1)
    rot.append([u0, v0, m1])   # m0
    rot.append([u1, v1, m0])   # m1
    out = CombMap.from_rotations(rot)
    e = out.dart(m0, m1)
    fa, fb = out.face_of[e], out.face_of[out.twin[e]]
    if out.face_size(fa) == spec.s + 3 and out.face_size(fb) == spec.k - spec.s + 1:
        small, big = fa, fb
    elif out.face_size(fb) == spec.s + 3 and out.face_size(fa) == spec.k - spec.s + 1:
        small, big = fb, fa
        e = out.twin[e]
    else:
        raise MapError("truncation produced unexpected face sizes")
    return TruncationResult(out, e, small, big, m, spec.face)


def truncate_along_edge(m: CombMap, dart: int) -> TruncationResult:
    """The s = 1 truncation determined by its middle edge alone.

    The cut face is the one on the left of ``dart``; the run consists of the
    face edges before, at, and after the dart.  The derived signature is
    (1; t0, t2) with t0, t2 the sizes of the faces across the outer two run
    edges.
    """
    return truncate(m, TruncationSpec(m, m.face_prev(dart), 1))


def edge_faces(m: CombMap, dart: int) -> Tuple[int, int]:
    return m.face_of[dart], m.face_of[m.twin[dart]]


def can_straighten(m: CombMap, dart: int) -> bool:
    """True iff the neighbour sets of the edge's two faces are disjoint and
    the merge makes no parallel edge.

    This equals "no 3-belt contains both faces" on 3-connected maps only
    (module docstring); elsewhere, e.g. across a 2-edge cut, the two can
    differ and the neighbour-set answer stands.
    """
    if m.f0 == 4:
        return False
    x, y = m.tail(dart), m.head(dart)
    rot = m.rotations
    # the merge joins each end's two other neighbours p, q by an edge
    ends = [[w for w in rot[a] if w != b] for a, b in ((x, y), (y, x))]
    if set(ends[0]) == set(ends[1]) or any(q in rot[p] for p, q in ends):
        return False
    f1, f2 = edge_faces(m, dart)
    # the faces at the two endpoints of the edge meet both f1 and f2 by
    # construction and do not obstruct straightening
    at_ends = {m.face_of[3 * v + i] for v in (x, y) for i in range(3)}
    cycles = m.face_cycles()
    n1 = set(cycles[f1]) - {f2} - at_ends
    n2 = set(cycles[f2]) - {f1} - at_ends
    return not (n1 & n2)


def straighten(m: CombMap, dart: int) -> StraighteningResult:
    """Delete the edge and smooth its endpoints, merging its two faces."""
    if m.f0 == 4:
        raise IsSimplex("the simplex admits no straightening")
    if not can_straighten(m, dart):
        raise NotDefined("the two faces have a common neighbour, or the "
                         "merge would make a parallel edge")
    x, y = m.tail(dart), m.head(dart)
    rot: List[List[int]] = [list(r) for r in m.rotations]
    for a, b in ((x, y), (y, x)):
        p, q = [w for w in m.rotations[a] if w != b]
        rot[p][rot[p].index(a)] = q
        rot[q][rot[q].index(a)] = p
    vertex_map: Dict[int, int] = {}
    new_rot: List[List[int]] = []
    for v in range(m.f0):
        if v in (x, y):
            continue
        vertex_map[v] = len(new_rot)
        new_rot.append(rot[v])
    for nbrs in new_rot:
        for i, w in enumerate(nbrs):
            nbrs[i] = vertex_map[w]
    out = CombMap.from_rotations(new_rot)
    res = StraighteningResult(out, vertex_map, -1)
    # the dart before ``dart`` on its face leaves x's other neighbour there,
    # so it survives and lies on the merged face
    res.merged_face = out.face_of[res.map_dart(m.face_prev(dart))]
    return res


def is_flag(m: CombMap) -> bool:
    """Flag simple polytope: not the simplex and free of 3-belts."""
    return m.f0 > 4 and not find_k_belts(m, 3)


class FlagReport:
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
