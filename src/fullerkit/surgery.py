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

A cut of a valid map is valid by construction: subdividing two edges of a
face and joining the midpoints across it keeps the map cubic, connected and
planar.  So ``truncate`` builds its output by copying and patching its
input's ``twin`` and face tables, not by a rebuild, and calls the trusted
``CombMap`` constructor; it checks only that the spec is a run of the map.
``straighten`` still rebuilds through ``from_rotations``, from rows it
renumbers by arithmetic: each kept vertex moves down by the number of
removed ends below it.  ``can_straighten`` reads the rows of its two faces
off their darts.  So a round trip builds no index of the whole dual graph;
only :func:`is_flag` searches the whole map, for 3-belts.

Darts and run lengths must be ints (a bool counts as one); anything else
is refused with a TypeError naming the argument, before any work.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, count
from operator import itemgetter
from typing import Dict, Optional, Tuple

from .belts import find_k_belts
from .maps import CombMap, MapError, _face_orbit


class InvalidRun(Exception):
    """The truncation run is not a run of the map it is applied to."""


class SpecOutOfRange(Exception):
    """s is outside 0..k-2."""


class NotDefined(Exception):
    """Straightening along this edge is not defined."""


class IsSimplex(Exception):
    """The tetrahedron admits no straightening."""


def _check_int(value: object, name: str) -> None:
    """Raise TypeError, naming the argument, unless ``value`` is an int (a
    bool counts as one)."""
    if not isinstance(value, int):
        raise TypeError("%s must be an int, not %s"
                        % (name, type(value).__name__))


def _check_dart(m: CombMap, dart: int, error: type) -> None:
    """Raise ``error`` unless ``dart`` is a dart of ``m``.  Negative indices
    would wrap round the dart tables."""
    if not 0 <= dart < 3 * m.f0:
        raise error("dart %d outside 0..%d" % (dart, 3 * m.f0 - 1))


class TruncationSpec:
    """A run of s+2 consecutive edges on a face, given by its first dart.

    The first dart must have the face on its left; the run follows the face
    traversal.  The derived signature is (s, k; t0, t1) where k is the face
    size and t0, t1 are the sizes of the faces across the first and last run
    edges.  ``start_dart`` and ``s`` must be ints (a bool counts as one).
    """

    def __init__(self, m: CombMap, start_dart: int, s: int) -> None:
        _check_int(start_dart, "start_dart")
        _check_int(s, "s")
        _check_dart(m, start_dart, InvalidRun)
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
    """Cut the face of ``spec`` along its run.  Returns fresh handles.

    The output is ``m`` patched, not rebuilt: four twins change and two
    vertices (six darts) are appended.  Only the orbits of the cut face
    and the faces across the two run ends are walked again; faces keep
    the :meth:`CombMap.from_rotations` numbering, ordered by their first
    dart with each orbit starting there.

    Raises:
        InvalidRun: ``spec`` is not a run of ``m``, or the run starts and
            ends on the same edge.
        MapError: the cut does not give an (s+3)-gon and a (k-s+1)-gon,
            which happens only on a face that borders itself.
    """
    try:
        own = TruncationSpec(m, spec.start_dart, spec.s)
    except SpecOutOfRange:
        own = None
    if own is None or ((own.face, own.run, own.signature)
                       != (spec.face, spec.run, spec.signature)):
        raise InvalidRun("spec is not a run of this map")
    d0, d1 = spec.run[0], spec.run[-1]
    t0, t1 = m.twin[d0], m.twin[d1]
    if d1 == t0:
        raise InvalidRun("run starts and ends on the same edge")
    # the run end edges d0 and d1 each get a midpoint, m0 and m1, which
    # list (tail d0, head d0, m1) and (tail d1, head d1, m0): the new edge
    # closes the (s+3)-gon on the side of the run interior
    e = 3 * m.f0  # m0's darts are e .. e+2, m1's e+3 .. e+5
    twin = list(m.twin)
    twin[d0], twin[t0], twin[d1], twin[t1] = e, e + 1, e + 3, e + 4
    twin += (d0, t0, e + 5, d1, t1, e + 2)
    # the cut face splits into the orbits of d0 and d1, each walked from
    # its smallest dart; the piece holding its first dart keeps its id and
    # the other is inserted at its place in first-dart order.  The faces
    # across the run ends each gain a dart numbered past every old one, so
    # their first darts stay first.
    f = spec.face
    faces = list(m.faces)
    keep, new = sorted(_face_orbit(twin, min(_face_orbit(twin, d)))
                       for d in (d0, d1))
    p = bisect_left(faces, new[0], key=itemgetter(0))
    faces[f] = keep
    across = {m.face_of[t0], m.face_of[t1]} - {f}
    for g in across:
        faces[g] = _face_orbit(twin, faces[g][0])
    faces.insert(p, new)
    face_of = [g if g < p else g + 1 for g in m.face_of] + [0] * 6
    for g in [f, p] + [g if g < p else g + 1 for g in across]:
        for d in faces[g]:
            face_of[d] = g
    out = CombMap(tuple(twin), tuple(face_of), tuple(faces))
    e += 2  # m0 -> m1
    fa, fb = out.face_of[e], out.face_of[out.twin[e]]
    if out.face_size(fa) == spec.s + 3 and out.face_size(fb) == spec.k - spec.s + 1:
        small, big = fa, fb
    elif out.face_size(fb) == spec.s + 3 and out.face_size(fa) == spec.k - spec.s + 1:
        small, big = fb, fa
        e = out.twin[e]
    else:
        raise MapError("truncation produced unexpected face sizes")
    return TruncationResult(out, e, small, big, m, spec.face)


def edge_faces(m: CombMap, dart: int) -> Tuple[int, int]:
    return m.face_of[dart], m.face_of[m.twin[dart]]


def can_straighten(m: CombMap, dart: int) -> bool:
    """True iff the neighbour sets of the edge's two faces are disjoint and
    the merge makes no parallel edge.

    This equals "no 3-belt contains both faces" on 3-connected maps only
    (module docstring); elsewhere, e.g. across a 2-edge cut, the two can
    differ and the neighbour-set answer stands.  ``dart`` must be an int
    (a bool counts as one).
    """
    _check_int(dart, "dart")
    _check_dart(m, dart, NotDefined)
    if m.f0 == 4:
        return False
    twin, face_of = m.twin, m.face_of
    # the merge joins each end's two other neighbours p, q by an edge: the
    # heads of its next and previous darts, the vertices of their twins
    ends = []
    for e in (dart, twin[dart]):
        v = e - e % 3
        ends.append((twin[v + (e + 1) % 3] // 3, twin[v + (e + 2) % 3] // 3))
    if set(ends[0]) == set(ends[1]) or any(
            t // 3 == q for p, q in ends for t in twin[3 * p:3 * p + 3]):
        return False
    # the two faces' neighbours, read off their darts; the faces at the
    # edge's two ends (the two faces themselves among them) meet both by
    # construction and do not obstruct straightening
    x, y = 3 * m.tail(dart), 3 * m.head(dart)  # the ends' first darts
    at_ends = set(face_of[x:x + 3] + face_of[y:y + 3])
    n1, n2 = ({face_of[twin[d]] for d in m.faces[f]}
              for f in edge_faces(m, dart))
    return n1 & n2 <= at_ends


def straighten(m: CombMap, dart: int) -> StraighteningResult:
    """Delete the edge and smooth its endpoints, merging its two faces.
    ``dart`` must be an int (a bool counts as one)."""
    _check_int(dart, "dart")
    if m.f0 == 4:
        raise IsSimplex("the simplex admits no straightening")
    if not can_straighten(m, dart):
        raise NotDefined("the two faces have a common neighbour, or the "
                         "merge would make a parallel edge")
    n = m.f0
    lo, hi = sorted((m.tail(dart), m.head(dart)))
    twin = list(m.twin)
    # at each end, the darts by which its two other neighbours reach it
    # become twins, so those neighbours are joined and the end drops out
    for e in (dart, m.twin[dart]):
        v = e - e % 3
        a, b = twin[v + (e + 1) % 3], twin[v + (e + 2) % 3]
        twin[a], twin[b] = b, a
    # every other vertex moves down by the number of ends below it; no
    # kept dart points at an end, so the ends' own entries go unread
    vertex_map = dict(zip(chain(range(lo), range(lo + 1, hi),
                                range(hi + 1, n)), count()))
    new_id = [*range(lo + 1), *range(lo, hi), *range(hi - 1, n - 2)]
    heads = [new_id[t // 3] for t in twin]
    rows = list(zip(heads[0::3], heads[1::3], heads[2::3]))
    del rows[hi], rows[lo]
    out = CombMap.from_rotations(rows)
    res = StraighteningResult(out, vertex_map, -1)
    # the dart before ``dart`` on its face leaves the tail's other neighbour
    # there, so it survives and lies on the merged face
    res.merged_face = out.face_of[res.map_dart(m.face_prev(dart))]
    return res


def is_flag(m: CombMap) -> bool:
    """Flag simple polytope: not the simplex and free of 3-belts."""
    return m.f0 > 4 and not find_k_belts(m, 3)

