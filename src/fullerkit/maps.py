"""Cubic planar combinatorial maps: construction, validation, canonical forms.

A map is stored as a rotation system: for every vertex, the cyclic
(counterclockwise) list of its three neighbours.  Darts are dense integers
``3 * v + slot`` where ``slot`` indexes the rotation list of ``v``.  Faces are
the orbits of ``prev o twin`` and are traversed with the interior on the left.
All maps are immutable after construction; surgery returns fresh maps.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple


class MapError(Exception):
    """Base class for construction and validation failures."""


class NonCubic(MapError):
    """A vertex does not list exactly three distinct neighbours."""


class AsymmetricAdjacency(MapError):
    """Vertex u lists v but v does not list u."""


class NonPlanar(MapError):
    """Euler count of the rotation system differs from 2."""


class Disconnected(MapError):
    """The underlying graph is not connected."""


class ValidationReport:
    """Outcome of the structural checks on a map.

    Connectivity and Euler's formula need no field: ``from_rotations``
    raises ``Disconnected`` or ``NonPlanar`` without them.  Nor does the
    face-count identity: a cubic plane map without loops or parallel edges
    has no 1- or 2-gons, so Euler's formula reads
    ``3*p3 + 2*p4 + p5 - 12 == sum((k - 6) * p_k for k >= 7)``.

    Attributes:
        face_vector: mapping face size -> count.
        simple: no face borders itself and no two faces share two edges.
        three_connected: no vertex pair disconnects the graph; for a cubic
            map this equals ``simple`` (see :meth:`CombMap.validate`).
    """

    def __init__(self, face_vector: Dict[int, int], simple: bool,
                 three_connected: bool) -> None:
        self.face_vector = face_vector
        self.simple = simple
        self.three_connected = three_connected

    @property
    def ok(self) -> bool:
        return self.simple and self.three_connected

    def __repr__(self) -> str:
        return ("ValidationReport(face_vector={0}, simple={1}, "
                "three_connected={2})".format(
                    self.face_vector, self.simple, self.three_connected))


class CombMap:
    """Immutable cubic planar map given by per-vertex rotations.

    Do not call the constructor directly; use :meth:`from_rotations` or
    :meth:`from_face_cycles`.
    """

    __slots__ = ("rotations", "twin", "face_of", "faces", "_cycles", "_pos",
                 "_belts", "_canon", "_canon2")

    def __init__(self, rotations: Tuple[Tuple[int, int, int], ...],
                 twin: Tuple[int, ...], face_of: Tuple[int, ...],
                 faces: Tuple[Tuple[int, ...], ...]) -> None:
        self.rotations = rotations
        self.twin = twin
        self.face_of = face_of
        self.faces = faces
        self._cycles: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._pos: Optional[Tuple[int, ...]] = None
        # k -> the k-belts, filled by belts.find_k_belts
        self._belts: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
        self._canon: Optional[bytes] = None
        self._canon2: Optional[Tuple[bytes, bytes]] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rotations(cls, rotations: Sequence[Sequence[int]]) -> "CombMap":
        """Build a map from per-vertex cyclic neighbour lists.

        Args:
            rotations: for each vertex, its three neighbours in cyclic order.

        Raises:
            NonCubic: a vertex has a degree other than 3, a loop, or a
                repeated neighbour.
            AsymmetricAdjacency: adjacency is not symmetric.
            Disconnected: the graph has more than one component.
            NonPlanar: the rotation system does not have Euler count 2.
        """
        n = len(rotations)
        rot: List[Tuple[int, int, int]] = []
        for v, nbrs in enumerate(rotations):
            nbrs = tuple(int(w) for w in nbrs)
            if len(nbrs) != 3 or len(set(nbrs)) != 3 or v in nbrs:
                raise NonCubic("vertex %d has neighbours %r" % (v, nbrs))
            for w in nbrs:
                if not 0 <= w < n:
                    raise NonCubic("vertex %d lists unknown vertex %d" % (v, w))
            rot.append(nbrs)
        dart_at: Dict[Tuple[int, int], int] = {}
        for v, nbrs in enumerate(rot):
            for i, w in enumerate(nbrs):
                key = (v, w)
                if key in dart_at:
                    raise NonCubic("parallel edge %d-%d" % (v, w))
                dart_at[key] = 3 * v + i
        twin = [0] * (3 * n)
        for (v, w), d in dart_at.items():
            e = dart_at.get((w, v))
            if e is None:
                raise AsymmetricAdjacency(
                    "vertex %d lists %d but not conversely" % (v, w))
            twin[d] = e
        # connectivity
        if n:
            seen = [False] * n
            seen[0] = True
            stack = [0]
            while stack:
                v = stack.pop()
                for w in rot[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            if not all(seen):
                raise Disconnected("graph is not connected")
        # face orbits of prev o twin
        face_of = [-1] * (3 * n)
        faces: List[Tuple[int, ...]] = []
        for d0 in range(3 * n):
            if face_of[d0] >= 0:
                continue
            fid = len(faces)
            orbit = []
            d = d0
            while face_of[d] < 0:
                face_of[d] = fid
                orbit.append(d)
                t = twin[d]
                d = (t - t % 3) + (t % 3 - 1) % 3  # prev(twin(d))
            faces.append(tuple(orbit))
        f0, f1, f2 = n, 3 * n // 2, len(faces)
        if f0 - f1 + f2 != 2:
            raise NonPlanar("Euler count %d != 2" % (f0 - f1 + f2))
        return cls(tuple(rot), tuple(twin), tuple(face_of), tuple(faces))

    @classmethod
    def from_face_cycles(cls, cycles: Sequence[Sequence[int]]) -> "CombMap":
        """Build a map from per-face cyclic neighbour-face lists.

        This is the inverse of :meth:`face_cycles`.  Each face lists the faces
        across its boundary edges in cyclic order; any two faces may share at
        most one edge, so the pairing of dual darts is forced.

        Raises:
            MapError: the cycles are inconsistent or a corner orbit does not
                have length 3 (the primal graph would not be cubic).
        """
        offs: List[int] = []
        total = 0
        for cyc in cycles:
            offs.append(total)
            total += len(cyc)
        flat: List[int] = [g for cyc in cycles for g in cyc]
        owner: List[int] = []
        for f, cyc in enumerate(cycles):
            owner.extend([f] * len(cyc))
        pair_at: Dict[Tuple[int, int], int] = {}
        for d, g in enumerate(flat):
            key = (owner[d], g)
            if key in pair_at:
                raise MapError("faces %d and %d share more than one edge"
                               % (owner[d], g))
            pair_at[key] = d
        twin = [0] * total
        for d, g in enumerate(flat):
            e = pair_at.get((g, owner[d]))
            if e is None:
                raise MapError("face %d lists %d but not conversely"
                               % (owner[d], g))
            twin[d] = e
        # corner orbits of the dual map are the primal vertices
        deg = [len(cyc) for cyc in cycles]
        corner_of = [-1] * total
        corners: List[Tuple[int, int, int]] = []
        for d0 in range(total):
            if corner_of[d0] >= 0:
                continue
            vid = len(corners)
            orbit = []
            d = d0
            while corner_of[d] < 0:
                corner_of[d] = vid
                orbit.append(d)
                t = twin[d]
                f = owner[t]
                d = offs[f] + (t - offs[f] - 1) % deg[f]
            if len(orbit) != 3:
                raise MapError("corner orbit of length %d; map is not cubic"
                               % len(orbit))
            corners.append((orbit[0], orbit[1], orbit[2]))
        # primal vertex v has one edge per orbit dart d, leading to the
        # vertex whose orbit contains twin(d); orbit order gives the rotation
        rot = []
        for orbit in corners:
            rot.append(tuple(corner_of[twin[d]] for d in orbit))
        return cls.from_rotations(rot)

    # -- basic accessors ----------------------------------------------------

    @property
    def f0(self) -> int:
        return len(self.rotations)

    @property
    def f1(self) -> int:
        return 3 * len(self.rotations) // 2

    @property
    def f2(self) -> int:
        return len(self.faces)

    def head(self, d: int) -> int:
        """Vertex the dart points to."""
        return self.rotations[d // 3][d % 3]

    def tail(self, d: int) -> int:
        """Vertex the dart starts from."""
        return d // 3

    def next_dart(self, d: int) -> int:
        """Next outgoing dart counterclockwise around the origin vertex."""
        return (d - d % 3) + (d % 3 + 1) % 3

    def prev_dart(self, d: int) -> int:
        return (d - d % 3) + (d % 3 - 1) % 3

    def face_next(self, d: int) -> int:
        """Next dart along the face of ``d`` (interior on the left)."""
        return self.prev_dart(self.twin[d])

    def face_prev(self, d: int) -> int:
        """Previous dart along the face of ``d``; inverse of face_next."""
        return self.twin[(d - d % 3) + (d % 3 + 1) % 3]

    def face_walk(self, d: int, n: int, backward: bool = False) -> List[int]:
        """``n`` darts from ``d`` by face_next (``backward``: face_prev)."""
        twin = self.twin
        out = [d]
        if backward:
            for _ in range(n - 1):
                d = twin[(d - d % 3) + (d % 3 + 1) % 3]
                out.append(d)
        else:
            for _ in range(n - 1):
                t = twin[d]
                d = (t - t % 3) + (t % 3 - 1) % 3
                out.append(d)
        return out

    def dart(self, u: int, v: int) -> int:
        """The dart from vertex ``u`` to its neighbour ``v``."""
        return 3 * u + self.rotations[u].index(v)

    def face_size(self, f: int) -> int:
        return len(self.faces[f])

    def face_vertices(self, f: int) -> List[int]:
        """Vertices along the face boundary, one per boundary dart."""
        return [d // 3 for d in self.faces[f]]

    def face_vector(self) -> Dict[int, int]:
        """Census of face sizes: p_k for each occurring k."""
        pk: Dict[int, int] = {}
        for orbit in self.faces:
            k = len(orbit)
            pk[k] = pk.get(k, 0) + 1
        return pk

    def face_cycles(self) -> Tuple[Tuple[int, ...], ...]:
        """The dual adjacency: per face, the face across each of its darts,
        in ``faces[f]`` order.  Built on first use and cached; every reader
        of the dual graph goes through it."""
        if self._cycles is None:
            face_of, twin = self.face_of, self.twin
            self._cycles = tuple(tuple(face_of[twin[d]] for d in orbit)
                                 for orbit in self.faces)
        return self._cycles

    def face_positions(self) -> Tuple[int, ...]:
        """Per dart, its index in its face's orbit: ``d`` is
        ``faces[face_of[d]][face_positions()[d]]``, and ``i`` steps along
        the face from ``d`` is the orbit entry ``i`` further on, cyclically.
        Built on first use and cached."""
        if self._pos is None:
            pos = [0] * len(self.face_of)
            for orbit in self.faces:
                for i, d in enumerate(orbit):
                    pos[d] = i
            self._pos = tuple(pos)
        return self._pos

    def face_neighbors(self, f: int) -> List[int]:
        """Distinct faces sharing an edge with ``f``, in cycle order."""
        return list(dict.fromkeys(self.face_cycles()[f]))

    def edge_darts(self) -> List[int]:
        """One representative dart per edge (the smaller of the pair)."""
        return [d for d in range(3 * self.f0) if d < self.twin[d]]

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Structural report; construction already guarantees most checks.

        A cubic graph's vertex and edge connectivity agree, and a minimal
        edge cut of a plane graph is a cycle of its dual.  So the map is
        3-connected iff no face borders itself and no two faces share two
        edges, which is the ``simple`` check.
        """
        simple = all(f not in cyc and len(set(cyc)) == len(cyc)
                     for f, cyc in enumerate(self.face_cycles()))
        return ValidationReport(self.face_vector(), simple, simple)

    def is_fullerene(self) -> bool:
        pk = self.face_vector()
        return set(pk) <= {5, 6} and pk.get(5, 0) == 12

    # -- relabeling and reflection ------------------------------------------

    def relabel(self, perm: Sequence[int]) -> "CombMap":
        """New map with vertex ``v`` renamed ``perm[v]``."""
        n = self.f0
        rot: List[Tuple[int, int, int]] = [(0, 0, 0)] * n
        for v, nbrs in enumerate(self.rotations):
            rot[perm[v]] = tuple(perm[w] for w in nbrs)
        return CombMap.from_rotations(rot)

    def mirror(self) -> "CombMap":
        """Reflection: every rotation list reversed."""
        return CombMap.from_rotations(
            [tuple(reversed(nbrs)) for nbrs in self.rotations])

    # -- canonical form -----------------------------------------------------

    def _oriented_codes(self) -> Tuple[bytes, bytes]:
        """Minimal BFS words of the map and of its mirror image.

        Each word is rooted only at the darts of the rarest colour class of
        its orientation; see :meth:`canonical_code`.
        """
        if self._canon2 is None:
            rot, twin = self.rotations, self.twin
            sizes = [len(orbit) for orbit in self.faces]
            left = [sizes[f] for f in self.face_of]
            # back[3v + i] = left[3v + (i + 1) % 3]: the third face at v
            back = left[1:] + left[:1]
            back[2::3] = left[0::3]
            colour = list(zip(left, [left[t] for t in twin], back,
                              [back[t] for t in twin]))
            count = Counter(colour)
            c = min(count, key=lambda x: (count[x], x))
            # the mirror colour of dart 3v + i is its colour with left and
            # right swapped, carried by the mirror dart 3v + (2 - i)
            mc = min(count, key=lambda x: (count[x], (x[1], x[0], x[2], x[3])))
            roots = [d for d, x in enumerate(colour) if x == c]
            mroots = [d + 2 - 2 * (d % 3)
                      for d, x in enumerate(colour) if x == mc]
            mrot = [(a[2], a[1], a[0]) for a in rot]
            self._canon2 = (_min_word(rot, roots), _min_word(mrot, mroots))
        return self._canon2

    def canonical_code(self) -> bytes:
        """Isomorphism invariant: the smaller of the two oriented codes.

        The colour of a dart from ``v`` to ``w`` is the tuple of face sizes
        ``(left, right, back, ahead)``: the faces on its two sides, the third
        face at ``v`` and the third face at ``w``.  Each orientation's code is
        the minimal BFS word (see :func:`_min_word`) over the darts of its
        rarest colour class, ties broken by the colour tuple; the mirror
        image swaps ``left`` and ``right``.  The rule that picks the class is
        invariant under isomorphism, so each oriented code is an invariant;
        a BFS word from any one dart determines the rooted oriented map, so
        equal codes mean isomorphic maps.  Mirror images compare equal.
        """
        if self._canon is None:
            a, b = self._oriented_codes()
            self._canon = a if a <= b else b
        return self._canon

    def is_chiral(self) -> bool:
        """True if the map admits no orientation-reversing automorphism."""
        a, b = self._oriented_codes()
        return a != b

    def is_isomorphic(self, other: "CombMap") -> bool:
        return self.canonical_code() == other.canonical_code()

    def __repr__(self) -> str:
        return "CombMap(f0=%d, f1=%d, f2=%d)" % (self.f0, self.f1, self.f2)


def _min_word(rot: Sequence[Tuple[int, int, int]],
              roots: Sequence[int]) -> bytes:
    """Lexicographically minimal BFS word over the given root darts.

    The word lists, for each vertex in discovery order, the labels of its
    three neighbours starting at the entry edge and following the rotation.
    Labels are assigned in order of first appearance.  A word rooted at
    dart ``3 * v + slot`` starts at ``v`` with neighbour ``rot[v][slot]``.
    Maps with up to 255 vertices fit in one byte per entry.
    """
    if len(rot) > 255:
        raise MapError("canonical code supports at most 255 vertices")
    best = _bfs_word(rot, roots[0], None)
    for root in roots[1:]:
        word = _bfs_word(rot, root, best)
        if word is not None:
            best = word
    return best


def _bfs_word(rot: Sequence[Tuple[int, int, int]], root: int,
              best: Optional[bytes]) -> Optional[bytes]:
    """BFS word from one root dart, or None once it exceeds ``best``."""
    n = len(rot)
    root_v, root_slot = divmod(root, 3)
    label = [-1] * n
    label[root_v] = 0
    order = [root_v]
    start = [0] * n
    start[root_v] = root_slot
    word = bytearray()
    nxt_label = 1
    j = 0
    for v in order:  # order grows while it is walked
        nbrs = rot[v]
        s = start[v]
        for i in (s, (s + 1) % 3, (s + 2) % 3):
            w = nbrs[i]
            lw = label[w]
            if lw < 0:
                lw = label[w] = nxt_label
                nxt_label += 1
                start[w] = rot[w].index(v)
                order.append(w)
            word.append(lw)
            if best is not None:
                c = best[j]
                if lw > c:
                    return None
                if lw < c:
                    best = None  # strictly smaller; stop comparing
                j += 1
    return bytes(word)
