"""Cubic planar combinatorial maps: construction, validation, canonical forms.

A map is given by a rotation system: for every vertex, the cyclic
(counterclockwise) list of its three neighbours.  Darts are dense integers
``3 * v + slot`` where ``slot`` indexes the rotation list of ``v``, and a map
stores them once, as the involution ``twin``: the dart ``3 * v + slot``
points to vertex ``twin[3 * v + slot] // 3``, so the rotation rows are read
off ``twin``.  Faces are the orbits of ``prev o twin`` and are traversed with
the interior on the left.  All maps are immutable after construction;
surgery returns fresh maps.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

# A dart's colour: the sizes of the faces (left, right, back, ahead)
Colour = Tuple[int, int, int, int]

# A dart's row in the table of a word search; see _bfs_word
_Row = Tuple[int, int, int, int, int, int]

# A BFS word with its walk: per vertex its label, and the entry darts in
# label order; see _bfs_word
_Walk = Tuple[bytes, List[int], List[int]]

# A map's tied walks, see CombMap._class_words: the first one's vertex
# labels, then each forward and each mirror walk's entry darts
_Tied = Tuple[bytes, Tuple[array, ...], Tuple[array, ...]]


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


class CombMap:
    """Immutable cubic planar map given by per-vertex rotations.

    It stores ``twin``, ``face_of`` and ``faces``; :attr:`rotations` is
    derived from ``twin``.  The constructor trusts its three fields and
    checks nothing; build maps with :meth:`from_rotations` or
    :meth:`from_face_cycles`, which check everything.  The one other
    caller is ``surgery.truncate``, which patches a valid map into another
    valid one and keeps the ``from_rotations`` face numbering.
    """

    __slots__ = ("twin", "face_of", "faces", "_nbr_masks", "_fullerene",
                 "_belts", "_five_kinds", "_colours", "_words", "_tied")

    def __init__(self, twin: Tuple[int, ...], face_of: Tuple[int, ...],
                 faces: Tuple[Tuple[int, ...], ...]) -> None:
        self.twin = twin
        self.face_of = face_of
        self.faces = faces
        self._nbr_masks: Optional[Tuple[int, ...]] = None
        self._fullerene: Optional[bool] = None
        # k -> the k-belts, filled by belts.find_k_belts
        self._belts: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
        # the kind of each 5-belt, filled by belts.classify_five_belts
        self._five_kinds: Optional[Tuple[Optional[str], ...]] = None
        self._colours: Optional[Dict[Colour, array]] = None
        # minimal BFS word of the map, then of its mirror image
        self._words: List[Optional[bytes]] = [None, None]
        # the first tied root's labels and the entry darts of the tied
        # walks, forward and mirror, unless the identity is the one
        # automorphism; see dart_images
        self._tied: Optional[_Tied] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rotations(cls, rotations: Sequence[Sequence[int]]) -> "CombMap":
        """Build a map from per-vertex cyclic neighbour lists.

        Args:
            rotations: for each vertex, its three neighbours in cyclic order;
                entries that are not ints are coerced with ``int()``.

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
            nbrs = tuple(nbrs)
            # entries go through int() row by row, so the first faulty row
            # is the one reported; a row of three ints needs no coercion
            if len(nbrs) != 3 or not (type(nbrs[0]) is type(nbrs[1])
                                      is type(nbrs[2]) is int):
                nbrs = tuple(map(int, nbrs))
            # a row of another length is refused as a loop would be
            a, b, c = nbrs if len(nbrs) == 3 else (v, v, v)
            if v == a or v == b or v == c or a == b or b == c or c == a:
                raise NonCubic("vertex %d has neighbours %r" % (v, nbrs))
            if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
                raise NonCubic("vertex %d lists unknown vertex %d"
                               % (v, next(w for w in nbrs if not 0 <= w < n)))
            rot.append(nbrs)
        # the twin of the dart from v to w leaves w at v's slot in rot[w]
        twin: List[int] = []
        for v, nbrs in enumerate(rot):
            for w in nbrs:
                try:
                    twin.append(3 * w + rot[w].index(v))
                except ValueError:
                    raise AsymmetricAdjacency(
                        "vertex %d lists %d but not conversely" % (v, w)
                    ) from None
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
        # face orbits, each from its smallest dart, numbered in that order
        face_of = [-1] * (3 * n)
        faces: List[Tuple[int, ...]] = []
        for d0 in range(3 * n):
            if face_of[d0] < 0:
                fid, orbit = len(faces), _face_orbit(twin, d0)
                for d in orbit:
                    face_of[d] = fid
                faces.append(orbit)
        f0, f1, f2 = n, 3 * n // 2, len(faces)
        if f0 - f1 + f2 != 2:
            raise NonPlanar("Euler count %d != 2" % (f0 - f1 + f2))
        return cls(tuple(twin), tuple(face_of), tuple(faces))

    @classmethod
    def from_face_cycles(cls, cycles: Sequence[Sequence[int]]) -> "CombMap":
        """Build a map from per-face cyclic neighbour-face lists.

        This is the inverse of :meth:`face_cycles`.  Each face lists the faces
        across its boundary edges in cyclic order; any two faces may share at
        most one edge, so the pairing of dual darts is forced: the dart of f
        towards g pairs with the dart of g at f's place in its cycle.

        Primal vertices are the corner orbits of ``step = prev o twin``
        (``prev``: the dart before, in its face), read off one ``step``
        table from each orbit's smallest dart d0 as the rotation ``(d0,
        step[d0], step[step[d0]])``; only a refusal walks an orbit.

        Raises:
            MapError: a face lists an unknown face or one neighbour twice,
                the cycles are inconsistent, or a corner orbit does not
                have length 3 (the primal graph would not be cubic).
        """
        nf = len(cycles)
        offs = list(accumulate(map(len, cycles), initial=0))
        twin: List[int] = []
        prev: List[int] = []
        for f, cyc in enumerate(cycles):
            if len(set(cyc)) != len(cyc):
                raise MapError("face %d lists a neighbour twice" % f)
            for g in cyc:
                if not 0 <= g < nf:
                    raise MapError("face %d lists unknown face %d" % (f, g))
                try:
                    twin.append(offs[g] + cycles[g].index(f))
                except ValueError:
                    raise MapError("face %d lists %d but not conversely"
                                   % (f, g)) from None
            if cyc:
                prev.append(offs[f + 1] - 1)
                prev.extend(range(offs[f], offs[f + 1] - 1))
        step = [prev[t] for t in twin]
        corner_of = [-1] * len(twin)
        corners: List[Tuple[int, int, int]] = []
        for d0, d1 in enumerate(step):
            if corner_of[d0] >= 0:
                continue
            d2 = step[d1]
            if step[d2] != d0 or d1 == d0:
                length, d = 1, d1
                while d != d0:
                    length, d = length + 1, step[d]
                raise MapError("corner orbit of length %d; map is not cubic"
                               % length)
            corner_of[d0] = corner_of[d1] = corner_of[d2] = len(corners)
            corners.append((d0, d1, d2))
        # the edge at orbit dart d leads to the orbit of twin(d)
        head = [corner_of[t] for t in twin]
        rot = [(head[a], head[b], head[c]) for a, b, c in corners]
        return cls.from_rotations(rot)

    # -- basic accessors ----------------------------------------------------

    @property
    def rotations(self) -> Tuple[Tuple[int, int, int], ...]:
        """Per vertex, its three neighbours in cyclic order: the heads of
        its darts, built from ``twin`` in O(n) on every read."""
        heads = [t // 3 for t in self.twin]
        return tuple(zip(heads[0::3], heads[1::3], heads[2::3]))

    @property
    def f0(self) -> int:
        return len(self.twin) // 3

    @property
    def f1(self) -> int:
        return len(self.twin) // 2

    @property
    def f2(self) -> int:
        return len(self.faces)

    def head(self, d: int) -> int:
        """Vertex the dart points to."""
        return self.twin[d] // 3

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
        return 3 * u + [t // 3 for t in self.twin[3 * u:3 * u + 3]].index(v)

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
        in ``faces[f]`` order; the input of :meth:`from_face_cycles`.
        Built on every call: the package's own readers take single rows
        or masks off the darts instead."""
        face_of, twin = self.face_of, self.twin
        return tuple(tuple(face_of[twin[d]] for d in orbit)
                     for orbit in self.faces)

    def face_neighbor_masks(self) -> Tuple[int, ...]:
        """Per face, the faces across its darts as a bit mask, bit g set for
        face g, for the belt searches and enclosure.  Built on first use
        and cached, in one pass over each face orbit that ORs in the bit of
        the face across each dart, with no :meth:`face_cycles` rows."""
        if self._nbr_masks is None:
            face_of, twin = self.face_of, self.twin
            bit = [1 << g for g in range(len(self.faces))]
            masks = []
            for orbit in self.faces:
                mask = 0
                for d in orbit:
                    mask |= bit[face_of[twin[d]]]
                masks.append(mask)
            self._nbr_masks = tuple(masks)
        return self._nbr_masks

    def face_neighbors(self, f: int) -> List[int]:
        """Distinct faces sharing an edge with ``f``, in cycle order."""
        face_of, twin = self.face_of, self.twin
        return list(dict.fromkeys(face_of[twin[d]] for d in self.faces[f]))

    def edge_darts(self) -> List[int]:
        """One representative dart per edge (the smaller of the pair)."""
        return [d for d in range(3 * self.f0) if d < self.twin[d]]

    # -- validation ---------------------------------------------------------

    def validate(self) -> bool:
        """True iff the map is simple and 3-connected.

        ``from_rotations`` has already checked connectivity and Euler's
        formula.  A cubic plane map without loops or parallel edges has no
        1- or 2-gons, so the face-count identity
        ``3*p3 + 2*p4 + p5 - 12 == sum((k - 6) * p_k for k >= 7)`` needs
        no check either.  A cubic graph's vertex and edge connectivity
        agree, and a minimal edge cut of a plane graph is a cycle of its
        dual.  So the map is 3-connected iff no face borders itself and no
        two faces share two edges, iff the darts' (left, right) face pairs
        are distinct: an edge with one face on both sides gives its pair
        twice.  One pass over darts, with no :meth:`face_cycles`.
        """
        face_of = self.face_of
        right = [face_of[t] for t in self.twin]
        return len(set(zip(face_of, right))) == len(face_of)

    def is_fullerene(self) -> bool:
        """Pentagons and hexagons only, and twelve pentagons.  Decided on
        first use and cached, since the map never changes."""
        if self._fullerene is None:
            pk = self.face_vector()
            self._fullerene = set(pk) <= {5, 6} and pk.get(5, 0) == 12
        return self._fullerene

    # -- reflection ---------------------------------------------------------

    def mirror(self) -> "CombMap":
        """Reflection: every rotation list reversed."""
        return CombMap.from_rotations(
            [tuple(reversed(nbrs)) for nbrs in self.rotations])

    # -- canonical form -----------------------------------------------------

    def colour_classes(self) -> Dict[Colour, array]:
        """The darts by colour, each class in increasing dart order.

        The colour of a dart from ``v`` to ``w`` is the tuple of face sizes
        ``(left, right, back, ahead)``: the faces on its two sides, the third
        face at ``v`` and the third face at ``w``.  So along a ``k``-gon
        whose neighbours across its darts have sizes ``e[0], e[1], ...``,
        the dart at slot ``s`` has colour ``(k, e[s], e[s - 1], e[s + 1])``.
        Built in one pass on first use and cached, one array of darts per
        class: the canonical code roots its words at a class, and the
        pattern matcher anchors at one.
        """
        if self._colours is None:
            twin = self.twin
            sizes = [len(orbit) for orbit in self.faces]
            left = [sizes[f] for f in self.face_of]
            # back[3v + i] = left[3v + (i + 1) % 3]: the third face at v
            back = left[1:] + left[:1]
            back[2::3] = left[0::3]
            classes: Dict[Colour, List[int]] = {}
            for d, x in enumerate(zip(left, [left[t] for t in twin], back,
                                      [back[t] for t in twin])):
                c = classes.get(x)
                if c is None:
                    classes[x] = [d]
                else:
                    c.append(d)
            self._colours = {x: array("i", c) for x, c in classes.items()}
        return self._colours

    def oriented_word(self, mirrored: bool = False) -> bytes:
        """Minimal BFS word of the map, or of its mirror image.

        Two maps are isomorphic by an orientation-preserving map exactly
        when their forward words are equal, and by a reflection exactly
        when one's forward word is the other's mirror word.  Both words are
        built together on first use; see :meth:`canonical_code`.
        """
        if self._words[0] is None:
            self._class_words(*self._first_walk())
        return self._words[mirrored]

    def _first_walk(self) -> Tuple[List[_Row], _Walk]:
        """The map's dart table (see :func:`_dart_table`) and the walk from
        the first forward root: what every word search starts from."""
        table = _dart_table(self.twin)
        return table, _bfs_word(table, self._class_roots()[0])

    def _class_roots(self) -> Sequence[int]:
        """The darts of the rarest colour class, in class order: the roots
        of the forward word.  Raises MapError past 255 vertices, where a
        word entry no longer fits one byte."""
        if self.f0 > 255:
            raise MapError("canonical code supports at most 255 vertices")
        classes = self.colour_classes()
        return classes[min(classes, key=lambda x: (len(classes[x]), x))]

    def _class_words(self, table: Sequence[_Row], first: _Walk) -> List[bytes]:
        """The full BFS word of every root of the rarest colour class, on
        the map and then on its mirror image: the one word search behind
        the oriented words, the canonical code, chirality, the symmetries
        and an :class:`IsomerSet` entry.  ``table`` and ``first`` are
        what :meth:`_first_walk` returns, which the caller has built.

        Each oriented word is the minimum of its orientation's words; its
        tied roots, in class order, are the roots with that word, and the
        mirror roots tie the forward word on an achiral map only.  Unless
        the map is chiral and has no automorphism but the identity, the
        first tied forward root's vertex labels are kept for
        :meth:`dart_images`, with the entry darts of every tied walk,
        forward and mirror, each an ``array("H")``.

        The list returned spots isomers.  Let ``m`` be a map, ``r`` the
        first root of its forward class, and ``w`` the word from ``r``.
        Then ``m`` is isomorphic to this map, mirror images identified,
        exactly when ``w`` is one of these words.  The rule that picks a
        class is invariant under isomorphism.  So an isomorphism that keeps
        orientation carries ``m``'s forward class onto this map's forward
        class, and one that reverses it carries that class onto this map's
        mirror class, counted in the mirror image.  Either way it carries
        ``r`` to a root listed here and keeps BFS words, so ``w`` is
        listed.  Conversely a BFS word from one dart determines the rooted
        oriented map, so ``w`` listed makes ``m`` isomorphic to this map or
        to its mirror image.
        """
        fwd = [first] + [_bfs_word(table, r)
                         for r in self._class_roots()[1:]]
        # the mirror image swaps each dart's left and right faces, and so
        # the first two entries of its colour
        classes = self.colour_classes()
        mc = min(classes, key=lambda x: (len(classes[x]),
                                         (x[1], x[0], x[2], x[3])))
        back = [_bfs_word(table, d, True) for d in classes[mc]]
        word = min(f[0] for f in fwd)
        mirror_word = min(f[0] for f in back)
        self._words = [word, mirror_word]
        tied = [f for f in fwd if f[0] == word]
        if len(tied) > 1 or word == mirror_word:
            tied_back = [f for f in back if f[0] == word]
            self._tied = (bytes(tied[0][1]),
                          tuple(array("H", f[2]) for f in tied),
                          tuple(array("H", f[2]) for f in tied_back))
        return [f[0] for f in fwd + back]

    def canonical_code(self) -> bytes:
        """Isomorphism invariant: the smaller of the two oriented words.

        Each orientation's word is the minimal BFS word (see
        :func:`_bfs_word`) over the darts of its rarest colour class (see
        :meth:`colour_classes`), ties broken by the colour tuple; the mirror
        image swaps ``left`` and ``right``.  The rule that picks the class
        is invariant under isomorphism, so each oriented word is an
        invariant; a BFS word from any one dart determines the rooted
        oriented map, so equal codes mean isomorphic maps.  Mirror images
        compare equal.  The search that builds both words also finds the
        symmetries: see :meth:`_class_words` and :meth:`dart_images`.
        """
        return min(self.oriented_word(), self.oriented_word(True))

    def is_chiral(self) -> bool:
        """True if the map admits no orientation-reversing automorphism."""
        return self.oriented_word() != self.oriented_word(True)

    def automorphisms(self) -> List[Tuple[int, ...]]:
        """Aut+, the orientation-preserving automorphisms, as dart maps.

        Each permutation ``phi`` has ``phi[d]`` the image of dart ``d``; it
        commutes with ``twin`` and ``next_dart``, and the identity comes
        first.  The reversing ones are the rest of :meth:`dart_images`.
        """
        darts = range(len(self.twin))
        return [phi for rev, phi in self.dart_images(darts) if not rev]

    def dart_images(self, darts: Sequence[int]
                    ) -> Iterator[Tuple[bool, Tuple[int, ...]]]:
        """The images of ``darts`` under each automorphism, with whether it
        reverses orientation: the identity and the rest of Aut+, then Aut-.

        They are read off the class words (see :meth:`_class_words`).  Two
        roots with equal BFS words root the same oriented map, so there is
        one automorphism sending the first tied forward root ``r0`` to each
        other tied forward root.  Conversely an automorphism keeps colours
        and words, so it carries ``r0`` to a tied root, and a nontrivial one
        fixes no dart of a connected map.  So the tied forward roots are
        exactly one Aut+-orbit, one root per automorphism (60 for the
        dodecahedron).  A reversing automorphism, which only an achiral map
        has, carries the forward colour class onto the mirror class, and
        ``r0``'s word onto its mirror word; so on an achiral map, where the
        two oriented words agree, the tied mirror roots are likewise one per
        reversing automorphism.

        The labels from ``r0`` and the entry darts of every tied walk are
        kept.  A walk's entry dart ``e[k]`` leaves the vertex labelled
        ``k``, ``e[k] // 3``, at its entry slot ``e[k] % 3``.  The
        automorphism to a tied root takes the vertex labelled ``k`` from
        ``r0`` to the one labelled ``k`` from that root, and the dart ``t``
        slots past its vertex's entry slot to the dart ``t`` slots past
        that vertex's.  A mirror walk counts slots in the reversed
        rotation, where slot ``j`` is slot ``2 - j``, so there the image
        lies ``t`` slots before ``e[k]`` in the map's own rotation.  So an
        image costs O(1) per dart, and no permutation is built.
        """
        self.oriented_word()
        yield False, tuple(darts)
        if self._tied is None:
            return
        label, (first, *forward), mirror = self._tied
        # per dart: the label k of its vertex from r0, and its slot counted
        # from the vertex's entry slot
        rel = [(k := label[d // 3], (d - first[k]) % 3) for d in darts]
        for e in forward:
            yield False, tuple([(x := e[k]) - x % 3 + (x + t) % 3
                                for k, t in rel])
        for e in mirror:
            yield True, tuple([(x := e[k]) - x % 3 + (x - t) % 3
                               for k, t in rel])

    def is_isomorphic(self, other: "CombMap") -> bool:
        return self.canonical_code() == other.canonical_code()

    def __repr__(self) -> str:
        return "CombMap(f0=%d, f1=%d, f2=%d)" % (self.f0, self.f1, self.f2)


class IsomerSet:
    """Maps kept up to isomorphism, mirror images identified.

    A kept map holds every word of :meth:`CombMap._class_words`, so a map
    repeats a kept one exactly when the BFS word from the first root of
    its own forward class is among them.  A repeat pays for that one word,
    and only a new map pays for its full set of class words, which also
    give it its oriented words, its canonical code and its symmetries.
    """

    __slots__ = ("_words",)

    def __init__(self) -> None:
        self._words: Set[bytes] = set()

    def add(self, m: CombMap) -> bool:
        """Keep ``m`` and return True, unless it repeats a kept map.
        Raises MapError past 255 vertices."""
        table, first = m._first_walk()
        if first[0] in self._words:
            return False
        self._words.update(m._class_words(table, first))
        return True


def _check_int(value: object, name: str) -> None:
    """Raise TypeError, naming the argument, unless ``value`` is an int (a
    bool counts as one)."""
    if not isinstance(value, int):
        raise TypeError("%s must be an int, not %s"
                        % (name, type(value).__name__))


def _face_orbit(twin: Sequence[int], d: int) -> Tuple[int, ...]:
    """The face orbit of ``d`` under ``prev o twin``, starting at ``d``."""
    orbit = [d]
    t = twin[d]
    x = t - 1 if t % 3 else t + 2  # prev(twin(d))
    while x != d:
        orbit.append(x)
        t = twin[x]
        x = t - 1 if t % 3 else t + 2
    return tuple(orbit)


def _dart_table(twin: Sequence[int]) -> List[_Row]:
    """The dart table that one word search reads, built in one pass; see
    :func:`_bfs_word` for its rows.  It is not kept on the map: every
    search of a map is made at once, and a kept table would hold 3n
    tuples for the map's life."""
    table: List[_Row] = []
    slots = iter(twin)
    for ta, tb, tc in zip(slots, slots, slots):
        ha, hb, hc = ta // 3, tb // 3, tc // 3
        table += ((ha, ta, hb, tb, hc, tc), (hb, tb, hc, tc, ha, ta),
                  (hc, tc, ha, ta, hb, tb))
    return table


def _bfs_word(table: Sequence[_Row], root: int,
              mirrored: bool = False) -> _Walk:
    """BFS word from one root dart, on the map or its mirror image.

    The word lists, for each vertex in discovery order, the labels of its
    three neighbours starting at the entry edge and following the rotation.
    Labels are assigned in order of first appearance.  A word rooted at
    dart ``3 * v + slot`` starts at ``v`` with neighbour ``rot[v][slot]``.
    Maps with up to 255 vertices fit in one byte per entry; the caller
    checks the size (see :meth:`CombMap._class_roots`).

    The walk reads ``table`` (see :func:`_dart_table`), whose row for dart
    ``e`` is ``(head(e), twin(e), head(e1), twin(e1), head(e2),
    twin(e2))`` with ``e1 = next(e)`` and ``e2 = next(e1)``.  It queues
    entry darts: a vertex is entered by the dart that leaves it towards
    the vertex it was found from, the twin of the dart it was found by.
    One row so gives a vertex's three neighbours in order and the entry
    dart of each one it finds, with no search of a rotation.

    The mirror image reverses every rotation and keeps ``twin``, so its
    word from ``e`` visits ``e``, ``prev(e)`` and ``prev(prev(e))``, which
    are ``e``, ``e2`` and ``e1``: ``mirrored`` reads the same row in that
    order, with darts still numbered on the map.  The mirror word from
    dart ``3 * v + slot`` is the word of the mirror image rooted at its
    dart ``3 * v + 2 - slot``, which has the same head.

    Returns the word, each vertex's label and the entry darts in label
    order, the root first; see :meth:`CombMap.dart_images`.
    """
    label = [-1] * (len(table) // 3)
    label[root // 3] = 0
    entry = [root]
    word: List[int] = []
    for e in entry:  # entry grows while it is walked
        if mirrored:
            h0, t0, h2, t2, h1, t1 = table[e]
        else:
            h0, t0, h1, t1, h2, t2 = table[e]
        l0 = label[h0]
        if l0 < 0:
            l0 = label[h0] = len(entry)
            entry.append(t0)
        l1 = label[h1]
        if l1 < 0:
            l1 = label[h1] = len(entry)
            entry.append(t1)
        l2 = label[h2]
        if l2 < 0:
            l2 = label[h2] = len(entry)
            entry.append(t2)
        word += (l0, l1, l2)
    return bytes(word), label, entry

