"""Sequential face winding and the exhaustive brute-force generator.

``wind`` realizes a face-size sequence as a cubic sphere map by gluing the
faces one at a time: each new face is attached over the elementary boundary
run that contains an open edge of the earliest still-open face, preferring a
run that also touches the face added last.  This is the classic sequential
(spiral) construction; a sequence is rejected when no legal gluing exists.

``generate_fullerenes`` enumerates the pentagon/hexagon size sequences for a
given face count by a depth-first search over sequence prefixes.  The run a
face is glued over depends only on the boundary that the faces before it
leave, so a search node is that boundary alone: the owners of its open
edges and its vertex degrees, two strings.  Its children share one
``_cut`` of its run, the cut that ``PatchBuilder.glue`` makes, and a prefix
that cannot be glued rules out all of its extensions at once.  Each
complete sequence is wound by ``wind``, which validates the map, and the
survivors are deduplicated by an ``IsomerSet``.  The generator is
deliberately independent of the pattern-replacement machinery so that it
can serve as a cross-check for the growth enumeration.

The search also cuts, by a degree-2 budget, prefixes that cannot complete.
Let n2 be the number of degree-2 boundary vertices.  Gluing a face
of size s over an elementary run of l edges raises its two end vertices to
degree 3 and adds s - l - 1 new degree-2 vertices, so n2 becomes
n2 + s - l - 3.  A glue needs l <= s - 1, so one glue lowers n2 by at most
2, and the closing face needs n2 == 0.  A prefix of j + 1 faces leaves
F - j - 2 glues before the closing face, so one with n2 > 2(F - j - 2) can
never close, and since ``wind`` follows the same runs as the search, no
sequence with that prefix winds.  The cut therefore removes only sequences
that ``wind`` rejects, and the output is the same with or without it.

A second cut holds for sequences that start with a hexagon.  Such a
sequence that ends with a pentagon is larger than its reversal, which
starts with the pentagon, so the mirror filter skips it at its leaf.  A
sequence that starts with a hexagon is therefore only kept if it ends with
one, and its remaining pentagons must fit before the last face: a prefix
of j + 1 faces with p pentagons needs 12 - p <= F - 2 - j.  The cut removes
only leaves that the mirror filter drops, so it too leaves the output as
it is.

A wound leaf needs no face-vector check.  The search never passes 12
pentagons, and a prefix of j + 1 faces must leave room for the rest, so
the prefix before the last face holds 11 or 12 of them and the last face
is chosen to make 12.  ``wind`` gives every face exactly its size in the
sequence, so each map it returns has 12 pentagons and F - 12 hexagons.

Equal boundaries are searched once.  A node gives the size suffixes below
it that reach a leaf, and one call of ``generate_fullerenes`` memoises
them per root size in one dict keyed by the string ``owners``.  The key
fixes the number j of faces glued, as the newest face j - 1 owns its
largest character: a child's key is ``chr(j) * k + rest``, with k >= 1
and every owner in ``rest`` below j, so keys of different depths never
collide.  It fixes ``vdeg`` too: ``vdeg[i]`` is ``'2'`` exactly when
``owners[i - 1] == owners[i]``.  A degree-2 boundary vertex lies on one
face, which owns both boundary edges there.  At a degree-3 one the
interior edge lies between the faces that own the two boundary edges,
and those differ, since a glued face meets only faces glued before it.
Everything the subtree below a node reads is a function of the key, F
and the root size: ``_next_run`` reads owner ids only through ``min``,
equality with j - 1 and distinctness, ``_cut`` only through
distinctness, a child's new face writes j, and the cuts read n2 (the
``'2'`` count of ``vdeg``), the run length, j, the root size and the
pentagon count p5.  That count is read off the boundary as well.  Gluing
a face of size s over l edges changes the boundary length b by s - 2l
and n2 by s - l - 3, so b - 2 n2 rises by 6 - s; one face has b = n2 =
s, so p5 = b - 2 n2 + 6 at every node (Euler).  A memoised node
therefore passes up the suffixes its own search would give, in the same
order, and each complete sequence still goes through the mirror filter,
``wind`` and the ``IsomerSet``, so the output is the same with or
without the memo.  The memo dies before the leaves are wound, so the
two do not add up: each root's search is handed a new dict that nothing
else holds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .maps import CombMap, IsomerSet, MapError
from .winding import PatchBuilder, WindingError, _cut


def _next_run(owners: str, vdeg: str, last: int) -> Tuple[int, int]:
    """The elementary run the next face is glued over.

    ``owners`` and ``vdeg`` are a patch's boundary, as ``PatchBuilder``
    keeps it, and ``last`` is the id of the face added last.  The
    elementary runs are the stretches of boundary between consecutive
    degree-2 vertices, taken in boundary order from the first degree-2
    vertex in ``vdeg``; a boundary with none is one run, all of it from
    position 0.  The run must contain an open edge of the earliest
    still-open face; the first such run that also touches face ``last`` is
    preferred.  Owner ids are read only through ``min``, equality with
    ``last`` and distinctness.

    The boundary is never empty: neither ``wind`` nor ``_suffixes``
    passes an empty one.  Their first face has at least 3 edges.  A glue,
    or a search child, covers a run of ``0 < length < b`` edges of a
    boundary of ``b`` by a face of ``size > length``, so the boundary it
    leaves has ``size - length`` new edges and ``b - length`` old ones: at
    least 2.
    """
    first = vdeg.find("2")
    if first < 0:
        return 0, len(owners)
    last2 = vdeg.rfind("2")
    earliest = min(owners)
    latest = chr(last)
    fallback = None
    # the runs that hold an edge of the earliest face, in boundary order;
    # a run begins at the last degree-2 vertex at or before that edge
    i = owners.find(earliest, first, last2)
    while i >= 0:
        start = vdeg.rfind("2", 0, i + 1)
        end = vdeg.find("2", i + 1)
        if owners.find(latest, start, end) >= 0:
            return start, end - start
        if fallback is None:
            fallback = start, end - start
        i = owners.find(earliest, end, last2)
    # last, the run that wraps past position 0, from last2 round to first:
    # the earliest face owns an edge there if in no run before
    if fallback is None or (
            (owners.find(earliest, last2) >= 0
             or owners.find(earliest, 0, first) >= 0)
            and (owners.find(latest, last2) >= 0
                 or owners.find(latest, 0, first) >= 0)):
        return last2, len(owners) - last2 + first
    return fallback


def wind(sizes: Sequence[int]) -> Optional[CombMap]:
    """Realize a face-size sequence as a sphere map, or None if it fails.

    Every size must be an ``int`` of at least 3.  The returned map is
    simple, planar and 3-connected, and its ``validate`` refusal cannot
    fire.  Every edge between faces X < Y is made by one glue of Y, or of
    the closing face, over a run of distinct owners, and no face is glued
    over its own edges; so no face borders itself and no two faces share
    two edges.  The call stays only because the benchmark's ``oracle``
    trace counts ``maps.validate`` calls; it costs one pass over darts.
    """
    if len(sizes) < 4 or not all(isinstance(s, int) and s >= 3
                                 for s in sizes):
        return None
    pb = PatchBuilder(sizes[0])
    try:
        for s in sizes[1:-1]:
            pb.glue(s, *_next_run(pb.owners, pb.vdeg, len(pb.cycles) - 1))
        pb.close(sizes[-1])
        m = pb.to_map()
    except (WindingError, MapError):
        return None
    if not m.validate():
        return None
    return m


def _suffixes(owners: str, vdeg: str, j: int, n2: int, face_count: int,
              memo: Dict[str, Tuple[str, ...]], hexagon_first: bool
              ) -> Tuple[str, ...]:
    """The size suffixes, as strings of ``'5'`` and ``'6'``, that take a
    prefix of ``j`` faces with this boundary to a ``face_count``-face leaf,
    in search order.

    ``n2`` is the boundary's number of degree-2 vertices, which with its
    length gives its pentagon count.  ``memo`` maps ``owners`` of each
    state below the root, which fixes its j and ``vdeg`` (module
    docstring), to its suffixes.  A state whose next face cannot be glued
    gives ``()``.  The run is cut once: ``_cut`` reads only the run, so it
    refuses both sizes or neither.
    """
    start, length = _next_run(owners, vdeg, j - 1)
    pents = len(owners) - 2 * n2 + 6
    # the degree-2 budget: a face of size s leaves n2 + s - length - 3
    # degree-2 vertices, which faces j + 1 .. face_count - 2 must bring
    # down to 0 at 2 per face
    max_size = 2 * (face_count - j - 2) - n2 + length + 3
    # positions j + 1 .. face_count - 1 remain for the other pentagons,
    # less the last one after a hexagon (module docstring)
    room = face_count - 1 - j - hexagon_first
    found: List[str] = []
    cut = None
    for s, c in ((5, "5"), (6, "6")):
        p = pents + (s == 5)
        if p > 12 or 12 - p > room or not length < s <= max_size:
            continue
        if cut is None:
            try:
                cut = _cut(owners, vdeg, start, length)
            except WindingError:
                return ()
        if j + 1 == face_count - 1:
            # a leaf: the last face completes the 12 pentagons
            found.append(c + ("5" if p == 11 else "6"))
            continue
        k = s - length      # the child is the boundary ``glue`` would make
        child = chr(j) * k + cut[0]
        below = memo.get(child)
        if below is None:
            below = memo[child] = _suffixes(
                child, "3" + "2" * (k - 1) + "3" + cut[1], j + 1,
                n2 + k - 3, face_count, memo, hexagon_first)
        if below:   # most children are dead ends
            found.extend([c + t for t in below])
    return tuple(found)


def generate_fullerenes(face_count: int) -> List[CombMap]:
    """All fullerenes with the given face count, by exhaustive winding.

    Searches the size sequences with 12 pentagons depth first, pentagon
    before hexagon, so complete sequences come in lexicographic order;
    ``_suffixes`` and the module docstring give the search nodes and their
    cuts.  A complete sequence larger than its reversal is skipped (the two
    wind to reflected maps); the rest go to ``wind``, and an
    :class:`IsomerSet` keeps the first map found per isomorphism class, for
    one BFS word per repeat.  ``face_count`` must be an int (a bool
    counts as one).
    """
    if not isinstance(face_count, int):
        raise TypeError("face_count must be an int, not %s"
                        % type(face_count).__name__)
    if face_count < 12:
        return []
    out: List[CombMap] = []
    kept = IsomerSet()
    for first in (5, 6):
        root = PatchBuilder(first)
        for tail in _suffixes(root.owners, root.vdeg, 1, first, face_count,
                              {}, first == 6):
            seq = str(first) + tail
            if seq > seq[::-1]:
                continue
            m = wind(list(map(int, seq)))
            if m is not None and kept.add(m):
                out.append(m)
    return out
