"""Sequential face winding and the exhaustive brute-force generator.

``wind`` realizes a face-size sequence as a cubic sphere map by gluing the
faces one at a time: each new face is attached over the elementary boundary
run that contains an open edge of the earliest still-open face, preferring a
run that also touches the face added last.  This is the classic sequential
(spiral) construction; a sequence is rejected when no legal gluing exists.

``generate_fullerenes`` enumerates the pentagon/hexagon size sequences for a
given face count by a depth-first search over sequence prefixes.  The run a
face is glued over depends only on the boundary that the faces before it
leave, so a search node is that boundary alone: its open edges and their
vertex degrees, updated by the splice that ``PatchBuilder.glue`` makes.  A
prefix that cannot be glued rules out all of its extensions at once.  Each
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
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .maps import CombMap, IsomerSet, MapError
from .winding import PatchBuilder, WindingError, _splice


def _next_run(boundary: Sequence[Tuple[int, int]], vdeg: Sequence[int],
              last: int) -> Optional[Tuple[int, int]]:
    """The elementary run the next face is glued over, or None.

    ``boundary`` and ``vdeg`` are a patch's open edges and boundary vertex
    degrees, as ``PatchBuilder`` keeps them, and ``last`` is the id of the
    face added last.  The elementary runs are the stretches of boundary
    between consecutive degree-2 vertices, taken in boundary order from the
    first degree-2 vertex in ``vdeg``; a boundary with none is one run, all
    of it from position 0.  The run must contain an open edge of the
    earliest still-open face; the first such run that also touches face
    ``last`` is preferred.
    """
    if not boundary:
        return None
    earliest = min(boundary)[0]
    b = len(boundary)
    if 2 not in vdeg:
        return 0, b
    first = vdeg.index(2)
    fallback = None
    start = first
    has_earliest = has_last = False
    for k in range(first, first + b):
        f = boundary[k % b][0]
        if f == earliest:
            has_earliest = True
        if f == last:
            has_last = True
        if vdeg[(k + 1) % b] == 2:
            # the run from ``start`` ends at the vertex after edge k
            if has_earliest:
                if has_last:
                    return start, k + 1 - start
                if fallback is None:
                    fallback = start, k + 1 - start
            start = k + 1
            has_earliest = has_last = False
    return fallback


def wind(sizes: Sequence[int]) -> Optional[CombMap]:
    """Realize a face-size sequence as a sphere map, or None if it fails.

    The returned map is fully validated (simple, planar, 3-connected); any
    winding artifact that slips through the gluing checks is rejected here.
    """
    if len(sizes) < 4:
        return None
    pb = PatchBuilder(sizes[0])
    for s in sizes[1:-1]:
        run = _next_run(pb.boundary, pb.vdeg, len(pb.cycles) - 1)
        if run is None:
            return None
        try:
            pb.glue(s, *run)
        except WindingError:
            return None
    try:
        pb.close(sizes[-1])
        m = pb.to_map()
    except (WindingError, MapError):
        return None
    if not m.validate():
        return None
    return m


def generate_fullerenes(face_count: int) -> List[CombMap]:
    """All fullerenes with the given face count, by exhaustive winding.

    Searches the size sequences with 12 pentagons depth first, pentagon
    before hexagon, so complete sequences come in lexicographic order.  A
    search node is a prefix's boundary, its vertex degrees and their number
    n2 of degree 2.  A prefix is abandoned when its next face cannot be
    glued, when its pentagons cannot make 12, or by the degree-2 and
    hexagon-first cuts of the module docstring.  A complete sequence larger
    than its reversal is skipped (the two wind to reflected maps); the rest
    go to ``wind``, and an :class:`IsomerSet` keeps the first map found per
    isomorphism class, for one BFS word per repeat.
    """
    if face_count < 12:
        return []
    out: List[CombMap] = []
    kept = IsomerSet()
    sizes: List[int] = []

    def leaf(pents: int) -> None:
        # the last face is forced: it completes the 12 pentagons
        full = sizes + [5 if pents == 11 else 6]
        if full > full[::-1]:
            return
        m = wind(full)
        if m is not None and kept.add(m):
            out.append(m)

    def extend(boundary: List[Tuple[int, int]], vdeg: List[int], n2: int,
               pents: int) -> None:
        j = len(sizes)
        if j == face_count - 1:
            leaf(pents)
            return
        run = _next_run(boundary, vdeg, j - 1)
        if run is None:
            return
        length = run[1]
        # the degree-2 budget: a face of size s leaves n2 + s - length - 3
        # degree-2 vertices, which faces j + 1 .. face_count - 2 must bring
        # down to 0 at 2 per face
        max_size = 2 * (face_count - j - 2) - n2 + length + 3
        # positions j + 1 .. face_count - 1 remain for the other pentagons,
        # less the last one after a hexagon (module docstring)
        room = face_count - 1 - j - (sizes[0] == 6)
        for s in (5, 6):
            p = pents + (s == 5)
            if p > 12 or 12 - p > room or not length < s <= max_size:
                continue
            try:
                child, child_vdeg, _ = _splice(boundary, vdeg, j, s, *run)
            except WindingError:
                continue
            sizes.append(s)
            extend(child, child_vdeg, n2 + s - length - 3, p)
            sizes.pop()

    for s in (5, 6):
        root = PatchBuilder(s)
        sizes.append(s)
        extend(root.boundary, root.vdeg, s, s == 5)
        sizes.pop()
    return out
