"""Sequential face winding and the exhaustive brute-force generator.

``wind`` realizes a face-size sequence as a cubic sphere map by gluing the
faces one at a time: each new face is attached over the elementary boundary
run that contains an open edge of the earliest still-open face, preferring a
run that also touches the face added last.  This is the classic sequential
(spiral) construction; a sequence is rejected when no legal gluing exists.

``generate_fullerenes`` enumerates all pentagon/hexagon size sequences for a
given face count, winds each, validates the survivors as fullerenes, and
deduplicates by canonical code.  It is deliberately independent of the
pattern-replacement machinery so that it can serve as a cross-check for the
growth enumeration.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence

from .maps import CombMap, MapError
from .winding import PatchBuilder, WindingError


def wind(sizes: Sequence[int]) -> Optional[CombMap]:
    """Realize a face-size sequence as a sphere map, or None if it fails.

    The returned map is fully validated (simple, planar, 3-connected); any
    winding artifact that slips through the gluing checks is rejected here.
    """
    if len(sizes) < 4:
        return None
    pb = PatchBuilder(sizes[0])
    last = 0
    for j in range(1, len(sizes) - 1):
        s = sizes[j]
        earliest = None
        for f in range(len(pb.open_count)):
            if pb.open_count[f] > 0:
                earliest = f
                break
        if earliest is None:
            return None
        chosen = None
        fallback = None
        for start, length in pb.runs():
            faces = pb.run_faces(start, length)
            if earliest in faces:
                if fallback is None:
                    fallback = (start, length)
                if last in faces:
                    chosen = (start, length)
                    break
        if chosen is None:
            chosen = fallback
        if chosen is None:
            return None
        start, length = chosen
        if length >= s:
            return None
        try:
            last = pb.glue(s, start, length)
        except WindingError:
            return None
    try:
        pb.close(sizes[-1])
        m = pb.to_map()
    except (WindingError, MapError):
        return None
    if not m.validate().ok:
        return None
    return m


def generate_fullerenes(face_count: int) -> List[CombMap]:
    """All fullerenes with the given face count, by exhaustive winding.

    Tries every placement of the 12 pentagons within the sequence, pruning
    mirror-redundant sequences (a sequence and its reversal wind to reflected
    maps).  Returns one representative per canonical code.
    """
    if face_count < 12:
        return []
    hexes = face_count - 12
    out: Dict[bytes, CombMap] = {}
    for pent_pos in combinations(range(face_count), 12):
        sizes = [6] * face_count
        for i in pent_pos:
            sizes[i] = 5
        if sizes > sizes[::-1]:
            continue
        m = wind(sizes)
        if m is None:
            continue
        pk = m.face_vector()
        if pk.get(5, 0) != 12 or pk.get(6, 0) != hexes:
            continue
        code = m.canonical_code()
        if code not in out:
            out[code] = m
    return list(out.values())
