"""Incremental assembly of cubic disk patches, face by face.

A patch is grown by gluing each new face over a contiguous run of boundary
edges.  The boundary decomposes into elementary runs delimited by boundary
vertices of degree 2; a glued face always covers exactly one elementary run
(its interior vertices already have degree 3 and become interior vertices of
the patch, while the two delimiting vertices rise to degree 3).  The final
face closes the patch when every boundary vertex has degree 3.

A boundary is two immutable strings of one length b, in boundary order:
``owners`` holds ``chr(face id)`` for each open edge, and ``vdeg`` holds
``'2'`` or ``'3'`` for the boundary vertex before each edge.  On strings
the run rule and the splice are slices, ``find`` and ``in`` tests that run
in C.  ``glue`` and the oracle's search both cut a run by ``_cut``, which
slices round it whatever face covers it, rotating only a run that wraps
past position 0, so a search node's children share one cut.  ``owners``
alone is a whole boundary state in one hashable key, since it fixes
``vdeg`` (see ``spiral``).

``spiral.wind`` drives the builder, choosing each run by
``spiral._next_run``; every seed and the exhaustive face-spiral generator
are wound that way.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .maps import CombMap


class WindingError(Exception):
    """The requested gluing is not possible on the current boundary."""


class PatchBuilder:
    """Grows a disk patch of faces with given sizes.

    Attributes:
        cycles: per-face cyclic neighbour lists; ``None`` marks an open edge.
        owners: ``chr(face)`` for each open edge, in cyclic order around the
            patch.  A face is open when it owns a boundary edge.
        vdeg: ``vdeg[i]`` is ``'2'`` or ``'3'``, the degree of the boundary
            vertex between edge ``i - 1`` and edge ``i``.
        slots: ``slots[i]`` is the position of open edge ``i`` in the cycle
            of its face, read only to fill ``cycles``.
    """

    def __init__(self, first_size: int) -> None:
        self.cycles: List[List[Optional[int]]] = [[None] * first_size]
        self.owners = "\0" * first_size
        self.vdeg = "2" * first_size
        self.slots: List[int] = list(range(first_size))
        self.closed = False

    def glue(self, size: int, start: int, length: int) -> int:
        """Glue a face of ``size`` edges over an elementary run; return its id.

        Raises:
            WindingError: the patch is closed, the face is no longer than the
                run, or :func:`_cut` rejects it.  Every check comes before any
                change, so a failed glue leaves the builder as it was.
        """
        if self.closed:
            raise WindingError("patch already closed")
        owners, b = self.owners, len(self.owners)
        if size <= length and 0 < length < b:
            raise WindingError("face of size %d cannot cover %d edges"
                               % (size, length))
        rest, rest_vdeg = _cut(owners, self.vdeg, start, length)
        start %= b
        # every slot from the run's first edge, round to the edge before it
        slots = (self.slots * 2)[start:start + b]
        new_id = self._cover((owners * 2)[start:start + length], slots, size)
        k = size - length   # the run's two end vertices are now degree 3
        self.owners = chr(new_id) * k + rest
        self.vdeg = "3" + "2" * (k - 1) + "3" + rest_vdeg
        self.slots = list(range(length, size)) + slots[length:]
        return new_id

    def close(self, size: int) -> int:
        """Glue the final face over the entire remaining boundary."""
        if self.closed:
            raise WindingError("patch already closed")
        b = len(self.owners)
        if size != b:
            raise WindingError("closing face size %d != boundary length %d"
                               % (size, b))
        if "2" in self.vdeg:
            raise WindingError("boundary vertex of degree 2 at closure")
        if len(set(self.owners)) != b:
            raise WindingError("closing face would share two edges with one face")
        new_id = self._cover(self.owners, self.slots, size)
        self.owners = self.vdeg = ""
        self.slots = []
        self.closed = True
        return new_id

    def _cover(self, faces: str, slots: List[int], size: int) -> int:
        """Add a face of ``size`` edges over the open edges ``faces``, whose
        slots in their own faces are ``slots``; returns its id."""
        new_id = len(self.cycles)
        # the new face traverses the shared edges opposite to the boundary
        # walk, so the covered owners appear reversed in its cycle
        self.cycles.append([ord(f) for f in reversed(faces)]
                           + [None] * (size - len(faces)))
        for f, slot in zip(faces, slots):
            self.cycles[ord(f)][slot] = new_id
        return new_id

    def to_map(self) -> CombMap:
        if not self.closed:
            raise WindingError("patch is not closed")
        return CombMap.from_face_cycles(self.cycles)  # may raise MapError


def _cut(owners: str, vdeg: str, start: int, length: int
         ) -> Tuple[str, str]:
    """The boundary less the elementary run of ``length`` edges from
    ``start``: the owners from the run's end round to its start, and the
    degrees of the vertices between them.  Raises WindingError if the run
    is not elementary or a face over it would meet one face twice.
    """
    b = len(owners)
    if not 1 <= length < b:
        raise WindingError("bad run length %d" % length)
    start %= b
    if start + length >= b:     # the run reaches position 0: begin at it
        owners = owners[start:] + owners[:start]
        vdeg, start = vdeg[start:] + vdeg[:start], 0
    end = start + length
    if vdeg[start] != "2" or vdeg[end] != "2":
        raise WindingError("run endpoints must be degree-2 vertices")
    if vdeg.find("2", start + 1, end) >= 0:
        raise WindingError("run interior vertex has degree 2")
    if len(set(owners[start:end])) != length:
        raise WindingError("face would share two edges with one face")
    return owners[end:] + owners[:start], vdeg[end + 1:] + vdeg[:start]
