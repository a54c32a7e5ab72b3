"""Incremental assembly of cubic disk patches, face by face.

A patch is grown by gluing each new face over a contiguous run of boundary
edges.  The boundary decomposes into elementary runs delimited by boundary
vertices of degree 2; a glued face always covers exactly one elementary run
(its interior vertices already have degree 3 and become interior vertices of
the patch, while the two delimiting vertices rise to degree 3).  The final
face closes the patch when every boundary vertex has degree 3.

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
        boundary: boundary edge positions as (face, slot) pairs, in cyclic
            order around the patch.  These are exactly the open edges, so a
            face is open when it owns a boundary edge.
        vdeg: ``vdeg[i]`` is the degree of the boundary vertex between edge
            ``i - 1`` and edge ``i``.
    """

    def __init__(self, first_size: int) -> None:
        self.cycles: List[List[Optional[int]]] = [[None] * first_size]
        self.boundary: List[Tuple[int, int]] = [(0, i) for i in range(first_size)]
        self.vdeg: List[int] = [2] * first_size
        self.closed = False

    def glue(self, size: int, start: int, length: int) -> int:
        """Glue a new face of ``size`` edges over the given elementary run.

        Returns the id of the new face.

        Raises:
            WindingError: the patch is closed, or :func:`_splice` rejects the
                run.  Every check comes before any change, so a failed glue
                leaves the builder as it was.
        """
        if self.closed:
            raise WindingError("patch already closed")
        new_id = len(self.cycles)
        self.boundary, self.vdeg, covered = _splice(
            self.boundary, self.vdeg, new_id, size, start, length)
        # the new face traverses the shared edges opposite to the boundary
        # walk, so the covered owners appear reversed in its cycle
        self.cycles.append([f for f, _ in reversed(covered)]
                           + [None] * (size - length))
        for f, slot in covered:
            self.cycles[f][slot] = new_id
        return new_id

    def close(self, size: int) -> int:
        """Glue the final face over the entire remaining boundary."""
        if self.closed:
            raise WindingError("patch already closed")
        b = len(self.boundary)
        if size != b:
            raise WindingError("closing face size %d != boundary length %d"
                               % (size, b))
        if any(d != 3 for d in self.vdeg):
            raise WindingError("boundary vertex of degree 2 at closure")
        owners = [f for f, _ in self.boundary]
        if len(set(owners)) != b:
            raise WindingError("closing face would share two edges with one face")
        new_id = len(self.cycles)
        self.cycles.append(list(reversed(owners)))
        for f, slot in self.boundary:
            self.cycles[f][slot] = new_id
        self.boundary = []
        self.vdeg = []
        self.closed = True
        return new_id

    def to_map(self) -> CombMap:
        if not self.closed:
            raise WindingError("patch is not closed")
        return CombMap.from_face_cycles(self.cycles)  # may raise MapError


def _splice(boundary: List[Tuple[int, int]], vdeg: List[int], new_id: int,
            size: int, start: int, length: int
            ) -> Tuple[List[Tuple[int, int]], List[int],
                       List[Tuple[int, int]]]:
    """The boundary after face ``new_id`` of ``size`` edges is glued over
    the elementary run of ``length`` edges from position ``start``.

    Returns the new boundary, its vertex degrees and the covered edges, in
    boundary order; the arguments are left as they are.

    Raises:
        WindingError: the run is not elementary, the size does not leave at
            least one open edge, or the new face would share more than one
            edge with some existing face.
    """
    b = len(boundary)
    if not 1 <= length < b:
        raise WindingError("bad run length %d" % length)
    if size - length < 1:
        raise WindingError("face of size %d cannot cover %d edges"
                           % (size, length))
    # the boundary and its vertex degrees, rotated to begin at the run
    start %= b
    edges = boundary[start:] + boundary[:start]
    degs = vdeg[start:] + vdeg[:start]
    if degs[0] != 2 or degs[length] != 2:
        raise WindingError("run endpoints must be degree-2 vertices")
    if 2 in degs[1:length]:
        raise WindingError("run interior vertex has degree 2")
    covered = edges[:length]
    if len({f for f, _ in covered}) != length:
        raise WindingError("face would share two edges with one face")
    # the new open edges replace the run; the vertices before the first of
    # them and after the last one are now degree 3
    new_edges = [(new_id, length + j) for j in range(size - length)]
    return (new_edges + edges[length:],
            [3] + [2] * (size - length - 1) + [3] + degs[length + 1:],
            covered)
