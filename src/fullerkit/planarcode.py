"""planar_code byte stream reader/writer.

Format: the ASCII header ``>>planar_code<<`` followed by records.  Each
record is the vertex count n (one byte, n < 256) and then, for every vertex
in order, its cyclic neighbour list (1-based vertex numbers, one byte each)
terminated by a zero byte.  The neighbour lists are the map's rotation
system, so reading a written stream reproduces the map exactly.
"""

from __future__ import annotations

from typing import BinaryIO, Iterable, List, Sequence, Union

from .maps import CombMap, MapError

HEADER = b">>planar_code<<"

# byte b to vertex b - 1; the terminator byte 0 is never read as a vertex
_VERTEX = bytes(1) + bytes(range(255))


class BadHeader(Exception):
    """The stream does not start with ``>>planar_code<<``."""


class TruncatedRecord(Exception):
    """The stream ends inside a record."""


class ValidationFailure(Exception):
    """Record ``index`` (0-based) does not encode a valid cubic map."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__("record %d: %s" % (index, reason))
        self.index = index


def read_planar_code(src: Union[bytes, bytearray, memoryview, BinaryIO]
                     ) -> List[CombMap]:
    """Parse planar_code bytes (any bytes-like object), or a binary stream
    read whole, into maps.

    A record of n rows of three entries in range, as every cubic map's
    is, is sliced apart in one pass; any other record is read row by row,
    which names its first fault.
    """
    data = (bytes(src) if isinstance(src, (bytes, bytearray, memoryview))
            else src.read())
    if not data.startswith(HEADER):
        raise BadHeader("expected %r, got %r" % (HEADER, data[:len(HEADER)]))
    maps: List[CombMap] = []
    rotations: List[Sequence[int]]
    i = len(HEADER)
    while i < len(data):
        index, n = len(maps), data[i]
        if n == 0:
            raise ValidationFailure(index, "vertex count 0")
        i += 1
        rec = data[i:i + 4 * n]
        # every fourth byte a terminator, and no other byte 0 or past n
        if rec[3::4] == bytes(n) and rec.count(0) == n and max(rec) <= n:
            ids = rec.translate(_VERTEX)
            rotations = list(zip(ids[0::4], ids[1::4], ids[2::4]))
            i += 4 * n
        else:
            rotations = []
            for _ in range(n):
                j = data.find(0, i)
                nbrs = data[i:j] if j >= 0 else data[i:]
                # a neighbour out of range counts before a missing
                # terminator
                if nbrs and max(nbrs) > n:
                    raise ValidationFailure(index, "neighbour %d out of range"
                                            % next(b for b in nbrs if b > n))
                if j < 0:
                    raise TruncatedRecord("record %d ends mid-vertex" % index)
                rotations.append([b - 1 for b in nbrs])
                i = j + 1
        try:
            maps.append(CombMap.from_rotations(rotations))
        except MapError as exc:
            raise ValidationFailure(index, str(exc))
    return maps


def write_planar_code(maps: Iterable[CombMap], sort: bool = True) -> bytes:
    """Serialize maps; by default ordered by (vertex count, canonical code).

    Pass ``sort=False`` to keep the given order (e.g. for step streams).
    """
    ms = list(maps)
    # before sorting, whose canonical codes refuse such maps with another
    # message
    if any(m.f0 >= 256 for m in ms):
        raise MapError("planar_code with 1-byte entries needs n < 256")
    if sort:
        ms.sort(key=lambda m: (m.f0, m.canonical_code()))
    out = bytearray(HEADER)
    for m in ms:
        # a vertex's row is the 1-based heads of its three darts, each the
        # vertex of the dart's twin, then the zero terminator
        heads = bytes(t // 3 + 1 for t in m.twin)
        rec = bytearray(4 * m.f0)
        rec[0::4], rec[1::4], rec[2::4] = heads[0::3], heads[1::3], heads[2::3]
        out.append(m.f0)
        out += rec
    return bytes(out)
