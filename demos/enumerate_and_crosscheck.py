"""Enumerate small fullerenes by growth and cross-check independently.

The growth closure of the dodecahedron under the seven operations is
compared, isomer by isomer, with a face-spiral generator that knows
nothing about the operations.  The two methods agree exactly; the script
exits 1 if they do not.
"""

import sys
from collections import Counter

from fullerkit import enumerate_maps, generate_fullerenes

MAX_P6 = 5


def main() -> int:
    grown = enumerate_maps(MAX_P6)
    by_grow = Counter(m.f0 for m in grown.values())
    print("growth closure up to %d hexagons: %d isomers" % (MAX_P6, len(grown)))
    mismatches = 0
    for f0 in sorted(by_grow):
        independent = [m for m in generate_fullerenes(f0 // 2 + 2)
                       if m.face_vector().get(6, 0) <= MAX_P6]
        ok = len(independent) == by_grow[f0]
        mismatches += not ok
        print("  %2d vertices: %2d grown, %2d generated  %s"
              % (f0, by_grow[f0], len(independent), "OK" if ok else "MISMATCH"))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
