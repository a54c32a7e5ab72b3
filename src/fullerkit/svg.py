"""SVG rendering of cubic maps via a Tutte barycentric embedding.

The chosen outer face is pinned to a regular polygon; every other vertex is
moved to the average of its neighbours until the layout is stationary to
1e-9.  Faces are coloured by size: yellow pentagons, red hexagons, blue
quadrangles, green heptagons.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

from .maps import CombMap, _check_int

TOLERANCE = 1e-9
FACE_COLORS = {4: "#4a7fd4", 5: "#f2d749", 6: "#d4574a", 7: "#57b35b"}
DEFAULT_COLOR = "#cccccc"


def tutte_layout(m: CombMap, outer: int) -> List[Tuple[float, float]]:
    """Vertex coordinates with face ``outer`` fixed as a regular polygon.
    ``outer`` must be an int and a face of ``m`` (ValueError)."""
    _check_int(outer, "outer")
    if not 0 <= outer < m.f2:
        raise ValueError("outer face %d outside 0..%d" % (outer, m.f2 - 1))
    ring = m.face_vertices(outer)
    k = len(ring)
    pos: List[List[float]] = [[0.0, 0.0] for _ in range(m.f0)]
    pinned = set(ring)
    for i, v in enumerate(ring):
        ang = 2 * math.pi * i / k - math.pi / 2
        pos[v] = [math.cos(ang), math.sin(ang)]
    free = [v for v in range(m.f0) if v not in pinned]
    rot = m.rotations
    while True:
        worst = 0.0
        for v in free:
            nx = sum(pos[w][0] for w in rot[v]) / 3.0
            ny = sum(pos[w][1] for w in rot[v]) / 3.0
            worst = max(worst, abs(nx - pos[v][0]), abs(ny - pos[v][1]))
            pos[v][0], pos[v][1] = nx, ny
        if worst < TOLERANCE:
            return [(x, y) for x, y in pos]


def render_svg(m: CombMap, outer: int = 0,
               highlight: Optional[Iterable[int]] = None,
               size: int = 480) -> str:
    """An SVG document showing every face as a coloured polygon.

    The outer face is drawn unfilled as the boundary outline.  Faces listed
    in ``highlight`` get a thick dark outline.  ``outer`` is checked as
    in :func:`tutte_layout`.
    """
    pos = tutte_layout(m, outer)
    pad = 0.08
    scale = size / (2 * (1 + pad))
    cx = cy = size / 2.0

    def pt(v: int) -> str:
        x, y = pos[v]
        return "%.3f,%.3f" % (cx + scale * x, cy + scale * y)

    hl = set(highlight or ())
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (size, size, size, size)
    ]
    inner = [f for f in range(m.f2) if f != outer]
    for f in inner + [outer]:
        points = " ".join(pt(v) for v in m.face_vertices(f))
        if f == outer:
            fill = "none"
        else:
            fill = FACE_COLORS.get(m.face_size(f), DEFAULT_COLOR)
        stroke = ("#222222" if f in hl else "#555555")
        width = (3.0 if f in hl else 1.0)
        lines.append('<polygon points="%s" fill="%s" stroke="%s" '
                     'stroke-width="%.1f"/>' % (points, fill, stroke, width))
    lines.append("</svg>")
    return "\n".join(lines)
