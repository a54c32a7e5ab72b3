import math

import pytest

from fullerkit.growth import decompose_rule, rules_by_id, seed_family_one
from fullerkit.patterns import match_pattern
from fullerkit.surgery import truncate
from fullerkit.svg import FACE_COLORS, render_svg, tutte_layout


def test_dodecahedron_renders_all_faces(dodecahedron):
    doc = render_svg(dodecahedron)
    assert doc.startswith("<svg")
    assert doc.count("<polygon") == 12
    assert FACE_COLORS[5] in doc


def test_layout_is_planar_convex_outer(dodecahedron):
    pos = tutte_layout(dodecahedron, 0)
    assert len(pos) == dodecahedron.f0
    # outer face vertices lie on a circle, interior ones strictly inside
    outer = set(dodecahedron.face_vertices(0))
    radii = [math.hypot(x, y) for x, y in pos]
    rim = max(radii[v] for v in outer)
    for v in range(dodecahedron.f0):
        if v not in outer:
            assert radii[v] < rim - 1e-6


def test_intermediate_uses_quad_colour(dodecahedron):
    rule = rules_by_id("a")[0]
    site = match_pattern(dodecahedron, rule.lhs)[0]
    before, spec = decompose_rule(dodecahedron, rule, site)[0]
    mid = truncate(before, spec).map
    assert 4 in mid.face_vector()
    quad = next(f for f in range(mid.f2) if mid.face_size(f) == 4)
    # keep the quadrangle interior so its fill colour is visible
    outer = next(f for f in range(mid.f2) if f != quad)
    doc = render_svg(mid, outer=outer)
    assert FACE_COLORS[4] in doc


def test_highlight_outlines_faces():
    m = seed_family_one(1)
    hexes = [f for f in range(m.f2) if m.face_size(f) == 6]
    plain = render_svg(m)
    marked = render_svg(m, highlight=hexes)
    assert plain != marked
    assert 'stroke-width="3.0"' not in plain
    assert marked.count('stroke-width="3.0"') == len(hexes)


def test_render_is_deterministic(barrel):
    assert render_svg(barrel) == render_svg(barrel)


@pytest.mark.parametrize("which", ["-1", "f2", "10**6"])
def test_outer_that_is_not_a_face_is_refused(dodecahedron, which):
    m = dodecahedron
    outer = {"-1": -1, "f2": m.f2, "10**6": 10 ** 6}[which]
    for draw in (render_svg, tutte_layout):
        with pytest.raises(ValueError,
                           match="^outer face %d outside 0..11$" % outer):
            draw(m, outer)


@pytest.mark.parametrize("bad", [1.5, "0", None])
def test_outer_that_is_not_an_int_is_refused(dodecahedron, bad):
    not_int = "^outer must be an int, not %s$" % type(bad).__name__
    for draw in (render_svg, tutte_layout):
        with pytest.raises(TypeError, match=not_int):
            draw(dodecahedron, bad)


def test_every_face_can_be_the_outer_face(dodecahedron):
    m = dodecahedron
    for outer in range(m.f2):
        doc = render_svg(m, outer)
        assert doc.count("<polygon") == m.f2
        assert doc.count('fill="none"') == 1
    assert render_svg(m, True) == render_svg(m, 1)
