import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerkit.spiral import _next_run
from fullerkit.winding import PatchBuilder, WindingError
from paper_lemmas import copied, run_faces, runs, screw_family_two


def test_single_face_boundary():
    pb = PatchBuilder(5)
    assert len(pb.owners) == 5
    # every boundary vertex has degree 2, so each edge is its own run
    assert runs(pb) == [(i, 1) for i in range(5)]


def test_glue_updates_boundary():
    pb = PatchBuilder(5)
    pb.glue(5, 0, 1)
    # two pentagons sharing an edge: boundary has 8 edges
    assert len(pb.owners) == 8
    assert pb.cycles[0].count(None) == 4
    assert pb.cycles[1].count(None) == 4


def test_glue_rejects_covering_whole_face():
    pb = PatchBuilder(5)
    with pytest.raises(WindingError):
        pb.glue(5, 0, 5)


def test_run_faces_and_elementary_runs():
    pb = PatchBuilder(5)
    pb.glue(5, 0, 1)
    found = runs(pb)
    assert sum(length for _, length in found) == len(pb.owners)
    for start, length in found:
        faces = run_faces(pb, start, length)
        assert faces  # every elementary run crosses at least one face


def test_screw_construction_closes(dodecahedron):
    # the builder can assemble a closed sphere: the k = 0 screw construction
    # reproduces the dodecahedron
    assert screw_family_two(0).is_isomorphic(dodecahedron)


def test_to_map_requires_closed_patch():
    pb = PatchBuilder(5)
    with pytest.raises(WindingError):
        pb.to_map()


def _state(pb):
    return repr(pb.cycles), pb.owners, pb.vdeg, pb.slots[:], pb.closed


def _three_faces_round_a_vertex():
    """A hexagon and two triangles round one vertex.  Each triangle has one
    open edge, and the two sit between the hexagon's last open edge and its
    first, so the run over those four edges meets the hexagon twice."""
    pb = PatchBuilder(6)
    pb.glue(3, 0, 1)
    pb.glue(3, *next(r for r in runs(pb) if r[1] == 2))
    return pb


@pytest.mark.parametrize("size,run,message", [
    (5, (0, 0), "bad run length"),
    (5, (0, 8), "bad run length"),
    (2, (3, 2), "cannot cover"),
    (5, (0, 1), "endpoints must be degree-2"),
    (6, (1, 2), "interior vertex has degree 2"),
])
def test_failed_glue_leaves_builder_unchanged(size, run, message):
    pb = PatchBuilder(5)
    pb.glue(5, 0, 1)
    # boundary: 8 edges; vdeg 3 at positions 0 and 4, 2 elsewhere
    assert pb.vdeg == "32223222"
    before = _state(pb)
    with pytest.raises(WindingError, match=message):
        pb.glue(size, *run)
    assert _state(pb) == before


def test_splice_leaves_its_arguments_as_they_are():
    # a glue replaces the boundary strings and the slot list rather than
    # mutating them, so a copied builder (the reference searches copy one
    # per child) shares them safely
    pb = PatchBuilder(5)
    pb.glue(5, 0, 1)
    owners, vdeg, slots = pb.owners, pb.vdeg, pb.slots
    before = owners, vdeg, slots[:]
    twin = copied(pb)
    assert twin.glue(6, 1, 1) == 2
    assert (pb.owners, pb.vdeg, pb.slots) == (owners, vdeg, slots) == before
    # the five new open edges replace the covered edge 1, and the boundary
    # goes on from edge 2
    assert twin.owners == "\2" * 5 + owners[2:] + owners[:1]
    assert twin.vdeg == "322223" + vdeg[3:] + vdeg[:1]
    assert twin.slots == [1, 2, 3, 4, 5] + slots[2:] + slots[:1]
    assert len(twin.owners) == len(twin.vdeg) == len(owners) + 4
    for size, run, message in [(5, (0, 1), "endpoints must be degree-2"),
                               (6, (1, 2), "interior vertex has degree 2")]:
        with pytest.raises(WindingError, match=message):
            copied(pb).glue(size, *run)
        assert (pb.owners, pb.vdeg, pb.slots) == before


def reference_splice(owners, vdeg, new_id, size, start, length):
    """Reference: the splice that rotates the whole boundary to begin at
    the run, with every check in its order."""
    b = len(owners)
    if not 1 <= length < b:
        raise WindingError("bad run length %d" % length)
    if size - length < 1:
        raise WindingError("face of size %d cannot cover %d edges"
                           % (size, length))
    start %= b
    edges = owners[start:] + owners[:start]
    degs = vdeg[start:] + vdeg[:start]
    if degs[0] != "2" or degs[length] != "2":
        raise WindingError("run endpoints must be degree-2 vertices")
    if "2" in degs[1:length]:
        raise WindingError("run interior vertex has degree 2")
    if len(set(edges[:length])) != length:
        raise WindingError("face would share two edges with one face")
    k = size - length
    return (chr(new_id) * k + edges[length:],
            "3" + "2" * (k - 1) + "3" + degs[length + 1:])


@st.composite
def splices(draw):
    """A random boundary and glue.  The boundary is made of elementary runs
    of 1 to 4 edges, or has random degrees; half of the glues cover one of
    its elementary runs, the rest any length 0..b.  The boundary is then
    turned by a random amount, or so that position 0 falls inside the run,
    which then wraps; starts are shifted by whole turns, so many are
    negative or past the end."""
    runs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    vdeg = "".join("2" + "3" * (n - 1) for n in runs)
    b = len(vdeg)
    owners = draw(st.text("\0\1\2\3\4\5\6\7\10\11", min_size=b,
                          max_size=b))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(runs) - 1))
        start, length = sum(runs[:i]), runs[i]
    else:
        if draw(st.booleans()):
            vdeg = draw(st.text("23", min_size=b, max_size=b))
        start = draw(st.integers(0, b - 1))
        length = draw(st.integers(0, b))
    r = draw(st.one_of(st.integers(0, b - 1),
                       st.integers(start + 1, start + max(length - 1, 1))))
    r %= b
    owners, vdeg = owners[r:] + owners[:r], vdeg[r:] + vdeg[:r]
    start += b * draw(st.integers(-2, 2)) - r
    return owners, vdeg, draw(st.integers(3, 8)), start, length


def builder(owners, vdeg):
    """A builder whose boundary is ``owners`` and ``vdeg``, for faces 0..9.
    Each face's cycle has a closed edge, marked 99, on each side of its
    open ones, and its open edges take their slots in reverse boundary
    order, so a slot read off the wrong edge shows."""
    pb = PatchBuilder(3)
    pb.cycles = [[99] + [None] * owners.count(chr(f)) + [99]
                 for f in range(10)]
    seen = [0] * 10
    pb.slots = []
    for f in map(ord, owners):
        seen[f] += 1
        pb.slots.append(owners.count(chr(f)) + 1 - seen[f])
    pb.owners, pb.vdeg = owners, vdeg
    return pb


def reference_glue(pb, size, start, length):
    """Reference: the glue on the whole boundary rotated to begin at the
    run.  Returns what the builder would hold after it."""
    new_id = len(pb.cycles)
    owners, vdeg = reference_splice(pb.owners, pb.vdeg, new_id, size,
                                    start, length)
    start %= len(pb.owners)
    edges = pb.owners[start:] + pb.owners[:start]
    slots = pb.slots[start:] + pb.slots[:start]
    cycles = [c[:] for c in pb.cycles]
    cycles.append([ord(f) for f in reversed(edges[:length])]
                  + [None] * (size - length))
    for f, slot in zip(edges[:length], slots[:length]):
        cycles[ord(f)][slot] = new_id
    return owners, vdeg, list(range(length, size)) + slots[length:], cycles


def glued(pb, size, start, length):
    before = _state(pb)
    try:
        assert pb.glue(size, start, length) == len(pb.cycles) - 1
    except WindingError as e:
        assert _state(pb) == before
        return "WindingError: %s" % e
    return pb.owners, pb.vdeg, pb.slots, pb.cycles


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(splices())
def test_splice_matches_the_rotating_reference(args):
    owners, vdeg, size, start, length = args
    try:
        want = reference_glue(builder(owners, vdeg), size, start, length)
    except WindingError as e:
        want = "WindingError: %s" % e
    assert glued(builder(owners, vdeg), size, start, length) == want


def test_failed_glue_over_one_face_twice_leaves_builder_unchanged():
    pb = _three_faces_round_a_vertex()
    start, length = next(r for r in runs(pb) if r[1] == 4)
    assert run_faces(pb, start, length) == [0, 1, 2, 0]
    before = _state(pb)
    with pytest.raises(WindingError, match="two edges with one face"):
        pb.glue(6, start, length)
    assert _state(pb) == before


def test_close_over_a_degree_two_vertex_leaves_builder_unchanged():
    pb = PatchBuilder(5)
    before = _state(pb)
    with pytest.raises(WindingError,
                       match="^boundary vertex of degree 2 at closure$"):
        pb.close(5)
    assert _state(pb) == before


def test_close_over_two_edges_of_one_face_leaves_builder_unchanged():
    # triangles glued round a hexagon leave face 0 owning two of the six
    # edges that remain, both between degree-3 vertices
    pb = PatchBuilder(6)
    for start, length in ((0, 1), (1, 2), (2, 1), (1, 2)):
        pb.glue(3, start, length)
    assert sorted(map(ord, pb.owners)) == [0, 0, 1, 2, 3, 4]
    assert pb.vdeg == "333333"
    before = _state(pb)
    with pytest.raises(WindingError, match="^closing face would share two "
                                           "edges with one face$"):
        pb.close(6)
    assert _state(pb) == before


def _closed_dodecahedron():
    pb = PatchBuilder(5)
    for _ in range(10):
        pb.glue(5, *_next_run(pb.owners, pb.vdeg, len(pb.cycles) - 1))
    pb.close(5)
    return pb


def test_glue_after_close_leaves_builder_unchanged():
    pb = _closed_dodecahedron()
    before = _state(pb)
    with pytest.raises(WindingError, match="already closed"):
        pb.glue(5, 0, 1)
    assert _state(pb) == before


def test_second_close_leaves_builder_unchanged():
    pb = _closed_dodecahedron()
    before = _state(pb)
    with pytest.raises(WindingError, match="^patch already closed$"):
        pb.close(5)
    assert _state(pb) == before
