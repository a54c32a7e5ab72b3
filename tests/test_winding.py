import pytest

from fullerkit.spiral import _next_run
from fullerkit.winding import PatchBuilder, WindingError, _splice
from paper_lemmas import run_faces, runs, screw_family_two


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
    # the prefix search hands one boundary to both children of a node
    pb = PatchBuilder(5)
    pb.glue(5, 0, 1)
    owners, vdeg = pb.owners, pb.vdeg
    before = owners, vdeg
    new, new_vdeg = _splice(owners, vdeg, 2, 6, 1, 1)
    assert (owners, vdeg) == before
    # the five new open edges replace the covered edge 1, and the boundary
    # goes on from edge 2
    assert new == "\2" * 5 + owners[2:] + owners[:1]
    assert new_vdeg == "322223" + vdeg[3:] + vdeg[:1]
    assert len(new) == len(new_vdeg) == len(owners) + 4
    for size, run, message in [(5, (0, 1), "endpoints must be degree-2"),
                               (6, (1, 2), "interior vertex has degree 2")]:
        with pytest.raises(WindingError, match=message):
            _splice(owners, vdeg, 2, size, *run)
        assert (owners, vdeg) == before


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
