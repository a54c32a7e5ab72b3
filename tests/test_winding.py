import pytest

from fullerkit.winding import PatchBuilder, WindingError


def test_single_face_boundary():
    pb = PatchBuilder(5)
    assert len(pb.boundary) == 5
    # every boundary vertex has degree 2, so each edge is its own run
    assert pb.runs() == [(i, 1) for i in range(5)]


def test_glue_updates_boundary():
    pb = PatchBuilder(5)
    pb.glue(5, 0, 1)
    # two pentagons sharing an edge: boundary has 8 edges
    assert len(pb.boundary) == 8
    assert pb.open_count[0] == 4
    assert pb.open_count[1] == 4


def test_glue_rejects_covering_whole_face():
    pb = PatchBuilder(5)
    with pytest.raises(WindingError):
        pb.glue(5, 0, 5)


def test_run_faces_and_elementary_runs():
    pb = PatchBuilder(5)
    pb.glue(5, 0, 1)
    runs = pb.runs()
    assert sum(length for _, length in runs) == len(pb.boundary)
    for start, length in runs:
        faces = pb.run_faces(start, length)
        assert faces  # every elementary run crosses at least one face


def test_screw_construction_closes(dodecahedron):
    # the builder can assemble a closed sphere: the k = 0 screw construction
    # reproduces the dodecahedron
    from fullerkit.growth import seed_family_two
    assert seed_family_two(0).is_isomorphic(dodecahedron)


def test_to_map_requires_closed_patch():
    pb = PatchBuilder(5)
    with pytest.raises((WindingError, Exception)):
        pb.to_map()


def test_copy_is_independent():
    pb = PatchBuilder(5)
    pb.glue(5, 0, 1)
    before = (repr(pb.cycles), pb.sizes[:], pb.open_count[:],
              pb.boundary[:], pb.vdeg[:])
    twin = pb.copy()
    twin.glue(6, *twin.runs()[0])
    twin.glue(5, *twin.runs()[0])
    after = (repr(pb.cycles), pb.sizes, pb.open_count, pb.boundary, pb.vdeg)
    assert after == before
    assert len(twin.cycles) == 4
