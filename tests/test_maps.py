import pytest

from fullerkit.maps import (AsymmetricAdjacency, CombMap, NonCubic, NonPlanar)


def tetrahedron():
    return CombMap.from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def test_dodecahedron_counts(dodecahedron):
    m = dodecahedron
    assert (m.f0, m.f1, m.f2) == (20, 30, 12)
    assert m.face_vector() == {5: 12}
    assert m.is_fullerene()


def test_euler_relation(small_fullerenes):
    for m in small_fullerenes:
        assert m.f0 - m.f1 + m.f2 == 2


def test_noncubic_rejected():
    with pytest.raises(NonCubic):
        CombMap.from_rotations([[1, 2], [0, 2], [0, 1]])


def test_asymmetric_rejected():
    # triangular prism with one rung listed from one side only
    with pytest.raises(AsymmetricAdjacency):
        CombMap.from_rotations([[1, 2, 3], [2, 0, 4], [0, 1, 5],
                                [4, 5, 0], [5, 3, 1], [3, 4, 0]])


def test_nonplanar_rejected():
    # K(3,3) is cubic and connected but not planar: no rotation system on
    # the sphere exists, so every choice fails the Euler check
    with pytest.raises(NonPlanar):
        CombMap.from_rotations([[3, 4, 5], [3, 4, 5], [3, 4, 5],
                                [0, 1, 2], [0, 1, 2], [0, 1, 2]])


def test_canonical_code_invariant_under_relabel(dodecahedron, rng):
    m = dodecahedron
    perm = list(range(m.f0))
    for _ in range(5):
        rng.shuffle(perm)
        assert m.relabel(perm).canonical_code() == m.canonical_code()


def test_canonical_code_invariant_under_mirror(small_fullerenes):
    for m in small_fullerenes:
        assert m.mirror().canonical_code() == m.canonical_code()


def test_isomorphism_distinguishes(dodecahedron, barrel):
    assert dodecahedron.is_isomorphic(dodecahedron.mirror())
    assert not dodecahedron.is_isomorphic(barrel)


def test_tetrahedron_is_not_fullerene():
    assert not tetrahedron().is_fullerene()
    assert tetrahedron().face_vector() == {3: 4}


def connected_without(m, a, b):
    start = next(v for v in range(m.f0) if v not in (a, b))
    seen = {a, b, start}
    stack = [start]
    while stack:
        for w in m.rotations[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == m.f0


def two_cut_free(m):
    """Reference: exhaustive search for a vertex pair that disconnects."""
    n = m.f0
    if n < 5:
        return n == 4
    return all(connected_without(m, a, b)
               for a in range(n) for b in range(a + 1, n))


def test_three_connected(polytopes, joined_maps):
    for maps, expected in ((polytopes, True), (joined_maps, False)):
        for m in maps:
            assert two_cut_free(m) == expected
            assert m.validate().three_connected == expected


def test_validate_report(dodecahedron):
    rep = dodecahedron.validate()
    assert rep.ok
    assert rep.face_vector == {5: 12}


def test_face_structure(dodecahedron):
    m = dodecahedron
    for f in range(m.f2):
        assert m.face_size(f) == 5
        assert len(m.face_neighbors(f)) == 5
    assert len(m.edge_darts()) == m.f1
