import pytest

from fullerkit.belts import (NotFullerene, NotSimpleCycle, border_loops,
                             belt_boundary_cycles, classify_five_belts,
                             enclosed_faces, find_k_belts, split_by_cycle)
from fullerkit.growth import seed_family_one
from fullerkit.maps import CombMap


def reference_k_belts(m, k):
    """Exhaustive belt search by definition: faces sharing a vertex, a
    per-vertex test for 3-belts, every pair checked, dihedral canon."""
    if k < 3:
        return []
    vshare = set()
    for v in range(m.f0):
        fs = sorted({m.face_of[3 * v + i] for i in range(3)})
        vshare.update((a, b) for a in fs for b in fs if a < b)
    eshare = set()
    for d in m.edge_darts():
        a, b = m.face_of[d], m.face_of[m.twin[d]]
        eshare.add((min(a, b), max(a, b)))
    nbrs = [[] for _ in range(m.f2)]
    for a, b in eshare:
        nbrs[a].append(b)
        nbrs[b].append(a)

    def meets(a, b):
        return (min(a, b), max(a, b)) in vshare

    def is_belt(seq):
        if len(seq) == 3:
            return all({m.face_of[3 * v + i] for i in range(3)} != set(seq)
                       for v in range(m.f0))
        n = len(seq)
        return not any(meets(seq[i], seq[j]) for i in range(n)
                       for j in range(i + 2, n) if (i, j) != (0, n - 1))

    def canon(seq):
        return min(tuple(r[i:] + r[:i]) for r in (seq, seq[::-1])
                   for i in range(len(seq)))

    found = set()

    def extend(path):
        if len(path) == k:
            if (min(path[-1], path[0]), max(path[-1], path[0])) in eshare \
                    and is_belt(path):
                found.add(canon(path))
            return
        for g in nbrs[path[-1]]:
            if g > path[0] and g not in path:
                extend(path + [g])

    for f in range(m.f2):
        extend([f])
    return [list(b) for b in sorted(found)]


def test_belts_match_reference(polytopes, joined_maps):
    seen = set()
    for m in polytopes + joined_maps:
        for k in range(3, 7):
            belts = find_k_belts(m, k)
            assert belts == reference_k_belts(m, k)
            if belts:
                seen.add(k)
    assert seen == {3, 4, 5, 6}


def test_belt_memo_equals_a_fresh_search(polytopes, joined_maps):
    for m in polytopes + joined_maps:
        for k in range(3, 7):
            first = find_k_belts(m, k)
            fresh = CombMap.from_rotations(m.rotations)
            assert find_k_belts(m, k) == first == find_k_belts(fresh, k)
            if first:
                first[0].append(-1)
                first.append([-1])
            assert find_k_belts(m, k) == find_k_belts(fresh, k)


def reference_enclosed_faces(m, belt):
    """The single-face sides of the belt, found by flooding the sphere."""
    ana = border_loops(m, belt)
    return sorted(next(iter(side)) for side in (ana.side1, ana.side2)
                  if len(side) == 1)


def test_enclosed_faces_match_border_loops(polytopes, joined_maps):
    compared = not_annulus = 0
    for m in polytopes + joined_maps:
        for k in range(3, 7):
            for belt in find_k_belts(m, k):
                got = enclosed_faces(m, belt)
                try:
                    ref = reference_enclosed_faces(m, belt)
                except NotSimpleCycle:
                    # only off 3-connected maps; the rule still answers
                    assert m in joined_maps
                    assert all(set(m.face_neighbors(g)) == set(belt)
                               for g in got)
                    not_annulus += 1
                    continue
                assert got == ref
                compared += 1
    assert compared > 1500
    assert not_annulus == 20


def test_fullerenes_have_no_small_belts(small_fullerenes):
    for m in small_fullerenes:
        assert find_k_belts(m, 3) == []
        assert find_k_belts(m, 4) == []


def test_dodecahedron_five_belts(dodecahedron):
    belts = find_k_belts(dodecahedron, 5)
    assert len(belts) == 12
    rep = classify_five_belts(dodecahedron)
    assert rep.count == 12
    assert rep.kinds == ["pentagon"] * 12


@pytest.mark.parametrize("k", range(0, 4))
def test_family_one_five_belt_census(k):
    m = seed_family_one(k)
    belts = find_k_belts(m, 5)
    assert len(belts) == 12 + k
    rep = classify_five_belts(m)
    assert rep.kinds.count("pentagon") == 12
    assert rep.kinds.count("hexagon ring") == k


def test_tetrahedron_three_belt_absent():
    # the tetrahedron's three faces around a vertex always share it, so no
    # 3-belt exists despite pairwise adjacency
    t = CombMap.from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    assert find_k_belts(t, 3) == []


def test_cube_four_belts():
    cube = CombMap.from_rotations([
        [1, 3, 4], [0, 5, 2], [1, 6, 3], [2, 7, 0],
        [0, 7, 5], [1, 4, 6], [2, 5, 7], [3, 6, 4]])
    assert find_k_belts(cube, 3) == []
    # three equatorial rings of four quadrangles
    assert len(find_k_belts(cube, 4)) == 3


def test_split_by_cycle_loop_arithmetic(dodecahedron):
    m = dodecahedron
    # take a pentagon's boundary as the cycle
    f = 0
    darts = []
    d = min(m.faces[f])
    for _ in range(m.face_size(f)):
        darts.append(d)
        d = m.face_next(d)
    split = split_by_cycle(m, darts)
    assert len(split.side1) + len(split.side2) == m.f2
    # loop-length arithmetic: each side's loop length equals the sum of
    # (contact count - 1) over the other side's loop
    for la, lb in ((split.loop1, split.loop2), (split.loop2, split.loop1)):
        if len(lb.faces) > 1:
            assert len(la.faces) == sum(c - 1 for c in lb.contacts) or \
                len(la) == 1
    assert split.loop1.simple


def test_loop_arithmetic_nondegenerate():
    # cut family_one(1) along a boundary cycle of its hexagon ring: both
    # bordering loops are nondegenerate and the length law holds exactly
    m = seed_family_one(1)
    belt = next(b for b in find_k_belts(m, 5)
                if all(m.face_size(f) == 6 for f in b))
    cycle = belt_boundary_cycles(m, belt)[0]
    split = split_by_cycle(m, cycle)
    l1, l2 = split.loop1, split.loop2
    assert len(l1.faces) > 1 and len(l2.faces) > 1
    assert len(l1.faces) == sum(c - 1 for c in l2.contacts)
    assert len(l2.faces) == sum(c - 1 for c in l1.contacts)


def test_split_rejects_bad_cycles(dodecahedron):
    with pytest.raises(NotSimpleCycle):
        split_by_cycle(dodecahedron, [0, 1])


def test_belt_region_is_annulus(dodecahedron):
    belt = find_k_belts(dodecahedron, 5)[0]
    cycles = belt_boundary_cycles(dodecahedron, belt)
    assert len(cycles) == 2
    ana = border_loops(dodecahedron, belt)
    assert ana.kind == "surrounds-facet"
    assert len(ana.side1) == 1 or len(ana.side2) == 1
    # the belt encloses a pentagon: one boundary cycle has 5 edges
    assert sorted(len(c) for c in cycles)[0] == 5


@pytest.mark.parametrize("faces,cycles", [([0], 1), (range(12), 0)])
def test_border_loops_rejects_non_annulus(dodecahedron, faces, cycles):
    with pytest.raises(NotSimpleCycle, match="%d boundary cycles" % cycles):
        border_loops(dodecahedron, list(faces))


def test_classify_five_belts_requires_fullerene():
    t = CombMap.from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    with pytest.raises(NotFullerene):
        classify_five_belts(t)
