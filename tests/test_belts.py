import random

import pytest

from fullerkit.belts import (NotFullerene, _five_belt_kind, classify_five_belts,
                             enclosed_faces, find_k_belts)
from fullerkit.growth import (apply_rule, enumerate_maps, load_rules,
                              seed_dodecahedron, seed_family_one,
                              seed_family_two)
from fullerkit.maps import CombMap
from fullerkit.patterns import match_pattern
from fullerkit.surgery import TruncationSpec, truncate
from paper_lemmas import (NotSimpleCycle, belt_boundary_cycles, belt_sides,
                          split_by_cycle)


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


def walk_k_belts(m, k):
    """Reference: the neighbour walk that ``find_k_belts`` replaced.  Each
    step tries every neighbour of the last face, the cycle is closed by
    testing that the last face touches the first, and 3-belts are told
    from vertices by a set holding the three faces of every vertex."""
    nbrs = [set(cyc) for cyc in m.face_cycles()]
    corners = ({frozenset(m.face_of[3 * v:3 * v + 3]) for v in range(m.f0)}
               if k == 3 else set())
    out = []

    def extend(path):
        last = path[-1]
        if len(path) == k:
            if (path[0] in nbrs[last] and path[1] < last
                    and frozenset(path) not in corners):
                out.append(path)
            return
        placed = path[1:-1] if len(path) + 1 == k else path[:-1]
        for g in nbrs[last]:
            if g > path[0] and g not in path and nbrs[g].isdisjoint(placed):
                extend(path + [g])

    for f in range(m.f2):
        extend([f])
    out.sort()
    return out


def truncation_chain(seed, steps=8):
    """The maps of a seeded chain of s = 0 and s = 1 cuts from the
    dodecahedron; the cuts leave triangles and quadrangles, so 3- and
    4-belts."""
    rng = random.Random(seed)
    m = seed_dodecahedron()
    out = []
    for _ in range(steps):
        m = truncate(m, TruncationSpec(m, rng.randrange(3 * m.f0),
                                       rng.choice((0, 1)))).map
        out.append(m)
    return out


def test_belts_match_the_walk_they_replace(joined_maps, joined_intermediate):
    maps = list(enumerate_maps(6).values())
    # family one at k = 24 has 132 faces: its later faces' neighbour masks
    # span three 64-bit words
    maps += [seed_family_one(k) for k in (*range(7), 24)]
    maps += [seed_family_two(k) for k in range(7)]
    for seed in (1, 2, 3):
        maps += truncation_chain(seed)
    maps += joined_maps + [joined_intermediate]
    seen = set()
    for m in maps:
        for k in range(3, 7):
            belts = find_k_belts(m, k)
            assert belts == walk_k_belts(m, k)
            if belts:
                seen.add(k)
    assert seen == {3, 4, 5, 6}


def seeded_cuts(seed, max_p6=4):
    """On each isomer with at most ``max_p6`` hexagons, one seeded dart and
    a cut there for each run length s in 0..k - 2, k the size of the cut
    face, as in the benchmark's surgery trips; the cuts leave triangles,
    quadrangles and heptagons, so 3- and 4-belts."""
    rng = random.Random(seed)
    out = []
    for m in enumerate_maps(max_p6).values():
        d = rng.choice(m.edge_darts())
        for s in range(m.face_size(m.face_of[d]) - 1):
            out.append(truncate(m, TruncationSpec(m, d, s)).map)
    return out


def test_belts_match_both_references_on_cut_maps():
    # k = 7 is the first k whose inner path between a belt's two ends
    # is three faces long
    counts = {k: 0 for k in range(3, 8)}
    for m in seeded_cuts(22):
        for k in counts:
            belts = find_k_belts(m, k)
            assert belts == reference_k_belts(m, k) == walk_k_belts(m, k)
            counts[k] += len(belts)
    assert all(counts.values()), counts


def flanked_pairs(m):
    """The pairs (s, a) with a next to s and at most two common neighbours
    where a, at every place in s's row, lies between two faces y that are
    one face, neither s nor a: the one case in which a repeated face in
    s's row makes the k = 3 shortcut need the curve argument of the
    ``belts`` docstring."""
    nbrs = m.face_neighbor_masks()
    out = []
    for s, row in enumerate(m.face_cycles()):
        for a in set(row) - {s}:
            ys = {row[(i + d) % len(row)] for i, g in enumerate(row)
                  if g == a for d in (-1, 1)}
            if (len(ys) == 1 and not ys & {s, a}
                    and (nbrs[s] & nbrs[a]).bit_count() <= 2):
                out.append((s, a))
    return out


def test_three_belts_where_one_face_flanks_another(joined_maps):
    # two dodecahedra across a 2-edge cut; face 0 borders the cut twice
    # and is truncated along both cut edges and its four edges in the
    # second dodecahedron.  The new piece, face 13, then lies in face 0's
    # row between two edges of face 2, the other face across the cut
    j = joined_maps[0]
    m = truncate(j, TruncationSpec(j, 0, 4)).map
    assert m.face_cycles()[0] == (2, 13, 2, 5, 6, 7, 1)
    assert (0, 13) in flanked_pairs(m)
    # every s = 0 cut adds a triangle, and with it 3-belts
    cuts = [truncate(m, TruncationSpec(m, d, 0)).map
            for d in range(3 * m.f0)]
    assert sum(bool(flanked_pairs(c)) for c in cuts) > 100
    found = 0
    for c in [m] + cuts:
        belts = find_k_belts(c, 3)
        assert belts == reference_k_belts(c, 3) == walk_k_belts(c, 3)
        found += len(belts)
    assert found > 100


def grown_fullerene(seed, min_n):
    """A fullerene past ``min_n`` vertices, grown from the dodecahedron one
    seeded step at a time: the first rule, in a seeded order, that matches,
    at a seeded site."""
    rng = random.Random(seed)
    rules = load_rules()
    m = seed_dodecahedron()
    while m.f0 <= min_n:
        for rule in rng.sample(rules, len(rules)):
            sites = match_pattern(m, rule.lhs)
            if sites:
                m = apply_rule(m, rule, rng.choice(sites))
                break
    return m


@pytest.mark.parametrize("seed", [1, 2])
def test_belts_match_both_references_on_large_fullerenes(seed):
    # the largest maps of the benchmark's analyze corpus are this size;
    # over 64 faces, each neighbour mask spans two 64-bit words
    m = grown_fullerene(seed, 180)
    assert m.is_fullerene() and m.f0 > 180 and m.f2 > 64
    for k in range(3, 8):
        belts = find_k_belts(m, k)
        assert belts == reference_k_belts(m, k) == walk_k_belts(m, k)
        assert bool(belts) == (k >= 5)


@pytest.mark.parametrize("k", [5.0, "5", None])
def test_find_k_belts_rejects_a_k_that_is_not_an_int(k):
    m = seed_dodecahedron()
    with pytest.raises(TypeError, match="k must be an int"):
        find_k_belts(m, k)
    assert not m._belts                     # the memo is untouched
    assert find_k_belts(m, True) == []      # a bool is an int


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
    return sorted(next(iter(side)) for side in belt_sides(m, belt)
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
        assert find_k_belts(m, 2) == []
        assert find_k_belts(m, 3) == []
        assert find_k_belts(m, 4) == []


def test_dodecahedron_five_belts(dodecahedron):
    belts = find_k_belts(dodecahedron, 5)
    assert len(belts) == 12
    rep = classify_five_belts(dodecahedron)
    assert rep.count == 12
    assert rep.kinds == ["pentagon"] * 12


@pytest.mark.parametrize("k", [0, 1, 2, 3, 24])
def test_family_one_five_belt_census(k):
    m = seed_family_one(k)
    belts = find_k_belts(m, 5)
    assert len(belts) == 12 + k
    rep = classify_five_belts(m)
    assert rep.kinds.count("pentagon") == 12
    assert rep.kinds.count("hexagon ring") == k


def test_five_belt_kind_none_on_a_cut_map():
    # a cut leaves 5-belts that neither surround a pentagon nor are a
    # hexagon ring; a fullerene has none (the five-belt-kinds check)
    m = truncation_chain(1)[0]
    belts = find_k_belts(m, 5)
    kinds = [_five_belt_kind(m, belt) for belt in belts]
    assert len(belts) == 12 and kinds.count("pentagon") == 9
    assert [b for b, kind in zip(belts, kinds) if kind is None] == [
        [0, 1, 3, 4, 5], [0, 2, 4, 11, 7], [2, 3, 10, 11, 5]]
    assert enclosed_faces(m, [0, 1, 3, 4, 5]) == []


def test_enclosed_faces_of_no_faces(dodecahedron):
    # no face has an empty neighbour mask
    assert enclosed_faces(dodecahedron, []) == []


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
    assert any(len(side) == 1 for side in belt_sides(dodecahedron, belt))
    # the belt encloses a pentagon: one boundary cycle has 5 edges
    assert sorted(len(c) for c in cycles)[0] == 5


@pytest.mark.parametrize("faces,cycles", [([0], 1), (range(12), 0)])
def test_border_loops_rejects_non_annulus(dodecahedron, faces, cycles):
    with pytest.raises(NotSimpleCycle, match="%d boundary cycles" % cycles):
        belt_sides(dodecahedron, list(faces))


def test_classify_five_belts_requires_fullerene():
    t = CombMap.from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    with pytest.raises(NotFullerene):
        classify_five_belts(t)
