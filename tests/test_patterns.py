from collections import deque
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerkit.belts import find_k_belts
from fullerkit.growth import (load_fragment_catalog, load_rules, rules_by_id,
                              seed_family_one, seed_family_two)
from fullerkit.patterns import (B, MatchResult, PatchPattern, PatternError,
                                _all_shortest_paths, extract_patch,
                                match_pattern, path_turns,
                                shortest_thick_path)


def road(k):
    faces = {"P0": ["H1", B, B, B, B]}
    for i in range(1, k + 1):
        prev = "P0" if i == 1 else "H%d" % (i - 1)
        nxt = "P1" if i == k else "H%d" % (i + 1)
        faces["H%d" % i] = [prev, B, B, nxt, B, B]
    faces["P1"] = ["H%d" % k, B, B, B, B]
    return PatchPattern(faces)


def test_pattern_validation_rejects_asymmetry():
    with pytest.raises(PatternError):
        PatchPattern({"A": ["B2", B, B, B, B], "B2": [B, B, B, B, B]})


def test_pattern_validation_rejects_disconnected():
    with pytest.raises(PatternError):
        PatchPattern({"A": [B] * 5, "C": [B] * 5})


def test_pattern_validation_rejects_all_wildcards():
    with pytest.raises(PatternError, match="needs a face of fixed size"):
        PatchPattern({"A": ["C"], "C": ["A"]}, wildcard={"A", "C"})


def test_contact_sequence_of_road():
    pat = road(1)
    walk = pat.boundary_walk()
    assert len(walk) == sum(cyc.count(B) for cyc in pat.faces.values())
    assert sorted(pat.contact_sequence()) == [2, 2, 4, 4]


def test_cap_matches_once_per_pentagon(dodecahedron):
    cap = rules_by_id("a")[0].lhs
    assert len(match_pattern(dodecahedron, cap)) == 12
    # with self-symmetries included there are 5 rotations x 2 orientations
    assert len(match_pattern(dodecahedron, cap, all_embeddings=True)) == 120


def test_endo_kroto_lhs_on_barrel(barrel):
    assert match_pattern(barrel, road(1))


def test_screw_fragment_on_family_two():
    frag = rules_by_id("b")[0].lhs
    assert len(match_pattern(seed_family_two(1), frag)) >= 2


def test_match_darts_are_consistent(barrel):
    pat = road(1)
    for res in match_pattern(barrel, pat, all_embeddings=True):
        for name, cyc in pat.faces.items():
            assert barrel.face_size(res.faces[name]) == len(cyc)
            for slot, g in enumerate(cyc):
                d = res.dart_at(barrel, name, slot)
                assert barrel.face_of[d] == res.faces[name]
                if g != B:
                    assert barrel.face_of[barrel.twin[d]] == res.faces[g]


def test_match_completeness_against_brute_force(barrel):
    # brute force: try every injective face assignment and every per-face
    # alignment of the pattern cycles against the actual neighbour cycles
    pat = road(1)
    names = list(pat.faces)
    found = {frozenset(r.faces.values())
             for r in match_pattern(barrel, pat)}

    def nbr_cycle(f):
        out = []
        d = min(barrel.faces[f])
        for _ in range(barrel.face_size(f)):
            out.append(barrel.face_of[barrel.twin[d]])
            d = barrel.face_next(d)
        return out

    def aligns(f, cyc, amap, mirrored):
        actual = nbr_cycle(f)
        if mirrored:
            actual = actual[::-1]
        k = len(actual)
        image = set(amap.values())
        for r in range(k):
            rot = actual[r:] + actual[:r]
            ok = True
            for slot, g in enumerate(cyc):
                if g == B:
                    if rot[slot] in image:
                        ok = False
                        break
                elif rot[slot] != amap[g]:
                    ok = False
                    break
            if ok:
                return True
        return False

    brute = set()
    for combo in permutations(range(barrel.f2), len(names)):
        amap = dict(zip(names, combo))
        if any(barrel.face_size(amap[n]) != len(pat.faces[n]) for n in names):
            continue
        for mirrored in (False, True):
            if all(aligns(amap[n], pat.faces[n], amap, mirrored)
                   for n in names):
                brute.add(frozenset(amap.values()))
                break
    assert found == brute


def test_extract_patch_roundtrip(dodecahedron):
    ids = [0] + dodecahedron.face_neighbors(0)
    pat = extract_patch(dodecahedron, ids)
    assert len(match_pattern(dodecahedron, pat)) == 12


def reference_extract_patch(m, face_ids):
    """Face entry lists read by walking each face from its smallest dart."""
    idset = set(face_ids)
    faces = {}
    for f in face_ids:
        cyc = []
        for d in m.face_walk(min(m.faces[f]), m.face_size(f)):
            g = m.face_of[m.twin[d]]
            cyc.append("F%d" % g if g in idset else B)
        faces["F%d" % f] = tuple(cyc)
    return faces


def test_extract_patch_matches_min_dart_walk(polytopes, joined_maps):
    compared = 0
    for m in polytopes + joined_maps:
        for f in range(m.f2):
            ids = [f] + m.face_neighbors(f)
            try:
                pat = extract_patch(m, ids)
            except PatternError:
                continue  # the patch is no disk, e.g. the whole sphere
            assert pat.faces == reference_extract_patch(m, ids)
            compared += 1
    assert compared > 300


def test_wildcard_pattern_matching(dodecahedron):
    pat = rules_by_id("d")[0].lhs
    assert any(pat.is_wild(n) for n in pat.faces)
    sites = match_pattern(dodecahedron, pat)
    assert sites
    with pytest.raises(PatternError):
        pat.boundary_walk()


def test_thick_path_adjacent(dodecahedron):
    path = shortest_thick_path(dodecahedron, 0, dodecahedron.face_neighbors(0)[0])
    assert len(path) == 2


def test_thick_path_across_ring():
    m = seed_family_one(1)
    # pick a ring hexagon and a pentagon neighbour on each side of the ring:
    # the shortest thick path between them crosses exactly that hexagon
    hexes = [f for f in range(m.f2) if m.face_size(f) == 6]
    h = hexes[0]
    caps = [p for p in range(m.f2)
            if m.face_size(p) == 5
            and all(m.face_size(g) == 5 for g in m.face_neighbors(p))]
    assert len(caps) == 2

    def side(p, cap):
        return len(shortest_thick_path(m, p, cap))

    pents = [p for p in m.face_neighbors(h) if m.face_size(p) == 5]
    a = min(pents, key=lambda p: side(p, caps[0]))
    b = min(pents, key=lambda p: side(p, caps[1]))
    assert a != b
    path = shortest_thick_path(m, a, b)
    assert len(path) == 3
    assert m.face_size(path[1]) == 6
    assert path_turns(m, path) <= 1
    # the two cap centres are further apart: their path crosses the ring too
    assert len(shortest_thick_path(m, caps[0], caps[1])) == 5


def test_path_turns_rejects_non_adjacent_faces(dodecahedron):
    m = dodecahedron
    a = 0
    b = m.face_neighbors(a)[0]
    far = next(f for f in range(m.f2)
               if f != a and f not in m.face_neighbors(a)
               and f not in m.face_neighbors(b))
    with pytest.raises(ValueError, match="faces %d and %d " % (far, b)):
        path_turns(m, [a, b, far])
    with pytest.raises(ValueError, match="faces %d and %d " % (far, b)):
        path_turns(m, [far, b, a])


def reference_path_turns(m, path):
    """Turn count by scanning each interior face's darts; a neighbour met
    more than once counts at its last position, and an odd face is always a
    turn."""
    turns = 0
    for i in range(1, len(path) - 1):
        f = path[i]
        size = m.face_size(f)
        pos_in = pos_out = None
        for idx, d in enumerate(m.faces[f]):
            g = m.face_of[m.twin[d]]
            if g == path[i - 1]:
                pos_in = idx
            if g == path[i + 1]:
                pos_out = idx
        if size % 2 or (pos_out - pos_in) % size != size // 2:
            turns += 1
    return turns


def test_pentagon_ring_turns_at_every_face(dodecahedron):
    # the 5-belt round a pentagon of the dodecahedron passes through five
    # pentagons, and no path goes straight through an odd face
    belts = find_k_belts(dodecahedron, 5)
    assert belts
    for belt in belts:
        assert path_turns(dodecahedron, belt + belt[:2]) == 5


def test_path_turns_match_reference_on_thick_paths(small_fullerenes):
    compared = 0
    for m in small_fullerenes:
        for a in range(m.f2):
            for b in range(a + 1, m.f2):
                for path in _all_shortest_paths(m, a, b):
                    assert path_turns(m, path) == reference_path_turns(m, path)
                    compared += 1
    assert compared > 3000


def test_path_turns_match_reference_round_belts(polytopes, joined_maps):
    compared = 0
    for m in polytopes + joined_maps:
        for k in (5, 6):
            for belt in find_k_belts(m, k):
                closed = belt + belt[:2]
                assert path_turns(m, closed) == reference_path_turns(m, closed)
                compared += 1
    assert compared > 500


def test_minimal_path_properties(small_fullerenes):
    for m in small_fullerenes:
        pents = [f for f in range(m.f2) if m.face_size(f) == 5]
        a, b = pents[0], pents[-1]
        path = shortest_thick_path(m, a, b)
        assert len(set(path)) == len(path)
        for i in range(len(path) - 1):
            assert path[i + 1] in m.face_neighbors(path[i])


# -- the compiled matcher against the dart scan it replaced ------------------

def reference_match_pattern(m, pat, all_embeddings=False):
    """Every dart of the map in both orientations, each tried as slot 0 of
    the first fixed-size face; the first embedding per face set is kept."""
    first = next(n for n in pat.faces if not pat.is_wild(n))
    results = []
    seen_sites = set()
    for mirrored in (False, True):
        for d0 in range(3 * m.f0):
            res = reference_try_match(m, pat, first, d0, mirrored)
            if res is None:
                continue
            site = frozenset(res.faces.values())
            if not all_embeddings:
                if site in seen_sites:
                    continue
                seen_sites.add(site)
            results.append(res)
    return results


def reference_try_match(m, pat, first, d0, mirrored):
    """Breadth-first extension from one anchor dart through face walks."""
    if m.face_size(m.face_of[d0]) != pat.sizes[first]:
        return None
    origin = {first: d0}
    faces = {first: m.face_of[d0]}
    used = {m.face_of[d0]}
    queue = deque([first])
    done = set()
    while queue:
        name = queue.popleft()
        if name in done:
            continue
        done.add(name)
        cyc = pat.faces[name]
        walk = m.face_walk(origin[name], len(cyc), mirrored)
        for i, g in enumerate(cyc):
            if g == B:
                continue
            d = walk[i]
            t = m.twin[d]
            gf = m.face_of[t]
            if pat.is_wild(g):
                if m.face_size(gf) < len(pat.faces[g]):
                    return None
            elif m.face_size(gf) != pat.sizes[g]:
                return None
            j = pat.slot_of(g, name)
            if g in origin:
                if faces[g] != gf:
                    return None
                if m.face_walk(origin[g], j + 1, mirrored)[j] != t:
                    return None
            else:
                if gf in used:
                    return None
                origin[g] = m.face_walk(t, j + 1, not mirrored)[j]
                faces[g] = gf
                used.add(gf)
                queue.append(g)
    for name, cyc in pat.faces.items():
        walk = m.face_walk(origin[name], len(cyc), mirrored)
        for i, g in enumerate(cyc):
            if g == B and m.face_of[m.twin[walk[i]]] in used:
                return None
    return MatchResult(faces, origin, mirrored)


def as_rows(results):
    """Faces and origins in dict order, so order differences show too."""
    return [(list(r.faces.items()), list(r.origin.items()), r.mirrored)
            for r in results]


def assert_same_matches(m, pat):
    """Same results, order, representatives and origins in both modes;
    returns the number of embeddings compared."""
    compared = 0
    for every in (False, True):
        want = as_rows(reference_match_pattern(m, pat, every))
        assert as_rows(match_pattern(m, pat, every)) == want
        compared += len(want)
    return compared


@pytest.fixture(scope="module")
def fixture_maps(polytopes, joined_maps):
    """polytopes + joined_maps; polytopes holds small_fullerenes already."""
    return polytopes + joined_maps


def test_catalog_patterns_match_as_the_reference(fixture_maps):
    pats = [p for r in load_rules() for p in (r.lhs, r.rhs)]
    pats += list(load_fragment_catalog().values())
    compared = sum(assert_same_matches(m, pat)
                   for m in fixture_maps for pat in pats)
    assert compared > 1000


def test_extracted_patches_match_as_the_reference(fixture_maps):
    compared = 0
    for m in fixture_maps:
        for f in range(0, m.f2, 3):
            try:
                pat = extract_patch(m, [f] + m.face_neighbors(f))
            except PatternError:
                continue  # the patch is no disk
            compared += assert_same_matches(m, pat)
    assert compared > 1000


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_random_patches_match_as_the_reference(fixture_maps, data):
    m = data.draw(st.sampled_from(fixture_maps))
    ids = [data.draw(st.integers(0, m.f2 - 1))]
    for _ in range(data.draw(st.integers(0, 6))):
        rim = sorted({g for f in ids for g in m.face_neighbors(f)} - set(ids))
        if not rim:
            break
        ids.append(data.draw(st.sampled_from(rim)))
    try:
        pat = extract_patch(m, ids)
    except PatternError:
        return  # the patch is no disk
    # wildcard faces keep their whole cycle as the arc; one face stays fixed
    if len(pat.faces) > 1:
        wild = data.draw(st.sets(st.sampled_from(sorted(pat.faces)[1:])))
        pat = PatchPattern(pat.faces, wildcard=wild)
    hosts = [m] + data.draw(st.lists(st.sampled_from(fixture_maps),
                                     max_size=2))
    for host in hosts:
        assert_same_matches(host, pat)
