import random
from collections import deque
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerkit import patterns
from fullerkit.belts import find_k_belts
from fullerkit.growth import (load_rules, rules_by_id, seed_dodecahedron,
                              seed_family_one, seed_family_two)
from fullerkit.patterns import (B, MatchResult, PatchPattern, PatternError,
                                match_pattern, path_turns)
from fullerkit.surgery import TruncationSpec, truncate
from paper_lemmas import (_all_shortest_paths, extract_patch,
                          fragment_catalog, shortest_thick_path)
from test_maps import c60, grown


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


@pytest.mark.parametrize("faces,wildcard", [
    ({"A": ["A", B, B, B, B]}, None),
    ({"A": ["A", "C"], "C": ["A", B, B, B, B]}, {"A"}),
])
def test_pattern_validation_rejects_a_face_bordering_itself(faces, wildcard):
    # no fullerene face borders itself, and no match step would check it
    with pytest.raises(PatternError, match="'A' borders itself"):
        PatchPattern(faces, wildcard=wildcard)


# five faces that each border the other four, in orders that put all 20
# inside slots round one vertex (K5 on a surface with one region); a B slot
# at that vertex makes the walk from it cross 20 > 3 * 5 inside edges
K5_WITH_ONE_B = {"a": ["b", B, "c", "d", "e"], "b": ["a", "c", "d", "e"],
                 "c": ["a", "b", "d", "e"], "d": ["a", "b", "c", "e"],
                 "e": ["a", "b", "d", "c"]}


@pytest.mark.parametrize("faces,wildcard,message", [
    ({}, None, r"^empty pattern$"),
    ({"A": [B] * 5}, {"Z"}, r"^wildcard names \['Z'\] not in pattern$"),
    (K5_WITH_ONE_B, None,
     r"^more than 15 inside edges meet at one boundary vertex$"),
], ids=["empty", "unknown_wildcard", "vertex_of_20_edges"])
def test_pattern_validation_messages(faces, wildcard, message):
    with pytest.raises(PatternError, match=message):
        PatchPattern(faces, wildcard=wildcard)


def test_contact_sequence_merges_the_run_that_wraps_round():
    # the walk starts inside A's boundary run, so its last run, A again,
    # joins the first
    pat = PatchPattern({"A": [B, B, "C", B, B], "C": ["A", B, B, B, B]})
    assert [n for n, _ in pat.boundary_walk()] == list("AACCCCAA")
    assert pat.contact_sequence() == [4, 4]


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


def test_dart_at_equals_face_walk(small_fullerenes):
    # dart_at finds the origin's position in its orbit; the walk is the
    # reference
    pat = road(1)
    mirrored = set()
    for m in small_fullerenes:
        for res in match_pattern(m, pat, all_embeddings=True):
            mirrored.add(res.mirrored)
            for name, cyc in pat.faces.items():
                for slot in range(len(cyc)):
                    walk = m.face_walk(res.origin[name], slot + 1,
                                       res.mirrored)
                    assert res.dart_at(m, name, slot) == walk[-1]
    assert mirrored == {False, True}


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


def reference_try_match(m, pat, first, d0, mirrored, check_b=True):
    """Breadth-first extension from one anchor dart through face walks;
    ``check_b`` off skips the test that each B slot leads off the matched
    faces."""
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
    for name, cyc in pat.faces.items() if check_b else ():
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
    pats += list(fragment_catalog().values())
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


def test_a_b_run_that_wraps_onto_a_matched_face():
    """The pattern wraps round its host, so that the face across a B run
    is a matched face and that B check alone rejects the attempt.

    Three hexagons ring the triangle of a dodecahedron with one vertex cut
    off.  An attempt may bind F5 and the wildcards F4 and F6 to them, and
    then F3's slot 4 leads to F6's face.  That slot is a run by itself:
    it follows F3's edge to F4, and F4's slot at their common vertex lies
    outside its arc.  A program that pairs it with a B slot of F4 that
    reaches another face, such as F4's slot 1 at the far end of their
    edge, loses the check and matches these attempts.
    """
    d = seed_dodecahedron()
    cut = truncate(d, TruncationSpec(d, 0, 0)).map
    pat = PatchPattern({"F4": ("F3", B, B, "F5", B),
                        "F5": ("F4", B, B, B, "F6", B),
                        "F6": ("F5", B, B),
                        "F3": (B, B, B, "F4", B)}, wildcard=["F4", "F6"])
    wrapped = [(mirrored, d0) for mirrored in (False, True)
               for d0 in range(3 * cut.f0)
               if reference_try_match(cut, pat, pat.first, d0, mirrored,
                                      check_b=False) is not None
               and reference_try_match(cut, pat, pat.first, d0,
                                       mirrored) is None]
    assert len(wrapped) == 6
    assert assert_same_matches(cut, pat) > 0


# -- anchors and programs -----------------------------------------------------

def catalog_patterns():
    return [p for r in load_rules() for p in (r.lhs, r.rhs)]


def slot_colour(pat, name, slot, mirrored):
    """The partial colour of a pattern slot, read off its entry list:
    (size, right, back, ahead), back and ahead swapped when mirrored."""
    cyc = pat.faces[name]
    k = len(cyc)
    size = [None if g == B else pat.sizes[g] for g in cyc]
    back, ahead = size[slot - 1], size[(slot + 1) % k]
    if mirrored:
        back, ahead = ahead, back
    return (k, size[slot], back, ahead)


def test_every_anchor_gives_the_reference_matches(fixture_maps,
                                                  monkeypatch):
    # every embedding, so that the representatives follow from the order
    compared = 0
    for pat in catalog_patterns():
        anchors = [(n, s) for n, cyc in pat.faces.items()
                   if not pat.is_wild(n) for s in range(len(cyc))]
        for m in fixture_maps:
            want = as_rows(reference_match_pattern(m, pat, True))
            for name, slot in anchors:
                monkeypatch.setattr(patterns, "_anchors", lambda p, mirrored: (
                    (slot_colour(p, name, slot, mirrored), name, slot),))
                assert as_rows(match_pattern(m, pat, True)) == want
                compared += len(want)
    assert compared > 10000


def consecutive(pat, name):
    """(slot, entry before it, its entry) along a face; a wildcard's arc
    does not wrap round."""
    cyc = pat.faces[name]
    return [(s, cyc[s - 1], cyc[s])
            for s in range(1 if pat.is_wild(name) else 0, len(cyc))]


def same_face_b_runs(pat):
    """The B slots in classes that lead to one outside face: X's B slot s
    after a face Z, and Z's B slot just before X, share the vertex between
    them and its third face."""
    links = {}
    for x in pat.faces:
        for s, z, g in consecutive(pat, x):
            if g == B and z != B:
                for t, h, y in consecutive(pat, z):
                    if y == x and h == B:
                        other = (z, (t - 1) % len(pat.faces[z]))
                        links.setdefault((x, s), set()).add(other)
                        links.setdefault(other, set()).add((x, s))
    slots = [(n, i) for n, cyc in pat.faces.items()
             for i, g in enumerate(cyc) if g == B]
    classes, seen = [], set()
    for s in slots:
        if s not in seen:
            todo, cls = [s], set()
            while todo:
                t = todo.pop()
                if t not in cls:
                    cls.add(t)
                    todo.extend(links.get(t, ()))
            seen |= cls
            classes.append(cls)
    return classes


def cap_with_wildcards(count):
    """The dodecahedron's pentagon with its five neighbours, ``count`` of
    them wildcards, whose arcs do not wrap round."""
    m = seed_dodecahedron()
    pat = extract_patch(m, [0] + m.face_neighbors(0))
    return PatchPattern(pat.faces, wildcard=list(pat.faces)[1:1 + count])


def test_each_program_binds_each_face_and_checks_each_edge_once():
    # every internal edge is bound once, or checked once after every face
    # is bound
    pats = catalog_patterns() + [road(3)] + list(fragment_catalog().values())
    pats += [cap_with_wildcards(1), cap_with_wildcards(5)]
    checks = 0
    for pat in pats:
        names = list(pat.faces)
        edges = {frozenset((n, g)) for n, cyc in pat.faces.items()
                 for g in cyc if g != B}
        runs = same_face_b_runs(pat)
        for anchor in names:
            if pat.is_wild(anchor):
                continue
            for sgn, (steps, bslots) in zip((1, -1),
                                            patterns._compile(pat, anchor)):
                bound = [anchor]
                verified = set()
                for src, i, dst, j, k in steps:
                    s, d = names[src], names[dst]
                    assert pat.faces[s][sgn * i] == d
                    assert pat.faces[d][sgn * j] == s
                    assert s in bound
                    edge = frozenset((s, d))
                    if k:
                        assert d not in bound
                        assert k == (-2 if pat.is_wild(d) else 2) * len(
                            pat.faces[d])
                        bound.append(d)
                    else:
                        assert sorted(bound) == sorted(names)
                        checks += 1
                    assert edge not in verified
                    verified.add(edge)
                assert sorted(bound) == sorted(names)
                assert verified == edges
                # one B check per run of B slots along one outside face
                checked = {(names[f], sgn * i) for f, i in bslots}
                assert len(checked) == len(bslots)
                assert checked <= set().union(*runs)
                assert all(len(run & checked) == 1 for run in runs)
    assert checks > 0


def test_large_maps_match_as_the_reference():
    big = grown(seed_dodecahedron(), 151, random.Random(7))
    c60_map = c60()
    for m in (seed_family_one(14), seed_family_two(22), big, c60_map):
        compared = sum(assert_same_matches(m, pat)
                       for pat in catalog_patterns())
        assert compared > 0
    # in the regime analysed at scale most pentagon darts meet hexagons only
    for m in (big, c60_map):
        pent = {x: len(darts) for x, darts in m.colour_classes().items()
                if x[0] == 5}
        assert 2 * pent.get((5, 6, 6, 6), 0) > sum(pent.values())


def test_absent_rarest_colour_matches_nothing():
    # C60 has isolated pentagons: no dart has a pentagon on both sides
    m = c60()
    assert not any(x[:2] == (5, 5) for x in m.colour_classes())
    cap = rules_by_id("a")[0].lhs
    assert match_pattern(m, cap) == []
    assert reference_match_pattern(m, cap) == []
    assert match_pattern(m, PatchPattern({"A": [B] * 7})) == []


def test_fixed_face_with_only_free_neighbours(fixture_maps):
    # every slot of P has partial colour (5, None, None, None)
    pat = PatchPattern({"P": ["W", B, B, B, B], "W": ["P"]}, wildcard={"W"})
    assert {c for c, _, _ in patterns._anchors(pat, False)} == {
        (5, None, None, None)}
    compared = sum(assert_same_matches(m, pat) for m in fixture_maps)
    assert compared > 100


# -- the mirror pass ----------------------------------------------------------

def named_patterns():
    """Every catalog LHS and RHS, every named fragment and road(3)."""
    return catalog_patterns() + list(fragment_catalog().values()) + [road(3)]


def first_per_face_set(results):
    seen, out = set(), []
    for res in results:
        site = frozenset(res.faces.values())
        if site not in seen:
            seen.add(site)
            out.append(res)
    return out


def test_default_matches_are_the_first_embedding_per_face_set(fixture_maps):
    # the default list is the all_embeddings list reduced, whether or not
    # the mirrored pass ran
    compared = 0
    for m in fixture_maps:
        for pat in named_patterns():
            want = as_rows(first_per_face_set(
                match_pattern(m, pat, all_embeddings=True)))
            assert as_rows(match_pattern(m, pat)) == want
            compared += len(want)
    assert compared > 1000


def test_achiral_catalog_patterns():
    achiral = {(r.key, side) for r in load_rules()
               for side, pat in (("lhs", r.lhs), ("rhs", r.rhs))
               if patterns._achiral(pat)}
    assert achiral == (
        {(key, "lhs") for key in ("a", "b", "c", "e", "f3", "f4", "f5", "f6",
                                  "g1_1", "g2_2")}
        | {(key, "rhs") for key in ("a", "b", "c", "g1_1", "g2_2")})
    assert {name for name, pat in fragment_catalog().items()
            if patterns._achiral(pat)} == {
        "adjacent_pentagons_1", "adjacent_pentagons_2",
        "adjacent_pentagons_3"}
    assert patterns._achiral(road(3))


def test_a_wildcard_pattern_counts_as_chiral():
    faces = {"P": ["W", B, B, B, B], "W": ["P", B, B, B, B]}
    assert patterns._achiral(PatchPattern(faces))
    assert not patterns._achiral(PatchPattern(faces, wildcard={"W"}))
    assert not patterns._achiral(rules_by_id("d")[0].lhs)


def test_no_mirrored_program_runs_for_an_achiral_pattern(fixture_maps,
                                                         monkeypatch):
    runs = []
    kernel = patterns._embeddings

    def hook(m, pat, anchor, slot, darts, mirrored):
        runs.append((patterns._achiral(pat), mirrored))
        return kernel(m, pat, anchor, slot, darts, mirrored)

    monkeypatch.setattr(patterns, "_embeddings", hook)
    for every in (False, True):
        runs.clear()
        for m in fixture_maps:
            for pat in named_patterns():
                match_pattern(m, pat, all_embeddings=every)
        mirrored_runs = {achiral for achiral, mirrored in runs if mirrored}
        assert mirrored_runs == ({False, True} if every else {False})
