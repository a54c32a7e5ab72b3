import random
from array import array

import pytest

from fullerkit import maps
from fullerkit.belts import find_k_belts
from fullerkit.growth import (apply_rule, enumerate_maps, load_rules,
                              seed_dodecahedron, seed_family_one,
                              seed_family_two)
from fullerkit.maps import (AsymmetricAdjacency, CombMap, Disconnected,
                            IsomerSet, MapError, NonCubic, NonPlanar)
from fullerkit.patterns import match_pattern, path_turns
from fullerkit.spiral import generate_fullerenes, wind
from paper_lemmas import reference_from_face_cycles, relabel


def tetrahedron():
    return CombMap.from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def test_dodecahedron_counts(dodecahedron):
    m = dodecahedron
    assert (m.f0, m.f1, m.f2) == (20, 30, 12)
    assert repr(m) == "CombMap(f0=20, f1=30, f2=12)"
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


def test_repeated_neighbour_rejected():
    # a vertex that lists one neighbour twice would be a parallel edge
    rot = [list(r) for r in tetrahedron().rotations]
    rot[0] = [1, 1, 2]
    with pytest.raises(NonCubic):
        CombMap.from_rotations(rot)


def test_nonplanar_rejected():
    # K(3,3) is cubic and connected but not planar: no rotation system on
    # the sphere exists, so every choice fails the Euler check
    with pytest.raises(NonPlanar):
        CombMap.from_rotations([[3, 4, 5], [3, 4, 5], [3, 4, 5],
                                [0, 1, 2], [0, 1, 2], [0, 1, 2]])


def test_disconnected_rejected():
    # two disjoint tetrahedra: cubic, symmetric, each component planar
    rot = [list(r) for r in tetrahedron().rotations]
    rot += [[w + 4 for w in r] for r in rot]
    with pytest.raises(Disconnected):
        CombMap.from_rotations(rot)


def tetrahedron_with(*rows):
    """The tetrahedron's rotations with row ``v`` replaced, per (v, row)."""
    rot = [list(r) for r in tetrahedron().rotations]
    for v, row in rows:
        rot[v] = row
    return rot


@pytest.mark.parametrize("rot, error, message", [
    (tetrahedron_with((0, [1, 2])), NonCubic,
     "vertex 0 has neighbours (1, 2)"),
    (tetrahedron_with((0, [1, 2, 3, 0])), NonCubic,
     "vertex 0 has neighbours (1, 2, 3, 0)"),
    (tetrahedron_with((0, [1, 1, 2])), NonCubic,
     "vertex 0 has neighbours (1, 1, 2)"),
    (tetrahedron_with((1, [0, 1, 2])), NonCubic,
     "vertex 1 has neighbours (0, 1, 2)"),
    (tetrahedron_with((2, [0, 1, 7])), NonCubic,
     "vertex 2 lists unknown vertex 7"),
    (tetrahedron_with((2, [0, -1, 3])), NonCubic,
     "vertex 2 lists unknown vertex -1"),
    # a repeat outranks an unknown vertex in the same row
    (tetrahedron_with((0, [1, 1, 9])), NonCubic,
     "vertex 0 has neighbours (1, 1, 9)"),
    # of two faulty vertices the first is reported, whatever its fault
    (tetrahedron_with((1, [0, 9, 2]), (3, [3, 0, 1])), NonCubic,
     "vertex 1 lists unknown vertex 9"),
    (tetrahedron_with((1, [1, 3, 2]), (3, [0, 9, 2])), NonCubic,
     "vertex 1 has neighbours (1, 3, 2)"),
    # entries that are not ints are coerced before any check
    (tetrahedron_with((0, ["1", "1", 2])), NonCubic,
     "vertex 0 has neighbours (1, 1, 2)"),
    (tetrahedron_with((0, [True, True, 2])), NonCubic,
     "vertex 0 has neighbours (1, 1, 2)"),
    (tetrahedron_with((0, [1.0, 1.0, 2])), NonCubic,
     "vertex 0 has neighbours (1, 1, 2)"),
    # a faulty row is reported before a later row is coerced
    (tetrahedron_with((1, [0, 2]), (2, ["x", 1, 3])), NonCubic,
     "vertex 1 has neighbours (0, 2)"),
    ([[1, 2, 3], [2, 0, 4], [0, 1, 5], [4, 5, 0], [5, 3, 1], [3, 4, 0]],
     AsymmetricAdjacency, "vertex 2 lists 5 but not conversely"),
    (tetrahedron_with() + [[w + 4 for w in r] for r in tetrahedron_with()],
     Disconnected, "graph is not connected"),
    ([[3, 4, 5], [3, 4, 5], [3, 4, 5], [0, 1, 2], [0, 1, 2], [0, 1, 2]],
     NonPlanar, "Euler count 0 != 2"),
], ids=["short-row", "long-row", "repeated-neighbour", "self-loop",
        "unknown-vertex", "negative-vertex", "repeat-before-unknown",
        "first-of-two-unknown", "first-of-two-loop", "str-entries",
        "bool-entries", "float-entries", "fault-before-bad-entry",
        "asymmetry", "disconnection", "non-planarity"])
def test_from_rotations_names_the_first_fault(rot, error, message):
    with pytest.raises(MapError) as caught:
        CombMap.from_rotations(rot)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("entry", ["1", True, 1.0])
def test_from_rotations_coerces_entries_that_are_not_ints(entry):
    m = CombMap.from_rotations(tetrahedron_with((0, [entry, 2, 3])))
    assert m.twin == tetrahedron().twin
    assert {type(d) for d in m.twin} == {int}


def test_canonical_code_invariant_under_relabel(dodecahedron, rng):
    m = dodecahedron
    perm = list(range(m.f0))
    for _ in range(5):
        rng.shuffle(perm)
        assert relabel(m, perm).canonical_code() == m.canonical_code()


def test_canonical_code_invariant_under_mirror(small_fullerenes):
    for m in small_fullerenes:
        assert m.mirror().canonical_code() == m.canonical_code()


def test_oriented_words_swap_under_mirror(polytopes, rng):
    for m in polytopes:
        fwd, back = m.oriented_word(), m.oriented_word(True)
        assert m.canonical_code() == min(fwd, back)
        assert m.is_chiral() == (fwd != back)
        image = m.mirror()
        assert image.oriented_word() == back
        assert image.oriented_word(True) == fwd
        perm = list(range(m.f0))
        rng.shuffle(perm)
        assert relabel(m, perm).oriented_word() == fwd


def test_isomorphism_distinguishes(dodecahedron, barrel):
    assert dodecahedron.is_isomorphic(dodecahedron.mirror())
    assert not dodecahedron.is_isomorphic(barrel)


def test_tetrahedron_is_not_fullerene():
    assert not tetrahedron().is_fullerene()
    assert tetrahedron().face_vector() == {3: 4}


def reference_walk(rot, root, best=None):
    """The BFS word from dart ``root``, written apart from the package's:
    per vertex in order of discovery, the labels of its neighbours from
    the edge it was entered by, in rotation order, each vertex labelled
    when first met.  None once the word exceeds ``best``; else the word
    with its frame: per vertex its label, the vertices in order of
    discovery, and per vertex the slot of the edge it was entered by."""
    v, slot = divmod(root, 3)
    label, entry = [-1] * len(rot), [0] * len(rot)
    label[v], entry[v] = 0, slot
    order, word = [v], []
    for v in order:
        for i in range(3):
            w = rot[v][(entry[v] + i) % 3]
            if label[w] < 0:
                label[w], entry[w] = len(order), rot[w].index(v)
                order.append(w)
            if best is not None and label[w] != best[len(word)]:
                if label[w] > best[len(word)]:
                    return None
                best = None  # strictly smaller; stop comparing
            word.append(label[w])
    return bytes(word), label, order, entry


def reference_word(rot, root, best=None):
    """The word of :func:`reference_walk`, or None."""
    walk = reference_walk(rot, root, best)
    return walk and walk[0]


def all_roots_word(rot):
    """Reference: the minimal BFS word over every root dart."""
    best = None
    for root in range(3 * len(rot)):
        best = reference_word(rot, root, best) or best
    return best


def assert_matches_reference(maps):
    """canonical_code splits ``maps`` into the same classes as the all-roots
    search, and is_chiral gives the same answer on each."""
    codes, ref_codes, ref_chiral = [], [], []
    for m in maps:
        a = all_roots_word(m.rotations)
        b = all_roots_word([r[::-1] for r in m.rotations])
        codes.append(m.canonical_code())
        ref_codes.append(min(a, b))
        ref_chiral.append(a != b)
    assert len(set(zip(codes, ref_codes))) == len(set(codes)) \
        == len(set(ref_codes))
    assert [m.is_chiral() for m in maps] == ref_chiral
    assert set(ref_chiral) == {True, False}


@pytest.fixture(scope="module")
def growth_children():
    """Every child of every isomer with p6 <= 8, duplicates included."""
    rules = load_rules()
    return [apply_rule(m, rule, at) for m in enumerate_maps(8).values()
            for rule in rules for at in match_pattern(m, rule.lhs)]


def test_canonical_code_matches_reference_on_growth_children(
        growth_children):
    assert_matches_reference(growth_children)


def fresh(m):
    """A copy of ``m`` with every cache empty."""
    return CombMap(m.twin, m.face_of, m.faces)


def test_isomer_set_agrees_with_oriented_words(growth_children, polytopes):
    # each map and then its mirror image, so that a repeat by reflection
    # of a chiral map is met too
    kept, words, seen = IsomerSet(), set(), set()
    for m in growth_children + polytopes:
        for x in (m, m.mirror()):
            new = x.oriented_word() not in words
            if new:
                words.update((x.oriented_word(), x.oriented_word(True)))
            assert kept.add(fresh(x)) == new
            seen.add((new, x.is_chiral()))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_class_words_fill_the_caches_as_oriented_words_do(growth_children,
                                                           polytopes):
    # each map and its mirror image, first touched by IsomerSet.add or by
    # canonical_code
    chiral = set()
    for m in growth_children + polytopes:
        for x in (m, m.mirror()):
            by_class, by_code = fresh(x), fresh(x)
            IsomerSet().add(by_class)
            code = by_code.canonical_code()
            assert None not in by_class._words
            assert [by_code.oriented_word(), by_code.oriented_word(True)] \
                == by_class._words
            assert by_code._tied == by_class._tied
            assert code == by_class.canonical_code()
            assert by_code.is_chiral() == by_class.is_chiral()
            assert by_code.automorphisms() == by_class.automorphisms()
            darts = range(3 * m.f0)
            assert list(by_code.dart_images(darts)) \
                == list(by_class.dart_images(darts))
            chiral.add(by_code.is_chiral())
    assert chiral == {True, False}


def reference_image(m, r0, r, reverse):
    """The automorphism of ``m`` that sends dart ``r0`` to ``r``, grown
    dart by dart: it commutes with ``twin`` and takes ``next_dart`` to
    ``next_dart``, or to ``prev_dart`` if ``reverse``."""
    step = m.prev_dart if reverse else m.next_dart
    phi = {r0: r}
    stack = [r0]
    while stack:
        d = stack.pop()
        for a, b in ((m.twin[d], m.twin[phi[d]]),
                     (m.next_dart(d), step(phi[d]))):
            if a not in phi:
                phi[a] = b
                stack.append(a)
    return tuple(phi[d] for d in range(3 * m.f0))


def test_class_words_frames_and_images_match_reference(growth_children,
                                                        polytopes):
    """Each map and its mirror image: the class words, the oriented words,
    the first tied root's labels and the entry darts of the tied walks
    are those of the reference walks from the class roots, and the dart
    images are the automorphisms that send the first tied root to each
    tied root, grown from it alone."""
    seen = set()
    for m in growth_children + polytopes:
        for x in (m, m.mirror()):
            rot = x.rotations
            mrot = [r[::-1] for r in rot]
            roots = list(x._class_roots())
            # the mirror class, as darts of x: the mirror image's dart
            # 3v + j is x's dart 3v + 2 - j
            back = sorted(d + 2 - 2 * (d % 3)
                          for d in x.mirror()._class_roots())
            fwd_walks = [reference_walk(rot, r) for r in roots]
            back_walks = [reference_walk(mrot, d + 2 - 2 * (d % 3))
                          for d in back]
            y = fresh(x)
            table = maps._dart_table(y.twin)
            words = y._class_words(table, maps._bfs_word(table, roots[0]))
            assert words == [w[0] for w in fwd_walks + back_walks]
            word = min(w[0] for w in fwd_walks)
            mirror_word = min(w[0] for w in back_walks)
            assert y._words == [word, mirror_word]
            tied = [(r, w) for r, w in zip(roots, fwd_walks) if w[0] == word]
            tied_back = [(d, w) for d, w in zip(back, back_walks)
                         if w[0] == word]
            achiral = word == mirror_word
            assert bool(tied_back) == achiral
            kept = None
            if len(tied) > 1 or achiral:
                # a mirror walk's entry slot j is x's slot 2 - j
                kept = (bytes(tied[0][1][1]),
                        tuple(array("H", [3 * v + entry[v] for v in order])
                              for _, (_, _, order, entry) in tied),
                        tuple(array("H", [3 * v + 2 - entry[v]
                                          for v in order])
                              for _, (_, _, order, entry) in tied_back))
            assert y._tied == kept
            r0 = tied[0][0]
            assert list(y.dart_images(range(3 * y.f0))) == (
                [(False, reference_image(y, r0, r, False)) for r, _ in tied]
                + [(True, reference_image(y, r0, d, True))
                   for d, _ in tied_back])
            seen.add((achiral, len(tied) > 1))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_words_past_255_vertices_raise_map_error():
    m = seed_family_one(24)
    assert m.f0 == 260
    with pytest.raises(MapError):
        m.canonical_code()
    with pytest.raises(MapError):
        IsomerSet().add(m)


def test_canonical_code_matches_reference(polytopes, rng):
    """Oracle C20-C30, nanotubes and polytopes, each with a relabelled
    mirror image beside it."""
    maps = [m for fc in range(12, 18) for m in generate_fullerenes(fc)]
    maps += [seed_family_one(k) for k in range(11)]
    maps += [seed_family_two(k) for k in range(9)]
    maps += polytopes
    for m in list(maps):
        perm = list(range(m.f0))
        rng.shuffle(perm)
        maps.append(relabel(m.mirror(), perm))
    assert_matches_reference(maps)


def grown(m, min_vertices, rng):
    """Random growth steps from ``m`` until it has ``min_vertices``."""
    rules = load_rules()
    while m.f0 < min_vertices:
        sites = [(rule, at) for rule in rules
                 for at in match_pattern(m, rule.lhs)]
        m = apply_rule(m, *rng.choice(sites))
    return m


def test_canonical_code_invariant_on_large_maps(rng):
    maps = [seed_family_one(14), seed_family_two(22),
            grown(seed_dodecahedron(), 151, random.Random(7))]
    for m in maps:
        assert m.f0 > 150
        perm = list(range(m.f0))
        for _ in range(3):
            rng.shuffle(perm)
            for image in (relabel(m, perm), relabel(m.mirror(), perm)):
                assert image.canonical_code() == m.canonical_code()
                assert image.is_chiral() == m.is_chiral()


def test_automorphisms_are_the_rotation_group(polytopes, small_fullerenes,
                                              dodecahedron):
    """Each permutation is an orientation-preserving automorphism, the
    identity is among them, and there are as many as darts whose BFS word
    ties the minimum over all darts, colours ignored.  In every polytope
    the rarest colour class is a single orbit; in some isomers up to C32
    it is not, so there the tied roots are a proper part of it."""
    assert all(m in polytopes for m in small_fullerenes)
    for m in polytopes + list(enumerate_maps(6).values()):
        darts = range(3 * m.f0)
        auts = m.automorphisms()
        assert tuple(darts) in auts
        assert len(set(auts)) == len(auts)
        for phi in auts:
            assert sorted(phi) == list(darts)
            assert all(phi[m.twin[d]] == m.twin[phi[d]] and
                       phi[m.next_dart(d)] == m.next_dart(phi[d])
                       for d in darts)
        best = all_roots_word(m.rotations)
        assert len(auts) == sum(reference_word(m.rotations, d) == best
                                for d in darts)
    assert len(dodecahedron.automorphisms()) == 60


def c60():
    """C60-Ih, wound from its Fowler-Manolopoulos spiral."""
    pents = {1, 7, 9, 11, 13, 15, 18, 20, 22, 24, 26, 32}
    return wind([5 if i in pents else 6 for i in range(1, 33)])


def reversing_automorphisms(m):
    return [psi for rev, psi in m.dart_images(range(3 * m.f0)) if rev]


def test_reversing_automorphisms(polytopes, dodecahedron):
    """Each reversing permutation commutes with ``twin`` and takes
    ``next_dart`` to ``prev_dart``.  There are as many as darts whose BFS
    word in the mirror rotation ties the forward minimum over all darts:
    as many as rotations on an achiral map, none on a chiral one."""
    chiral = set()
    for m in polytopes + list(enumerate_maps(8).values()):
        darts = range(3 * m.f0)
        revs = reversing_automorphisms(m)
        assert len(set(revs)) == len(revs)
        for psi in revs:
            assert sorted(psi) == list(darts)
            assert all(psi[m.twin[d]] == m.twin[psi[d]] and
                       psi[m.next_dart(d)] == m.prev_dart(psi[d])
                       for d in darts)
        best = all_roots_word(m.rotations)
        mrot = [r[::-1] for r in m.rotations]
        assert len(revs) == sum(reference_word(mrot, d) == best
                                for d in darts)
        assert len(revs) == (0 if m.is_chiral() else len(m.automorphisms()))
        chiral.add(m.is_chiral())
    assert chiral == {True, False}
    c60_ih = c60()
    assert (dodecahedron.f0, c60_ih.f0) == (20, 60)
    for m in (dodecahedron, c60_ih):
        assert len(m.automorphisms()) == len(reversing_automorphisms(m)) == 60


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
            assert m.validate() == expected


def test_validate_report(dodecahedron):
    assert dodecahedron.validate() is True


def test_face_structure(dodecahedron):
    m = dodecahedron
    for f in range(m.f2):
        assert m.face_size(f) == 5
        assert len(m.face_neighbors(f)) == 5
    assert len(m.edge_darts()) == m.f1


def test_face_cycles_match_per_dart_derivation(polytopes, joined_maps):
    for m in polytopes + joined_maps:
        cycles = m.face_cycles()
        assert len(cycles) == m.f2
        for f, orbit in enumerate(m.faces):
            assert cycles[f] == tuple(m.face_of[m.twin[d]] for d in orbit)


def test_rows_read_off_darts_agree_with_face_cycles(polytopes, joined_maps):
    # face_neighbors and path_turns read single rows off the darts
    for m in polytopes + joined_maps:
        for f, row in enumerate(m.face_cycles()):
            assert m.face_neighbors(f) == list(dict.fromkeys(row))
            k = len(row)
            for a in row:
                for b in row:
                    if row.count(a) > 1 or row.count(b) > 1:
                        continue    # refused: see tests/test_patterns.py
                    across = (row.index(b) - row.index(a)) % k == k // 2
                    assert path_turns(m, [a, f, b]) == (k % 2 or not across)
            # a face that borders itself may border every face
            far = [g for g in range(m.f2) if g not in row]
            if far:
                with pytest.raises(ValueError,
                                   match="faces %d and %d " % (far[0], f)):
                    path_turns(m, [row[0], f, far[0]])


def test_face_neighbor_masks_match_face_cycles(polytopes, joined_maps):
    for m in polytopes + joined_maps:
        assert fresh(m).face_neighbor_masks() == tuple(
            sum(1 << g for g in set(row)) for row in m.face_cycles())


def test_face_steps_follow_the_face_orbits(polytopes, joined_maps):
    for m in polytopes + joined_maps:
        for f, orbit in enumerate(m.faces):
            assert m.face_vertices(f) == [m.tail(d) for d in orbit]
            for i, d in enumerate(orbit):
                ahead = list(orbit[i:] + orbit[:i])
                assert m.face_next(d) == ahead[1]
                assert m.face_prev(ahead[1]) == d
                assert m.face_walk(d, len(ahead)) == ahead
                assert (m.face_walk(d, len(ahead), backward=True)
                        == [d] + ahead[:0:-1])
                assert m.dart(m.tail(d), m.head(d)) == d


@pytest.mark.parametrize("bad", [1.5, "3", None])
def test_int_arguments_share_one_contract(dodecahedron, bad):
    not_int = "must be an int, not %s$" % type(bad).__name__
    for name, call in (("max_p6", enumerate_maps),
                       ("face_count", generate_fullerenes),
                       ("k", lambda k: find_k_belts(dodecahedron, k))):
        with pytest.raises(TypeError, match="^%s %s" % (name, not_int)):
            call(bad)


def test_from_face_cycles_inverts_face_cycles(polytopes, joined_maps):
    for m in polytopes:
        assert CombMap.from_face_cycles(m.face_cycles()).is_isomorphic(m)
    # off 3-connected maps two faces share two edges (or a face borders
    # itself), so the dual darts cannot be paired
    for m in joined_maps:
        with pytest.raises(MapError):
            CombMap.from_face_cycles(m.face_cycles())


def _dodecahedron_cycles_with(dodecahedron, f, i, g):
    """The dodecahedron's face cycles with entry ``i`` of face ``f`` set
    to ``g``."""
    cycles = [list(c) for c in dodecahedron.face_cycles()]
    cycles[f][i] = g
    return cycles


def test_from_face_cycles_rejects_bad_face_ids(dodecahedron):
    cycles = dodecahedron.face_cycles()
    last = len(cycles) - 1
    f = cycles[last][0]
    i = cycles[f].index(last)
    # -1 would name the last face under Python indexing, which lists f;
    # the ids past either end would raise IndexError, not MapError
    for g in (-1, -last - 2, last + 1):
        with pytest.raises(MapError, match="unknown face"):
            CombMap.from_face_cycles(
                _dodecahedron_cycles_with(dodecahedron, f, i, g))


def test_from_face_cycles_rejects_one_sided_listing(dodecahedron):
    cycles = dodecahedron.face_cycles()
    f = 0
    g = next(h for h in range(len(cycles))
             if h != f and h not in cycles[f])
    with pytest.raises(MapError, match="not conversely"):
        CombMap.from_face_cycles(
            _dodecahedron_cycles_with(dodecahedron, f, 0, g))


def test_from_face_cycles_rejects_repeated_neighbour(dodecahedron):
    cycles = dodecahedron.face_cycles()
    with pytest.raises(MapError, match="twice"):
        CombMap.from_face_cycles(
            _dodecahedron_cycles_with(dodecahedron, 0, 0, cycles[0][1]))


def test_from_face_cycles_rejects_a_vertex_of_degree_four():
    # the octahedron: its face cycles are the vertex rotations of its dual,
    # the cube, and four triangles meet at each vertex
    octahedron = [[1, 3, 4], [2, 0, 5], [3, 1, 6], [0, 2, 7],
                  [7, 5, 0], [4, 6, 1], [5, 7, 2], [6, 4, 3]]
    with pytest.raises(MapError,
                       match="^corner orbit of length 4; map is not cubic$"):
        CombMap.from_face_cycles(octahedron)


@pytest.mark.parametrize("length", [1, 2, 5])
def test_corner_orbit_refusals_name_the_orbit_length(length, dodecahedron):
    # one face bordering itself; two faces each bordering the other once;
    # the icosahedron, whose face cycles are the dodecahedron's rotations
    cycles = {1: [[0]], 2: [[1], [0]], 5: dodecahedron.rotations}[length]
    message = "^corner orbit of length %d; map is not cubic$" % length
    for build in (CombMap.from_face_cycles, reference_from_face_cycles):
        with pytest.raises(MapError, match=message):
            build(cycles)


def fields(m):
    return m.twin, m.face_of, m.faces


def wound_cycles(face_count, monkeypatch):
    """The builder cycles of every leaf that ``generate_fullerenes`` winds
    to a closed patch, copied as ``to_map`` hands them over."""
    build = CombMap.from_face_cycles.__func__
    seen = []

    def recording(cls, cycles):
        seen.append([list(c) for c in cycles])
        return build(cls, cycles)

    monkeypatch.setattr(CombMap, "from_face_cycles", classmethod(recording))
    generate_fullerenes(face_count)
    monkeypatch.undo()
    return seen


def test_from_face_cycles_matches_the_reference_corner_walk(polytopes,
                                                            monkeypatch):
    for m in polytopes:
        cycles = m.face_cycles()
        assert (fields(CombMap.from_face_cycles(cycles))
                == fields(reference_from_face_cycles(cycles)))
    leaves = [c for fc in range(12, 17) for c in wound_cycles(fc, monkeypatch)]
    assert len(leaves) == 26
    for cycles in leaves:
        assert (fields(CombMap.from_face_cycles(cycles))
                == fields(reference_from_face_cycles(cycles)))
