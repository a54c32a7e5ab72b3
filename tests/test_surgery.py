import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerkit.belts import find_k_belts
from fullerkit.growth import seed_dodecahedron
from fullerkit.maps import CombMap, MapError
from fullerkit.surgery import (InvalidRun, IsSimplex, NotDefined,
                               SpecOutOfRange, TruncationResult,
                               TruncationSpec, can_straighten, edge_faces,
                               is_flag, straighten, truncate)
from paper_lemmas import flag_effects

MAP_FIELDS = ("rotations", "twin", "face_of", "faces")


def tetrahedron():
    return CombMap.from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def all_specs(m):
    for d in m.edge_darts():
        for e in (d, m.twin[d]):
            k = m.face_size(m.face_of[e])
            for s in range(0, k - 1):
                yield TruncationSpec(m, e, s)


def reference_truncate(m, spec):
    """The cut rebuilt from scratch: rotations copied and patched, then
    every check and every face orbit redone by ``from_rotations``."""
    if m.face_of[spec.start_dart] != spec.face:
        raise InvalidRun("start dart not on the stated face")
    n = m.f0
    d0 = spec.run[0]
    d1 = spec.run[-1]
    u0, v0 = m.tail(d0), m.head(d0)
    u1, v1 = m.tail(d1), m.head(d1)
    m0, m1 = n, n + 1
    rot = [list(r) for r in m.rotations]
    rot[u0][rot[u0].index(v0)] = m0
    rot[v0][rot[v0].index(u0)] = m0
    rot[u1][rot[u1].index(v1)] = m1
    rot[v1][rot[v1].index(u1)] = m1
    rot.append([u0, v0, m1])
    rot.append([u1, v1, m0])
    out = CombMap.from_rotations(rot)
    e = out.dart(m0, m1)
    fa, fb = out.face_of[e], out.face_of[out.twin[e]]
    if (out.face_size(fa) == spec.s + 3
            and out.face_size(fb) == spec.k - spec.s + 1):
        small, big = fa, fb
    elif (out.face_size(fb) == spec.s + 3
            and out.face_size(fa) == spec.k - spec.s + 1):
        small, big = fb, fa
        e = out.twin[e]
    else:
        raise MapError("truncation produced unexpected face sizes")
    return TruncationResult(out, e, small, big, m, spec.face)


def assert_same_map(a, b):
    for name in MAP_FIELDS:
        assert getattr(a, name) == getattr(b, name), name


def test_truncate_matches_rebuilt_reference(polytopes, joined_maps):
    # polytopes include small_fullerenes; every dart and every s is cut
    cuts = refused = 0
    for m in polytopes + joined_maps:
        for d in range(3 * m.f0):
            for s in range(m.face_size(m.face_of[d]) - 1):
                spec = TruncationSpec(m, d, s)
                try:
                    ref = reference_truncate(m, spec)
                except (ValueError, MapError) as exc:
                    # the rebuild fails on a run whose two end edges are
                    # one edge (ValueError from .index), or on a face that
                    # borders itself (face sizes)
                    want = MapError if isinstance(exc, MapError) else InvalidRun
                    with pytest.raises(want):
                        truncate(m, spec)
                    refused += 1
                    continue
                res = truncate(m, spec)
                assert_same_map(res.map, ref.map)
                assert_same_map(res.map,
                                CombMap.from_rotations(res.map.rotations))
                assert ((res.new_edge, res.small_face, res.big_face)
                        == (ref.new_edge, ref.small_face, ref.big_face))
                assert res.face_map == ref.face_map
                cuts += 1
    assert cuts > 12000
    assert refused > 0


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_truncation_chain_equals_rebuild(data):
    # each patched map is the input of the next cut, so drift between
    # patched maps would show as a mismatch further down the chain
    m = seed_dodecahedron()
    for _ in range(data.draw(st.integers(1, 8))):
        d = data.draw(st.integers(0, 3 * m.f0 - 1))
        s = data.draw(st.integers(0, m.face_size(m.face_of[d]) - 2))
        m = truncate(m, TruncationSpec(m, d, s)).map
        assert_same_map(m, CombMap.from_rotations(m.rotations))


def test_truncate_rejects_spec_of_another_map(dodecahedron, barrel):
    kept = 0
    for spec in all_specs(dodecahedron):
        try:
            res = truncate(barrel, spec)
        except InvalidRun:
            continue
        # accepted only where the spec is, field for field, the barrel's own
        own = TruncationSpec(barrel, spec.start_dart, spec.s)
        assert (own.face, own.run, own.signature) == (spec.face, spec.run,
                                                      spec.signature)
        assert_same_map(res.map, truncate(barrel, own).map)
        kept += 1
    assert kept < 240


def test_truncate_rejects_altered_spec(dodecahedron):
    spec = TruncationSpec(dodecahedron, 0, 1)
    spec.run = spec.run[1:] + spec.run[:1]
    with pytest.raises(InvalidRun):
        truncate(dodecahedron, spec)
    spec = TruncationSpec(dodecahedron, 0, 1)
    spec.s = 3
    with pytest.raises(InvalidRun):
        truncate(dodecahedron, spec)
    # a run of six edges, one past what a pentagon holds
    spec.s = 4
    with pytest.raises(InvalidRun, match="spec is not a run of this map"):
        truncate(dodecahedron, spec)


@pytest.mark.parametrize("which", ["-1", "-3n", "3n", "10**6"])
def test_darts_outside_the_map_are_refused(dodecahedron, which):
    m = dodecahedron
    d = {"-1": -1, "-3n": -3 * m.f0, "3n": 3 * m.f0, "10**6": 10 ** 6}[which]
    bound = "dart %d outside 0..%d" % (d, 3 * m.f0 - 1)
    with pytest.raises(InvalidRun, match=bound):
        TruncationSpec(m, d, 1)
    with pytest.raises(NotDefined, match=bound):
        can_straighten(m, d)
    with pytest.raises(NotDefined, match=bound):
        straighten(m, d)


@pytest.mark.parametrize("bad", [1.5, 2.0, "3", None])
def test_darts_and_run_lengths_that_are_not_ints_are_refused(dodecahedron,
                                                             bad):
    m = dodecahedron
    not_int = "must be an int, not %s$" % type(bad).__name__
    with pytest.raises(TypeError, match="^start_dart " + not_int):
        TruncationSpec(m, bad, 1)
    with pytest.raises(TypeError, match="^s " + not_int):
        TruncationSpec(m, 0, bad)
    for name in ("start_dart", "s"):
        spec = TruncationSpec(m, 0, 1)
        setattr(spec, name, bad)
        with pytest.raises(TypeError, match="^%s %s" % (name, not_int)):
            truncate(m, spec)
    # before any work: the simplex refuses every dart, but not first
    for target in (m, tetrahedron()):
        with pytest.raises(TypeError, match="^dart " + not_int):
            can_straighten(target, bad)
        with pytest.raises(TypeError, match="^dart " + not_int):
            straighten(target, bad)


def test_a_bool_dart_or_run_length_is_an_int(dodecahedron):
    m = dodecahedron
    assert (TruncationSpec(m, True, False).signature
            == TruncationSpec(m, 1, 0).signature)
    assert can_straighten(m, True) == can_straighten(m, 1)
    assert straighten(m, True).map.twin == straighten(m, 1).map.twin


def reference_face_map(src, res):
    """Old face -> new faces whose vertex set contains its vertex set: old
    vertex ids survive a truncation."""
    new_sets = [set(res.map.face_vertices(g)) for g in range(res.map.f2)]
    fm = {}
    for f in range(src.f2):
        old = set(src.face_vertices(f))
        fm[f] = tuple(g for g, s in enumerate(new_sets) if old <= s)
    return fm


def reference_merged_faces(m, dart, res):
    """New faces holding every surviving vertex of the edge's two faces."""
    x, y = m.tail(dart), m.head(dart)
    want = {res.vertex_map[v] for f in edge_faces(m, dart)
            for v in m.face_vertices(f) if v not in (x, y)}
    return [g for g in range(res.map.f2)
            if want <= set(res.map.face_vertices(g))]


def test_one_five_truncation_example(dodecahedron):
    spec = TruncationSpec(m := dodecahedron, 0, 1)
    assert repr(spec) == "TruncationSpec(s=1, k=5; t0=5, t1=5)"
    res = truncate(m, spec)
    assert res.map.face_vector() == {4: 1, 5: 10, 6: 2}
    assert res.map.f0 == 22
    assert res.map.f0 - res.map.f1 + res.map.f2 == 2


def test_face_and_vertex_deltas(small_fullerenes, rng):
    for m in small_fullerenes:
        d = rng.choice(m.edge_darts())
        k = m.face_size(m.face_of[d])
        s = rng.randrange(0, k - 1)
        res = truncate(m, TruncationSpec(m, d, s))
        assert res.map.f0 == m.f0 + 2
        assert res.map.f1 == m.f1 + 3
        assert res.map.f2 == m.f2 + 1
        assert res.map.face_size(res.small_face) == s + 3
        assert res.map.face_size(res.big_face) == k - s + 1


def test_spec_out_of_range(dodecahedron):
    with pytest.raises(SpecOutOfRange):
        TruncationSpec(dodecahedron, 0, 4)


def test_roundtrip_truncate_then_straighten(small_fullerenes):
    for m in small_fullerenes:
        for spec in list(all_specs(m))[::7]:
            res = truncate(m, spec)
            if not can_straighten(res.map, res.new_edge):
                continue
            back = straighten(res.map, res.new_edge)
            assert back.map.is_isomorphic(m)
            assert back.merged_face in range(back.map.f2)


def test_flag_polarity_of_truncation(dodecahedron, barrel):
    # on flag input the output is flag exactly when 0 < s < k-2
    for m in (dodecahedron, barrel):
        assert is_flag(m)
        for spec in all_specs(m):
            out = truncate(m, spec).map
            assert is_flag(out) == (0 < spec.s < spec.k - 2)


def test_complementary_run_equivalence(dodecahedron, barrel):
    for m in (dodecahedron, barrel):
        for d in m.edge_darts()[::5]:
            k = m.face_size(m.face_of[d])
            for s in range(1, k - 2):
                spec = TruncationSpec(m, d, s)
                a = truncate(m, spec).map
                # the complementary run shares the two subdivided end edges:
                # it starts at this run's last edge and goes the other way
                # around the face back to its first edge
                b = truncate(m, TruncationSpec(m, spec.run[-1],
                                               k - s - 2)).map
                assert a.is_isomorphic(b)


def test_truncate_along_edge_signature(dodecahedron):
    m = dodecahedron
    res = truncate(m, TruncationSpec(m, m.face_prev(0), 1))
    assert res.map.face_vector() == {4: 1, 5: 10, 6: 2}


def test_face_correspondence(dodecahedron):
    m = dodecahedron
    spec = TruncationSpec(m, 0, 1)
    res = truncate(m, spec)
    fm = res.face_map
    assert fm[spec.face] == (res.small_face, res.big_face)
    for f in range(m.f2):
        if f == spec.face:
            continue
        (g,) = fm[f]
        old = set(m.face_vertices(f))
        assert old <= set(res.map.face_vertices(g))


def test_face_map_matches_vertex_set_reference(polytopes):
    # polytopes include small_fullerenes; every dart and every s is cut
    count = 0
    for m in polytopes:
        for d in range(3 * m.f0):
            k = m.face_size(m.face_of[d])
            for s in range(k - 1):
                spec = TruncationSpec(m, d, s)
                res = truncate(m, spec)
                ref = reference_face_map(m, res)
                fm = res.face_map
                assert fm[spec.face] == (res.small_face, res.big_face)
                for f in range(m.f2):
                    if f != spec.face:
                        assert fm[f] == ref[f]
                        count += 1
    assert count > 200000


def test_map_dart_keeps_slots(dodecahedron):
    res = straighten(dodecahedron, 0)
    x, y = dodecahedron.tail(0), dodecahedron.head(0)
    for d in range(3 * dodecahedron.f0):
        v = d // 3
        if v in (x, y):
            assert res.map_dart(d) is None
        else:
            assert res.map_dart(d) == 3 * res.vertex_map[v] + d % 3


def test_merged_face_matches_scan_reference(polytopes):
    count = 0
    for m in polytopes:
        if m.f0 == 4:
            continue
        for d in range(3 * m.f0):
            if not can_straighten(m, d):
                continue
            res = straighten(m, d)
            assert reference_merged_faces(m, d, res) == [res.merged_face]
            count += 1
    assert count > 2000


def test_can_straighten_iff_straighten_returns(polytopes, joined_maps):
    # across the bridge of joined_maps[1] the merge would make a parallel
    # edge; can_straighten must say so rather than straighten failing
    answers = set()
    for m in polytopes + joined_maps:
        if m.f0 == 4:
            continue
        for d in range(3 * m.f0):
            try:
                straighten(m, d)
                returned = True
            except (NotDefined, MapError):
                returned = False
            assert can_straighten(m, d) == returned
            answers.add(returned)
    assert answers == {True, False}


def test_straighten_fullerene_edges_always_defined(small_fullerenes):
    for m in small_fullerenes:
        for d in m.edge_darts()[::4]:
            assert can_straighten(m, d)


def test_straighten_not_defined_after_zero_cut(dodecahedron):
    # an s = 0 truncation creates a 3-belt through the triangle; the edges
    # of the triangle cannot all be straightened
    res = truncate(dodecahedron, TruncationSpec(dodecahedron, 0, 0))
    assert not is_flag(res.map)
    blocked = [d for d in res.map.edge_darts()
               if not can_straighten(res.map, d)]
    assert blocked


def three_belt_free(m, belts3, dart):
    f1, f2 = edge_faces(m, dart)
    return not any(f1 in belt and f2 in belt for belt in belts3)


def test_can_straighten_iff_no_three_belt(polytopes):
    answers = set()
    for m in polytopes:
        if m.f0 == 4:
            continue
        belts3 = find_k_belts(m, 3)
        for d in m.edge_darts():
            ok = can_straighten(m, d)
            assert ok == three_belt_free(m, belts3, d)
            answers.add(ok)
    assert answers == {True, False}


def test_can_straighten_off_three_connected(joined_maps):
    # the two faces of a 2-edge cut edge share neighbours, yet no 3-belt
    # holds both: the neighbour-set answer (not defined) is returned
    m = joined_maps[0]
    belts3 = find_k_belts(m, 3)
    differ = [d for d in m.edge_darts()
              if can_straighten(m, d) != three_belt_free(m, belts3, d)]
    assert len(differ) == 2
    assert not any(can_straighten(m, d) for d in differ)


def test_tetrahedron_has_no_straightening():
    t = tetrahedron()
    assert not can_straighten(t, 0)
    with pytest.raises(IsSimplex):
        straighten(t, 0)


def test_flag_effects_on_fullerene(dodecahedron):
    rep = flag_effects(dodecahedron, 0)
    assert rep.input_flag
    assert rep.output_flag
    assert rep.four_belts_through_pair == []


def test_not_defined_raises(dodecahedron):
    res = truncate(dodecahedron, TruncationSpec(dodecahedron, 0, 0))
    blocked = [d for d in res.map.edge_darts()
               if not can_straighten(res.map, d)]
    with pytest.raises(NotDefined):
        straighten(res.map, blocked[0])


def test_edge_faces(dodecahedron):
    f1, f2 = edge_faces(dodecahedron, 0)
    assert f1 != f2
