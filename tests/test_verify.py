import pytest

from fullerkit.belts import NotFullerene, find_k_belts
from fullerkit.growth import (decompose_rule, rules_by_id, seed_family_one,
                              seed_family_two)
from fullerkit.maps import CombMap
from fullerkit.patterns import match_pattern, path_turns
from fullerkit.spiral import generate_fullerenes
from fullerkit.surgery import TruncationSpec, truncate
from fullerkit.verify import verify_fullerene, verify_intermediate
from paper_lemmas import classify_nanotube


def test_fullerenes_pass(small_fullerenes):
    for m in small_fullerenes:
        rep = verify_fullerene(m)
        assert rep.passed, rep.failures()
        assert repr(rep) == (
            "TheoremReport(CheckResult(face-sizes, pass), "
            "CheckResult(twelve-pentagons, pass), "
            "CheckResult(no-3-belts, pass), CheckResult(no-4-belts, pass), "
            "CheckResult(five-belt-kinds, pass))")


def reference_opposite_contacts(m, belt):
    """Each belt face is an even-gon meeting its two belt neighbours along
    opposite edges, found by scanning its darts."""
    n = len(belt)
    for i, f in enumerate(belt):
        size = m.face_size(f)
        if size % 2:
            return False
        prev_f = belt[(i - 1) % n]
        next_f = belt[(i + 1) % n]
        pos = {}
        for idx, d in enumerate(m.faces[f]):
            g = m.face_of[m.twin[d]]
            if g == prev_f:
                pos["prev"] = idx
            elif g == next_f:
                pos["next"] = idx
        if len(pos) != 2:
            return False
        if (pos["next"] - pos["prev"]) % size != size // 2:
            return False
    return True


def test_straight_belts_match_opposite_contacts(polytopes, joined_maps):
    straight = compared = 0
    for m in polytopes + joined_maps:
        for k in (5, 6):
            for belt in find_k_belts(m, k):
                even = all(m.face_size(f) % 2 == 0 for f in belt)
                got = even and path_turns(m, belt + belt[:2]) == 0
                assert got == reference_opposite_contacts(m, belt)
                straight += got
                compared += 1
    assert compared > 500
    assert straight > 10


def test_cube_fails_with_witnesses():
    cube = CombMap.from_rotations([
        [1, 3, 4], [0, 5, 2], [1, 6, 3], [2, 7, 0],
        [0, 7, 5], [1, 4, 6], [2, 5, 7], [3, 6, 4]])
    rep = verify_fullerene(cube)
    assert not rep.passed
    names = {c.name for c in rep.failures()}
    assert "face-sizes" in names
    assert rep["face-sizes"].witness == [4]
    assert not rep["no-4-belts"].passed
    assert rep["no-4-belts"].witness  # a concrete offending belt


def test_zero_cut_breaks_flag_check(dodecahedron):
    # an s = 0 truncation makes a triangle, hence a 3-belt around it
    out = truncate(dodecahedron, TruncationSpec(dodecahedron, 0, 0)).map
    rep = verify_fullerene(out)
    assert not rep["no-3-belts"].passed
    assert not rep["face-sizes"].passed
    # each failure prints its witness: the stray face size, the pentagon
    # count and the first 3-belt
    assert repr(rep) == (
        "TheoremReport(CheckResult(face-sizes, FAIL witness=[3]), "
        "CheckResult(twelve-pentagons, FAIL witness=9), "
        "CheckResult(no-3-belts, FAIL witness=[0, 2, 5]), "
        "CheckResult(no-4-belts, pass))")


def test_intermediates_along_script_pass(dodecahedron):
    rule = rules_by_id("a")[0]
    site = match_pattern(dodecahedron, rule.lhs)[0]
    for before, spec in decompose_rule(dodecahedron, rule, site):
        mid = truncate(before, spec).map
        if mid.is_fullerene():
            continue
        rep = verify_intermediate(mid)
        assert rep.passed, rep.failures()


def test_intermediate_rejects_two_exceptional(dodecahedron):
    one = truncate(dodecahedron, TruncationSpec(dodecahedron, 0, 1)).map
    d = next(d for d in one.edge_darts()
             if one.face_size(one.face_of[d]) == 6)
    two = truncate(one, TruncationSpec(one, d, 1)).map
    rep = verify_intermediate(two)
    assert not rep["one-exceptional"].passed


def test_intermediate_across_two_edge_cut_reports(joined_intermediate):
    # the 4-belt round the quadrangle is no annulus here (three boundary
    # cycles); the check reads enclosure off neighbour sets and answers
    rep = verify_intermediate(joined_intermediate)
    assert not rep["face-sizes"].passed
    assert rep["face-sizes"].witness == [10, 11]
    assert rep["one-4-belt-surrounds-quad"].passed


def test_report_lookup_raises_on_unknown(dodecahedron):
    rep = verify_fullerene(dodecahedron)
    with pytest.raises(KeyError):
        rep["no-such-check"]


def test_classify_dodecahedron_is_both(dodecahedron):
    rep = classify_nanotube(dodecahedron)
    assert rep.kind == "both"
    assert rep.family_one_k == 0
    assert rep.family_two_k == 0


@pytest.mark.parametrize("k", range(1, 4))
def test_classify_families(k):
    one = classify_nanotube(seed_family_one(k))
    assert one.kind == "family_one" and one.family_one_k == k
    two = classify_nanotube(seed_family_two(k))
    assert two.kind == "family_two" and two.family_two_k == k


def test_classify_unique_small_isomers(barrel):
    # two hexagons: in neither family
    (c24,) = generate_fullerenes(14)
    assert c24.is_isomorphic(barrel)
    assert classify_nanotube(c24).kind == "none"
    # the 15-face isomer is the first screw-construction member
    (c26,) = generate_fullerenes(15)
    assert classify_nanotube(c26).kind == "family_two"


def test_classify_rejects_outside_families():
    # four hexagons: divisible by neither five nor three
    for m in generate_fullerenes(16):
        assert classify_nanotube(m).kind == "none"


def test_classify_requires_fullerene():
    cube = CombMap.from_rotations([
        [1, 3, 4], [0, 5, 2], [1, 6, 3], [2, 7, 0],
        [0, 7, 5], [1, 4, 6], [2, 5, 7], [3, 6, 4]])
    with pytest.raises(NotFullerene):
        classify_nanotube(cube)
