import pytest

import fullerkit.growth as growth
from fullerkit.growth import (NotAMatch, apply_rule, decompose_rule,
                              detect_growth_rules, enumerate_maps,
                              invert_rule, load_fragment_catalog, load_rules,
                              rules_by_id, seed, seed_barrel,
                              seed_dodecahedron, seed_family_one,
                              seed_family_two)
from fullerkit.maps import MapError
from fullerkit.patterns import MatchResult, match_pattern
from fullerkit.spiral import generate_fullerenes
from fullerkit.surgery import truncate

EXPECTED_KEYS = {
    "a", "b", "c", "d", "e",
    "f3", "f4", "f5", "f6",
    "g1_1", "g1_2", "g1_3", "g1_4", "g2_2", "g2_3",
}


@pytest.mark.parametrize("k", range(0, 9))
def test_family_one_invariants(k):
    m = seed_family_one(k)
    assert m.is_fullerene()
    assert m.face_vector().get(6, 0) == 5 * k
    assert m.f0 == 20 + 10 * k


@pytest.mark.parametrize("k", range(0, 9))
def test_family_two_invariants(k):
    m = seed_family_two(k)
    assert m.is_fullerene()
    assert m.face_vector().get(6, 0) == 3 * k
    assert m.f0 == 20 + 6 * k


def test_seed_dispatch(dodecahedron, barrel):
    assert seed("dodecahedron").is_isomorphic(dodecahedron)
    assert seed("barrel").is_isomorphic(barrel)
    with pytest.raises(ValueError):
        seed("nonsense")


def test_all_rules_load():
    rules = load_rules()
    assert {r.key for r in rules} == EXPECTED_KEYS
    for r in rules:
        assert r.delta_p6 == len(r.script)
        assert r.delta_p6 >= 1


def test_rule_a_extends_family_one():
    for k in range(0, 3):
        m = seed_family_one(k)
        rule = rules_by_id("a")[0]
        sites = match_pattern(m, rule.lhs)
        assert sites
        out = apply_rule(m, rule, sites[0])
        assert out.is_isomorphic(seed_family_one(k + 1))


def test_rule_b_extends_family_two():
    for k in range(0, 3):
        m = seed_family_two(k)
        rule = rules_by_id("b")[0]
        sites = match_pattern(m, rule.lhs)
        assert sites
        assert any(apply_rule(m, rule, s).is_isomorphic(seed_family_two(k + 1))
                   for s in sites)


def test_rule_c_on_barrel_gives_unique_next_isomer(barrel):
    rule = rules_by_id("c")[0]
    sites = match_pattern(barrel, rule.lhs)
    assert sites
    out = apply_rule(barrel, rule, sites[0])
    assert out.face_vector() == {5: 12, 6: 3}
    (ref,) = generate_fullerenes(15)
    assert out.is_isomorphic(ref)


def _first_application(rule):
    hosts = ([seed_dodecahedron(), seed_barrel()]
             + [seed_family_one(k) for k in range(1, 7)]
             + [seed_family_two(k) for k in range(1, 4)])
    for m in hosts:
        sites = match_pattern(m, rule.lhs)
        if sites:
            return m, sites[0]
    raise AssertionError("no host found for rule %s" % rule.key)


def test_every_rule_applies_somewhere():
    for rule in load_rules():
        m, site = _first_application(rule)
        out = apply_rule(m, rule, site)
        assert out.is_fullerene()
        p6 = m.face_vector().get(6, 0)
        assert out.face_vector().get(6, 0) == p6 + rule.delta_p6
        # the rule's replacement fragment is present in the result
        assert match_pattern(out, rule.rhs)


def test_decompose_folds_to_apply(dodecahedron):
    rule = rules_by_id("a")[0]
    site = match_pattern(dodecahedron, rule.lhs)[0]
    out = apply_rule(dodecahedron, rule, site)
    steps = decompose_rule(dodecahedron, rule, site)
    assert len(steps) == rule.delta_p6
    cur = None
    for before, spec in steps:
        if cur is not None:
            assert before.canonical_code() == cur.canonical_code()
        cur = truncate(before, spec).map
    assert cur.canonical_code() == out.canonical_code()


def test_invert_after_apply_is_identity():
    for rule in load_rules():
        m, site = _first_application(rule)
        out = apply_rule(m, rule, site)
        code = m.canonical_code()
        assert any(
            invert_rule(out, rule, back).canonical_code() == code
            for back in match_pattern(out, rule.rhs))


def test_apply_after_invert_is_identity(barrel):
    rule = rules_by_id("c")[0]
    out = apply_rule(barrel, rule, match_pattern(barrel, rule.lhs)[0])
    back = match_pattern(out, rule.rhs)[0]
    restored = invert_rule(out, rule, back)
    assert restored.is_isomorphic(barrel)
    again = apply_rule(restored, rule, match_pattern(restored, rule.lhs)[0])
    assert again.canonical_code() == out.canonical_code()


def test_apply_rejects_foreign_match(dodecahedron):
    cap_site = match_pattern(dodecahedron, rules_by_id("a")[0].lhs)[0]
    with pytest.raises(NotAMatch):
        apply_rule(dodecahedron, rules_by_id("c")[0], cap_site)


def test_apply_rejects_site_past_the_last_dart(barrel):
    rule = rules_by_id("c")[0]
    at = match_pattern(barrel, rule.lhs)[0]
    shift = 3 * barrel.f0
    far = MatchResult(at.faces, {n: d + shift for n, d in at.origin.items()},
                      at.mirrored)
    with pytest.raises(NotAMatch, match="not a dart of this map"):
        apply_rule(barrel, rule, far)


def reference_check_match(m, pat, at):
    """A site is a match iff some embedding has its origins and orientation."""
    return any(c.origin == at.origin and c.mirrored == at.mirrored
               for c in match_pattern(m, pat, all_embeddings=True))


def test_check_match_accepts_only_the_exact_site():
    flipped_rejected = 0
    for rule in load_rules():
        m, site = _first_application(rule)
        out = apply_rule(m, rule, site)
        for host, pat, at in ((m, rule.lhs, site),
                              (out, rule.rhs, match_pattern(out, rule.rhs)[0])):
            growth._check_match(host, pat, at)
            # a pattern with a mirror symmetry fixing the anchor dart also
            # matches with the orientation flipped (LHS of c, e and f_k)
            flipped = MatchResult(at.faces, at.origin, not at.mirrored)
            if reference_check_match(host, pat, flipped):
                growth._check_match(host, pat, flipped)
            else:
                with pytest.raises(NotAMatch):
                    growth._check_match(host, pat, flipped)
                flipped_rejected += 1
            for name in at.origin:
                moved = dict(at.origin)
                moved[name] = host.face_next(moved[name])
                at_moved = MatchResult(at.faces, moved, at.mirrored)
                assert not reference_check_match(host, pat, at_moved)
                with pytest.raises(NotAMatch):
                    growth._check_match(host, pat, at_moved)
    assert flipped_rejected == 2 * len(load_rules()) - 6


def test_detect_growth_sites(dodecahedron, barrel):
    # sites are occurrences of replacement fragments, i.e. places where an
    # operation can be inverted; the smallest fullerene has none
    assert detect_growth_rules(dodecahedron) == []
    assert detect_growth_rules(barrel)


def test_growth_sites_bind_distinct_faces(small_fullerenes):
    found = 0
    for m in small_fullerenes:
        for _, at in detect_growth_rules(m):
            assert len(set(at.faces.values())) == len(at.faces)
            found += 1
    assert found


def test_seed_family_one_unclosed_spiral_raises(monkeypatch):
    monkeypatch.setattr(growth, "wind", lambda spiral: None)
    with pytest.raises(MapError, match="k=2"):
        seed_family_one(2)


def test_enumeration_small_counts():
    # no fullerene has exactly one hexagon, so only the seed survives
    assert len(enumerate_maps(1)) == 1
    codes = set(enumerate_maps(2))
    assert len(codes) == 2
    reference = {m.canonical_code()
                 for fc in range(12, 15) for m in generate_fullerenes(fc)}
    assert codes == reference


def reference_enumerate(max_p6):
    """Closure loop that codes a whole generation's children before
    deduplicating them; enumerate_maps deduplicates each child at once."""
    start = seed_dodecahedron()
    seen = {start.canonical_code(): start}
    frontier = [start]
    rules = load_rules()
    while frontier:
        produced = []
        for m in frontier:
            p6 = m.face_vector().get(6, 0)
            for rule in rules:
                if p6 + rule.delta_p6 > max_p6:
                    continue
                for at in match_pattern(m, rule.lhs):
                    child = apply_rule(m, rule, at)
                    produced.append((child.canonical_code(), child))
        frontier = []
        for code, child in produced:
            if code not in seen:
                seen[code] = child
                frontier.append(child)
    return seen


def test_enumeration_matches_reference():
    grown = enumerate_maps(8)
    reference = reference_enumerate(8)
    assert list(grown) == list(reference)
    assert all(grown[code].rotations == reference[code].rotations
               for code in reference)


def test_fragment_catalog_occurs_after_growth():
    catalog = load_fragment_catalog()
    assert len(catalog) == 7
    outputs = []
    for rule in load_rules():
        m, site = _first_application(rule)
        outputs.append(apply_rule(m, rule, site))
    for name, frag in catalog.items():
        assert any(match_pattern(out, frag) for out in outputs), name
