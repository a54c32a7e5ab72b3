import hashlib
import os
from collections import Counter
from importlib import resources

import pytest

import fullerkit.growth as growth
import fullerkit.maps as maps
import fullerkit.spiral as spiral
from fullerkit.belts import NotFullerene
from fullerkit.growth import (NegativeParameter, NotAMatch, ResultNotFullerene,
                              apply_rule, decompose_rule, detect_growth_rules,
                              enumerate_maps, invert_rule, load_rules,
                              rules_by_id, seed, seed_barrel,
                              seed_dodecahedron, seed_family_one,
                              seed_family_two)
from fullerkit.maps import CombMap, MapError
from fullerkit.patterns import MatchResult, match_pattern
from fullerkit.rulefile import parse_file
from fullerkit.spiral import _next_run, generate_fullerenes
from fullerkit.surgery import truncate
from fullerkit.winding import PatchBuilder
from paper_lemmas import fragment_catalog, screw_family_two

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


def test_family_two_spiral_is_the_hand_glued_member():
    # k = 39 has 254 vertices, the most a canonical code takes
    for k in range(40):
        assert seed_family_two(k).is_isomorphic(screw_family_two(k)), k


def test_family_two_boundary_state_repeats_every_six_faces():
    # the periodicity in seed_family_two's docstring: before each glue,
    # per open edge, the degree of its first vertex and the age of its
    # face; C and then hexagons only, as along the tube
    sizes = [5, 5, 5, 5, 6, 5, 6, 5, 6] + [6] * 30
    pb = PatchBuilder(sizes[0])
    states = []
    for s in sizes[1:]:
        newest = len(pb.cycles) - 1
        states.append([(d, newest - ord(f))
                       for f, d in zip(pb.owners, pb.vdeg)])
        pb.glue(s, *_next_run(pb.owners, pb.vdeg, newest))
    # states[j - 1] is the state once j faces are glued
    assert all(states[j - 1] == states[j + 5]
               for j in range(8, len(states) - 5))
    assert states[6] != states[12]


@pytest.mark.parametrize("build", [seed_family_one, seed_family_two])
def test_seed_families_reject_negative_k(build):
    with pytest.raises(NegativeParameter):
        build(-1)


def test_seed_family_two_unclosed_spiral_raises(monkeypatch):
    monkeypatch.setattr(growth, "wind", lambda spiral: None)
    with pytest.raises(MapError, match="family-two.*k=3"):
        seed_family_two(3)


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


def test_rules_apply_at_mirrored_sites():
    # match_pattern keeps the unmirrored site of each face set, so only
    # the full embedding list reaches the mirrored path of run_script
    applied = 0
    for m in enumerate_maps(4).values():
        code, p6 = m.canonical_code(), m.face_vector().get(6, 0)
        for rule in load_rules():
            for at in match_pattern(m, rule.lhs, all_embeddings=True):
                if not at.mirrored:
                    continue
                out = apply_rule(m, rule, at)
                assert out.is_fullerene()
                assert out.face_vector().get(6, 0) == p6 + rule.delta_p6
                assert any(invert_rule(out, rule, back).canonical_code() == code
                           for back in match_pattern(out, rule.rhs))
                applied += 1
    assert applied


def test_operations_reject_a_non_fullerene(dodecahedron):
    # an intermediate of rule a's script has a quadrangle, yet it holds
    # sites of rule a's LHS and rule c's RHS: the input is at fault
    rule_a, rule_c = rules_by_id("a")[0], rules_by_id("c")[0]
    site = match_pattern(dodecahedron, rule_a.lhs)[0]
    mid = decompose_rule(dodecahedron, rule_a, site)[2][0]
    assert mid.face_vector().get(4) == 1
    with pytest.raises(NotFullerene, match="^rule a expects a fullerene$"):
        apply_rule(mid, rule_a, match_pattern(mid, rule_a.lhs)[0])
    with pytest.raises(NotFullerene, match="^rule a expects a fullerene$"):
        decompose_rule(mid, rule_a, match_pattern(mid, rule_a.lhs)[0])
    with pytest.raises(NotFullerene,
                       match="^rule c inverse expects a fullerene$"):
        invert_rule(mid, rule_c, match_pattern(mid, rule_c.rhs)[0])


@pytest.mark.parametrize("wrong", ["input", "intermediate"])
@pytest.mark.parametrize("op,message", [
    (apply_rule, "rule c output is not a fullerene with p6 +1"),
    (decompose_rule, "rule c output is not a fullerene with p6 +1"),
    (invert_rule, "rule c inverse output is not a fullerene with p6 -1"),
], ids=["apply", "decompose", "invert"])
def test_rewrite_checks_the_output_and_its_hexagon_count(
        monkeypatch, dodecahedron, barrel, op, message, wrong):
    # rule c adds one hexagon.  A script that gives back its input leaves a
    # fullerene with p6 unmoved; one that gives an intermediate of rule a's
    # script moves the face count by one, but out of the fullerenes
    rule_a, rule_c = rules_by_id("a")[0], rules_by_id("c")[0]
    site = match_pattern(dodecahedron, rule_a.lhs)[0]
    mids = [before for before, _ in decompose_rule(dodecahedron, rule_a, site)]
    inverse = op is invert_rule
    m = barrel
    if inverse:
        m = apply_rule(barrel, rule_c, match_pattern(barrel, rule_c.lhs)[0])
    at = match_pattern(m, rule_c.rhs if inverse else rule_c.lhs)[0]
    out = m if wrong == "input" else mids[m.f2 - 12 + (-1 if inverse else 1)]
    assert out.is_fullerene() == (wrong == "input")
    monkeypatch.setattr(growth, "run_script", lambda *args: ([], out, {}))
    with pytest.raises(ResultNotFullerene) as e:
        op(m, rule_c, at)
    assert str(e.value) == message


def test_script_step_of_an_unpermitted_signature_is_refused(dodecahedron):
    # rule a with its first cut four edges long: a pentagon cut along four
    # edges, which is none of the seven truncations
    text = (resources.files("fullerkit") / "data" / "rules.txt").read_text()
    edited = text.replace("TRUNC C 4 3 Q1 C", "TRUNC C 4 4 Q1 C", 1)
    assert edited != text
    rule = next(r for r in parse_file(edited)[1] if r.id == "a")
    at = match_pattern(dodecahedron, rule.lhs)[0]
    with pytest.raises(ResultNotFullerene,
                       match=r"^script step signature \(2, 5, 5, 5\) not "
                             r"permitted$"):
        apply_rule(dodecahedron, rule, at)


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


def test_check_match_refuses_an_anchor_on_a_face_of_another_size(barrel):
    rule = rules_by_id("c")[0]
    at = match_pattern(barrel, rule.lhs)[0]
    moved = dict(at.origin)
    moved[rule.lhs.first] = next(d for d in range(3 * barrel.f0)
                                 if barrel.face_size(barrel.face_of[d]) == 6)
    with pytest.raises(NotAMatch, match="not a match of this pattern"):
        growth._check_match(barrel, rule.lhs,
                            MatchResult(at.faces, moved, at.mirrored))


def test_detect_growth_rules_refuses_a_non_fullerene():
    tetrahedron = CombMap.from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3],
                                          [0, 2, 1]])
    with pytest.raises(NotFullerene, match="growth-site detection"):
        detect_growth_rules(tetrahedron)


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


def test_enumeration_refuses_a_negative_bound():
    with pytest.raises(NegativeParameter, match="max_p6"):
        enumerate_maps(-1)


@pytest.mark.parametrize("bound", [20.0, 12.5, "3", None])
def test_enumeration_and_oracle_refuse_a_bound_that_is_not_an_int(
        bound, monkeypatch):
    def no_work(*args):
        raise AssertionError("work began before the bound was checked")

    monkeypatch.setattr(growth, "seed_dodecahedron", no_work)
    monkeypatch.setattr(spiral, "_suffixes", no_work)
    with pytest.raises(TypeError, match="^max_p6 must be an int, not "):
        enumerate_maps(bound)
    with pytest.raises(TypeError, match="^face_count must be an int, not "):
        generate_fullerenes(bound)


def test_enumeration_and_oracle_take_a_bool_as_an_int():
    assert list(enumerate_maps(True)) == list(enumerate_maps(1))
    assert generate_fullerenes(True) == []


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


# OEIS A007894: fullerene isomers with n vertices, mirror images identified.
A007894 = {20: 1, 22: 0, 24: 1, 26: 1, 28: 2, 30: 3, 32: 6, 34: 6, 36: 15,
           38: 17, 40: 40, 42: 45, 44: 89, 46: 116, 48: 199, 50: 271,
           52: 437, 54: 580, 56: 924, 58: 1205, 60: 1812}


def test_enumeration_counts_match_oeis_past_the_oracle():
    # the suite cross-checks against the spiral oracle only up to C40; the
    # growth closure to 14 hexagons reaches C48
    g = enumerate_maps(14)
    counts = Counter(m.f0 for m in g.values())
    assert counts == {n: c for n, c in A007894.items() if c and n <= 48}
    # keys, order and representatives as produced with every site applied
    digest = hashlib.sha256(repr([(c.hex(), m.rotations)
                                  for c, m in g.items()]).encode()).hexdigest()
    assert digest == ("cae4d5d03fbabda248e108adeec1cb506f45ca67"
                      "fdfc7356e4466712207ac5ed")


# sha256 of each n's canonical codes, sorted and joined, for C20..C60
GROWTH_DIGESTS = {
    20: "417f365a637f46e90342f995985578224c81051123476685aaefe8f7623c0b66",
    24: "62e4eccf6c8bd4cc4037ef2b3d797aa0a609da8f72cdf328fb58c6ab1e5ba301",
    26: "8994fdcf08e9d10106682abc28f6ecc3afd1bf0a4e5d57f4639d5818e67e088c",
    28: "a70625396b38644ace924d579906f769e6a618e624816822367bf3689163f649",
    30: "1823b1b8793048b529a1f0ae26c604d024ce5c4ab8c4951f01cc40811dee70c1",
    32: "f3bbd1aebfdcce4b4ca84b7fade6419ff4d3286fdf0517c739c3815494c23e02",
    34: "4c699e59b722c5cdabdb80effde597b8732f285a94769b35ac61db94f2771322",
    36: "015bc96b20aa4cf37bf478f914e7d7364ef7389f78eb2985cc64245ea6847c14",
    38: "c625a54354e46b914b17cc17d00e65006785d66e2386d4558e44a1d478dacf85",
    40: "276be951e7e87ff77cdd662da828cfd034b1ccc0a5e5efd9ee4a9b8c8318d103",
    42: "2b98eddb4ef3522f0f402c7f139b2e666c25ba4af60bee4141ae47937f0fe1f1",
    44: "9a5a251a279473efb6ed8432cd023362092e76db76247db889d4e662264f4909",
    46: "004051014559f463f21c8589da06b24e46cd80a611deafd178c177eae7c3e3fe",
    48: "91654edb414f49aa36cbe5e35ac90a8d232507fc84c7c6984ed31a1d52bdf9bc",
    50: "97a7223cac7deaa43a557956353e5b76ee2d958722a779e7875ee54255d56f4d",
    52: "417d9a9f9b4b75607fedacd31f98daa5dc9b4b4ae41495fac423b4dc8788604f",
    54: "d7c194956d323eb7eb51b356aea5d97d7ed9e0d56316958876011ce30a363513",
    56: "f934062057b29364e4b2d0384edab7572c33a64cb349bcd6bb0247fae035d73e",
    58: "67635fcf1a72af845073d40fc74ee360b66f27f94f74f7216dd0652a19045c8e",
    60: "31ca1c3945be35802a3dc439d1834bed2eabf5121284f255f216bf3c68d031e2",
}


@pytest.mark.skipif(os.environ.get("FULLERKIT_SLOW") != "1",
                    reason="slow (about 30 s); set FULLERKIT_SLOW=1 to run")
def test_growth_to_c60_is_pinned():
    """The closure to 20 hexagons: isomer counts through C60, and each
    size's canonical codes by digest."""
    by_n = {}
    for code, m in enumerate_maps(20).items():
        by_n.setdefault(m.f0, []).append(code)
    assert {n: len(codes) for n, codes in by_n.items()} == \
        {n: c for n, c in A007894.items() if c}
    assert {n: hashlib.sha256(b"".join(sorted(codes))).hexdigest()
            for n, codes in by_n.items()} == GROWTH_DIGESTS


def rotation_and_origin_sites(m, rule):
    """Reference: the LHS sites less those that an orientation-preserving
    automorphism maps onto an earlier kept site, origin darts compared."""
    names = tuple(rule.lhs.faces)
    auts = m.automorphisms()
    covered = set()
    for at in match_pattern(m, rule.lhs):
        origins = tuple(at.origin[n] for n in names)
        if (at.mirrored, origins) not in covered:
            covered.update((at.mirrored, tuple(phi[d] for d in origins))
                           for phi in auts)
            yield at


@pytest.fixture(scope="module")
def isomers_to_p6_8():
    return list(enumerate_maps(8).values())


def test_every_skipped_site_repeats_an_applied_child(isomers_to_p6_8):
    """Sites dropped by the orbit filter give children isomorphic to one
    from a site that was applied, for the same parent and rule.  The full
    group skips strictly more sites than rotations and origin keys alone,
    both for rules keyed by face set and for the others, and keeps no site
    that those would skip."""
    skipped, skipped_before = Counter(), Counter()
    for m in isomers_to_p6_8:
        for rule in load_rules():
            by_faces = rule.key in growth.FACE_KEYED
            kept = list(growth._one_site_per_orbit(m, rule))
            codes = {apply_rule(m, rule, at).canonical_code() for at in kept}
            sites = [(at.mirrored, at.origin) for at in kept]
            for at in match_pattern(m, rule.lhs):
                if (at.mirrored, at.origin) not in sites:
                    skipped[by_faces] += 1
                    assert apply_rule(m, rule, at).canonical_code() in codes
            before = [(at.mirrored, at.origin)
                      for at in rotation_and_origin_sites(m, rule)]
            assert all(site in before for site in sites)
            skipped_before[by_faces] += (len(match_pattern(m, rule.lhs))
                                         - len(before))
    for by_faces in (True, False):
        assert skipped[by_faces] > skipped_before[by_faces] > 0


def test_only_kept_children_build_class_words(monkeypatch):
    # at p6 <= 10 each of the 451 repeat children builds one dart table
    # and runs one BFS word on it, and only the 91 kept children and the
    # seed build their class words
    children, built, tables, walked = [], [], [], []

    def recording_apply_rule(m, rule, at):
        children.append(apply_rule(m, rule, at))
        return children[-1]

    dart_table, bfs_word = maps._dart_table, maps._bfs_word

    def recording_dart_table(twin):
        tables.append((twin, dart_table(twin)))
        return tables[-1][1]

    def recording_bfs_word(table, root, mirrored=False):
        walked.append(table)  # kept alive, so that ids stay unique
        return bfs_word(table, root, mirrored)

    class_words = CombMap._class_words

    def recording_class_words(m, table, first):
        built.append(m)
        return class_words(m, table, first)

    monkeypatch.setattr(growth, "apply_rule", recording_apply_rule)
    monkeypatch.setattr(maps, "_dart_table", recording_dart_table)
    monkeypatch.setattr(maps, "_bfs_word", recording_bfs_word)
    monkeypatch.setattr(CombMap, "_class_words", recording_class_words)
    got = enumerate_maps(10)
    assert built == list(got.values()) and len(built) == 92
    kept = set(map(id, built))
    repeats = [c for c in children if id(c) not in kept]
    assert len(children) == 542 and len(repeats) == 451
    # keyed by the twin table, which the map holds; its rotation rows are
    # built anew on each read
    per_map = Counter(id(twin) for twin, _ in tables)
    runs = Counter(map(id, walked))
    table_of = {id(twin): table for twin, table in tables}
    assert all(per_map[id(c.twin)] == 1
               and runs[id(table_of[id(c.twin)])] == 1
               and c._words == [None, None] for c in repeats)


def symmetric_sites(m, rule):
    """Per LHS face set with more than one embedding, whether the children
    at all of its embeddings are isomorphic: each child's forward word is
    one of the first child's two oriented words."""
    by_faces = {}
    for at in match_pattern(m, rule.lhs, all_embeddings=True):
        by_faces.setdefault(frozenset(at.faces.values()), []).append(at)
    agree = []
    for first, *rest in (ats for ats in by_faces.values() if len(ats) > 1):
        child = apply_rule(m, rule, first)
        words = {child.oriented_word(), child.oriented_word(True)}
        agree.append(all(apply_rule(m, rule, at).oriented_word() in words
                         for at in rest))
    return agree


# Per rule: True if every face set of several LHS embeddings gives one
# child, False if some gives two, None if no such face set is found
FACE_SET_VERDICT = {
    "a": True, "b": True, "c": True, "d": True, "g1_1": True, "g2_2": True,
    "e": False, "f3": False, "f4": False, "f5": False, "f6": False,
    "g1_2": None, "g1_3": None, "g1_4": None, "g2_3": None,
}


@pytest.mark.parametrize("key", sorted(FACE_SET_VERDICT))
def test_face_set_keys_are_sound(key, isomers_to_p6_8):
    """The orbit filter keys a rule's sites by face set exactly when every
    LHS embedding of one face set gives one child up to isomorphism, on
    the rule's first host and every isomer with p6 <= 8.  Roads e and
    f3..f6 fail it, and a rule with no symmetric site keeps origin keys."""
    assert set(FACE_SET_VERDICT) == EXPECTED_KEYS
    (rule,) = [r for r in load_rules() if r.key == key]
    hosts = [_first_application(rule)[0]] + isomers_to_p6_8
    agree = [a for m in hosts for a in symmetric_sites(m, rule)]
    verdict = FACE_SET_VERDICT[key]
    if verdict is None:
        assert not agree
    else:
        assert agree
        assert all(agree) == verdict
    assert (key in growth.FACE_KEYED) == (verdict is True)


def test_fragment_catalog_occurs_after_growth():
    catalog = fragment_catalog()
    assert len(catalog) == 7
    outputs = []
    for rule in load_rules():
        m, site = _first_application(rule)
        outputs.append(apply_rule(m, rule, site))
    for name, frag in catalog.items():
        assert any(match_pattern(out, frag) for out in outputs), name
