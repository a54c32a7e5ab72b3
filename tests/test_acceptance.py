"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Every expected number is either produced by the independent patch-growing
generator inside the same run (the oracle) or is a structural identity
checked exactly; nothing is hard-coded from outside sources.  The oracle's
own output is pinned by digest, so that a faster search must return the
same maps in the same order.
"""

import hashlib
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from fullerkit import spiral
from fullerkit.belts import find_k_belts
from fullerkit.growth import (apply_rule, decompose_rule, detect_growth_rules,
                              enumerate_maps, invert_rule, load_rules,
                              seed_family_one, seed_family_two)
from fullerkit.patterns import match_pattern
from fullerkit.planarcode import read_planar_code, write_planar_code
from fullerkit.spiral import generate_fullerenes, wind
from fullerkit.surgery import (TruncationSpec, can_straighten, is_flag,
                               straighten, truncate)
from fullerkit.verify import verify_intermediate
from paper_lemmas import flag_effects

SEED = 20260823


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print("criterion %2d: FAIL  %s" % (num, desc))
        raise
    print("criterion %2d: PASS  %s" % (num, desc))


@pytest.fixture(scope="module")
def oracle_run():
    """Independent generator output (face count -> list of fullerenes) and
    the number of size sequences it handed to ``wind`` per face count."""
    wound = Counter()

    def counting_wind(sizes):
        wound[len(sizes)] += 1
        return wind(sizes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spiral, "wind", counting_wind)
        maps = {fc: generate_fullerenes(fc) for fc in range(12, 23)}
    return maps, {fc: wound[fc] for fc in maps}


@pytest.fixture(scope="module")
def oracle(oracle_run):
    """Independent generator output: face count -> list of fullerenes."""
    return oracle_run[0]


# sha256 of repr([m.rotations for m in generate_fullerenes(fc)]), recorded
# before the degree-2 cut and the one-pass run choice went in
ORACLE_DIGESTS = {
    12: "709e042ed7706a198b1a3d22c680a53b58c055aad33d0dda4798d9127eca362e",
    13: "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    14: "1a3a671cb495f4f6e699c9b5241e306591fef9d0798fa687e649e031e25da1d5",
    15: "6a651d3f0ad11bb25d17e29b0d4f6f4e61669888b77af44257b0eaf2e5ce9592",
    16: "49fb60b4830f72362ecdee458708d3fa3fee5a159a2a7efc2a2f8a8d1a19c675",
    17: "b2aa4bd2dd0d458403c213f401b38e9459eed5fa301da5989770453e827f07aa",
    18: "6cec6c8d537f00479c6d0f9b0203ced344c97fdf8732b7ac92f05ce3b3619187",
    19: "0ed0a06995782edef6c936f6f8e7377aec7bda5396149f0a1f71c4919413c853",
    20: "f222661d920bc40889692e0b21fb7648f6456697bd5cf72c4ea10a82d73c2a2f",
    21: "3f74ad894b8f14b34386613f0461223dec97ebe2faf34e4c8b275fa798d37d17",
    22: "287af9a7177271a6a09974be2ef7f207096064dcdab17e7375476003d3afb180",
}


@pytest.mark.parametrize("fc", sorted(ORACLE_DIGESTS))
def test_oracle_output_is_pinned(oracle, fc):
    rotations = repr([m.rotations for m in oracle[fc]]).encode()
    assert hashlib.sha256(rotations).hexdigest() == ORACLE_DIGESTS[fc]


# sequences handed to ``wind`` per face count, counted before the search
# memoised its boundary states: with the digests above, the memo hands
# ``wind`` the same leaves
ORACLE_WIND_CALLS = {12: 1, 13: 0, 14: 3, 15: 6, 16: 16, 17: 37, 18: 89,
                     19: 171, 20: 387, 21: 656, 22: 1394}


def test_oracle_winds_the_same_leaves(oracle_run):
    assert oracle_run[1] == ORACLE_WIND_CALLS


@pytest.fixture(scope="module")
def fullerene_corpus(oracle):
    maps = [m for fc in sorted(oracle) for m in oracle[fc]]
    maps += [seed_family_one(k) for k in range(0, 9)]
    maps += [seed_family_two(k) for k in range(1, 9)]
    seen = set()
    out = []
    for m in maps:
        c = m.canonical_code()
        if c not in seen:
            seen.add(c)
            out.append(m)
    assert len(out) >= 100
    return out


def _random_truncation(m, rng):
    d = rng.choice(m.edge_darts())
    k = m.face_size(m.face_of[d])
    return truncate(m, TruncationSpec(m, d, rng.randrange(0, k - 1)))


@pytest.fixture(scope="module")
def big_corpus(fullerene_corpus):
    """>= 10^4 cubic maps: the fullerenes plus random truncation chains."""
    rng = random.Random(SEED)
    out = list(fullerene_corpus)
    while len(out) < 10_000:
        base = rng.choice(fullerene_corpus)
        m = base
        for _ in range(rng.randrange(1, 4)):
            m = _random_truncation(m, rng).map
            out.append(m)
    return out


@pytest.fixture(scope="module")
def decompositions(fullerene_corpus):
    """(rule, chain) for every rule applied at every site of the corpus."""
    runs = []
    for m in fullerene_corpus:
        for rule in load_rules():
            for at in match_pattern(m, rule.lhs):
                runs.append((rule, decompose_rule(m, rule, at)))
    assert runs
    return runs


def test_criterion_1_belt_census():
    with criterion(1, "family-one belt census, k = 0..6, under 10 s"):
        t0 = time.monotonic()
        for k in range(0, 7):
            m = seed_family_one(k)
            assert find_k_belts(m, 3) == []
            assert find_k_belts(m, 4) == []
            assert len(find_k_belts(m, 5)) == 12 + k
        assert time.monotonic() - t0 < 10.0


def test_criterion_2_family_invariants():
    with criterion(2, "family hexagon/vertex counts, k = 0..8"):
        for k in range(0, 9):
            one = seed_family_one(k)
            assert one.face_vector().get(6, 0) == 5 * k
            assert one.f0 == 20 + 10 * k == 20 + 2 * 5 * k
            two = seed_family_two(k)
            assert two.face_vector().get(6, 0) == 3 * k
            assert two.f0 == 20 + 6 * k == 20 + 2 * 3 * k


def test_criterion_3_face_count_identity(big_corpus):
    with criterion(3, "face-count identity on %d maps" % len(big_corpus)):
        for m in big_corpus:
            fv = m.face_vector()
            lhs = 3 * fv.get(3, 0) + 2 * fv.get(4, 0) + fv.get(5, 0)
            rhs = 12 + sum((k - 6) * c for k, c in fv.items() if k >= 7)
            assert lhs == rhs


def test_criterion_4_surgery_roundtrip(big_corpus):
    with criterion(4, "1000 truncate/straighten round-trips with polarity"):
        rng = random.Random(SEED + 4)
        for _ in range(1000):
            m = rng.choice(big_corpus)
            d = rng.choice(m.edge_darts())
            k = m.face_size(m.face_of[d])
            s = rng.randrange(0, k - 1)
            res = truncate(m, TruncationSpec(m, d, s))
            back = straighten(res.map, res.new_edge)
            assert back.map.is_isomorphic(m)
            if is_flag(m):
                assert is_flag(res.map) == (0 < s < k - 2)


def test_criterion_5_decomposition_legality(decompositions):
    with criterion(5, "all script steps legal at %d sites"
                   % len(decompositions)):
        for rule, chain in decompositions:
            assert len(chain) == rule.delta_p6
            for i, (before, spec) in enumerate(chain):
                from fullerkit.growth import is_permitted
                assert is_permitted(spec.signature)
                after = truncate(before, spec).map
                if i < len(chain) - 1:
                    rep = verify_intermediate(after)
                    assert rep.passed, (rule.key, i, rep.failures())
                else:
                    assert after.is_fullerene()


def test_criterion_6_invertibility(fullerene_corpus):
    with criterion(6, "invert-then-reapply fixes every fragment site"):
        checked = 0
        for m in fullerene_corpus:
            code = m.canonical_code()
            for rule in load_rules():
                for at in match_pattern(m, rule.rhs):
                    inv = invert_rule(m, rule, at)
                    assert any(
                        apply_rule(inv, rule, site).canonical_code() == code
                        for site in match_pattern(inv, rule.lhs))
                    checked += 1
        assert checked > 0


def test_criterion_7_completeness(oracle):
    with criterion(7, "growth closure reproduces the generator, p6 <= 10"):
        t0 = time.monotonic()
        grown = enumerate_maps(10)
        elapsed = time.monotonic() - t0
        reference = {m.canonical_code(): m
                     for fc in sorted(oracle) for m in oracle[fc]}
        assert set(grown) == set(reference)
        assert (Counter(m.f0 for m in grown.values())
                == Counter(m.f0 for m in reference.values()))
        assert elapsed < 300.0


def test_criterion_8_fragment_guarantee(oracle):
    with criterion(8, "growable site found on every generator output"):
        for fc in sorted(oracle):
            for m in oracle[fc]:
                if m.face_vector().get(6, 0) >= 2 and m.f0 <= 40:
                    assert detect_growth_rules(m), m.f0


def test_criterion_9_flag_polarity(fullerene_corpus, decompositions):
    with criterion(9, "edge-merge flagness pinned to 4-belt membership"):
        maps = [m for m in fullerene_corpus if m.f0 <= 30]
        for rule, chain in decompositions:
            for i, (before, spec) in enumerate(chain[:-1]):
                mid = truncate(before, spec).map
                if mid.f0 <= 30:
                    maps.append(mid)
        observed = set()
        for m in maps:
            for d in m.edge_darts():
                if not can_straighten(m, d):
                    continue
                rep = flag_effects(m, d)
                has_belt = bool(rep.four_belts_through_pair)
                observed.add((rep.output_flag, has_belt))
                assert rep.output_flag == (not has_belt)
        # both polarities occurred, so the pin is informative
        assert (True, False) in observed and (False, True) in observed


def test_criterion_10_planar_code_roundtrip(big_corpus):
    with criterion(10, "byte round-trip preserves canonical codes"):
        data = write_planar_code(big_corpus)
        back = read_planar_code(data)
        assert sorted(m.canonical_code() for m in back) == \
            sorted(m.canonical_code() for m in big_corpus)
