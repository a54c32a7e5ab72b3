from itertools import combinations

import pytest

from fullerkit.spiral import generate_fullerenes, wind

# counts established by this generator and used as the reference everywhere
# (face count -> number of fullerene isomers)
SMALL_COUNTS = {12: 1, 13: 0, 14: 1, 15: 1, 16: 2, 17: 3, 18: 6}


def test_wind_dodecahedron(dodecahedron):
    m = wind([5] * 12)
    assert m is not None
    assert m.is_isomorphic(dodecahedron)


def test_wind_barrel(barrel):
    m = wind([6] + [5] * 12 + [6])
    assert m is not None
    assert m.is_isomorphic(barrel)


def test_wind_rejects_nonsense():
    assert wind([5] * 3) is None
    assert wind([3, 3, 3, 3, 3]) is None


@pytest.mark.parametrize("fc,count", sorted(SMALL_COUNTS.items()))
def test_small_isomer_counts(fc, count):
    assert len(generate_fullerenes(fc)) == count


def test_no_single_hexagon_fullerene():
    # 13 faces would mean exactly one hexagon; no such fullerene exists
    assert generate_fullerenes(13) == []


def test_generator_output_is_deduplicated():
    maps = generate_fullerenes(16)
    codes = {m.canonical_code() for m in maps}
    assert len(codes) == len(maps) == 2
    for m in maps:
        assert m.is_fullerene()


def generate_by_sequence(face_count):
    """Reference: wind every placement of the 12 pentagons from scratch."""
    if face_count < 12:
        return []
    hexes = face_count - 12
    out = {}
    for pent_pos in combinations(range(face_count), 12):
        sizes = [6] * face_count
        for i in pent_pos:
            sizes[i] = 5
        if sizes > sizes[::-1]:
            continue
        m = wind(sizes)
        if m is None:
            continue
        pk = m.face_vector()
        if pk.get(5, 0) != 12 or pk.get(6, 0) != hexes:
            continue
        code = m.canonical_code()
        if code not in out:
            out[code] = m
    return list(out.values())


@pytest.mark.parametrize("fc", range(12, 19))
def test_prefix_search_matches_reference(fc):
    got = generate_fullerenes(fc)
    want = generate_by_sequence(fc)
    assert [m.rotations for m in got] == [m.rotations for m in want]
