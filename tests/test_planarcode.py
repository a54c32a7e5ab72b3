import io
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerkit.growth import (apply_rule, enumerate_maps, load_rules,
                              seed_family_one, seed_family_two)
from fullerkit.maps import CombMap, MapError
from fullerkit.patterns import match_pattern
from fullerkit.planarcode import (HEADER, BadHeader, TruncatedRecord,
                                  ValidationFailure, read_planar_code,
                                  write_planar_code)


def corpus(dodecahedron, barrel):
    return [dodecahedron, barrel, seed_family_one(1), seed_family_two(2)]


def test_roundtrip_preserves_codes(dodecahedron, barrel):
    maps = corpus(dodecahedron, barrel)
    data = write_planar_code(maps)
    back = read_planar_code(data)
    assert sorted(m.canonical_code() for m in back) == \
        sorted(m.canonical_code() for m in maps)


def test_write_is_deterministic(dodecahedron, barrel):
    maps = corpus(dodecahedron, barrel)
    a = write_planar_code(maps)
    b = write_planar_code(list(reversed(maps)))
    assert a == b  # records are sorted before writing
    assert a.startswith(HEADER)


def test_read_accepts_stream(dodecahedron):
    data = write_planar_code([dodecahedron])
    (m,) = read_planar_code(io.BytesIO(data))
    assert m.is_isomorphic(dodecahedron)


def reference_write_planar_code(maps):
    """Reference: each record read off the maps' rotation rows, in the
    given order."""
    out = bytearray(HEADER)
    for m in maps:
        out.append(m.f0)
        for nbrs in m.rotations:
            out.extend(v + 1 for v in nbrs)
            out.append(0)
    return bytes(out)


def test_writer_agrees_with_reference(dodecahedron, barrel):
    rules = load_rules()
    children = [apply_rule(m, rule, at) for m in enumerate_maps(6).values()
                for rule in rules for at in match_pattern(m, rule.lhs)]
    # the largest family-one map whose vertex numbers fit one byte
    largest = seed_family_one(23)
    assert largest.f0 == 250 and len(children) > 500
    for maps in (corpus(dodecahedron, barrel), children, [largest]):
        for sort in (False, True):
            want = sorted(maps, key=lambda m: (m.f0, m.canonical_code())) \
                if sort else maps
            assert write_planar_code(maps, sort) == \
                reference_write_planar_code(want)


def test_writer_refuses_256_vertices():
    # the size is checked before sorting, which would refuse the map's
    # canonical code with another message
    big = seed_family_one(24)
    assert big.f0 >= 256
    for sort in (False, True):
        with pytest.raises(MapError, match="needs n < 256"):
            write_planar_code([big], sort=sort)


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_read_accepts_any_bytes_like(dodecahedron, wrap):
    data = write_planar_code([dodecahedron])
    (m,) = read_planar_code(wrap(data))
    assert m.rotations == read_planar_code(data)[0].rotations


def test_bad_header_rejected():
    with pytest.raises(BadHeader):
        read_planar_code(b">>not_planar_code<<")


def test_truncated_record_rejected(dodecahedron):
    data = write_planar_code([dodecahedron])
    with pytest.raises(TruncatedRecord):
        read_planar_code(data[:-3])


def test_invalid_record_rejected():
    # vertex 1 lists neighbour 2 but vertex 2 does not list 1
    record = bytes([2, 2, 0, 2, 0])
    with pytest.raises(ValidationFailure) as e:
        read_planar_code(HEADER + record)
    assert e.value.index == 0


def test_failure_index_counts_records(dodecahedron):
    good = write_planar_code([dodecahedron])[len(HEADER):]
    bad = bytes([2, 2, 0, 2, 0])
    with pytest.raises(ValidationFailure) as e:
        read_planar_code(HEADER + good + bad)
    assert e.value.index == 1


DOCUMENTED = (BadHeader, TruncatedRecord, ValidationFailure)
FUZZ = settings(max_examples=300, derandomize=True, database=None,
                deadline=None)
STREAM = write_planar_code([seed_family_one(1), seed_family_two(2)])


def reference_read_planar_code(src):
    """Reference: the byte-at-a-time reader, with its own degree check."""
    if isinstance(src, bytes):
        src = io.BytesIO(src)
    head = src.read(len(HEADER))
    if head != HEADER:
        raise BadHeader("expected %r, got %r" % (HEADER, head))
    maps: List[CombMap] = []
    index = 0
    while True:
        first = src.read(1)
        if not first:
            return maps
        n = first[0]
        if n == 0:
            raise ValidationFailure(index, "vertex count 0")
        rotations: List[List[int]] = []
        for _ in range(n):
            nbrs: List[int] = []
            while True:
                b = src.read(1)
                if not b:
                    raise TruncatedRecord("record %d ends mid-vertex" % index)
                if b[0] == 0:
                    break
                if b[0] > n:
                    raise ValidationFailure(
                        index, "neighbour %d out of range" % b[0])
                nbrs.append(b[0] - 1)
            rotations.append(nbrs)
        if any(len(r) != 3 for r in rotations):
            raise ValidationFailure(index, "vertex of degree != 3")
        try:
            maps.append(CombMap.from_rotations(rotations))
        except MapError as exc:
            raise ValidationFailure(index, str(exc))
        index += 1


def outcome(reader, data):
    """The rotations of every map read, or the documented error's class
    (and record index, for a ValidationFailure).  Any other exception
    propagates and fails the test."""
    try:
        return [m.rotations for m in reader(data)]
    except DOCUMENTED as exc:
        return type(exc), getattr(exc, "index", None)


def agrees_with_reference(data):
    assert outcome(read_planar_code, data) == \
        outcome(reference_read_planar_code, data)


def test_good_record_then_four_entry_row():
    # the first record is sliced apart, the second is read row by row and
    # refused at its four-entry row, as the reference refuses it
    good = write_planar_code([seed_family_one(1)])[len(HEADER):]
    bad = bytes([4, 2, 3, 4, 1, 0, 1, 3, 4, 0, 1, 2, 4, 0, 1, 2, 3, 0])
    data = HEADER + good + bad
    assert outcome(read_planar_code, data) == \
        outcome(reference_read_planar_code, data) == (ValidationFailure, 1)


def test_reader_agrees_with_reference_on_stream():
    agrees_with_reference(STREAM)
    assert len(read_planar_code(STREAM)) == 2


@FUZZ
@given(st.binary(max_size=64) | st.binary(max_size=64).map(HEADER.__add__))
def test_fuzz_arbitrary_bytes(data):
    agrees_with_reference(data)


@FUZZ
@given(st.integers(0, len(STREAM) - 1), st.integers(0, 255))
def test_fuzz_flipped_byte(pos, value):
    data = bytearray(STREAM)
    data[pos] = value
    agrees_with_reference(bytes(data))


@FUZZ
@given(st.integers(0, len(STREAM)))
def test_fuzz_cut_stream(end):
    agrees_with_reference(STREAM[:end])
