import gc
import os
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullerkit import spiral
from fullerkit.growth import enumerate_maps
from fullerkit.maps import CombMap
from fullerkit.spiral import _next_run, generate_fullerenes, wind
from fullerkit.winding import PatchBuilder, WindingError
from paper_lemmas import copied, run_faces, runs

# counts established by this generator and used as the reference everywhere
# (face count -> number of fullerene isomers)
SMALL_COUNTS = {11: 0, 12: 1, 13: 0, 14: 1, 15: 1, 16: 2, 17: 3, 18: 6}


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


@pytest.mark.parametrize("sizes", [[5.0] * 12, [5] * 11 + ["5"], [2] * 12,
                                   [6] + [5] * 12 + [None]])
def test_wind_rejects_a_size_that_is_not_an_int_of_at_least_3(sizes):
    assert wind(sizes) is None


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


def size_sequences(face_count):
    """Every placement of the 12 pentagons, in lexicographic order."""
    for pent_pos in combinations(range(face_count), 12):
        sizes = [6] * face_count
        for i in pent_pos:
            sizes[i] = 5
        yield sizes


def generate_by_sequence(face_count):
    """Reference: wind every placement of the 12 pentagons from scratch."""
    if face_count < 12:
        return []
    hexes = face_count - 12
    out = {}
    for sizes in size_sequences(face_count):
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


def reference_next_run(pb):
    """Reference: the run rule read off ``runs`` and one ``run_faces``
    list per run.  A face is open while its cycle holds a ``None``."""
    earliest = next((f for f, c in enumerate(pb.cycles) if None in c), None)
    if earliest is None:
        return None
    last = len(pb.cycles) - 1
    fallback = None
    for start, length in runs(pb):
        faces = run_faces(pb, start, length)
        if earliest in faces:
            if last in faces:
                return start, length
            if fallback is None:
                fallback = (start, length)
    return fallback


def rotating_next_run(owners, vdeg, last):
    """Reference: the run rule on the boundary rotated to begin at its first
    degree-2 vertex, so that every run is a slice."""
    b = len(owners)
    first = vdeg.find("2")
    if first < 0:
        return 0, b
    earliest, latest = min(owners), chr(last)
    edges = owners[first:] + owners[:first]
    degs = vdeg[first:] + vdeg[:first]
    fallback = None
    i = edges.find(earliest)
    while i >= 0:
        start = degs.rfind("2", 0, i + 1)
        end = degs.find("2", i + 1)
        if end < 0:
            end = b
        if latest in edges[start:end]:
            return first + start, end - start
        if fallback is None:
            fallback = first + start, end - start
        i = edges.find(earliest, end)
    return fallback


@pytest.mark.parametrize("owners,vdeg,last,run", [
    # one degree-2 vertex: the whole boundary from it is one run
    ("\2\0\1\3", "3323", 3, (2, 4)),
    # runs [1, 3), [3, 5) and [5, 7) round past position 0; the earliest
    # face 0 is in the first and the last, and face 4 only in the last
    ("\4\0\2\3\5\0", "323232", 4, (5, 2)),
    ("\0\3\0\2\5\4", "323232", 4, (5, 2)),
    # face 4 in no run with face 0: the first run with face 0
    ("\0\0\2\3\4\1", "323232", 4, (1, 2)),
    # face 0 in the wrapping run alone
    ("\0\1\2\4\3\5", "323232", 4, (5, 2)),
])
def test_next_run_on_runs_that_wrap(owners, vdeg, last, run):
    assert _next_run(owners, vdeg, last) == run
    assert rotating_next_run(owners, vdeg, last) == run


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.text("\0\1\2\3\4\5", min_size=1, max_size=12).flatmap(
    lambda owners: st.tuples(st.just(owners),
                             st.text("23", min_size=len(owners),
                                     max_size=len(owners)),
                             st.integers(0, 5))))
def test_next_run_matches_the_rotating_reference(args):
    assert _next_run(*args) == rotating_next_run(*args)


def reference_search(face_count, visit=lambda pb, sizes: None):
    """Reference: the prefix search without the degree-2 cut, a copied
    builder for every child, and ``reference_next_run``.  ``visit`` sees
    every search node before its run is chosen.  Returns the complete sequences
    that reach a leaf."""
    leaves = []
    sizes = []

    def extend(pb, pents):
        j = len(sizes)
        if j == face_count - 1:
            leaves.append(sizes + [5 if pents == 11 else 6])
            return
        visit(pb, sizes)
        run = reference_next_run(pb)
        if run is None:
            return
        for s in (5, 6):
            p = pents + (s == 5)
            if p > 12 or 12 - p > face_count - 1 - j or run[1] >= s:
                continue
            child = copied(pb)
            try:
                child.glue(s, *run)
            except WindingError:
                continue
            sizes.append(s)
            extend(child, p)
            sizes.pop()

    for s in (5, 6):
        sizes.append(s)
        extend(PatchBuilder(s), s == 5)
        sizes.pop()
    return leaves


def search_nodes(face_count, monkeypatch):
    """Run ``generate_fullerenes`` and return every node that its search
    expands, as (prefix, owners, vdeg, n2), with the carried n2.  The
    prefix is rebuilt from the calls: a node of j faces is a child of the
    expanding node of j - 1 faces, and the size of its last face, j - 1,
    is the k open edges it owns plus the ``b_parent + k - b`` it covered."""
    nodes = []
    path = []       # path[i]: (prefix, b) of the open node of i + 1 faces
    suffixes = spiral._suffixes

    def recording_suffixes(owners, vdeg, j, n2, *rest):
        b = len(owners)
        if j == 1:
            prefix = [b]
        else:
            parent, parent_b = path[j - 2]
            prefix = parent + [2 * owners.count(chr(j - 1)) + parent_b - b]
        del path[j - 1:]
        path.append((prefix, b))
        nodes.append((prefix, owners, vdeg, n2))
        return suffixes(owners, vdeg, j, n2, *rest)

    monkeypatch.setattr(spiral, "_suffixes", recording_suffixes)
    generate_fullerenes(face_count)
    monkeypatch.undo()
    return nodes


# nodes the search expands (``_suffixes`` calls, both roots) per face count,
# as counted when each node spliced its run once per child: cutting the run
# once per node must leave the search itself as it was, not only its output
SEARCH_NODES = {12: 11, 13: 63, 14: 260, 15: 763, 16: 2096, 17: 4720,
                18: 10394}


@pytest.mark.parametrize("fc", sorted(SEARCH_NODES))
def test_search_expands_the_same_nodes(fc, monkeypatch):
    assert len(search_nodes(fc, monkeypatch)) == SEARCH_NODES[fc]


@pytest.mark.parametrize("fc", range(12, 18))
def test_boundary_degree_identity_and_one_pass_run(fc, monkeypatch):
    # on the boundary of a pentagon/hexagon disk n2 - n3 = 6 - p5, and the
    # one-pass run choice agrees with the runs/run_faces reading
    states = {}

    def visit(pb, sizes):
        n2, n3 = pb.vdeg.count("2"), pb.vdeg.count("3")
        assert n2 + n3 == len(pb.owners)
        assert n2 - n3 == 6 - sizes.count(5)
        assert (_next_run(pb.owners, pb.vdeg, len(pb.cycles) - 1)
                == reference_next_run(pb))
        states[tuple(sizes)] = pb.owners, pb.vdeg

    reference_search(fc, visit)
    assert states
    # the search's own nodes: the n2 it carries down is the count, and its
    # boundary is the one a builder reaches on a prefix that reaches it by
    # gluing over the runs ``wind`` picks (the reference search glues over
    # ``reference_next_run``, equal to ``_next_run`` above), so the degree-2
    # cut reasons about the patches that ``wind`` builds
    searched = search_nodes(fc, monkeypatch)
    assert searched
    for prefix, owners, vdeg, n2 in searched:
        assert n2 == vdeg.count("2")
        assert (owners, vdeg) == states[tuple(prefix)]


@pytest.mark.parametrize("fc", range(12, 19))
def test_search_state_fixes_the_pentagon_count(fc, monkeypatch):
    # the memo key ``owners`` stands for the pentagon count that the cuts
    # read, by p5 = b - 2 n2 + 6 (the ``spiral`` docstring), and for the
    # depth, since the newest face owns its largest character, so keys of
    # different depths never collide in the one memo dict; and the memo
    # expands each state once per root size
    searched = search_nodes(fc, monkeypatch)
    assert searched
    for prefix, owners, vdeg, n2 in searched:
        assert prefix.count(5) == len(owners) - 2 * n2 + 6
        assert max(owners) == chr(len(prefix) - 1)
    keys = [(prefix[0], owners) for prefix, owners, _, _ in searched]
    assert len(set(keys)) == len(keys)


def test_search_memo_dies_with_the_call():
    # the memo goes when the call returns, by reference counting; a search
    # that kept it in a reference cycle would hold it until a full collection
    generate_fullerenes(14)
    gc.collect()
    gc.disable()
    try:
        generate_fullerenes(17)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("fc", range(12, 18))
def test_degree_two_cut_keeps_every_fullerene_sequence(fc, monkeypatch):
    seqs = [sizes for sizes in size_sequences(fc)
            if (m := wind(sizes)) is not None and m.is_fullerene()]
    for sizes in seqs:
        # the budget holds along the winding of every good sequence
        pb = PatchBuilder(sizes[0])
        for j in range(1, fc - 1):
            pb.glue(sizes[j],
                    *_next_run(pb.owners, pb.vdeg, len(pb.cycles) - 1))
            assert pb.vdeg.count("2") <= 2 * (fc - j - 2)
    # and the search reaches every good sequence it does not leave to its
    # reversal, so no prefix of one is ever cut
    wound = []

    def recording_wind(sizes):
        wound.append(list(sizes))
        return wind(sizes)

    monkeypatch.setattr(spiral, "wind", recording_wind)
    generate_fullerenes(fc)
    assert [s for s in seqs if s <= s[::-1]] == [
        s for s in wound if s in seqs]
    # the cut drops only leaves that the uncut search would reject
    uncut = [s for s in reference_search(fc) if s <= s[::-1]]
    assert set(map(tuple, wound)) <= set(map(tuple, uncut))
    assert all(wind(s) is None for s in uncut if s not in wound)


def hexagon_first_cut(prefix, face_count):
    """Whether the hexagon-first cut drops a prefix: it starts with a
    hexagon and leaves its other pentagons no place before the last face."""
    return (len(prefix) > 1 and prefix[0] == 6
            and 12 - prefix.count(5) > face_count - 1 - len(prefix))


@pytest.mark.parametrize("fc", range(12, 18))
def test_hexagon_first_cut_keeps_every_kept_sequence(fc, monkeypatch):
    # every sequence the uncut search winds and the mirror filter keeps
    # passes the cut at each of its prefixes
    reached = []
    leaves = reference_search(fc, lambda pb, sizes: reached.append(
        list(sizes)))
    kept = [s for s in leaves if s <= s[::-1] and wind(s) is not None]
    assert kept or fc == 13
    for s in kept:
        assert not any(hexagon_first_cut(s[:j], fc) for j in range(2, fc))
    # the search visits no prefix the cut drops, and the uncut search does
    # (at F = 12 the pentagon count alone already ends every hexagon start)
    visited = [prefix for prefix, *_ in search_nodes(fc, monkeypatch)]
    assert not any(hexagon_first_cut(p, fc) for p in visited)
    assert any(hexagon_first_cut(p, fc) for p in reached) == (fc > 12)


def test_only_kept_isomers_pay_for_a_mirror_word(monkeypatch):
    # a leaf that repeats a kept isomer is caught by one forward BFS word;
    # ``_class_words`` runs the mirror search of each kept isomer
    mirrored = []
    class_words = CombMap._class_words

    def recording_class_words(m, table, first):
        mirrored.append(m)
        return class_words(m, table, first)

    monkeypatch.setattr(CombMap, "_class_words", recording_class_words)
    wound = []

    def recording_wind(sizes):
        m = wind(sizes)
        if m is not None:
            wound.append(m)
        return m

    monkeypatch.setattr(spiral, "wind", recording_wind)
    for fc in range(12, 19):
        got = generate_fullerenes(fc)
        assert len(got) == SMALL_COUNTS[fc] and mirrored == got
        mirrored.clear()
    # 14 mirror searches for the 152 wound leaves of F = 12..18; a repeat
    # builds neither oriented word
    assert sum(SMALL_COUNTS.values()) == 14 and len(wound) == 152
    assert sum(m._words[1] is not None for m in wound) == 14
    assert all(m._words == [None, None] for m in wound if m._words[1] is None)


@pytest.mark.skipif(os.environ.get("FULLERKIT_SLOW") != "1",
                    reason="slow (about 35 s); set FULLERKIT_SLOW=1 to run")
def test_oracle_matches_growth_from_c42_to_c48():
    # 45, 89, 116 and 199 isomers at C42, C44, C46 and C48 (OEIS A007894,
    # which ``test_growth`` checks the growth enumeration against)
    grown = enumerate_maps(14)
    for fc in (23, 24, 25, 26):
        n = 2 * (fc - 2)
        want = {code for code, m in grown.items() if m.f0 == n}
        maps = generate_fullerenes(fc)
        got = {m.canonical_code() for m in maps}
        assert got == want and len(maps) == len(want)
