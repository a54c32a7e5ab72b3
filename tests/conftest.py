import random

import pytest

from fullerkit.growth import (seed_barrel, seed_dodecahedron, seed_family_one,
                              seed_family_two)
from fullerkit.maps import CombMap
from fullerkit.surgery import TruncationSpec, truncate


def tetrahedron():
    return CombMap.from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def prism(n):
    """Two n-gons joined by a ring of n quadrangles (n = 4: the cube)."""
    rot = [[(i + 1) % n, (i - 1) % n, i + n] for i in range(n)]
    rot += [[(i - 1) % n + n, (i + 1) % n + n, i] for i in range(n)]
    return CombMap.from_rotations(rot)


def disjoint_union_rotations(a, b):
    return ([list(r) for r in a.rotations]
            + [[w + a.f0 for w in r] for r in b.rotations])


def two_edge_join(a, b, da=0, db=0):
    """Edge u1-v1 of ``a`` and edge u2-v2 of ``b`` replaced by u1-u2 and
    v1-v2: a map with a 2-edge cut."""
    rot = disjoint_union_rotations(a, b)
    u1, v1 = a.tail(da), a.head(da)
    u2, v2 = b.tail(db) + a.f0, b.head(db) + a.f0
    for x, old, new in ((u1, v1, u2), (v1, u1, v2), (u2, v2, u1),
                        (v2, u2, v1)):
        rot[x][rot[x].index(old)] = new
    return CombMap.from_rotations(rot)


def bridged(a, b, da=0, db=0):
    """One edge of each map subdivided and the two new vertices joined: a
    map with a bridge."""
    rot = disjoint_union_rotations(a, b)
    x, y = a.f0 + b.f0, a.f0 + b.f0 + 1
    ends = []
    for (u, v), s in (((a.tail(da), a.head(da)), x),
                      ((b.tail(db) + a.f0, b.head(db) + a.f0), y)):
        rot[u][rot[u].index(v)] = s
        rot[v][rot[v].index(u)] = s
        ends.append([u, v])
    rot.append(ends[0] + [y])
    rot.append(ends[1] + [x])
    return CombMap.from_rotations(rot)


@pytest.fixture(scope="session")
def dodecahedron():
    return seed_dodecahedron()


@pytest.fixture(scope="session")
def barrel():
    return seed_barrel()


@pytest.fixture(scope="session")
def small_fullerenes():
    """A deterministic mixed bag of small fullerenes for property tests."""
    out = [seed_dodecahedron(), seed_barrel()]
    out += [seed_family_one(k) for k in (1, 2, 3)]
    out += [seed_family_two(k) for k in (1, 2, 3)]
    return out


@pytest.fixture()
def rng():
    return random.Random(20260823)


@pytest.fixture(scope="session")
def polytopes(small_fullerenes):
    """3-connected maps with belts of every length 3..6: the tetrahedron,
    prisms (the cube among them), small fullerenes, and s = 0 and s = 1
    truncations, whose cuts make 3-belts and 4-belts."""
    out = [tetrahedron()] + [prism(n) for n in range(3, 9)]
    out += small_fullerenes
    for m in [prism(5), prism(6)] + small_fullerenes:
        for s in (0, 1):
            out.append(truncate(m, TruncationSpec(m, 0, s)).map)
    return out


@pytest.fixture(scope="session")
def joined_maps(dodecahedron):
    """Maps that are not 3-connected: two dodecahedra across a 2-edge cut,
    and two tetrahedra across a bridge."""
    return [two_edge_join(dodecahedron, dodecahedron),
            bridged(tetrahedron(), tetrahedron())]


@pytest.fixture(scope="session")
def joined_intermediate(dodecahedron):
    """A one-quadrangle intermediate joined to a dodecahedron across a
    2-edge cut: its 4-belt region has three boundary cycles, not two."""
    cut = truncate(dodecahedron, TruncationSpec(dodecahedron, 0, 1)).map
    return two_edge_join(cut, dodecahedron)
