"""The four benchmark workloads: inputs, one timed pass, and its checks.

Each workload has a ``setup(seed, size)`` that builds every input (and the
expected outputs the checks compare against) and a ``run_pass(state, rec)``
that does one timed pass.  ``rec`` is a context-manager factory that the
tracer uses to record only the program's own work, not the checks;
``clock`` reads the seconds at which each item starts and ends (the gauge's
work clock, which leaves out its own kernel runs).

- ``grow``: ``enumerate_maps(max_p6)`` from the dodecahedron, the paper's
  headline computation.  Items are isomers emitted.
- ``oracle``: ``generate_fullerenes(fc)`` over a fixed face-count range, the
  independent cross-check.  Items are isomers emitted.
- ``analyze``: decode a seeded planar_code corpus into fresh maps and run
  every read-side analysis on each map.  Items are maps analysed.
- ``surgery``: seeded truncate/straighten round trips on the same corpus.
  Items are round trips.

Isomer counts are checked against OEIS A007894; corpus analyses against
the codes and family parameters recorded at setup; round trips by
isomorphism and flag polarity.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from typing import (Callable, ContextManager, Dict, List, NamedTuple,
                    Optional, Tuple)

from fullerkit import belts, growth, planarcode, spiral, surgery, verify

# OEIS A007894: fullerene isomers with n vertices, mirror images identified.
A007894 = {20: 1, 22: 0, 24: 1, 26: 1, 28: 2, 30: 3, 32: 6, 34: 6, 36: 15,
           38: 17, 40: 40, 42: 45, 44: 89}

SIZES = {
    "full": {"max_p6": 10, "faces": (12, 18), "corpus": 100, "n_max": 200,
             "families": 5, "chain": 8, "trips": 200},
    "tiny": {"max_p6": 4, "faces": (12, 15), "corpus": 5, "n_max": 60,
             "families": 1, "chain": 3, "trips": 10},
}

Rec = Callable[[], ContextManager[None]]
Clock = Callable[[], float]


class PassResult(NamedTuple):
    items: int                 # items attempted; isomers are expected ones
    failed: int
    item_times: List[Tuple[float, float]]  # clock at each item's start
                                           # and end; empty if not per item
    digest: str                # hash of every output the checks looked at
    counts: Dict[str, int]     # workload-level counts for the trace
    errors: List[str]


class Entry(NamedTuple):
    blob: bytes                # planar_code stream holding this map alone
    code: bytes                # canonical code at setup
    n: int
    family_one_k: Optional[int]
    map: object                # the map encoded, its canonical code cached


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:16]


# -- grow and oracle --------------------------------------------------------

def _check_isomers(by_code: Dict[bytes, object], want: Dict[int, int],
                   errors: List[str]) -> int:
    """Misses against OEIS counts, plus non-fullerenes and code clashes."""
    got = Counter(m.f0 for m in by_code.values())
    failed = 0
    for n in sorted(set(got) | set(want)):
        if got.get(n, 0) != want.get(n, 0):
            failed += abs(got.get(n, 0) - want.get(n, 0))
            errors.append("C%d: %d isomers, expected %d"
                          % (n, got.get(n, 0), want.get(n, 0)))
    for code, m in by_code.items():
        if not m.is_fullerene() or m.canonical_code() != code:
            failed += 1
            errors.append("bad isomer with %d vertices" % m.f0)
    return failed


def grow_setup(seed: int, size: str) -> dict:
    growth.load_rules()
    max_p6 = SIZES[size]["max_p6"]
    want = {n: c for n, c in A007894.items() if n <= 20 + 2 * max_p6}
    return {"max_p6": max_p6, "want": want, "corpus_n": None}


def grow_pass(st: dict, rec: Rec, clock: Clock) -> PassResult:
    errors: List[str] = []
    try:
        with rec():
            maps = growth.enumerate_maps(st["max_p6"])
    except Exception as exc:  # a pass that raises misses every isomer
        maps = {}
        errors.append("%s: %s" % (type(exc).__name__, exc))
    failed = _check_isomers(maps, st["want"], errors)
    attempted = max(len(maps), sum(st["want"].values()))
    return PassResult(attempted, min(failed, attempted), [],
                      _digest(sorted(maps)), {"growth.novel": len(maps) - 1},
                      errors)


def oracle_setup(seed: int, size: str) -> dict:
    lo, hi = SIZES[size]["faces"]
    want = {2 * (fc - 2): A007894[2 * (fc - 2)] for fc in range(lo, hi + 1)}
    return {"faces": range(lo, hi + 1), "want": want, "corpus_n": None}


def oracle_pass(st: dict, rec: Rec, clock: Clock) -> PassResult:
    found: Dict[bytes, object] = {}
    emitted = 0
    errors: List[str] = []
    try:
        with rec():
            for fc in st["faces"]:
                for m in spiral.generate_fullerenes(fc):
                    found[m.canonical_code()] = m
                    emitted += 1
    except Exception as exc:  # a pass that raises misses what it lacks
        errors.append("%s: %s" % (type(exc).__name__, exc))
    failed = _check_isomers(found, st["want"], errors) + emitted - len(found)
    attempted = max(emitted, sum(st["want"].values()))
    return PassResult(attempted, min(failed, attempted), [],
                      _digest(sorted(found)), {}, errors)


# -- the seeded corpus ------------------------------------------------------

def _targets(count: int, n_max: int) -> List[int]:
    """Fixed, even vertex counts from 20 to about ``n_max``.

    Sizes below 36, which have few isomers, are asked for once each (22,
    which has none, not at all), so that growth chains need not overshoot
    them; from 36 sizes rise by two vertices every three maps, and then
    cubically up to ``n_max``.  The targets do not depend on the seed, so
    every seed's corpus has about the same size mix and work.
    """
    ramp = [n for n in range(20, 36, 2) if A007894[n]]
    ramp += [36 + 2 * (i // 3) for i in range(count)]
    half = (n_max - 20) // 2
    return [max(ramp[i], 20 + 2 * round(half * ((i + 0.5) / count) ** 3))
            for i in range(count)]


def _grow_step(m, rng: random.Random, rules, limit: int):
    """One random growth step; rules that stay within ``limit`` vertices
    are tried first, so that chains hit their target sizes."""
    order = list(rules)
    rng.shuffle(order)
    order.sort(key=lambda rule: m.f0 + 2 * rule.delta_p6 > limit)
    for rule in order:
        sites = growth.match_pattern(m, rule.lhs)
        if sites:
            return growth.apply_rule(m, rule, rng.choice(sites))
    return None


def build_corpus(seed: int, size: str) -> List[Entry]:
    """Nanotube members of both families plus random growth chains.

    Each family takes every tenth target size, about; the rest are
    snapshots of seeded growth chains from the dodecahedron, one map per
    fixed target vertex count (the first new isomer at or past it).  Vertex counts run
    from 20 to about ``n_max`` (always below 256).  No two entries are
    isomorphic.
    """
    cfg = SIZES[size]
    rng = random.Random(seed)
    rules = growth.load_rules()
    targets = _targets(cfg["corpus"], cfg["n_max"])
    out: List[Entry] = []
    codes = set()

    def add(m, family_one_k: Optional[int] = None) -> bool:
        code = m.canonical_code()
        if code in codes:
            return False
        codes.add(code)
        out.append(Entry(planarcode.write_planar_code([m]), code, m.f0,
                         family_one_k, m))
        return True

    step = cfg["corpus"] // (2 * cfg["families"])
    fams = targets[step // 2::step][:2 * cfg["families"]]
    for i, n in enumerate(fams):
        if i % 2 == 0:
            added = add(growth.seed_family_one((n - 20) // 10), (n - 20) // 10)
        else:
            added = add(growth.seed_family_two(1 + (n - 20) // 6))
        if added:
            targets.remove(n)
    # interleaved groups, so every chain spans the whole size range
    groups = max(1, len(targets) // cfg["chain"])
    for g in range(groups):
        m = growth.seed_dodecahedron()
        for n in targets[g::groups]:
            while m is not None and (m.f0 < n or not add(m)):
                m = _grow_step(m, rng, rules, n)
            if m is None:
                raise RuntimeError("growth chain reached a dead end")
    return out


# -- analyze and surgery ----------------------------------------------------

def analyze_setup(seed: int, size: str) -> dict:
    corpus = build_corpus(seed, size)
    return {"corpus": corpus, "corpus_n": [e.n for e in corpus]}


def analyze_pass(st: dict, rec: Rec, clock: Clock) -> PassResult:
    """Decode each map, analyse it with cold caches, and write it back."""
    times: List[Tuple[float, float]] = []
    outputs = []
    errors: List[str] = []
    failed = 0
    for i, e in enumerate(st["corpus"]):
        t0 = clock()
        try:
            with rec():
                m = planarcode.read_planar_code(e.blob)[0]
                code = m.canonical_code()
                report = verify.verify_fullerene(m)
                five = belts.classify_five_belts(m)
                sites = growth.detect_growth_rules(m)
                blob = planarcode.write_planar_code([m])
            kinds = Counter(five.kinds)
            problems = []
            if code != e.code:
                problems.append("canonical code changed")
            if not report.passed:
                problems.append("verify failed: %r" % report.failures())
            if kinds["pentagon"] != 12:
                problems.append("%d pentagon belts" % kinds["pentagon"])
            if e.family_one_k is not None and five.count != 12 + e.family_one_k:
                problems.append("%d five-belts, expected %d"
                                % (five.count, 12 + e.family_one_k))
            if bool(sites) != (e.n != 20):
                problems.append("%d growth sites" % len(sites))
            if blob != e.blob:
                problems.append("planar_code round trip changed the bytes")
        except Exception as exc:  # an item that raises counts as failed
            problems = ["%s: %s" % (type(exc).__name__, exc)]
        times.append((t0, clock()))
        if problems:
            failed += 1
            errors.append("map %d (n=%d): %s" % (i, e.n, "; ".join(problems)))
            outputs.append(None)
        else:
            outputs.append((code, five.count, kinds["hexagon ring"],
                            len(sites)))
    return PassResult(len(st["corpus"]), failed, times, _digest(outputs), {},
                      errors)


def surgery_setup(seed: int, size: str) -> dict:
    cfg = SIZES[size]
    corpus = build_corpus(seed, size)
    maps = [e.map for e in corpus]  # codes cached: the check costs no search
    rng = random.Random("%d:surgery" % seed)
    trips = []
    for t in range(cfg["trips"]):
        i = t % len(maps)           # every map equally often: steady work
        m = maps[i]
        d = rng.choice(m.edge_darts())
        k = m.face_size(m.face_of[d])
        trips.append((i, d, rng.randrange(0, k - 1), k))
    return {"maps": maps, "trips": trips, "corpus_n": [e.n for e in corpus]}


def surgery_pass(st: dict, rec: Rec, clock: Clock) -> PassResult:
    """Truncate, straighten back, and check isomorphism and flag polarity.

    Every input is a fullerene and so flag (no 3-belts; ``analyze`` checks
    this on the same corpus), hence the truncated map must be flag exactly
    when the cut is not next to a corner: ``0 < s < k - 2``.
    """
    times: List[Tuple[float, float]] = []
    outputs = []
    errors: List[str] = []
    failed = 0
    for i, d, s, k in st["trips"]:
        m = st["maps"][i]
        t0 = clock()
        try:
            with rec():
                res = surgery.truncate(m, surgery.TruncationSpec(m, d, s))
                back = surgery.straighten(res.map, res.new_edge)
                same = back.map.canonical_code() == m.canonical_code()
                flag = surgery.is_flag(res.map)
            problems = []
            if not same:
                problems.append("round trip is not isomorphic to its input")
            if flag != (0 < s < k - 2):
                problems.append("flag polarity broken")
        except Exception as exc:  # an item that raises counts as failed
            problems = ["%s: %s" % (type(exc).__name__, exc)]
        times.append((t0, clock()))
        if problems:
            failed += 1
            errors.append("trip on map %d, dart %d, s=%d: %s"
                          % (i, d, s, "; ".join(problems)))
            outputs.append(None)
        else:
            outputs.append((res.map.f0, flag))
    return PassResult(len(st["trips"]), failed, times, _digest(outputs), {},
                      errors)


WORKLOADS = {
    "grow": (grow_setup, grow_pass),
    "oracle": (oracle_setup, oracle_pass),
    "analyze": (analyze_setup, analyze_pass),
    "surgery": (surgery_setup, surgery_pass),
}

# Layers each workload is meant to exercise: zero calls there is a failure.
EXERCISED = {
    "grow": ("maps.canonical_code", "maps.from_rotations",
             "patterns.match_pattern", "growth.apply_rule", "surgery.truncate"),
    "oracle": ("spiral.generate_fullerenes", "spiral.wind", "winding.glue",
               "maps.from_face_cycles", "maps.validate", "maps.canonical_code"),
    "analyze": ("planarcode.read", "planarcode.write", "maps.canonical_code",
                "verify.verify_fullerene", "belts.classify_five_belts",
                "belts.find_k_belts.k3", "belts.find_k_belts.k4",
                "belts.find_k_belts.k5", "growth.detect_growth_rules",
                "patterns.match_pattern"),
    "surgery": ("surgery.truncate", "surgery.straighten",
                "surgery.can_straighten", "belts.find_k_belts.k3",
                "maps.canonical_code", "maps.from_rotations"),
}
