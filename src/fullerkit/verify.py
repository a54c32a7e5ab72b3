"""Structure checks for fullerenes and for surgery intermediates.

Each check is executed by exhaustive search (face census, belt search) and
reports a witness when it fails, so a report can be re-checked in
isolation.
"""

from __future__ import annotations

from typing import List

from .belts import classify_five_belts, enclosed_faces, find_k_belts
from .maps import CombMap


class CheckResult:
    """One named verdict with an optional witness object."""

    def __init__(self, name: str, passed: bool, witness=None) -> None:
        self.name = name
        self.passed = passed
        self.witness = witness

    def __repr__(self) -> str:
        tail = "" if self.passed else " witness=%r" % (self.witness,)
        return "CheckResult(%s, %s%s)" % (self.name,
                                          "pass" if self.passed else "FAIL",
                                          tail)


class TheoremReport:
    """A bundle of named check verdicts."""

    def __init__(self, checks: List[CheckResult]) -> None:
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __repr__(self) -> str:
        return "TheoremReport(%s)" % ", ".join(map(repr, self.checks))


def _no_belts(k: int, belts: List[List[int]]) -> CheckResult:
    """``no-<k>-belts``, with the first belt as witness."""
    return CheckResult("no-%d-belts" % k, not belts, belts[0] if belts else None)


def verify_fullerene(m: CombMap) -> TheoremReport:
    """Fullerene contract: face census, pentagon count, belt structure.

    Checks: all faces pentagons or hexagons; exactly 12 pentagons; no
    3-belts (the map is flag); no 4-belts; every 5-belt either surrounds a
    single pentagon or is a ring of hexagons each meeting its belt
    neighbours along opposite edges.
    """
    checks: List[CheckResult] = []
    fv = m.face_vector()
    bad_sizes = sorted(set(fv) - {5, 6})
    checks.append(CheckResult("face-sizes", not bad_sizes, bad_sizes or None))
    checks.append(CheckResult("twelve-pentagons", fv.get(5, 0) == 12,
                              fv.get(5, 0)))
    checks.append(_no_belts(3, find_k_belts(m, 3)))
    checks.append(_no_belts(4, find_k_belts(m, 4)))
    if all(c.passed for c in checks):
        five = classify_five_belts(m)
        bad = [b for b, kind in zip(five.belts, five.kinds) if kind is None]
        checks.append(CheckResult("five-belt-kinds", not bad,
                                  bad[0] if bad else None))
    return TheoremReport(checks)


def verify_intermediate(m: CombMap) -> TheoremReport:
    """Contract for polytopes between fullerenes in a growth script.

    Checks: all faces pentagons or hexagons except at most one quadrangle
    or heptagon; no 3-belts; exactly one 4-belt when a quadrangle is
    present (and it surrounds the quadrangle), none otherwise.
    """
    checks: List[CheckResult] = []
    fv = m.face_vector()
    bad_sizes = sorted(set(fv) - {4, 5, 6, 7})
    exceptional = fv.get(4, 0) + fv.get(7, 0)
    checks.append(CheckResult("face-sizes", not bad_sizes, bad_sizes or None))
    checks.append(CheckResult("one-exceptional", exceptional <= 1,
                              {s: fv.get(s, 0) for s in (4, 7)}))
    checks.append(_no_belts(3, find_k_belts(m, 3)))
    belts4 = find_k_belts(m, 4)
    if fv.get(4, 0) == 1:
        quad = next(f for f in range(m.f2) if m.face_size(f) == 4)
        ok = len(belts4) == 1 and quad in enclosed_faces(m, belts4[0])
        checks.append(CheckResult("one-4-belt-surrounds-quad", ok,
                                  belts4))
    else:
        checks.append(_no_belts(4, belts4))
    return TheoremReport(checks)
