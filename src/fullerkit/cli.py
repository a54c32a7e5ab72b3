"""Command-line interface.

Subcommands pipe planar_code streams through stdin/stdout (or --in/--out),
so generation, growth, verification and rendering compose with ordinary
shell pipelines; gen and enumerate read no maps and take only
--out.  Exit codes: 0 success / all checks passed, 1 a check or operation
failed or the input was malformed (one line on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .belts import NotFullerene
from .growth import (NegativeParameter, NotAMatch, ResultNotFullerene,
                     _require_fullerene, _rewrite, enumerate_maps,
                     rules_by_id, seed)
from .maps import CombMap, MapError
from .patterns import match_pattern
from .planarcode import (BadHeader, TruncatedRecord, ValidationFailure,
                         read_planar_code, write_planar_code)
from .rulefile import RuleFileError, parse_file
from .surgery import IsSimplex, NotDefined
from .svg import render_svg
from .verify import verify_fullerene, verify_intermediate


class CliFailure(Exception):
    """Operation failed on otherwise valid input (exit code 1)."""


ERRORS = (CliFailure, BadHeader, TruncatedRecord, ValidationFailure, MapError,
          NegativeParameter, NotAMatch, NotFullerene, ResultNotFullerene,
          NotDefined, IsSimplex, RuleFileError)


def _read_file(path: str, mode: str):
    """The whole file, or CliFailure if it cannot be opened or decoded."""
    try:
        with open(path, mode) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliFailure("cannot read %s: %s"
                         % (path, getattr(exc, "strerror", None) or exc))


def _write_file(path: str, mode: str, data) -> None:
    """Write the whole file, or CliFailure if it cannot be opened."""
    try:
        with open(path, mode) as fh:
            fh.write(data)
    except OSError as exc:
        raise CliFailure("cannot write %s: %s" % (path, exc.strerror or exc))


def _read_maps(args) -> List[CombMap]:
    if args.infile:
        return read_planar_code(_read_file(args.infile, "rb"))
    return read_planar_code(sys.stdin.buffer.read())


def _write(data, args) -> None:
    """Bytes or text to --out, or else to standard output."""
    binary = isinstance(data, bytes)
    if args.outfile:
        _write_file(args.outfile, "wb" if binary else "w", data)
    else:
        (sys.stdout.buffer if binary else sys.stdout).write(data)


def _site(m: CombMap, args, inverse: bool = False):
    """The (rule, match) pair numbered ``args.site`` among the sites of the
    LHS patterns of rule ``args.rule``, or of its RHS patterns when
    ``inverse``.  Raises NotFullerene, as the rule itself would, before any
    site is picked, so that a map with no sites is blamed and not the
    index."""
    _require_fullerene(m, args.rule, inverse)
    sites = [(rule, at)
             for rule in sorted(rules_by_id(args.rule), key=lambda r: r.key)
             for at in match_pattern(m, rule.rhs if inverse else rule.lhs)]
    if not 0 <= args.site < len(sites):
        raise CliFailure("%s site %d out of range (found %d)"
                         % ("inversion" if inverse else "growth", args.site,
                            len(sites)))
    return sites[args.site]


def cmd_gen(args) -> int:
    family = {"dodeca": "dodecahedron", "barrel": "barrel",
              "one": "family_one", "two": "family_two"}[args.family]
    if args.k is not None and args.family in ("dodeca", "barrel"):
        print("fullerkit: --k applies only to --family one and two",
              file=sys.stderr)
        return 2
    _write(write_planar_code([seed(family, args.k or 0)], sort=False), args)
    return 0


def cmd_grow(args) -> int:
    """grow, and invert: the growth operation read in either direction."""
    inverse = args.command == "invert"
    out = [_rewrite(m, *_site(m, args, inverse), inverse)[1]
           for m in _read_maps(args)]
    _write(write_planar_code(out, sort=False), args)
    return 0


def cmd_enumerate(args) -> int:
    maps = enumerate_maps(args.max_p6)
    _write(write_planar_code(maps.values(), sort=True), args)
    return 0


def cmd_verify(args) -> int:
    check = verify_intermediate if args.intermediate else verify_fullerene
    lines = []
    ok = True
    for i, m in enumerate(_read_maps(args)):
        report = check(m)
        if report.passed:
            lines.append("record %d: PASS" % i)
        else:
            ok = False
            fails = "; ".join("%s (witness %r)" % (c.name, c.witness)
                              for c in report.failures())
            lines.append("record %d: FAIL %s" % (i, fails))
    _write("".join(line + "\n" for line in lines), args)
    return 0 if ok else 1


def cmd_decompose(args) -> int:
    maps = _read_maps(args)
    if len(maps) != 1:
        raise CliFailure("decompose expects exactly one input map")
    m = maps[0]
    steps, out = _rewrite(m, *_site(m, args), False)
    for i, (_, spec) in enumerate(steps):
        print("step %d: cut %d-gon face %d along %d edges, signature %r"
              % (i, spec.k, spec.face, spec.s + 2, spec.signature),
              file=sys.stderr)
    _write(write_planar_code([before for before, _ in steps] + [out],
                             sort=False), args)
    return 0


def cmd_canon(args) -> int:
    codes = sorted((m.f0, m.canonical_code()) for m in _read_maps(args))
    _write("".join(c.hex() + "\n" for _, c in codes), args)
    return 0


def cmd_match(args) -> int:
    patterns, rules = parse_file(_read_file(args.pattern, "r"))
    if not patterns:
        patterns = {"lhs:" + r.key: r.lhs for r in rules}
    if not patterns:
        raise CliFailure("%s defines no patterns" % args.pattern)
    lines = []
    for i, m in enumerate(_read_maps(args)):
        for name in sorted(patterns):
            found = match_pattern(m, patterns[name])
            lines.append("record %d pattern %s: %d matches"
                         % (i, name, len(found)))
    _write("".join(line + "\n" for line in lines), args)
    return 0


def cmd_render(args) -> int:
    maps = _read_maps(args)
    if len(maps) != 1:
        raise CliFailure("render expects exactly one input map")
    m = maps[0]
    if not 0 <= args.outer < m.f2:
        raise CliFailure("outer face %d out of range (map has %d faces)"
                         % (args.outer, m.f2))
    _write(render_svg(m, outer=args.outer), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fullerkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("--out", dest="outfile", default=None,
                        help="write output to this file, not stdout")

    def common(sp):
        sp.add_argument("--in", dest="infile", default=None,
                        help="read planar_code from this file, not stdin")
        output(sp)

    def rule_command(name, help, func):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--rule", required=True, choices=list("abcdefg"))
        sp.add_argument("--site", type=int, default=0)
        common(sp)
        sp.set_defaults(func=func)

    sp = sub.add_parser("gen", help="emit a seed fullerene")
    sp.add_argument("--family", required=True,
                    choices=["dodeca", "barrel", "one", "two"])
    sp.add_argument("--k", type=int, default=None,
                    help="size of family one or two (default 0)")
    output(sp)
    sp.set_defaults(func=cmd_gen)

    rule_command("grow", "apply a growth operation", cmd_grow)

    sp = sub.add_parser("enumerate", help="closure of the dodecahedron")
    sp.add_argument("--max-p6", type=int, required=True)
    output(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("verify", help="check the fullerene contract")
    sp.add_argument("--intermediate", action="store_true",
                    help="check the surgery-intermediate contract instead")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    rule_command("decompose", "emit a rule's single-cut intermediates",
                 cmd_decompose)
    rule_command("invert", "undo a growth operation", cmd_grow)

    sp = sub.add_parser("canon", help="emit canonical codes (hex)")
    common(sp)
    sp.set_defaults(func=cmd_canon)

    sp = sub.add_parser("match", help="count pattern occurrences")
    sp.add_argument("--pattern", required=True,
                    help="pattern/rule file to match")
    common(sp)
    sp.set_defaults(func=cmd_match)

    sp = sub.add_parser("render", help="render one map as SVG")
    sp.add_argument("--outer", type=int, default=0,
                    help="face id to use as the outer face")
    common(sp)
    sp.set_defaults(func=cmd_render)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ERRORS as exc:
        print("fullerkit: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
