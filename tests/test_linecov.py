"""tools/linecov.py, run on one small test file."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "fullerkit")


def line_of(module, text):
    """The 1-based number of the line of ``module`` that reads ``text``."""
    with open(os.path.join(PACKAGE, module)) as fh:
        return fh.read().splitlines().index(text) + 1


def expand(ranges):
    lines = set()
    for part in ranges.split(", "):
        a, _, b = part.partition("-")
        lines.update(range(int(a), int(b or a) + 1))
    return lines


def test_linecov_lists_the_lines_a_run_never_reaches():
    result = subprocess.run(
        [sys.executable, os.path.join("tools", "linecov.py"), "-q",
         "-p", "no:cacheprovider", os.path.join("tests", "test_svg.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    *report, summary = result.stdout.splitlines()
    listed = {}
    for row in report:
        found = re.fullmatch(r"src/fullerkit/(\w+\.py): ([-\d, ]+)", row)
        if found:
            listed[found[1]] = expand(found[2])
    missed, total = map(int, re.fullmatch(
        r"(\d+) of (\d+) executable lines never ran", summary).groups())
    assert missed == sum(map(len, listed.values()))
    assert 0 < missed < total
    # the test file renders an SVG and never runs the command line
    assert line_of("svg.py", '    return "\\n".join(lines)') not in listed.get(
        "svg.py", set())
    assert line_of("cli.py", "    sys.exit(main())") in listed["cli.py"]
