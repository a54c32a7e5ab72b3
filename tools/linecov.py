"""Print the lines of ``src/fullerkit`` that a pytest run never executes.

Run ``python tools/linecov.py [pytest arguments]`` from the repository
root.  With no arguments pytest runs its configured test paths, the
Tier-1 suite.  The run happens in this process under ``sys.settrace``
(stdlib only; no coverage package is needed), so the package must not be
imported before it starts.  Afterwards the tool prints, per module, the
executable lines that never ran, as ranges, then the count over the
package, and exits with pytest's status.

A line is executable when a code object compiled from the module names it
in ``co_lines()``.  Lines that run only in another thread or a child
process are not seen.  Under trace Tier-1 runs about five times slower,
some minutes (330 s against 66 s on 2 cores with CPython 3.11); name test
files to trace a part of it.
"""

from __future__ import annotations

import os
import sys
from types import CodeType
from typing import Callable, Dict, Iterator, List, Optional, Set

import pytest

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE = os.path.join(ROOT, "src", "fullerkit")


def code_lines(code: CodeType) -> Iterator[int]:
    """The line numbers of ``code`` and of every code object inside it."""
    for _, _, line in code.co_lines():
        if line:    # None, or 0 for a module's first instruction
            yield line
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from code_lines(const)


def executable_lines(path: str) -> Set[int]:
    with open(path) as fh:
        return set(code_lines(compile(fh.read(), path, "exec")))


def ranges(lines: List[int]) -> str:
    """Sorted line numbers as ``a-b`` runs of consecutive lines."""
    runs: List[List[int]] = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in runs)


def main(argv: List[str]) -> int:
    modules = sorted(name for name in os.listdir(PACKAGE)
                     if name.endswith(".py"))
    reached: Dict[str, Set[int]] = {
        os.path.join(PACKAGE, name): set() for name in modules}
    # co_filename -> its line tracer, or None outside the package
    tracer_of: Dict[str, Optional[Callable]] = {}

    def tracer(hits: Set[int]) -> Callable:
        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line
        return line

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracer_of[filename]
        except KeyError:
            hits = reached.get(os.path.realpath(filename))
            local = tracer_of[filename] = (None if hits is None
                                           else tracer(hits))
            return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
    total = missed = 0
    for name in modules:
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        never = sorted(lines - reached[path])
        total += len(lines)
        missed += len(never)
        if never:
            print("src/fullerkit/%s: %s" % (name, ranges(never)))
    print("%d of %d executable lines never ran" % (missed, total))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
