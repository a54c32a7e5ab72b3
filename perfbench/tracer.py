"""Span tracer that wraps fullerkit's public functions from outside the package.

Every public function of a layer module is wrapped in every ``fullerkit.*``
namespace that binds the same function object (``growth`` binds
``match_pattern``, ``truncate``, ``straighten`` and ``wind`` by name;
``surgery`` and ``verify`` both bind ``find_k_belts``), and the public methods
of ``CombMap`` and ``PatchBuilder`` are wrapped on the class.  Spans are
aggregated per name in memory: call count, total time, self time (total minus
the time of child spans) and a few per-function counters.  ``remove`` puts
every original attribute back and checks that none was missed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

LAYERS = ("maps", "patterns", "growth", "surgery", "belts", "verify",
          "spiral", "winding", "planarcode", "rulefile")

# O(1) accessors: one index expression each, so a span would cost more than
# the call and would be charged to the caller's self time.
ACCESSORS = frozenset(("head", "tail", "next_dart", "prev_dart", "face_next",
                       "dart", "face_size"))

SPAN_ALIASES = {
    "planarcode.read_planar_code": "planarcode.read",
    "planarcode.write_planar_code": "planarcode.write",
}


class Stats:
    __slots__ = ("calls", "errors", "total_s", "self_s", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.errors = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters: Dict[str, int] = {}

    def as_dict(self) -> Dict[str, float]:
        out = {"calls": self.calls, "errors": self.errors,
               "total_s": self.total_s, "self_s": self.self_s}
        out.update(self.counters)
        return out


def _count_matches(args, kwargs, result) -> Dict[str, int]:
    return {"matches": len(result), "hits": int(bool(result))}


def _count_closed(args, kwargs, result) -> Dict[str, int]:
    return {"closed": int(result is not None)}


def _count_read_bytes(args, kwargs, result) -> Dict[str, int]:
    src = args[0] if args else kwargs["src"]
    return {"bytes": len(src) if isinstance(src, bytes) else 0}


def _count_written_bytes(args, kwargs, result) -> Dict[str, int]:
    return {"bytes": len(result)}


OBSERVERS: Dict[str, Callable] = {
    "patterns.match_pattern": _count_matches,
    "spiral.wind": _count_closed,
    "planarcode.read": _count_read_bytes,
    "planarcode.write": _count_written_bytes,
}


def _belt_label(name: str) -> Callable:
    def label(args, kwargs) -> str:
        k = args[1] if len(args) > 1 else kwargs["k"]
        return "%s.k%d" % (name, k)
    return label


LABELERS: Dict[str, Callable] = {
    "belts.find_k_belts": _belt_label("belts.find_k_belts"),
}


class Tracer:
    """Installs span wrappers, records while enabled, restores on removal."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.stats: Dict[str, Stats] = {}
        self.enabled = False
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, object] = {}

    # -- recording ----------------------------------------------------------

    @contextmanager
    def recording(self) -> Iterator[None]:
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def take(self, scale: float = 1.0) -> Dict[str, Dict[str, float]]:
        """Aggregated spans recorded so far, times multiplied by ``scale``,
        then reset."""
        out = {name: s.as_dict() for name, s in sorted(self.stats.items())}
        for row in out.values():
            row["total_s"] *= scale
            row["self_s"] *= scale
        self.stats = {}
        return out

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        labeler = LABELERS.get(name)
        stack = self._stack
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = labeler(args, kwargs) if labeler else name
            frame = [0.0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = tracer.stats.get(label)
                if s is None:
                    s = tracer.stats[label] = Stats()
                s.calls += 1
                s.total_s += dt
                s.self_s += dt - frame[0]
                if not ok:
                    s.errors += 1
            if observe is not None:
                for key, v in observe(args, kwargs, result).items():
                    s.counters[key] = s.counters.get(key, 0) + v
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> int:
        """Wrap every binding; returns the number of attributes replaced."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        from fullerkit.maps import CombMap
        from fullerkit.winding import PatchBuilder
        modules = _fullerkit_modules()
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules["fullerkit." + layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = SPAN_ALIASES.get("%s.%s" % (layer, attr),
                                        "%s.%s" % (layer, attr))
                wrappers[id(obj)] = self._wrap(name, obj)
                self._originals[id(obj)] = obj
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and self._originals[id(obj)] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for cls, layer in ((CombMap, "maps"), (PatchBuilder, "winding")):
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") or attr in ACCESSORS:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    fn = raw.__func__
                    wrapped = type(raw)(self._wrap("%s.%s" % (layer, attr), fn))
                elif inspect.isfunction(raw):
                    fn = raw
                    wrapped = self._wrap("%s.%s" % (layer, attr), fn)
                else:
                    continue
                self._originals[id(fn)] = fn
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
        self._check_no_original_left(modules)
        return len(self._saved)

    def remove(self) -> None:
        """Restore every wrapped attribute and check that none is left."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        for mod in _fullerkit_modules():
            for attr, obj in vars(mod).items():
                if getattr(obj, "__wrapped__", None) is not None and \
                        id(obj.__wrapped__) in self._originals:
                    raise RuntimeError("wrapper left at %s.%s"
                                       % (mod.__name__, attr))
        self._originals = {}

    def _check_no_original_left(self, modules) -> None:
        for mod in modules:
            for attr, obj in vars(mod).items():
                if id(obj) in self._originals and \
                        self._originals[id(obj)] is obj:
                    raise RuntimeError("binding %s.%s was not wrapped"
                                       % (mod.__name__, attr))


def _fullerkit_modules() -> List[object]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fullerkit"
                                  or name.startswith("fullerkit."))]


def span_value(spans: Dict[str, Dict[str, float]], span: str,
               field: str) -> float:
    return spans.get(span, {}).get(field, 0)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def largest_self(spans: Dict[str, Dict[str, float]]) -> str:
    return max(spans, key=lambda n: spans[n]["self_s"]) if spans else ""
